//! The key-support domain: which key bits each node transitively depends
//! on (a bitset per node) and whether it also depends on any data input. A
//! node with key support but no data dependence is a *key-only* node — the
//! shape a hardwired key guard takes.

use crate::domain::{forward, Domain, ForwardDomain};
use crate::keys::KeyMap;
use kratt_netlist::Aig;

/// The support of one node: the key bits it depends on and whether any
/// data input reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deps {
    /// Key-bit bitset, one bit per key input in declaration order (or per
    /// tracked input, see [`SupportDomain::for_positions`]).
    pub keys: Vec<u64>,
    /// Whether any non-key (untracked) primary input reaches the node.
    pub data: bool,
}

/// The key-support domain. Support only ever grows through AND nodes and
/// is invariant under complement, so `join` and `and` coincide (union).
pub struct SupportDomain {
    words: usize,
    key_of_input: Vec<Option<usize>>,
}

impl SupportDomain {
    /// A domain recognising the key inputs of `aig` by name.
    pub fn for_aig(aig: &Aig) -> Self {
        let map = KeyMap::from_aig(aig);
        SupportDomain {
            words: map.words(),
            key_of_input: map.key_of_input,
        }
    }

    /// A domain tracking an arbitrary set of primary inputs by position:
    /// bit `i` of [`Deps::keys`] stands for input position `tracked[i]` and
    /// every other input counts as data. This seeds the same one-pass
    /// support analysis with any input class — e.g. the protected primary
    /// inputs of a locked subcircuit — instead of the `keyinput*` names.
    ///
    /// # Panics
    ///
    /// Panics if a tracked position is not below `num_inputs`.
    pub fn for_positions(num_inputs: usize, tracked: &[usize]) -> Self {
        let mut key_of_input = vec![None; num_inputs];
        for (bit, &position) in tracked.iter().enumerate() {
            key_of_input[position] = Some(bit);
        }
        SupportDomain {
            words: tracked.len().div_ceil(64),
            key_of_input,
        }
    }

    fn union(&self, a: &Deps, b: &Deps) -> Deps {
        Deps {
            keys: a.keys.iter().zip(&b.keys).map(|(x, y)| x | y).collect(),
            data: a.data || b.data,
        }
    }
}

impl Domain for SupportDomain {
    type Value = Deps;

    fn bottom(&self) -> Deps {
        Deps {
            keys: vec![0; self.words],
            data: false,
        }
    }

    fn top(&self) -> Deps {
        Deps {
            keys: vec![!0u64; self.words],
            data: true,
        }
    }

    fn join(&self, a: &Deps, b: &Deps) -> Deps {
        self.union(a, b)
    }
}

impl ForwardDomain for SupportDomain {
    fn constant(&self, _value: bool) -> Deps {
        self.bottom()
    }

    fn input(&self, _node: u32, index: usize) -> Deps {
        let mut deps = self.bottom();
        match self.key_of_input[index] {
            Some(k) => deps.keys[k / 64] |= 1 << (k % 64),
            None => deps.data = true,
        }
        deps
    }

    fn and(&self, a: &Deps, b: &Deps) -> Deps {
        self.union(a, b)
    }

    fn complement(&self, value: &Deps) -> Deps {
        value.clone()
    }
}

/// Per-node key-input support, computed in one forward pass. Key inputs are
/// recognised by the `keyinput*` naming convention.
pub struct KeySupport {
    key_nodes: Vec<u32>,
    key_names: Vec<String>,
    values: Vec<Deps>,
}

impl KeySupport {
    /// Computes the support of every node in one topological pass.
    pub fn compute(aig: &Aig) -> Self {
        let map = KeyMap::from_aig(aig);
        let domain = SupportDomain {
            words: map.words(),
            key_of_input: map.key_of_input,
        };
        KeySupport {
            key_nodes: map.key_nodes,
            key_names: map.key_names,
            values: forward(aig, &domain),
        }
    }

    /// Number of key inputs found.
    pub fn num_keys(&self) -> usize {
        self.key_nodes.len()
    }

    /// `(input node, name)` of each key bit, in key declaration order.
    pub fn keys(&self) -> impl Iterator<Item = (u32, &str)> + '_ {
        self.key_nodes
            .iter()
            .copied()
            .zip(self.key_names.iter().map(String::as_str))
    }

    /// Whether `node` transitively depends on key bit `key`.
    pub fn depends_on(&self, node: u32, key: usize) -> bool {
        self.values[node as usize].keys[key / 64] >> (key % 64) & 1 != 0
    }

    /// How many distinct key bits `node` depends on.
    pub fn key_count(&self, node: u32) -> u32 {
        self.values[node as usize]
            .keys
            .iter()
            .map(|w| w.count_ones())
            .sum()
    }

    /// Whether `node` depends on at least one key bit and on no data input —
    /// the signature of a key-only guard.
    pub fn is_key_only(&self, node: u32) -> bool {
        let deps = &self.values[node as usize];
        !deps.data && deps.keys.iter().any(|&w| w != 0)
    }

    /// The full support record of one node.
    pub fn deps(&self, node: u32) -> &Deps {
        &self.values[node as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// o = (a AND k0) XOR k1 with one data input and two key inputs.
    fn sample() -> (
        Aig,
        kratt_netlist::AigLit,
        kratt_netlist::AigLit,
        kratt_netlist::AigLit,
    ) {
        let mut aig = Aig::new("sample");
        let a = aig.add_input("a");
        let k0 = aig.add_input("keyinput0");
        let k1 = aig.add_input("keyinput1");
        let guard = aig.and(a, k0);
        let o = aig.xor(guard, k1);
        aig.add_output("o", o);
        (aig, a, k0, k1)
    }

    #[test]
    fn support_separates_key_and_data_dependence() {
        let (aig, a, k0, k1) = sample();
        let support = KeySupport::compute(&aig);
        assert_eq!(support.num_keys(), 2);
        let names: Vec<&str> = support.keys().map(|(_, name)| name).collect();
        assert_eq!(names, vec!["keyinput0", "keyinput1"]);
        // The data input depends on no key; the key inputs on exactly one.
        assert_eq!(support.key_count(a.node()), 0);
        assert!(!support.is_key_only(a.node()));
        assert!(support.is_key_only(k0.node()));
        assert!(support.depends_on(k0.node(), 0));
        assert!(!support.depends_on(k0.node(), 1));
        // The output cone root depends on both keys and on data.
        let root = aig.outputs()[0].node();
        assert_eq!(support.key_count(root), 2);
        assert!(support.depends_on(root, 1));
        assert!(!support.is_key_only(root));
        assert_eq!(support.key_count(k1.node()), 1);
    }

    #[test]
    fn domain_lattice_is_a_union() {
        let (aig, ..) = sample();
        let domain = SupportDomain::for_aig(&aig);
        let bottom = domain.bottom();
        let top = domain.top();
        assert_eq!(domain.join(&bottom, &top), top);
        let k0 = domain.input(0, 1);
        let k1 = domain.input(0, 2);
        let both = domain.join(&k0, &k1);
        assert_eq!(both.keys[0], 0b11);
        assert!(!both.data);
        assert_eq!(domain.and(&k0, &k1), both);
        assert_eq!(domain.complement(&k0), k0);
    }

    #[test]
    fn position_seeded_domain_tracks_the_chosen_inputs() {
        use crate::CircuitAnalysis;
        use kratt_netlist::{Circuit, GateType};

        // Track inputs 2 and 0 (bits 0 and 1); input 1 is data.
        let mut c = Circuit::new("tracked");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let p = c.add_input("p").unwrap();
        let ap = c.add_gate(GateType::Xor, "ap", &[a, p]).unwrap();
        let ab = c.add_gate(GateType::And, "ab", &[ap, b]).unwrap();
        c.mark_output(ab);
        let domain = SupportDomain::for_positions(3, &[2, 0]);
        let plan = CircuitAnalysis::new(&c).unwrap();
        let deps = plan.run(&c, &domain, &[]);
        assert_eq!(
            deps[ap.index()],
            Deps {
                keys: vec![0b11],
                data: false
            }
        );
        assert_eq!(deps[p.index()].keys, vec![0b01]);
        assert!(deps[ab.index()].data);
        assert!(deps[b.index()].data && deps[b.index()].keys == vec![0]);
    }
}

//! The dataflow-backed SCOPE kernel: per-key-bit constant-propagation
//! signatures computed from two ternary cofactor runs per bit, without
//! building a single circuit.
//!
//! SCOPE's features are defined by a rebuild: [`set_inputs_constant`] once
//! per key-bit cofactor — a constant-folded rebuild into a fresh
//! [`Circuit`] (string-keyed net table included) of the gates the outputs
//! still reach, in the order a dangling-logic prune gives them — followed
//! by a stats pass. This module reproduces the *feature vector* of that pipeline
//! exactly, by construction, without building anything:
//!
//! 1. One ternary forward run over the shared [`CircuitAnalysis`] plan
//!    (the circuit's cached topological order, sorted once per circuit,
//!    not once per cofactor) pins the key bit and classifies every net as
//!    constant or live. A net folds to a constant in `rebuild_simplified`
//!    **iff** its gate-level ternary value is not `X` — each
//!    simplification rule (`AND` with a false constant input, `OR` with a
//!    true one, fully constant gates, XOR parity) is precisely the ternary
//!    transfer of the gate, so the two classifications coincide
//!    inductively.
//! 2. A *virtual replay* then walks the gates in the same order
//!    `rebuild_simplified` does and mirrors every decision that affects
//!    the gate count, literal count or logic depth — which gates are
//!    emitted (including single-input collapses to `NOT`/alias and the
//!    XOR parity flip that decides between them), how output names are
//!    restored (rename vs keeper buffer vs materialised constant) and the
//!    final reachability prune — on integer node records instead of a
//!    real circuit.
//!
//! The replay runs `2 × key_bits` times per SCOPE sweep, 256 times on a
//! 128-bit key, so it allocates nothing per gate and nothing per call
//! after the first: the [`ScopePlan`] owns the ternary values, the node
//! records and the per-net buffers, and each call clears them. Fanins are
//! stored flat — one `Vec<u32>` plus a start offset per node — and a
//! gate's live fanins are pushed while its level is computed; a gate that
//! collapses to an alias pops them again.
//!
//! Name bookkeeping is replayed per *original net* rather than per string:
//! inside the gate loop a simplified gate always receives its original
//! output-net name (net names are unique, so the name cannot have been
//! taken by an earlier emission), and auto-generated `name$N` names are
//! always fresh. The one pathology not modelled is an original output
//! literally named like an auto-generated name (`foo$3`) colliding with a
//! generated one — no netlist in the suite (or produced by
//! [`Circuit::fresh_net_name`]'s collision avoidance) does this.
//!
//! [`set_inputs_constant`]: kratt_netlist::transform::set_inputs_constant
//! [`Circuit::fresh_net_name`]: kratt_netlist::Circuit::fresh_net_name

use crate::scope::ScopeFeatures;
use kratt_dataflow::{CircuitAnalysis, Ternary};
use kratt_netlist::{Circuit, GateType, NetId, NetlistError};

/// A reusable SCOPE analysis plan over one locked circuit: the topological
/// order is shared by all `2 × key_bits` cofactor runs, and so are the
/// replay's buffers, which every run clears instead of allocating.
pub struct ScopePlan<'c> {
    circuit: &'c Circuit,
    analysis: CircuitAnalysis,
    scratch: Scratch,
}

/// The virtual image of the simplified circuit: one record per node the
/// rebuild would create (primary inputs, emitted gates, keeper buffers,
/// materialised constants), carrying exactly the fields the feature vector
/// needs. Every node but a primary input counts as a gate, with one literal
/// per fanin.
#[derive(Default)]
struct Virtual {
    /// Logic level (primary inputs 0, gates 1 + max over fanins).
    level: Vec<usize>,
    /// Fanin node ids of every node, flat: node `v`'s fanins are
    /// `fanin[start[v]..start[v + 1]]`.
    fanin: Vec<u32>,
    /// Start offset of each node's fanins in `fanin`, plus the end.
    start: Vec<u32>,
    /// The original net whose *name* this node carries, if any.
    name_of: Vec<Option<usize>>,
    /// Whether the node is a primary input of the result.
    input: Vec<bool>,
    /// Whether the node has been marked as a result output.
    output: Vec<bool>,
}

impl Virtual {
    fn clear(&mut self) {
        self.level.clear();
        self.fanin.clear();
        self.start.clear();
        self.start.push(0);
        self.name_of.clear();
        self.input.clear();
        self.output.clear();
    }

    fn len(&self) -> usize {
        self.level.len()
    }

    /// Closes a node over the fanins pushed onto `fanin` since the last
    /// node.
    fn push(&mut self, level: usize, name_of: Option<usize>, input: bool) -> u32 {
        let id = self.level.len() as u32;
        self.level.push(level);
        self.start.push(self.fanin.len() as u32);
        self.name_of.push(name_of);
        self.input.push(input);
        self.output.push(false);
        id
    }

    fn fanins(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.fanin[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

/// The buffers of one replay. The plan owns them and every call clears
/// them, so the cofactor runs after the first allocate nothing.
#[derive(Default)]
struct Scratch {
    /// The ternary value of every original net, and the ternary run's
    /// per-gate fanin values.
    ternary: Vec<Ternary>,
    fanins: Vec<Ternary>,
    nodes: Virtual,
    /// Whether each original net is pinned to a constant.
    pinned: Vec<bool>,
    /// How each original net is represented: a virtual node, or `None` for
    /// a folded constant (pinned inputs included).
    repr: Vec<Option<u32>>,
    /// Whether the original net's name exists in the virtual result.
    claimed: Vec<bool>,
    /// The finalised output nodes, in output order.
    finalised: Vec<u32>,
    /// Whether each virtual node reaches a finalised output.
    reachable: Vec<bool>,
    stack: Vec<u32>,
}

impl Scratch {
    fn clear(&mut self, n_nets: usize) {
        self.nodes.clear();
        for buffer in [&mut self.pinned, &mut self.claimed] {
            buffer.clear();
            buffer.resize(n_nets, false);
        }
        self.repr.clear();
        self.repr.resize(n_nets, None);
        self.finalised.clear();
        self.reachable.clear();
        self.stack.clear();
    }
}

impl<'c> ScopePlan<'c> {
    /// Prepares the shared plan (one topological sort).
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit is cyclic.
    pub fn new(circuit: &'c Circuit) -> Result<Self, NetlistError> {
        Ok(ScopePlan {
            circuit,
            analysis: CircuitAnalysis::new(circuit)?,
            scratch: Scratch::default(),
        })
    }

    /// The SCOPE feature vector of the circuit with the given inputs tied
    /// to constants — equal, field for field, to
    /// `stats(&set_inputs_constant(circuit, pins)?)`.
    pub fn features(&mut self, pins: &[(NetId, bool)]) -> ScopeFeatures {
        let Scratch {
            ternary, fanins, ..
        } = &mut self.scratch;
        self.analysis
            .ternary_into(self.circuit, pins, ternary, fanins);
        self.replay(pins)
    }

    /// Replays `rebuild_simplified` (its dangling prune included) + `stats` virtually
    /// over the ternary values of the scratch buffers.
    fn replay(&mut self, pins: &[(NetId, bool)]) -> ScopeFeatures {
        let circuit = self.circuit;
        let scratch = &mut self.scratch;
        scratch.clear(circuit.num_nets());
        let Scratch {
            ternary,
            fanins: _,
            nodes: vn,
            pinned,
            repr,
            claimed,
            finalised,
            reachable,
            stack,
        } = scratch;
        for &(net, _) in pins {
            pinned[net.index()] = true;
        }

        for &pi in circuit.inputs() {
            if pinned[pi.index()] {
                continue;
            }
            let v = vn.push(0, Some(pi.index()), true);
            repr[pi.index()] = Some(v);
            claimed[pi.index()] = true;
        }

        for &gid in self.analysis.order() {
            let gate = circuit.gate(gid);
            let out = gate.output.index();
            if ternary[out].is_constant() {
                // The rebuild folds this gate away (constant output ⇔
                // constant representation, see the module docs).
                continue;
            }
            // With a non-constant output, the gate reduces over its live
            // inputs, with the XOR parity flip deciding the single-input
            // collapse direction: a non-inverting gate over one live input
            // (BUF included) aliases it, anything else is emitted.
            let effective = match gate.ty {
                GateType::Xor | GateType::Xnor => {
                    let ones = gate
                        .inputs
                        .iter()
                        .filter(|n| ternary[n.index()] == Ternary::One)
                        .count();
                    if ones % 2 == 1 {
                        gate.ty.complement()
                    } else {
                        gate.ty
                    }
                }
                other => other,
            };
            let mark = vn.fanin.len();
            let mut level = 0;
            for net in &gate.inputs {
                if let Some(v) = repr[net.index()] {
                    vn.fanin.push(v);
                    level = level.max(vn.level[v as usize]);
                }
            }
            if vn.fanin.len() - mark == 1 && !effective.is_inverting() {
                repr[out] = Some(vn.fanin[mark]);
                vn.fanin.truncate(mark);
                continue;
            }
            let v = vn.push(level + 1, Some(out), false);
            claimed[out] = true;
            repr[out] = Some(v);
        }

        // Output finalisation: materialise constants, restore the original
        // output names by rename or keeper buffer — the same decision tree
        // as the rebuild, driven by the per-net `claimed` bookkeeping.
        for &o in circuit.outputs() {
            let oi = o.index();
            let mapped = match repr[oi] {
                Some(v) => v,
                None => {
                    let named = !claimed[oi];
                    let v = vn.push(1, named.then_some(oi), false);
                    if named {
                        claimed[oi] = true;
                    }
                    v
                }
            };
            let fin = if vn.name_of[mapped as usize] == Some(oi) {
                mapped
            } else if !vn.input[mapped as usize] && !vn.output[mapped as usize] && !claimed[oi] {
                // Rename: the node takes the output's name, releasing the
                // one it carried.
                if let Some(old) = vn.name_of[mapped as usize] {
                    claimed[old] = false;
                }
                vn.name_of[mapped as usize] = Some(oi);
                claimed[oi] = true;
                mapped
            } else {
                // Keeper buffer.
                let named = !claimed[oi];
                let level = vn.level[mapped as usize] + 1;
                vn.fanin.push(mapped);
                let v = vn.push(level, named.then_some(oi), false);
                if named {
                    claimed[oi] = true;
                }
                v
            };
            vn.output[fin as usize] = true;
            finalised.push(fin);
        }

        // The dangling prune: only nodes reaching a finalised output count.
        reachable.resize(vn.len(), false);
        for &f in finalised.iter() {
            if !reachable[f as usize] {
                reachable[f as usize] = true;
                stack.push(f);
            }
        }
        while let Some(v) = stack.pop() {
            for &f in vn.fanins(v) {
                if !reachable[f as usize] {
                    reachable[f as usize] = true;
                    stack.push(f);
                }
            }
        }

        let mut gates = 0usize;
        let mut literals = 0usize;
        for (v, &alive) in reachable.iter().enumerate() {
            if alive && !vn.input[v] {
                gates += 1;
                literals += vn.fanins(v as u32).len();
            }
        }
        let depth = finalised
            .iter()
            .map(|&f| vn.level[f as usize])
            .max()
            .unwrap_or(0);
        ScopeFeatures {
            gates,
            literals,
            depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::analysis::stats;
    use kratt_netlist::transform::set_inputs_constant;
    use kratt_netlist::GateType;

    /// Replay vs real resynthesis over every single-input cofactor.
    fn assert_replay_matches(circuit: &Circuit) {
        let mut plan = ScopePlan::new(circuit).unwrap();
        for &pi in circuit.inputs() {
            for value in [false, true] {
                let real = set_inputs_constant(circuit, &[(pi, value)]).unwrap();
                let expected = ScopeFeatures::from(stats(&real).unwrap());
                let got = plan.features(&[(pi, value)]);
                assert_eq!(
                    got,
                    expected,
                    "cofactor {}={} diverged",
                    circuit.net_name(pi),
                    u8::from(value)
                );
            }
        }
    }

    #[test]
    fn replay_matches_resynthesis_on_gate_soup() {
        // Exercises every gate type, parity flips, buffer collapses, output
        // renames and keeper buffers.
        let mut c = Circuit::new("soup");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let k = c.add_input("keyinput0").unwrap();
        let x1 = c.add_gate(GateType::Xor, "x1", &[a, k]).unwrap();
        let n1 = c.add_gate(GateType::Nand, "n1", &[x1, b]).unwrap();
        let o1 = c.add_gate(GateType::Xnor, "o1", &[n1, k, b]).unwrap();
        let buf = c.add_gate(GateType::Buf, "buf", &[o1]).unwrap();
        let inv = c.add_gate(GateType::Not, "inv", &[x1]).unwrap();
        let o2 = c.add_gate(GateType::Nor, "o2", &[inv, a, k]).unwrap();
        let o3 = c.add_gate(GateType::Or, "o3", &[buf, o2]).unwrap();
        c.mark_output(o3);
        c.mark_output(buf);
        c.mark_output(inv);
        assert_replay_matches(&c);
    }

    #[test]
    fn replay_matches_resynthesis_on_collapsing_outputs() {
        // An output that collapses to a constant under one cofactor, an
        // output aliased straight to an input, and a duplicated output.
        let mut c = Circuit::new("collapse");
        let a = c.add_input("a").unwrap();
        let k = c.add_input("keyinput0").unwrap();
        let g = c.add_gate(GateType::And, "g", &[a, k]).unwrap();
        let h = c.add_gate(GateType::Buf, "h", &[a]).unwrap();
        c.mark_output(g);
        c.mark_output(h);
        c.mark_output(g);
        assert_replay_matches(&c);
    }

    /// A random gate soup over four to six inputs — every gate type,
    /// constants, an output aliasing an input, a repeated output — locked
    /// by one of five schemes with two to four key bits.
    fn random_locked(seed: u64) -> Circuit {
        use kratt_locking::{AntiSat, Cac, LockingTechnique, RandomXorLocking, SarLock};
        use kratt_locking::{SecretKey, TtLock};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n_inputs = rng.gen_range(4..7usize);
        let mut c = Circuit::new(format!("host{seed}"));
        let mut nets: Vec<NetId> = (0..n_inputs)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        if seed.is_multiple_of(4) {
            nets.push(c.add_gate(GateType::Const1, "one", &[]).unwrap());
            nets.push(c.add_gate(GateType::Const0, "zero", &[]).unwrap());
        }
        const TYPES: [GateType; 8] = [
            GateType::And,
            GateType::Or,
            GateType::Nand,
            GateType::Nor,
            GateType::Xor,
            GateType::Xnor,
            GateType::Not,
            GateType::Buf,
        ];
        let first_gate = nets.len();
        for g in 0..rng.gen_range(8..18usize) {
            let ty = TYPES[rng.gen_range(0..TYPES.len())];
            let arity = match ty {
                GateType::Not | GateType::Buf => 1,
                _ => rng.gen_range(2..4usize),
            };
            let ins: Vec<NetId> = (0..arity)
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            nets.push(c.add_gate(ty, format!("g{g}"), &ins).unwrap());
        }
        for _ in 0..rng.gen_range(1..4usize) {
            c.mark_output(nets[rng.gen_range(first_gate..nets.len())]);
        }
        if seed.is_multiple_of(3) {
            c.mark_output(nets[rng.gen_range(0..n_inputs)]);
            c.mark_output(*nets.last().unwrap());
        }
        // Anti-SAT splits its key into two equal halves.
        let key_bits = if seed % 5 == 4 {
            4
        } else {
            rng.gen_range(2..5usize)
        };
        let technique: Box<dyn LockingTechnique> = match seed % 5 {
            0 => Box::new(RandomXorLocking::new(key_bits, seed)),
            1 => Box::new(SarLock::new(key_bits)),
            2 => Box::new(TtLock::new(key_bits)),
            3 => Box::new(Cac::new(key_bits)),
            _ => Box::new(AntiSat::new(key_bits)),
        };
        let secret = SecretKey::random(&mut rng, key_bits);
        technique.lock(&c, &secret).unwrap().circuit
    }

    proptest::proptest! {
        /// One plan answers every key cofactor of a random locked circuit
        /// with the features of the real rebuild. The cofactors come in
        /// shuffled order, so a buffer one call leaves dirty shows up in a
        /// later one.
        #[test]
        fn prop_one_plan_matches_resynthesis_on_every_cofactor(seed in 0u64..1024) {
            use rand::rngs::StdRng;
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let locked = random_locked(seed);
            let mut cofactors: Vec<(NetId, bool)> = locked
                .key_inputs()
                .into_iter()
                .flat_map(|key| [(key, false), (key, true)])
                .collect();
            cofactors.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5c09e));
            let mut plan = ScopePlan::new(&locked).unwrap();
            for pin in cofactors {
                let real = set_inputs_constant(&locked, &[pin]).unwrap();
                proptest::prop_assert_eq!(
                    plan.features(&[pin]),
                    ScopeFeatures::from(stats(&real).unwrap())
                );
            }
        }
    }

    #[test]
    fn replay_matches_resynthesis_on_const_gates() {
        let mut c = Circuit::new("consts");
        let a = c.add_input("a").unwrap();
        let one = c.add_gate(GateType::Const1, "one", &[]).unwrap();
        let o = c.add_gate(GateType::Xor, "o", &[a, one]).unwrap();
        c.mark_output(o);
        c.mark_output(one);
        assert_replay_matches(&c);
    }
}

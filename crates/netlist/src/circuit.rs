//! The [`Circuit`] data structure: a named, gate-level combinational netlist.

use crate::sim::GateSchedule;
use crate::{GateType, NetlistError, KEY_INPUT_PREFIX};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of a net (a named wire) inside one [`Circuit`].
///
/// `NetId`s are dense indices; they are only meaningful relative to the
/// circuit that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The dense index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a gate inside one [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The dense index of this gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single combinational gate: its type, input nets and the net it drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Boolean function computed by this gate.
    pub ty: GateType,
    /// Input nets, in declaration order.
    pub inputs: Vec<NetId>,
    /// The net driven by this gate.
    pub output: NetId,
}

#[derive(Debug, Clone)]
struct Net {
    name: String,
    driver: Option<GateId>,
    /// Position in the primary-input list, for primary inputs. Inputs are
    /// only ever appended, so a position never changes once assigned.
    input_position: Option<u32>,
}

/// A gate-level combinational netlist.
///
/// A circuit owns a set of named nets, a set of gates (each driving exactly
/// one net), an ordered list of primary inputs and an ordered list of primary
/// outputs. Key inputs of a locked design are ordinary primary inputs whose
/// names start with [`KEY_INPUT_PREFIX`].
///
/// Structural invariants maintained by the construction API:
///
/// * every net is driven by at most one gate;
/// * a primary input is never driven by a gate;
/// * gate arities respect [`GateType::arity_ok`];
/// * net names are unique.
#[derive(Debug, Clone)]
pub struct Circuit {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    by_name: HashMap<String, NetId>,
    fresh_counter: u64,
    /// The compiled evaluation schedule, built lazily by
    /// [`Circuit::schedule`] and dropped by every structural mutation.
    schedule: OnceLock<Arc<GateSchedule>>,
    /// The Kahn order of the gates, built lazily by
    /// [`analysis::topological_order`](crate::analysis::topological_order)
    /// and dropped with the schedule. It depends on the gates and their
    /// fanins only, not on names or outputs.
    order: OnceLock<Arc<[GateId]>>,
}

impl Circuit {
    /// Creates an empty circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Circuit {
            name: name.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            by_name: HashMap::new(),
            fresh_counter: 0,
            schedule: OnceLock::new(),
            order: OnceLock::new(),
        }
    }

    /// The gates' Kahn order, sorted on first use and cached; served by
    /// [`analysis::topological_order`](crate::analysis::topological_order).
    /// A cycle error is not cached: a cyclic circuit reports its cycle on
    /// every call.
    pub(crate) fn order(&self) -> Result<Arc<[GateId]>, NetlistError> {
        if let Some(cached) = self.order.get() {
            return Ok(Arc::clone(cached));
        }
        let built: Arc<[GateId]> = crate::analysis::kahn_order(self)?.into();
        Ok(Arc::clone(self.order.get_or_init(|| built)))
    }

    /// Drops the caches that depend on the gates and their fanins.
    fn drop_caches(&mut self) {
        self.schedule.take();
        self.order.take();
    }

    /// The circuit's compiled [`GateSchedule`]: topologically ordered,
    /// arena-indexed gate ops shared by every [`Simulator`](crate::sim::Simulator)
    /// over this circuit. Compiled on first use and cached; any structural
    /// mutation (new nets or gates) drops the cache.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the circuit is cyclic.
    pub fn schedule(&self) -> Result<Arc<GateSchedule>, NetlistError> {
        if let Some(cached) = self.schedule.get() {
            return Ok(Arc::clone(cached));
        }
        let built = Arc::new(GateSchedule::build(self)?);
        // A concurrent builder may have won the race; return whichever
        // schedule the cell ended up holding (they are equivalent).
        Ok(Arc::clone(self.schedule.get_or_init(|| built)))
    }

    /// The circuit's name (e.g. `"c6288"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    fn insert_net(
        &mut self,
        name: String,
        input_position: Option<u32>,
    ) -> Result<NetId, NetlistError> {
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateNet(name));
        }
        self.drop_caches();
        let id = NetId(self.nets.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nets.push(Net {
            name,
            driver: None,
            input_position,
        });
        Ok(id)
    }

    /// Declares a new primary input net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] if a net with this name exists.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let position = self.inputs.len() as u32;
        let id = self.insert_net(name.into(), Some(position))?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a gate driving a freshly named net and returns that net.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DuplicateNet`] if `output_name` already exists.
    /// * [`NetlistError::InvalidArity`] if `inputs.len()` is illegal for `ty`.
    /// * [`NetlistError::UnknownNet`] if an input id is out of range.
    pub fn add_gate(
        &mut self,
        ty: GateType,
        output_name: impl Into<String>,
        inputs: &[NetId],
    ) -> Result<NetId, NetlistError> {
        if !ty.arity_ok(inputs.len()) {
            return Err(NetlistError::InvalidArity {
                gate: ty.bench_keyword(),
                arity: inputs.len(),
            });
        }
        for &i in inputs {
            if i.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(format!("net#{}", i.0)));
            }
        }
        let out = self.insert_net(output_name.into(), None)?;
        let gid = GateId(self.gates.len() as u32);
        self.gates.push(Gate {
            ty,
            inputs: inputs.to_vec(),
            output: out,
        });
        self.nets[out.index()].driver = Some(gid);
        Ok(out)
    }

    /// Adds a gate driving an automatically generated fresh net name with the
    /// given prefix. Convenient for synthesised logic (locking units,
    /// resynthesis) where names only need to be unique.
    pub fn add_gate_auto(
        &mut self,
        ty: GateType,
        prefix: &str,
        inputs: &[NetId],
    ) -> Result<NetId, NetlistError> {
        let name = self.fresh_net_name(prefix);
        self.add_gate(ty, name, inputs)
    }

    /// Generates a net name of the form `prefix$N` that is not yet used.
    pub fn fresh_net_name(&mut self, prefix: &str) -> String {
        loop {
            let candidate = format!("{prefix}${}", self.fresh_counter);
            self.fresh_counter += 1;
            if !self.by_name.contains_key(&candidate) {
                return candidate;
            }
        }
    }

    /// Marks a net as a primary output. A net may be marked more than once
    /// (some bench files list duplicate outputs); duplicates are kept so that
    /// output ordering and width match the source.
    pub fn mark_output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Replaces the output at position `position` with `new_net`, keeping the
    /// output ordering stable. Used when a locking technique re-routes a
    /// primary output through its corruption logic.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of bounds.
    pub fn replace_output_at(&mut self, position: usize, new_net: NetId) {
        self.outputs[position] = new_net;
    }

    /// Renames an existing net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] if the new name is taken.
    pub fn rename_net(
        &mut self,
        net: NetId,
        new_name: impl Into<String>,
    ) -> Result<(), NetlistError> {
        let new_name = new_name.into();
        if self.by_name.contains_key(&new_name) {
            return Err(NetlistError::DuplicateNet(new_name));
        }
        let old = self.nets[net.index()].name.clone();
        self.by_name.remove(&old);
        self.by_name.insert(new_name.clone(), net);
        self.nets[net.index()].name = new_name;
        Ok(())
    }

    /// Primary inputs in declaration order (key inputs included).
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The primary inputs whose names begin with [`KEY_INPUT_PREFIX`].
    pub fn key_inputs(&self) -> Vec<NetId> {
        self.inputs
            .iter()
            .copied()
            .filter(|&n| self.net_name(n).starts_with(KEY_INPUT_PREFIX))
            .collect()
    }

    /// The primary inputs that are *not* key inputs (the functional inputs).
    pub fn data_inputs(&self) -> Vec<NetId> {
        self.inputs
            .iter()
            .copied()
            .filter(|&n| !self.net_name(n).starts_with(KEY_INPUT_PREFIX))
            .collect()
    }

    /// The names of the given nets, in the given order. The one copy of the
    /// name-discovery loop that used to be hand-rolled at every call site.
    pub fn net_names(&self, nets: &[NetId]) -> Vec<String> {
        nets.iter().map(|&n| self.net_name(n).to_string()).collect()
    }

    /// The names of the key inputs, in `keyinput` declaration order — the
    /// name list every `KeyGuess` ↔ `SecretKey` conversion is defined over.
    pub fn key_input_names(&self) -> Vec<String> {
        self.net_names(&self.key_inputs())
    }

    /// The names of the data (non-key) inputs, in declaration order.
    pub fn data_input_names(&self) -> Vec<String> {
        self.net_names(&self.data_inputs())
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to this circuit.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.nets[net.index()].name
    }

    /// Looks a net up by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// Whether the net is a primary input.
    pub fn is_input(&self, net: NetId) -> bool {
        self.nets[net.index()].input_position.is_some()
    }

    /// Whether the net is listed as a primary output.
    pub fn is_output(&self, net: NetId) -> bool {
        self.outputs.contains(&net)
    }

    /// The gate driving `net`, or `None` for primary inputs and floating nets.
    pub fn driver(&self, net: NetId) -> Option<GateId> {
        self.nets[net.index()].driver
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `gate` does not belong to this circuit.
    pub fn gate(&self, gate: GateId) -> &Gate {
        &self.gates[gate.index()]
    }

    /// Iterates over `(GateId, &Gate)` pairs in insertion order.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> + '_ {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Iterates over all net ids.
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of primary inputs (key inputs included).
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Total number of gate input pins — a crude "literal count" used as an
    /// area proxy by the SCOPE-style structural analysis.
    pub fn num_literals(&self) -> usize {
        self.gates.iter().map(|g| g.inputs.len()).sum()
    }

    /// Position of `net` within the primary-input list, if it is an input.
    /// Constant time: the position is stored on the net when it is declared.
    pub fn input_position(&self, net: NetId) -> Option<usize> {
        self.nets[net.index()]
            .input_position
            .map(|position| position as usize)
    }

    /// Convenience wrapper building a [`sim::Simulator`](crate::sim::Simulator)
    /// and evaluating a single input pattern. `values` must follow the order
    /// of [`Circuit::inputs`].
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern width is wrong or the circuit has a
    /// combinational cycle.
    pub fn simulate(&self, values: &[bool]) -> Result<Vec<bool>, NetlistError> {
        crate::sim::Simulator::new(self)?.run(values)
    }

    // ---- Raw escape hatches for malformed-circuit fixtures. ----------------
    //
    // The construction API makes ill-formed circuits unrepresentable: nets
    // are driven at most once, inputs are never driven, and `add_gate` can
    // only reference already-existing nets, so cycles cannot be built. That
    // is the right default — but it also means the `kratt-lint` rules that
    // diagnose exactly these malformations could never be exercised. The
    // `raw_*` methods below deliberately bypass the invariants so test
    // fixtures can craft broken circuits. They are hidden from the docs and
    // must never be used outside lint fixtures.

    /// Adds a net that is neither an input nor driven by any gate — an
    /// undriven net. Fixture hook; see the module note above.
    #[doc(hidden)]
    pub fn raw_add_undriven_net(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        self.insert_net(name.into(), None)
    }

    /// Pushes a gate whose output is an *existing* net, without touching the
    /// net's driver slot — creating a multiply-driven net when the target is
    /// already driven. Fixture hook; see the module note above.
    #[doc(hidden)]
    pub fn raw_push_gate(&mut self, ty: GateType, inputs: &[NetId], output: NetId) {
        self.drop_caches();
        let gid = GateId(self.gates.len() as u32);
        self.gates.push(Gate {
            ty,
            inputs: inputs.to_vec(),
            output,
        });
        if self.nets[output.index()].driver.is_none() && !self.is_input(output) {
            self.nets[output.index()].driver = Some(gid);
        }
    }

    /// Rewires one input pin of an existing gate — the only way to create a
    /// combinational cycle. Fixture hook; see the module note above.
    ///
    /// # Panics
    ///
    /// Panics if `gate` or `position` is out of bounds.
    #[doc(hidden)]
    pub fn raw_set_gate_input(&mut self, gate: GateId, position: usize, net: NetId) {
        self.drop_caches();
        self.gates[gate.index()].inputs[position] = net;
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs ({} key), {} outputs, {} gates",
            self.name,
            self.num_inputs(),
            self.key_inputs().len(),
            self.num_outputs(),
            self.num_gates()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_circuit() -> Circuit {
        let mut c = Circuit::new("tiny");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let o = c.add_gate(GateType::Xor, "o", &[a, b]).unwrap();
        c.mark_output(o);
        c
    }

    #[test]
    fn construction_and_queries() {
        let c = xor_circuit();
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_outputs(), 1);
        assert_eq!(c.num_gates(), 1);
        assert_eq!(c.num_literals(), 2);
        let o = c.find_net("o").unwrap();
        assert!(c.is_output(o));
        assert!(!c.is_input(o));
        assert!(c.driver(o).is_some());
        let a = c.find_net("a").unwrap();
        assert!(c.is_input(a));
        assert!(c.driver(a).is_none());
        assert_eq!(c.input_position(a), Some(0));
    }

    #[test]
    fn input_positions_follow_declaration_order_across_gates() {
        let mut c = Circuit::new("interleaved");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate(GateType::Not, "g", &[a]).unwrap();
        let b = c.add_input("b").unwrap();
        let h = c.add_gate(GateType::And, "h", &[g, b]).unwrap();
        let k = c.add_input("keyinput0").unwrap();
        let o = c.add_gate(GateType::Xor, "o", &[h, k]).unwrap();
        c.mark_output(o);
        for (index, &input) in c.inputs().iter().enumerate() {
            assert_eq!(c.input_position(input), Some(index));
        }
        for net in [g, h, o] {
            assert_eq!(c.input_position(net), None);
            assert!(!c.is_input(net));
        }
        assert_eq!(c.inputs(), &[a, b, k]);
    }

    #[test]
    fn duplicate_net_rejected() {
        let mut c = Circuit::new("dup");
        c.add_input("a").unwrap();
        assert!(matches!(
            c.add_input("a"),
            Err(NetlistError::DuplicateNet(_))
        ));
        let a = c.find_net("a").unwrap();
        assert!(matches!(
            c.add_gate(GateType::Buf, "a", &[a]),
            Err(NetlistError::DuplicateNet(_))
        ));
    }

    #[test]
    fn invalid_arity_rejected() {
        let mut c = Circuit::new("arity");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        assert!(matches!(
            c.add_gate(GateType::Not, "n", &[a, b]),
            Err(NetlistError::InvalidArity { .. })
        ));
        assert!(matches!(
            c.add_gate(GateType::And, "z", &[]),
            Err(NetlistError::InvalidArity { .. })
        ));
    }

    #[test]
    fn key_input_classification() {
        let mut c = Circuit::new("keys");
        let a = c.add_input("G1").unwrap();
        let k0 = c.add_input("keyinput0").unwrap();
        let k1 = c.add_input("keyinput1").unwrap();
        let x = c.add_gate(GateType::Xor, "x", &[a, k0]).unwrap();
        let y = c.add_gate(GateType::Xnor, "y", &[x, k1]).unwrap();
        c.mark_output(y);
        assert_eq!(c.key_inputs(), vec![k0, k1]);
        assert_eq!(c.data_inputs(), vec![a]);
        assert_eq!(c.key_input_names(), vec!["keyinput0", "keyinput1"]);
        assert_eq!(c.data_input_names(), vec!["G1"]);
        assert_eq!(c.net_names(&[k1, a]), vec!["keyinput1", "G1"]);
    }

    #[test]
    fn fresh_names_are_unique() {
        let mut c = Circuit::new("fresh");
        let a = c.add_input("a").unwrap();
        let n1 = c.add_gate_auto(GateType::Buf, "lk", &[a]).unwrap();
        let n2 = c.add_gate_auto(GateType::Not, "lk", &[a]).unwrap();
        assert_ne!(c.net_name(n1), c.net_name(n2));
    }

    #[test]
    fn rename_and_replace_output() {
        let mut c = xor_circuit();
        let o = c.find_net("o").unwrap();
        c.rename_net(o, "o_orig").unwrap();
        assert!(c.find_net("o").is_none());
        assert_eq!(c.find_net("o_orig"), Some(o));
        let a = c.find_net("a").unwrap();
        let o2 = c.add_gate(GateType::Buf, "o", &[o]).unwrap();
        c.replace_output_at(0, o2);
        assert_eq!(c.outputs(), &[o2]);
        assert!(c.rename_net(a, "o").is_err());
    }

    #[test]
    fn cached_order_follows_every_mutation() {
        use crate::analysis::{kahn_order, topological_order};
        // `served` is the cached order: equal to a fresh Kahn sort and, once
        // served, shared by the next call.
        let served = |c: &Circuit| {
            let order = topological_order(c).unwrap();
            assert_eq!(&order[..], &kahn_order(c).unwrap()[..]);
            assert!(Arc::ptr_eq(&order, &topological_order(c).unwrap()));
            order
        };
        let mut c = Circuit::new("mutated");
        let a = c.add_input("a").unwrap();
        let x = c.add_gate(GateType::Buf, "x", &[a]).unwrap();
        let y = c.add_gate(GateType::Not, "y", &[a]).unwrap();
        c.mark_output(x);
        let before = served(&c);
        let x_gate = c.driver(x).unwrap();
        let y_gate = c.driver(y).unwrap();
        assert_eq!(&before[..], &[x_gate, y_gate]);

        // A clone shares its original's order; outputs and names are not
        // part of it.
        assert!(Arc::ptr_eq(&before, &served(&c.clone())));
        c.mark_output(y);
        c.rename_net(y, "y2").unwrap();
        assert!(Arc::ptr_eq(&before, &served(&c)));

        // Each structural mutation drops the order and shows in the next.
        let b = c.add_input("b").unwrap();
        let after_input = served(&c);
        assert!(!Arc::ptr_eq(&before, &after_input));
        let z = c.add_gate(GateType::And, "z", &[x, b]).unwrap();
        let z_gate = c.driver(z).unwrap();
        assert_eq!(&served(&c)[..], &[x_gate, y_gate, z_gate]);
        let w = c.raw_add_undriven_net("w").unwrap();
        c.raw_push_gate(GateType::Buf, &[y], w);
        let w_gate = c.driver(w).unwrap();
        assert_eq!(&served(&c)[..], &[x_gate, y_gate, z_gate, w_gate]);
        c.raw_set_gate_input(x_gate, 0, y);
        assert_eq!(&served(&c)[..], &[y_gate, x_gate, w_gate, z_gate]);

        // A cycle is reported on every call, never cached.
        c.raw_set_gate_input(y_gate, 0, x);
        for _ in 0..2 {
            assert!(matches!(
                topological_order(&c),
                Err(NetlistError::CombinationalCycle(_))
            ));
        }
    }

    #[test]
    fn display_summarises_the_interface() {
        let c = xor_circuit();
        let s = c.to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("2 inputs"));
    }
}

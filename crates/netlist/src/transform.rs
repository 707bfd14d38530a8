//! Functionality-preserving and key-aware circuit transformations.
//!
//! These are the building blocks of KRATT's *logic removal* (unit extraction
//! and unit-stripped-circuit construction), of the *circuit modification*
//! step of the oracle-less attack, and of the SCOPE-style constant
//! propagation analysis. They all construct new [`Circuit`]s and preserve net
//! names wherever possible so that nets (in particular protected primary
//! inputs and key inputs) can be correlated across the transformed circuits.
//!
//! Every rebuild walks the circuit's cached
//! [`topological_order`](analysis::topological_order): a cone is marked by
//! [`analysis::fanin_marks`] in one pass over its reverse, and the kept
//! gates are copied in one pass over the order through a `Vec` net map
//! indexed by [`NetId`]. So the circuit modification, [`substitute_inputs`],
//! substitutes every protected input in one rebuild, and a rebuild's cost
//! does not grow with the number of roots, cut points or pinned inputs.
//!
//! Constant propagation ([`set_inputs_constant`], and so `apply_key`, and
//! [`propagate_constants`]) is one rebuild too: each gate's fate is decided
//! into name-free arrays, the outputs keep their names there, and only the
//! gates the outputs reach are emitted, in the order [`prune_dangling`]
//! would give them. It builds, gate for gate and name for name, what
//! simplifying into a full circuit and pruning that circuit builds, without
//! naming, hashing or sorting the dead logic.

use crate::analysis;
use crate::circuit::{Circuit, GateId, NetId};
use crate::{GateType, NetlistError};
use std::collections::{HashSet, VecDeque};

/// Copies the gates `keep` holds for into `result`, in topological order
/// and under their own names, mapping fanins through `map` and recording
/// each copy there. A fanin `map` has no net for is undriven: no kept gate
/// drives it and the caller did not declare it an input.
fn copy_gates(
    circuit: &Circuit,
    keep: impl Fn(GateId) -> bool,
    map: &mut [Option<NetId>],
    result: &mut Circuit,
) -> Result<(), NetlistError> {
    let mut inputs: Vec<NetId> = Vec::new();
    for &gid in analysis::topological_order(circuit)?.iter() {
        if !keep(gid) {
            continue;
        }
        let gate = circuit.gate(gid);
        inputs.clear();
        for &net in &gate.inputs {
            inputs.push(map[net.index()].ok_or_else(|| undriven(circuit, net))?);
        }
        let out = result.add_gate(gate.ty, circuit.net_name(gate.output), &inputs)?;
        map[gate.output.index()] = Some(out);
    }
    Ok(())
}

/// The error for a net that no gate drives and that is no primary input.
fn undriven(circuit: &Circuit, net: NetId) -> NetlistError {
    NetlistError::Transform(format!("net `{}` is undriven", circuit.net_name(net)))
}

/// Extracts the fan-in cones of `roots` into a standalone circuit.
///
/// Traversal stops at primary inputs and at any net listed in `cut_points`;
/// both become primary inputs of the extracted circuit (keeping their names).
/// The roots become the primary outputs of the extracted circuit, in the
/// given order. This implements both the *locking/restore unit* extraction
/// (roots = `[cs1]`) and the *locked subcircuit* extraction (roots = locked
/// primary outputs, on the unit-stripped circuit) of the paper.
///
/// # Errors
///
/// Returns an error if a root is unknown or the source circuit is cyclic.
pub fn extract_cone(
    circuit: &Circuit,
    roots: &[NetId],
    cut_points: &[NetId],
) -> Result<Circuit, NetlistError> {
    let mut cut = vec![false; circuit.num_nets()];
    for &net in cut_points {
        cut[net.index()] = true;
    }
    let (read, cone) = analysis::fanin_marks(circuit, roots, |net| cut[net.index()])?;

    // Inputs of the extracted circuit: the primary inputs the cones read, in
    // the original order, then the cut points they read, in their given
    // order. This keeps PPIs in a stable, reproducible order.
    let mut extracted = Circuit::new(format!("{}_cone", circuit.name()));
    let mut map: Vec<Option<NetId>> = vec![None; circuit.num_nets()];
    for &net in circuit.inputs().iter().chain(cut_points) {
        if read[net.index()] && map[net.index()].is_none() {
            map[net.index()] = Some(extracted.add_input(circuit.net_name(net))?);
        }
    }
    copy_gates(circuit, |gid| cone[gid.index()], &mut map, &mut extracted)?;
    for &root in roots {
        let mapped = map[root.index()].ok_or_else(|| {
            NetlistError::Transform(format!("root `{}` not found", circuit.net_name(root)))
        })?;
        extracted.mark_output(mapped);
    }
    Ok(extracted)
}

/// Builds the *unit-stripped circuit* (USC): a copy of `circuit` in which the
/// net `cut` is no longer driven by its logic cone but becomes an additional
/// primary input. Logic shared between the cut cone and the rest of the
/// circuit is preserved (it is re-created where still needed); logic that
/// only served the cut net disappears. Key inputs that end up unused remain
/// declared so the interface is stable.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn remove_cone(circuit: &Circuit, cut: NetId) -> Result<Circuit, NetlistError> {
    let mut usc = Circuit::new(format!("{}_usc", circuit.name()));
    let mut map: Vec<Option<NetId>> = vec![None; circuit.num_nets()];
    for &pi in circuit.inputs() {
        map[pi.index()] = Some(usc.add_input(circuit.net_name(pi))?);
    }
    // The cut net becomes a fresh primary input carrying its original name
    // (unless it already is a primary input, in which case nothing changes).
    if circuit.driver(cut).is_some() {
        map[cut.index()] = Some(usc.add_input(circuit.net_name(cut))?);
    }
    // Gates needed by the outputs, with traversal stopping at `cut`.
    let (_, needed) = analysis::fanin_marks(circuit, circuit.outputs(), |net| net == cut)?;
    copy_gates(circuit, |gid| needed[gid.index()], &mut map, &mut usc)?;
    for &o in circuit.outputs() {
        usc.mark_output(map[o.index()].ok_or_else(|| undriven(circuit, o))?);
    }
    Ok(usc)
}

/// Replaces every use of each primary input `from` with a primary input
/// `to`, for every `(from, to)` pair, removing the `from` inputs from the
/// interface. This is KRATT's circuit-modification step for DFLTs, where
/// each protected primary input is replaced by its associated key input
/// inside the locked subcircuit.
///
/// The result is built in one rebuild: one pass over the topological order,
/// with the net map a `Vec` indexed by [`NetId`]. Its inputs are the kept
/// inputs in their order, followed by each `to` that is not an input yet,
/// in pair order (a `to` named by several pairs is created once) — the
/// circuit that substituting the pairs one at a time, in order, would
/// build.
///
/// # Errors
///
/// Returns an error if a `from` is not a primary input, if two pairs name
/// the same `from`, if a `to` is also some pair's `from`, or if the circuit
/// is cyclic.
pub fn substitute_inputs(
    circuit: &Circuit,
    pairs: &[(&str, &str)],
) -> Result<Circuit, NetlistError> {
    let mut replaced = vec![false; circuit.num_nets()];
    let mut froms: Vec<NetId> = Vec::with_capacity(pairs.len());
    for &(from, _) in pairs {
        let from_id = circuit
            .find_net(from)
            .filter(|&n| circuit.is_input(n))
            .ok_or_else(|| NetlistError::Transform(format!("`{from}` is not a primary input")))?;
        if std::mem::replace(&mut replaced[from_id.index()], true) {
            return Err(NetlistError::Transform(format!(
                "`{from}` is substituted twice"
            )));
        }
        froms.push(from_id);
    }
    let existing_to = |to: &str| circuit.find_net(to).filter(|&n| circuit.is_input(n));
    for &(_, to) in pairs {
        if existing_to(to).is_some_and(|n| replaced[n.index()]) {
            return Err(NetlistError::Transform(format!(
                "`{to}` is both substituted and a substitute"
            )));
        }
    }

    let mut result = Circuit::new(circuit.name().to_string());
    let mut map: Vec<Option<NetId>> = vec![None; circuit.num_nets()];
    for &pi in circuit.inputs() {
        if !replaced[pi.index()] {
            map[pi.index()] = Some(result.add_input(circuit.net_name(pi))?);
        }
    }
    for (&(_, to), &from_id) in pairs.iter().zip(&froms) {
        let to_id = match existing_to(to) {
            Some(existing) => map[existing.index()].expect("kept inputs are mapped"),
            None => match result.find_net(to) {
                Some(created) => created,
                None => result.add_input(to)?,
            },
        };
        map[from_id.index()] = Some(to_id);
    }

    copy_gates(circuit, |_| true, &mut map, &mut result)?;
    for &o in circuit.outputs() {
        result.mark_output(map[o.index()].ok_or_else(|| undriven(circuit, o))?);
    }
    Ok(result)
}

/// Ties the given primary inputs to constants, removes them from the
/// interface and propagates the constants through the logic (the resulting
/// circuit is simplified as by [`propagate_constants`]).
///
/// # Errors
///
/// Returns an error if an assignment does not name a primary input or the
/// circuit is cyclic.
pub fn set_inputs_constant(
    circuit: &Circuit,
    assignments: &[(NetId, bool)],
) -> Result<Circuit, NetlistError> {
    for &(net, _) in assignments {
        if !circuit.is_input(net) {
            return Err(NetlistError::Transform(format!(
                "`{}` is not a primary input",
                circuit.net_name(net)
            )));
        }
    }
    rebuild_simplified(circuit, assignments)
}

/// Folds constant gates, simplifies gates with constant inputs, collapses
/// single-input gates and removes logic not reachable from any primary
/// output. The primary interface (inputs and outputs, including unused
/// inputs) is preserved.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn propagate_constants(circuit: &Circuit) -> Result<Circuit, NetlistError> {
    rebuild_simplified(circuit, &[])
}

/// Removes gates that do not feed any primary output (dangling logic) while
/// leaving everything else untouched.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn prune_dangling(circuit: &Circuit) -> Result<Circuit, NetlistError> {
    let (_, needed) = analysis::fanin_marks(circuit, circuit.outputs(), |_| false)?;
    let mut result = Circuit::new(circuit.name().to_string());
    let mut map: Vec<Option<NetId>> = vec![None; circuit.num_nets()];
    for &pi in circuit.inputs() {
        map[pi.index()] = Some(result.add_input(circuit.net_name(pi))?);
    }
    copy_gates(circuit, |gid| needed[gid.index()], &mut map, &mut result)?;
    for &o in circuit.outputs() {
        result.mark_output(map[o.index()].ok_or_else(|| undriven(circuit, o))?);
    }
    Ok(result)
}

/// How a source net is represented in the simplified circuit: a constant,
/// or a node of the [`Draft`].
#[derive(Debug, Clone, Copy)]
enum Simplified {
    Constant(bool),
    Node(u32),
}

/// The name a [`Draft`] node carries: its source net's, or one output
/// finalization chose.
#[derive(Debug, Clone)]
enum Name {
    Source(NetId),
    Chosen(String),
}

/// The simplified circuit before it is pruned and named: the kept inputs
/// (nodes `0..inputs.len()`), then the gates in emission order (node
/// `inputs.len() + g`), so every fanin precedes its gate. A gate records
/// its type and its fanin nodes; a name is a [`Name`], so the gate loop
/// allocates no string, and only output finalization chooses names.
struct Draft<'c> {
    circuit: &'c Circuit,
    /// Each source net's representation, once decided.
    repr: Vec<Option<Simplified>>,
    /// The source net of each kept input.
    inputs: Vec<NetId>,
    /// Each gate's type and the range of its fanins in `fanins`.
    gates: Vec<(GateType, std::ops::Range<usize>)>,
    fanins: Vec<u32>,
    /// Each node's name.
    names: Vec<Name>,
    /// The output list, and whether each node is on it.
    outputs: Vec<u32>,
    is_output: Vec<bool>,
    /// The names finalization gave: chosen names are never taken back.
    chosen: HashSet<String>,
    /// The `$N` counter of [`Circuit::fresh_net_name`].
    fresh: u64,
}

impl<'c> Draft<'c> {
    fn new(circuit: &'c Circuit) -> Self {
        Draft {
            circuit,
            repr: vec![None; circuit.num_nets()],
            inputs: Vec::new(),
            gates: Vec::new(),
            fanins: Vec::new(),
            names: Vec::new(),
            outputs: Vec::new(),
            is_output: Vec::new(),
            chosen: HashSet::new(),
            fresh: 0,
        }
    }

    fn add_input(&mut self, net: NetId) -> u32 {
        self.inputs.push(net);
        self.push_node(Name::Source(net))
    }

    fn add_gate(&mut self, ty: GateType, fanins: &[u32], name: Name) -> u32 {
        let start = self.fanins.len();
        self.fanins.extend_from_slice(fanins);
        self.gates.push((ty, start..self.fanins.len()));
        self.push_node(name)
    }

    fn push_node(&mut self, name: Name) -> u32 {
        self.names.push(name);
        self.is_output.push(false);
        self.names.len() as u32 - 1
    }

    /// Whether some node is named `name`: a name finalization chose, or a
    /// source net's name that the net's node still carries (dead nodes
    /// included, as they are nets of the unpruned circuit).
    fn taken(&self, name: &str) -> bool {
        self.chosen.contains(name)
            || self.circuit.find_net(name).is_some_and(|net| {
                matches!(self.repr[net.index()], Some(Simplified::Node(node))
                    if matches!(self.names[node as usize], Name::Source(source) if source == net))
            })
    }

    /// `want` when no node is named so, otherwise the first free
    /// `want$N`, as [`Circuit::add_gate_auto`] names it.
    fn free_name(&mut self, want: &str) -> String {
        if !self.taken(want) {
            return want.to_string();
        }
        loop {
            let candidate = format!("{want}${}", self.fresh);
            self.fresh += 1;
            if !self.taken(&candidate) {
                return candidate;
            }
        }
    }

    /// Adds a gate under `want`, or under a fresh name derived from it.
    fn add_named(&mut self, ty: GateType, want: &str, fanins: &[u32]) -> u32 {
        let name = self.free_name(want);
        self.chosen.insert(name.clone());
        self.add_gate(ty, fanins, Name::Chosen(name))
    }

    fn is_named(&self, node: u32, want: NetId) -> bool {
        match &self.names[node as usize] {
            Name::Source(net) => *net == want,
            Name::Chosen(name) => name == self.circuit.net_name(want),
        }
    }

    fn name(&self, node: u32) -> &str {
        match &self.names[node as usize] {
            Name::Source(net) => self.circuit.net_name(*net),
            Name::Chosen(name) => name,
        }
    }

    /// The live gates in the FIFO Kahn order of the draft's gates (which
    /// is the order the live ones take in that order over all of them):
    /// the dangling prune's order, without building the unpruned circuit.
    fn live_order(&self) -> Vec<usize> {
        let base = self.inputs.len();
        let mut live = vec![false; self.names.len()];
        for &out in &self.outputs {
            live[out as usize] = true;
        }
        for gate in (0..self.gates.len()).rev() {
            if live[base + gate] {
                for &fanin in &self.fanins[self.gates[gate].1.clone()] {
                    live[fanin as usize] = true;
                }
            }
        }
        // Gate-driven fanins per live gate, and consumers per driver, laid
        // out flat in gate order as the Kahn sort lists them.
        let mut pending = vec![0u32; self.gates.len()];
        let mut offsets = vec![0usize; self.gates.len() + 1];
        let live_gates = || (0..self.gates.len()).filter(|&g| live[base + g]);
        let drivers = |gate: usize| {
            self.fanins[self.gates[gate].1.clone()]
                .iter()
                .filter_map(|&fanin| (fanin as usize).checked_sub(base))
        };
        for gate in live_gates() {
            for driver in drivers(gate) {
                pending[gate] += 1;
                offsets[driver + 1] += 1;
            }
        }
        for g in 0..self.gates.len() {
            offsets[g + 1] += offsets[g];
        }
        let mut consumers = vec![0usize; offsets[self.gates.len()]];
        let mut cursor = offsets.clone();
        for gate in live_gates() {
            for driver in drivers(gate) {
                consumers[cursor[driver]] = gate;
                cursor[driver] += 1;
            }
        }
        let mut ready: VecDeque<usize> = live_gates().filter(|&g| pending[g] == 0).collect();
        let mut order = Vec::with_capacity(ready.len());
        while let Some(gate) = ready.pop_front() {
            order.push(gate);
            for &next in &consumers[offsets[gate]..offsets[gate + 1]] {
                pending[next] -= 1;
                if pending[next] == 0 {
                    ready.push_back(next);
                }
            }
        }
        order
    }

    /// Builds the circuit: every kept input, the live gates in
    /// [`live_order`](Self::live_order) under their names, the outputs.
    fn emit(self) -> Result<Circuit, NetlistError> {
        let mut result = Circuit::new(self.circuit.name().to_string());
        let mut map: Vec<Option<NetId>> = vec![None; self.names.len()];
        for (node, &pi) in self.inputs.iter().enumerate() {
            map[node] = Some(result.add_input(self.circuit.net_name(pi))?);
        }
        let mut inputs: Vec<NetId> = Vec::new();
        for gate in self.live_order() {
            let (ty, fanins) = &self.gates[gate];
            inputs.clear();
            inputs.extend(
                self.fanins[fanins.clone()]
                    .iter()
                    .map(|&fanin| map[fanin as usize].expect("fanins are emitted first")),
            );
            let node = self.inputs.len() + gate;
            map[node] = Some(result.add_gate(*ty, self.name(node as u32), &inputs)?);
        }
        for &out in &self.outputs {
            result.mark_output(map[out as usize].expect("outputs are live"));
        }
        Ok(result)
    }
}

/// Core constant-propagation rebuild shared by [`propagate_constants`] and
/// [`set_inputs_constant`]. Pinned primary inputs are dropped from the
/// interface and treated as constants; the last value given for an input
/// holds.
///
/// It is one rebuild: each gate's fate (a constant, an alias of a fanin,
/// or a gate over its live fanins) is decided into a name-free [`Draft`],
/// the outputs are finalized there, and only the gates the outputs reach
/// are emitted, once. The result is the circuit that simplifying into a
/// full circuit and then running [`prune_dangling`] on it builds, gate for
/// gate and name for name: every name decision reads the names that full
/// circuit would hold, its dead nets included.
fn rebuild_simplified(
    circuit: &Circuit,
    pinned: &[(NetId, bool)],
) -> Result<Circuit, NetlistError> {
    let order = analysis::topological_order(circuit)?;
    let mut draft = Draft::new(circuit);
    for &(net, value) in pinned {
        draft.repr[net.index()] = Some(Simplified::Constant(value));
    }
    for &pi in circuit.inputs() {
        if draft.repr[pi.index()].is_none() {
            draft.repr[pi.index()] = Some(Simplified::Node(draft.add_input(pi)));
        }
    }

    let mut scratch = (Vec::new(), Vec::new());
    for &gid in order.iter() {
        let simplified = simplify_gate(&mut draft, gid, &mut scratch)?;
        draft.repr[circuit.gate(gid).output.index()] = Some(simplified);
    }

    for &o in circuit.outputs() {
        let want = circuit.net_name(o);
        let mapped = match draft.repr[o.index()].ok_or_else(|| undriven(circuit, o))? {
            Simplified::Node(node) => node,
            Simplified::Constant(value) => {
                // Materialise the constant so the output keeps its width,
                // under the original name when it is still free.
                let ty = if value {
                    GateType::Const1
                } else {
                    GateType::Const0
                };
                draft.add_named(ty, want, &[])
            }
        };
        // Collapsing buffers may have left the output value on a node with
        // an internal name; the output names are part of the preserved
        // interface, so restore the original one — by renaming the node
        // when that is safe, or through a keeper buffer when the node is a
        // primary input, already carries another output's name, or the
        // name is claimed elsewhere.
        let finalised = if draft.is_named(mapped, o) {
            mapped
        } else if (mapped as usize) >= draft.inputs.len()
            && !draft.is_output[mapped as usize]
            && !draft.taken(want)
        {
            draft.chosen.insert(want.to_string());
            draft.names[mapped as usize] = Name::Chosen(want.to_string());
            mapped
        } else {
            draft.add_named(GateType::Buf, want, &[mapped])
        };
        draft.outputs.push(finalised);
        draft.is_output[finalised as usize] = true;
    }
    draft.emit()
}

/// Simplifies gate `gid` of the draft's circuit given the representations
/// of its inputs, adding at most one gate, named after its output net, to
/// `draft`. `scratch` holds the constant and the live inputs; it is reused
/// from gate to gate.
fn simplify_gate(
    draft: &mut Draft,
    gid: GateId,
    scratch: &mut (Vec<bool>, Vec<u32>),
) -> Result<Simplified, NetlistError> {
    use GateType::*;

    let circuit = draft.circuit;
    let gate = circuit.gate(gid);
    let ty = gate.ty;
    if matches!(ty, Const0) {
        return Ok(Simplified::Constant(false));
    }
    if matches!(ty, Const1) {
        return Ok(Simplified::Constant(true));
    }

    let (const_inputs, live_inputs) = scratch;
    const_inputs.clear();
    live_inputs.clear();
    for &net in &gate.inputs {
        match draft.repr[net.index()].ok_or_else(|| undriven(circuit, net))? {
            Simplified::Constant(value) => const_inputs.push(value),
            Simplified::Node(node) => live_inputs.push(node),
        }
    }

    // Fully constant gate folds away.
    if live_inputs.is_empty() {
        // Re-evaluate the original gate semantics on the constant inputs.
        return Ok(Simplified::Constant(ty.eval(const_inputs)));
    }

    // Net names are unique, so the output's own name is always free here.
    let name = Name::Source(gate.output);
    let effective = match ty {
        And | Nand if const_inputs.iter().any(|&v| !v) => {
            return Ok(Simplified::Constant(ty == Nand));
        }
        Or | Nor if const_inputs.iter().any(|&v| v) => {
            return Ok(Simplified::Constant(ty == Or));
        }
        // An odd number of true constants flips the parity.
        Xor | Xnor if const_inputs.iter().filter(|&&v| v).count() % 2 == 1 => ty.complement(),
        Buf => return Ok(Simplified::Node(live_inputs[0])),
        Const0 | Const1 => unreachable!("handled above"),
        _ => ty,
    };
    // A single live input degenerates to an alias or an inverter.
    Ok(Simplified::Node(match live_inputs.len() {
        1 if effective.is_inverting() => draft.add_gate(Not, live_inputs, name),
        1 => live_inputs[0],
        _ => draft.add_gate(effective, live_inputs, name),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, structure};
    use crate::sim::{exhaustively_equivalent, Simulator};
    use std::collections::HashMap;

    /// y1 = (a XOR k0) AND b; y2 = NOT(a XOR k0).
    fn locked_toy() -> Circuit {
        let mut c = Circuit::new("toy");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let k0 = c.add_input("keyinput0").unwrap();
        let x = c.add_gate(GateType::Xor, "x", &[a, k0]).unwrap();
        let y1 = c.add_gate(GateType::And, "y1", &[x, b]).unwrap();
        let y2 = c.add_gate(GateType::Not, "y2", &[x]).unwrap();
        c.mark_output(y1);
        c.mark_output(y2);
        c
    }

    #[test]
    fn extract_cone_keeps_names_and_function() {
        let c = locked_toy();
        let y2 = c.find_net("y2").unwrap();
        let cone = extract_cone(&c, &[y2], &[]).unwrap();
        assert_eq!(cone.num_outputs(), 1);
        // Support of y2 is {a, keyinput0}.
        let names: Vec<&str> = cone.inputs().iter().map(|&n| cone.net_name(n)).collect();
        assert_eq!(names, vec!["a", "keyinput0"]);
        // y2 = NOT(a XOR k0): check a couple of patterns.
        assert_eq!(cone.simulate(&[false, false]).unwrap(), vec![true]);
        assert_eq!(cone.simulate(&[true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn extract_cone_with_cut_point() {
        let c = locked_toy();
        let y1 = c.find_net("y1").unwrap();
        let x = c.find_net("x").unwrap();
        let cone = extract_cone(&c, &[y1], &[x]).unwrap();
        // With x cut, the cone is just the AND gate with inputs {b, x}.
        assert_eq!(cone.num_gates(), 1);
        let names: Vec<&str> = cone.inputs().iter().map(|&n| cone.net_name(n)).collect();
        assert!(names.contains(&"b"));
        assert!(names.contains(&"x"));
    }

    #[test]
    fn remove_cone_exposes_cut_as_input_and_keeps_shared_logic() {
        let c = locked_toy();
        let x = c.find_net("x").unwrap();
        let usc = remove_cone(&c, x).unwrap();
        // The XOR gate disappears, x is now an input; both outputs remain.
        assert!(usc.find_net("x").is_some());
        let x_new = usc.find_net("x").unwrap();
        assert!(usc.is_input(x_new));
        assert_eq!(usc.num_outputs(), 2);
        assert_eq!(usc.num_gates(), 2); // AND and NOT survive
                                        // All original inputs (a, b, keyinput0) are still declared.
        assert_eq!(usc.num_inputs(), 4);
    }

    #[test]
    fn substitute_input_replaces_uses() {
        let c = locked_toy();
        let modified = substitute_inputs(&c, &[("a", "keyinput0")]).unwrap();
        // `a` is gone; x = XOR(keyinput0, keyinput0) which is constant 0 after
        // propagation, but substitution itself does not simplify.
        assert!(modified.find_net("a").is_none());
        assert_eq!(modified.num_inputs(), 2);
        let sim = Simulator::new(&modified).unwrap();
        // inputs are now [b, keyinput0]; x = k ^ k = 0, y1 = 0 AND b = 0, y2 = 1.
        assert_eq!(sim.run(&[true, true]).unwrap(), vec![false, true]);
    }

    #[test]
    fn substitute_input_can_introduce_fresh_input() {
        let c = locked_toy();
        let modified = substitute_inputs(&c, &[("a", "brand_new"), ("b", "brand_new")]).unwrap();
        let names: Vec<&str> = modified
            .inputs()
            .iter()
            .map(|&n| modified.net_name(n))
            .collect();
        assert_eq!(names, vec!["keyinput0", "brand_new"]);
    }

    #[test]
    fn set_inputs_constant_simplifies() {
        let c = locked_toy();
        let k0 = c.find_net("keyinput0").unwrap();
        let simplified = set_inputs_constant(&c, &[(k0, false)]).unwrap();
        // With k0 = 0: x = a, y1 = a AND b, y2 = NOT a. The XOR disappears.
        assert_eq!(simplified.num_inputs(), 2);
        assert!(simplified.num_gates() <= 2);
        let sim = Simulator::new(&simplified).unwrap();
        assert_eq!(sim.run(&[true, true]).unwrap(), vec![true, false]);
        assert_eq!(sim.run(&[false, true]).unwrap(), vec![false, true]);
    }

    #[test]
    fn constant_propagation_preserves_function() {
        let mut c = Circuit::new("consts");
        let a = c.add_input("a").unwrap();
        let one = c.add_gate(GateType::Const1, "one", &[]).unwrap();
        let zero = c.add_gate(GateType::Const0, "zero", &[]).unwrap();
        let x = c.add_gate(GateType::And, "x", &[a, one]).unwrap();
        let y = c.add_gate(GateType::Or, "y", &[x, zero]).unwrap();
        let z = c.add_gate(GateType::Xor, "z", &[y, one]).unwrap();
        c.mark_output(z);
        let simplified = propagate_constants(&c).unwrap();
        assert!(exhaustively_equivalent(&c, &simplified).unwrap());
        // z = NOT a after simplification: exactly one gate.
        assert_eq!(simplified.num_gates(), 1);
    }

    #[test]
    fn constant_output_is_materialised() {
        let mut c = Circuit::new("constout");
        let a = c.add_input("a").unwrap();
        let na = c.add_gate(GateType::Not, "na", &[a]).unwrap();
        let z = c.add_gate(GateType::And, "z", &[a, na]).unwrap();
        c.mark_output(z);
        let simplified = propagate_constants(&c).unwrap();
        assert_eq!(simplified.num_outputs(), 1);
        assert!(exhaustively_equivalent(&c, &simplified).unwrap());
    }

    #[test]
    fn buffer_collapse_keeps_output_names() {
        // y = BUF(inner) collapses, but the output must still be called `y`:
        // the net gets renamed when that is safe, and a keeper buffer is
        // inserted when the value lands on a primary input or a net that
        // already carries another output's name.
        let mut c = Circuit::new("bufout");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let inner = c.add_gate(GateType::And, "inner", &[a, b]).unwrap();
        let y = c.add_gate(GateType::Buf, "y", &[inner]).unwrap();
        let z = c.add_gate(GateType::Buf, "z", &[inner]).unwrap();
        let w = c.add_gate(GateType::Buf, "w", &[a]).unwrap();
        c.mark_output(y);
        c.mark_output(z);
        c.mark_output(w);
        let simplified = propagate_constants(&c).unwrap();
        let names: Vec<&str> = simplified
            .outputs()
            .iter()
            .map(|&n| simplified.net_name(n))
            .collect();
        assert_eq!(names, vec!["y", "z", "w"]);
        // `w` aliases the input `a`, which must keep its own name.
        assert!(simplified.find_net("a").is_some());
        assert!(exhaustively_equivalent(&c, &simplified).unwrap());
    }

    #[test]
    fn fresh_output_names_skip_live_and_dead_nets() {
        // A constant output listed twice needs `$N` names for its second
        // copy and that copy's keeper buffer; `y$0` is taken by a live gate
        // and `y$1` by a dead one, which the unpruned circuit still holds.
        let mut c = Circuit::new("fresh");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let live = c.add_gate(GateType::And, "y$0", &[a, b]).unwrap();
        c.add_gate(GateType::Or, "y$1", &[a, b]).unwrap();
        let y = c.add_gate(GateType::Const0, "y", &[]).unwrap();
        c.mark_output(y);
        c.mark_output(y);
        c.mark_output(live);
        let folded = propagate_constants(&c).unwrap();
        let names: Vec<&str> = folded
            .outputs()
            .iter()
            .map(|&n| folded.net_name(n))
            .collect();
        assert_eq!(names, vec!["y", "y$3", "y$0"]);
        assert!(folded.find_net("y$1").is_none());
        let expected = reference::set_inputs_constant(&c, &[]).unwrap();
        assert_eq!(structure(&folded), structure(&expected));
    }

    #[test]
    fn prune_dangling_removes_unused_logic_only() {
        let mut c = locked_toy();
        let a = c.find_net("a").unwrap();
        let b = c.find_net("b").unwrap();
        c.add_gate(GateType::Nor, "unused", &[a, b]).unwrap();
        let pruned = prune_dangling(&c).unwrap();
        assert_eq!(pruned.num_gates(), 3);
        assert!(pruned.find_net("unused").is_none());
        assert!(exhaustively_equivalent(&c, &pruned).unwrap());
    }

    #[test]
    fn errors_on_bad_arguments() {
        let c = locked_toy();
        let y1 = c.find_net("y1").unwrap();
        assert!(substitute_inputs(&c, &[("y1", "a")]).is_err());
        assert!(substitute_inputs(&c, &[("ghost", "a")]).is_err());
        assert!(substitute_inputs(&c, &[("a", "k"), ("a", "j")]).is_err());
        assert!(substitute_inputs(&c, &[("a", "b"), ("b", "k")]).is_err());
        assert!(substitute_inputs(&c, &[("a", "a")]).is_err());
        assert!(set_inputs_constant(&c, &[(y1, true)]).is_err());
    }

    proptest::proptest! {
        /// Constant propagation never changes the circuit function.
        #[test]
        fn prop_constant_propagation_equivalent(seed in 0u64..200) {
            let c = random_circuit(seed);
            let simplified = propagate_constants(&c).unwrap();
            proptest::prop_assert!(exhaustively_equivalent(&c, &simplified).unwrap());
        }

        /// Pinning an input agrees with simulating the original circuit with
        /// that input held constant.
        #[test]
        fn prop_pinning_matches_simulation(seed in 0u64..200, value: bool) {
            let c = random_circuit(seed);
            let pin = c.inputs()[0];
            let pinned = set_inputs_constant(&c, &[(pin, value)]).unwrap();
            let sim_orig = Simulator::new(&c).unwrap();
            let sim_pin = Simulator::new(&pinned).unwrap();
            let remaining = c.num_inputs() - 1;
            for pattern in 0u64..(1u64 << remaining) {
                let rest: Vec<bool> = (0..remaining).map(|i| pattern >> i & 1 != 0).collect();
                let mut full = vec![value];
                full.extend(&rest);
                proptest::prop_assert_eq!(sim_orig.run(&full).unwrap(), sim_pin.run(&rest).unwrap());
            }
        }

        /// One rebuild for all pairs builds the circuit that substituting
        /// them one at a time builds: into existing inputs, into fresh
        /// names, and into a `to` an earlier pair already named.
        #[test]
        fn prop_substitute_inputs_matches_the_fold(seed in 0u64..1000) {
            let (c, pairs) = random_substitution(seed);
            let pairs: Vec<(&str, &str)> =
                pairs.iter().map(|(f, t)| (f.as_str(), t.as_str())).collect();
            let mut folded = c.clone();
            for &(from, to) in &pairs {
                folded = substitute_input_reference(&folded, from, to).unwrap();
            }
            let once = substitute_inputs(&c, &pairs).unwrap();
            proptest::prop_assert_eq!(structure(&once), structure(&folded));
        }

        /// Every one-pass rebuild builds the circuit its reference builds,
        /// gate for gate and name for name: cones with and without cut
        /// points and the unit-stripped circuit against their hash-map
        /// references, pinned and unpinned constant propagation (one
        /// rebuild) against the simplified full circuit and its dangling
        /// prune (two), and the dangling prune against its hash-set
        /// reference; and the forward pass reaches the outputs the fan-out
        /// walk reaches.
        #[test]
        fn prop_rebuilds_match_the_references(seed in 0u64..1000) {
            use proptest::prop_assert_eq;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let c = random_soup(&mut rng);
            let nets: Vec<NetId> = c.nets().collect();
            let (root_count, cut_count) = (rng.gen_range(1..4), rng.gen_range(0..4));
            let mut pick = |count: usize| -> Vec<NetId> {
                (0..count).map(|_| nets[rng.gen_range(0..nets.len())]).collect()
            };
            let roots = pick(root_count);
            let cuts = pick(cut_count);
            let cut = pick(1)[0];
            for cut_points in [&[][..], &cuts[..]] {
                let cone = extract_cone(&c, &roots, cut_points).unwrap();
                let expected = reference::extract_cone(&c, &roots, cut_points).unwrap();
                prop_assert_eq!(structure(&cone), structure(&expected));
            }
            let usc = remove_cone(&c, cut).unwrap();
            let expected = reference::remove_cone(&c, cut).unwrap();
            prop_assert_eq!(structure(&usc), structure(&expected));

            let pins: Vec<(NetId, bool)> = (0..rng.gen_range(0..4))
                .map(|_| (c.inputs()[rng.gen_range(0..c.num_inputs())], rng.gen_bool(0.5)))
                .collect();
            let pinned = set_inputs_constant(&c, &pins).unwrap();
            let expected = reference::set_inputs_constant(&c, &pins).unwrap();
            prop_assert_eq!(structure(&pinned), structure(&expected));
            let folded = propagate_constants(&c).unwrap();
            let expected = reference::set_inputs_constant(&c, &[]).unwrap();
            prop_assert_eq!(structure(&folded), structure(&expected));
            let pruned = prune_dangling(&c).unwrap();
            let expected = prune_dangling_reference(&c).unwrap();
            prop_assert_eq!(structure(&pruned), structure(&expected));

            for &net in &nets {
                prop_assert_eq!(
                    analysis::outputs_reached_from(&c, net).unwrap(),
                    reference::outputs_reached_from(&c, net)
                );
            }
        }
    }

    /// The single-pair rebuild that [`substitute_inputs`] replaces: one
    /// topological sort and one rebuild through a name-keyed map per
    /// substituted input. Folding it over the pairs is the reference.
    fn substitute_input_reference(
        circuit: &Circuit,
        from: &str,
        to: &str,
    ) -> Result<Circuit, NetlistError> {
        let from_id = circuit
            .find_net(from)
            .filter(|&n| circuit.is_input(n))
            .ok_or_else(|| NetlistError::Transform(format!("`{from}` is not a primary input")))?;
        let mut result = Circuit::new(circuit.name().to_string());
        let mut map: HashMap<NetId, NetId> = HashMap::new();
        for &pi in circuit.inputs() {
            if pi == from_id {
                continue;
            }
            let new = result.add_input(circuit.net_name(pi))?;
            map.insert(pi, new);
        }
        let to_id = match circuit.find_net(to).filter(|&n| circuit.is_input(n)) {
            Some(existing) => map[&existing],
            None => result.add_input(to)?,
        };
        map.insert(from_id, to_id);
        for &gid in analysis::topological_order(circuit)?.iter() {
            let gate = circuit.gate(gid);
            let inputs: Vec<NetId> = gate.inputs.iter().map(|n| map[n]).collect();
            let out = result.add_gate(gate.ty, circuit.net_name(gate.output), &inputs)?;
            map.insert(gate.output, out);
        }
        for &o in circuit.outputs() {
            result.mark_output(map[&o]);
        }
        Ok(result)
    }

    /// [`prune_dangling`] over a hash-set fan-in cone and a hash-map net map.
    fn prune_dangling_reference(circuit: &Circuit) -> Result<Circuit, NetlistError> {
        let needed = analysis::fanin_cone_gates(circuit, circuit.outputs());
        let mut result = Circuit::new(circuit.name().to_string());
        let mut map: HashMap<NetId, NetId> = HashMap::new();
        for &pi in circuit.inputs() {
            let new = result.add_input(circuit.net_name(pi))?;
            map.insert(pi, new);
        }
        for &gid in analysis::topological_order(circuit)?.iter() {
            if !needed.contains(&gid) {
                continue;
            }
            let gate = circuit.gate(gid);
            let inputs: Vec<NetId> = gate.inputs.iter().map(|n| map[n]).collect();
            let out = result.add_gate(gate.ty, circuit.net_name(gate.output), &inputs)?;
            map.insert(gate.output, out);
        }
        for &o in circuit.outputs() {
            result.mark_output(map[&o]);
        }
        Ok(result)
    }

    /// A random gate soup for the rebuild references: two to seven inputs,
    /// up to twenty gates of every type (constants and repeated fanins
    /// included) over earlier nets, so some logic dangles, and one to six
    /// outputs. Nets are often named like fresh names (`g3$0`), so an
    /// output's `$N` name can collide with a net, dead or alive; outputs
    /// repeat, are inputs (pinned ones too), fold to constants, or are
    /// buffers that collapse onto an input or onto another output, so the
    /// output-name restoration renames, buffers and materialises.
    fn random_soup(rng: &mut rand::rngs::StdRng) -> Circuit {
        use rand::Rng;
        let types = [
            GateType::And,
            GateType::Nand,
            GateType::Or,
            GateType::Nor,
            GateType::Xor,
            GateType::Xnor,
            GateType::Not,
            GateType::Buf,
            GateType::Const0,
            GateType::Const1,
        ];
        let mut c = Circuit::new("soup");
        // Half the names after the first are fresh-like names derived from
        // an earlier net's, so they can collide with the `$N` names output
        // finalization derives from an output's name.
        let name = |c: &Circuit, rng: &mut rand::rngs::StdRng, plain: String| {
            if c.num_nets() == 0 || rng.gen_bool(0.5) {
                return plain;
            }
            let earlier = NetId(rng.gen_range(0..c.num_nets()) as u32);
            let fresh_like = format!("{}${}", c.net_name(earlier), rng.gen_range(0..3));
            if c.find_net(&fresh_like).is_none() {
                fresh_like
            } else {
                plain
            }
        };
        let mut nets: Vec<NetId> = Vec::new();
        for i in 0..rng.gen_range(2..8) {
            let input = name(&c, rng, format!("i{i}"));
            nets.push(c.add_input(input).unwrap());
        }
        for g in 0..rng.gen_range(0..21) {
            let ty = types[rng.gen_range(0..types.len())];
            let arity = match ty {
                GateType::Const0 | GateType::Const1 => 0,
                GateType::Not | GateType::Buf => 1,
                _ => rng.gen_range(1..4),
            };
            let fanin: Vec<NetId> = (0..arity)
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            let output = name(&c, rng, format!("g{g}"));
            nets.push(c.add_gate(ty, output, &fanin).unwrap());
        }
        for o in 0..rng.gen_range(1..7usize) {
            let net = match rng.gen_range(0..5) {
                0 if o > 0 => c.outputs()[rng.gen_range(0..o)],
                1 => c.inputs()[rng.gen_range(0..c.num_inputs())],
                2 => {
                    let source = if o > 0 && rng.gen_bool(0.5) {
                        c.outputs()[rng.gen_range(0..o)]
                    } else {
                        nets[rng.gen_range(0..nets.len())]
                    };
                    let buffer = name(&c, rng, format!("b{o}"));
                    c.add_gate(GateType::Buf, buffer, &[source]).unwrap()
                }
                _ => nets[rng.gen_range(0..nets.len())],
            };
            c.mark_output(net);
        }
        c
    }

    /// A random gate soup over six inputs (one of them also an output) and
    /// one to four substitution pairs: each `from` a distinct input, each
    /// `to` an input no pair replaces, one of two fresh names, or the `to`
    /// of an earlier pair.
    fn random_substitution(seed: u64) -> (Circuit, Vec<(String, String)>) {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(format!("subst{seed}"));
        let inputs: Vec<NetId> = (0..6)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let mut nets = inputs.clone();
        let types = [
            GateType::And,
            GateType::Nand,
            GateType::Or,
            GateType::Nor,
            GateType::Xor,
            GateType::Xnor,
            GateType::Not,
            GateType::Buf,
        ];
        for g in 0..14 {
            let ty = types[rng.gen_range(0..types.len())];
            let arity = match ty {
                GateType::Not | GateType::Buf => 1,
                _ => rng.gen_range(2..4),
            };
            let fanin: Vec<NetId> = (0..arity)
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            nets.push(c.add_gate(ty, format!("g{g}"), &fanin).unwrap());
        }
        for _ in 0..3 {
            c.mark_output(nets[rng.gen_range(6..nets.len())]);
        }
        c.mark_output(inputs[rng.gen_range(0..inputs.len())]);

        let mut order: Vec<usize> = (0..6).collect();
        order.shuffle(&mut rng);
        let (froms, kept) = order.split_at(rng.gen_range(1..5));
        let mut pairs: Vec<(String, String)> = Vec::new();
        for &from in froms {
            let to = match rng.gen_range(0..3) {
                0 if !pairs.is_empty() => pairs[rng.gen_range(0..pairs.len())].1.clone(),
                1 => format!("i{}", kept[rng.gen_range(0..kept.len())]),
                _ => format!("fresh{}", rng.gen_range(0..2)),
            };
            pairs.push((format!("i{from}"), to));
        }
        (c, pairs)
    }

    /// Small deterministic pseudo-random circuit for property tests.
    fn random_circuit(seed: u64) -> Circuit {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(format!("rand{seed}"));
        let n_inputs = 4;
        let mut nets: Vec<NetId> = (0..n_inputs)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        // Sprinkle in constants sometimes so propagation has work to do.
        if seed.is_multiple_of(3) {
            nets.push(c.add_gate(GateType::Const1, "konst1", &[]).unwrap());
            nets.push(c.add_gate(GateType::Const0, "konst0", &[]).unwrap());
        }
        let binary = [
            GateType::And,
            GateType::Nand,
            GateType::Or,
            GateType::Nor,
            GateType::Xor,
            GateType::Xnor,
        ];
        for g in 0..10 {
            let ty = binary[rng.gen_range(0..binary.len())];
            let a = nets[rng.gen_range(0..nets.len())];
            let b = nets[rng.gen_range(0..nets.len())];
            let out = c.add_gate(ty, format!("g{g}"), &[a, b]).unwrap();
            nets.push(out);
        }
        let last = *nets.last().unwrap();
        c.mark_output(last);
        c.mark_output(nets[nets.len() - 2]);
        c
    }
}

//! Logic removal's structural passes as they were before the cached
//! topological order: one hash-set fan-out cone per key input for the
//! critical signal, hash-set cones and hash-map net tables for the
//! rebuilds; and constant propagation as it was before it became one
//! rebuild: a simplified full circuit, then [`prune_dangling`] on it. They
//! are the references the one-pass versions are tested against, and are
//! compiled into test builds only: kratt-netlist declares this module under
//! `cfg(test)`, and the kratt-attacks and kratt-core tests include this same
//! file by path, so every crate checks against one copy.

use kratt_netlist::analysis::topological_order;
use kratt_netlist::transform::prune_dangling;
use kratt_netlist::{Circuit, GateId, GateType, NetId, NetlistError};
use std::collections::{HashMap, HashSet};

/// A map from every net to the gates that consume it.
pub fn fanout_map(circuit: &Circuit) -> HashMap<NetId, Vec<GateId>> {
    let mut map: HashMap<NetId, Vec<GateId>> = HashMap::new();
    for (gid, gate) in circuit.gates() {
        for &input in &gate.inputs {
            map.entry(input).or_default().push(gid);
        }
    }
    map
}

/// The gates reachable going *forwards* from `start` (the transitive fan-out
/// cone of a net), over an already computed [`fanout_map`].
pub fn fanout_cone_gates(
    circuit: &Circuit,
    fanout: &HashMap<NetId, Vec<GateId>>,
    start: NetId,
) -> HashSet<GateId> {
    let mut cone = HashSet::new();
    let mut stack = vec![start];
    let mut seen_nets: HashSet<NetId> = HashSet::new();
    seen_nets.insert(start);
    while let Some(net) = stack.pop() {
        if let Some(consumers) = fanout.get(&net) {
            for &gid in consumers {
                if cone.insert(gid) {
                    let out = circuit.gate(gid).output;
                    if seen_nets.insert(out) {
                        stack.push(out);
                    }
                }
            }
        }
    }
    cone
}

/// The primary outputs reachable from `start` going forwards, in output
/// order. `start` itself counts if it is listed as an output.
pub fn outputs_reached_from(circuit: &Circuit, start: NetId) -> Vec<NetId> {
    let cone = fanout_cone_gates(circuit, &fanout_map(circuit), start);
    let reached: HashSet<NetId> = cone
        .iter()
        .map(|&g| circuit.gate(g).output)
        .chain(std::iter::once(start))
        .collect();
    let mut result = Vec::new();
    for &o in circuit.outputs() {
        if reached.contains(&o) && !result.contains(&o) {
            result.push(o);
        }
    }
    result
}

/// The critical signal by the cone-intersection scan: the gates reachable
/// from every key input are the candidates, and `cs1` is the output of the
/// topologically first candidate whose removal disconnects every key input
/// from every primary output.
pub fn find_critical_signal(circuit: &Circuit) -> Option<NetId> {
    let key_inputs = circuit.key_inputs();
    if key_inputs.is_empty() {
        return None;
    }
    let fanout = fanout_map(circuit);
    let mut common: Option<HashSet<GateId>> = None;
    for &key in &key_inputs {
        let cone = fanout_cone_gates(circuit, &fanout, key);
        common = Some(match common {
            None => cone,
            Some(existing) => existing.intersection(&cone).copied().collect(),
        });
        if common.as_ref().map(|c| c.is_empty()).unwrap_or(false) {
            return None;
        }
    }
    let common = common?;
    let order = topological_order(circuit).ok()?;
    order
        .iter()
        .copied()
        .filter(|gid| common.contains(gid))
        .map(|gid| circuit.gate(gid).output)
        .find(|&candidate| !keys_reach_outputs_avoiding(circuit, &fanout, &key_inputs, candidate))
}

/// Whether any key input can still reach a primary output when forward
/// traversal is not allowed to pass through `blocked`.
fn keys_reach_outputs_avoiding(
    circuit: &Circuit,
    fanout: &HashMap<NetId, Vec<GateId>>,
    key_inputs: &[NetId],
    blocked: NetId,
) -> bool {
    let outputs: HashSet<NetId> = circuit.outputs().iter().copied().collect();
    let mut stack: Vec<NetId> = key_inputs
        .iter()
        .copied()
        .filter(|&n| n != blocked)
        .collect();
    let mut seen: HashSet<NetId> = stack.iter().copied().collect();
    while let Some(net) = stack.pop() {
        if outputs.contains(&net) {
            return true;
        }
        if let Some(consumers) = fanout.get(&net) {
            for &gid in consumers {
                let out = circuit.gate(gid).output;
                if out == blocked {
                    continue;
                }
                if seen.insert(out) {
                    stack.push(out);
                }
            }
        }
    }
    false
}

/// The fan-in cones of `roots`, cut at `cut_points` and primary inputs,
/// extracted by a hash-set walk and a hash-map rebuild.
pub fn extract_cone(
    circuit: &Circuit,
    roots: &[NetId],
    cut_points: &[NetId],
) -> Result<Circuit, NetlistError> {
    let cuts: HashSet<NetId> = cut_points.iter().copied().collect();
    let mut extracted = Circuit::new(format!("{}_cone", circuit.name()));

    let mut cone_gates: HashSet<GateId> = HashSet::new();
    let mut boundary: Vec<NetId> = Vec::new();
    let mut seen: HashSet<NetId> = HashSet::new();
    let mut stack: Vec<NetId> = roots.to_vec();
    for &r in roots {
        seen.insert(r);
    }
    while let Some(net) = stack.pop() {
        if cuts.contains(&net) || circuit.driver(net).is_none() {
            boundary.push(net);
            continue;
        }
        let gid = circuit.driver(net).expect("checked above");
        if cone_gates.insert(gid) {
            for &input in &circuit.gate(gid).inputs {
                if seen.insert(input) {
                    stack.push(input);
                }
            }
        }
    }

    let boundary_set: HashSet<NetId> = boundary.iter().copied().collect();
    let mut map: HashMap<NetId, NetId> = HashMap::new();
    for &pi in circuit.inputs() {
        if boundary_set.contains(&pi) {
            let new = extracted.add_input(circuit.net_name(pi))?;
            map.insert(pi, new);
        }
    }
    for &cut in cut_points {
        if boundary_set.contains(&cut) && !map.contains_key(&cut) {
            let new = extracted.add_input(circuit.net_name(cut))?;
            map.insert(cut, new);
        }
    }

    for &gid in topological_order(circuit)?.iter() {
        if !cone_gates.contains(&gid) {
            continue;
        }
        let gate = circuit.gate(gid);
        let inputs: Vec<NetId> = gate
            .inputs
            .iter()
            .map(|n| {
                map.get(n).copied().ok_or_else(|| {
                    NetlistError::Transform(format!(
                        "net `{}` escapes the extracted cone",
                        circuit.net_name(*n)
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        let out = extracted.add_gate(gate.ty, circuit.net_name(gate.output), &inputs)?;
        map.insert(gate.output, out);
    }

    for &root in roots {
        let mapped = map.get(&root).copied().ok_or_else(|| {
            NetlistError::Transform(format!("root `{}` not found", circuit.net_name(root)))
        })?;
        extracted.mark_output(mapped);
    }
    Ok(extracted)
}

/// The unit-stripped circuit with `cut` exposed as a primary input, built
/// by a hash-set walk from the outputs and a hash-map rebuild.
pub fn remove_cone(circuit: &Circuit, cut: NetId) -> Result<Circuit, NetlistError> {
    let mut usc = Circuit::new(format!("{}_usc", circuit.name()));
    let mut map: HashMap<NetId, NetId> = HashMap::new();
    for &pi in circuit.inputs() {
        let new = usc.add_input(circuit.net_name(pi))?;
        map.insert(pi, new);
    }
    if circuit.driver(cut).is_some() {
        let new = usc.add_input(circuit.net_name(cut))?;
        map.insert(cut, new);
    }

    let mut needed: HashSet<GateId> = HashSet::new();
    let mut seen: HashSet<NetId> = HashSet::new();
    let mut stack: Vec<NetId> = circuit.outputs().to_vec();
    for &o in circuit.outputs() {
        seen.insert(o);
    }
    while let Some(net) = stack.pop() {
        if net == cut {
            continue;
        }
        if let Some(gid) = circuit.driver(net) {
            if needed.insert(gid) {
                for &input in &circuit.gate(gid).inputs {
                    if seen.insert(input) {
                        stack.push(input);
                    }
                }
            }
        }
    }

    for &gid in topological_order(circuit)?.iter() {
        if !needed.contains(&gid) {
            continue;
        }
        let gate = circuit.gate(gid);
        let inputs: Vec<NetId> = gate.inputs.iter().map(|n| map[n]).collect();
        let out = usc.add_gate(gate.ty, circuit.net_name(gate.output), &inputs)?;
        map.insert(gate.output, out);
    }

    for &o in circuit.outputs() {
        usc.mark_output(map[&o]);
    }
    Ok(usc)
}

/// `set_inputs_constant` in two passes: every gate simplified into a full
/// circuit under its own name (dead logic included), the outputs
/// finalized there, then a second rebuild by [`prune_dangling`], which
/// sorts that circuit and copies its live gates name by name. With no pins
/// it is `propagate_constants`.
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
    let order = topological_order(circuit)?;
    let mut result = Circuit::new(circuit.name().to_string());
    let mut repr: Vec<Option<Simplified>> = vec![None; circuit.num_nets()];
    for &(net, value) in assignments {
        repr[net.index()] = Some(Simplified::Constant(value));
    }
    for &pi in circuit.inputs() {
        if repr[pi.index()].is_none() {
            let new = result.add_input(circuit.net_name(pi))?;
            repr[pi.index()] = Some(Simplified::Net(new));
        }
    }
    for &gid in order.iter() {
        let gate = circuit.gate(gid);
        let simplified = simplify_gate(circuit, &mut result, gid, &repr)?;
        repr[gate.output.index()] = Some(simplified);
    }
    for &o in circuit.outputs() {
        let want = circuit.net_name(o);
        let mapped = match repr[o.index()].ok_or_else(|| undriven(circuit, o))? {
            Simplified::Net(n) => n,
            Simplified::Constant(value) => {
                let ty = if value {
                    GateType::Const1
                } else {
                    GateType::Const0
                };
                add_named(&mut result, ty, want, &[])?
            }
        };
        let finalised = if result.net_name(mapped) == want {
            mapped
        } else if !result.is_input(mapped)
            && !result.is_output(mapped)
            && result.find_net(want).is_none()
        {
            result.rename_net(mapped, want)?;
            mapped
        } else {
            add_named(&mut result, GateType::Buf, want, &[mapped])?
        };
        result.mark_output(finalised);
    }
    prune_dangling(&result)
}

/// How a source net is represented in the simplified full circuit.
#[derive(Debug, Clone, Copy)]
enum Simplified {
    Constant(bool),
    Net(NetId),
}

fn undriven(circuit: &Circuit, net: NetId) -> NetlistError {
    NetlistError::Transform(format!("net `{}` is undriven", circuit.net_name(net)))
}

/// Simplifies one gate into `result`, adding at most one gate.
fn simplify_gate(
    circuit: &Circuit,
    result: &mut Circuit,
    gid: GateId,
    repr: &[Option<Simplified>],
) -> Result<Simplified, NetlistError> {
    use GateType::*;
    let gate = circuit.gate(gid);
    let (ty, name) = (gate.ty, circuit.net_name(gate.output));
    if matches!(ty, Const0) {
        return Ok(Simplified::Constant(false));
    }
    if matches!(ty, Const1) {
        return Ok(Simplified::Constant(true));
    }
    let mut const_inputs: Vec<bool> = Vec::new();
    let mut live_inputs: Vec<NetId> = Vec::new();
    for &net in &gate.inputs {
        match repr[net.index()].ok_or_else(|| undriven(circuit, net))? {
            Simplified::Constant(value) => const_inputs.push(value),
            Simplified::Net(n) => live_inputs.push(n),
        }
    }
    if live_inputs.is_empty() {
        return Ok(Simplified::Constant(ty.eval(&const_inputs)));
    }
    match ty {
        And | Nand => {
            if const_inputs.iter().any(|&v| !v) {
                return Ok(Simplified::Constant(ty == Nand));
            }
            emit_reduced(result, ty, &live_inputs, name, false)
        }
        Or | Nor => {
            if const_inputs.iter().any(|&v| v) {
                return Ok(Simplified::Constant(ty == Or));
            }
            emit_reduced(result, ty, &live_inputs, name, false)
        }
        Xor | Xnor => {
            let ones = const_inputs.iter().filter(|&&v| v).count();
            emit_reduced(result, ty, &live_inputs, name, ones % 2 == 1)
        }
        Not | Buf => {
            let source = live_inputs[0];
            if ty == Buf {
                Ok(Simplified::Net(source))
            } else {
                let out = add_named(result, Not, name, &[source])?;
                Ok(Simplified::Net(out))
            }
        }
        Const0 | Const1 => unreachable!("handled above"),
    }
}

/// A gate over the live inputs, with the XOR/XNOR parity flip, or a
/// BUF/NOT collapse when one input remains.
fn emit_reduced(
    result: &mut Circuit,
    ty: GateType,
    live: &[NetId],
    name: &str,
    flip: bool,
) -> Result<Simplified, NetlistError> {
    let effective = if flip { ty.complement() } else { ty };
    if live.len() == 1 {
        if effective.is_inverting() {
            let out = add_named(result, GateType::Not, name, &[live[0]])?;
            Ok(Simplified::Net(out))
        } else {
            Ok(Simplified::Net(live[0]))
        }
    } else {
        let out = add_named(result, effective, name, live)?;
        Ok(Simplified::Net(out))
    }
}

/// Adds a gate using `name` when free, otherwise a fresh name derived from it.
fn add_named(
    result: &mut Circuit,
    ty: GateType,
    name: &str,
    inputs: &[NetId],
) -> Result<NetId, NetlistError> {
    if result.find_net(name).is_none() {
        result.add_gate(ty, name, inputs)
    } else {
        result.add_gate_auto(ty, name, inputs)
    }
}

/// Input names in order, each gate's type, output name and fanin names in
/// gate order, and the output names in order: two circuits with equal
/// structures are identical gate for gate and name for name.
#[allow(clippy::type_complexity)]
pub fn structure(c: &Circuit) -> (Vec<&str>, Vec<(GateType, &str, Vec<&str>)>, Vec<&str>) {
    let names = |nets: &[NetId]| nets.iter().map(|&n| c.net_name(n)).collect::<Vec<_>>();
    let gates = c
        .gates()
        .map(|(_, gate)| (gate.ty, c.net_name(gate.output), names(&gate.inputs)))
        .collect();
    (names(c.inputs()), gates, names(c.outputs()))
}

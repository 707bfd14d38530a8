//! Structural analysis of circuits: topological ordering, cones, levels and
//! summary statistics.
//!
//! [`topological_order`] serves Kahn's order of the gates, sorted once per
//! circuit and cached on the [`Circuit`] until a structural mutation drops
//! it. Questions over the whole circuit are passes over that order with
//! `Vec` marks indexed by [`NetId`]: [`fanout_marks`] (what a net reaches)
//! is one forward pass, and [`fanin_marks`] (the cones the rebuilds of
//! [`transform`](crate::transform) keep) one pass over its reverse.
//! [`fanin_cone_gates`] and [`support`] walk back from their roots instead,
//! touching only the cone.

use crate::circuit::{Circuit, GateId, NetId};
use crate::NetlistError;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// The gates in topological order (inputs of a gate are driven either by
/// primary inputs or by earlier gates in the order): Kahn's algorithm with a
/// FIFO queue seeded in gate order. The order is computed on the first call
/// and cached on the circuit, so later calls share it until the circuit's
/// gates change.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the circuit contains a
/// cycle; the error carries the full cycle path in signal-flow order.
pub fn topological_order(circuit: &Circuit) -> Result<Arc<[GateId]>, NetlistError> {
    circuit.order()
}

/// Kahn's algorithm behind [`topological_order`]'s cache.
pub(crate) fn kahn_order(circuit: &Circuit) -> Result<Vec<GateId>, NetlistError> {
    let n = circuit.num_gates();
    // Number of gate-driven inputs each gate is still waiting for.
    let mut pending = vec![0usize; n];
    // Map from driving gate to the gates it feeds.
    let mut consumers: Vec<Vec<GateId>> = vec![Vec::new(); n];
    for (gid, gate) in circuit.gates() {
        for &input in &gate.inputs {
            if let Some(driver) = circuit.driver(input) {
                pending[gid.index()] += 1;
                consumers[driver.index()].push(gid);
            }
        }
    }
    let mut ready: VecDeque<GateId> = circuit
        .gates()
        .filter(|(gid, _)| pending[gid.index()] == 0)
        .map(|(gid, _)| gid)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(gid) = ready.pop_front() {
        order.push(gid);
        for &next in &consumers[gid.index()] {
            pending[next.index()] -= 1;
            if pending[next.index()] == 0 {
                ready.push_back(next);
            }
        }
    }
    if order.len() != n {
        return Err(NetlistError::CombinationalCycle(extract_cycle(
            circuit, &pending,
        )));
    }
    Ok(order)
}

/// Walks the still-pending gates of a failed Kahn run to recover an actual
/// cycle. Every stuck gate (pending > 0) has at least one input driven by
/// another stuck gate, so following such inputs from any stuck gate must
/// revisit a gate; the revisited segment is a cycle. The path is returned as
/// net names in signal-flow order (each net drives the next, the last feeds
/// the first).
fn extract_cycle(circuit: &Circuit, pending: &[usize]) -> Vec<String> {
    let Some(start) = circuit
        .gates()
        .map(|(gid, _)| gid)
        .find(|gid| pending[gid.index()] > 0)
    else {
        return Vec::new();
    };
    let mut position: HashMap<GateId, usize> = HashMap::new();
    let mut path: Vec<GateId> = Vec::new();
    let mut current = start;
    loop {
        if let Some(&first) = position.get(&current) {
            // `path[first..]` walks the cycle backwards (towards fanins);
            // reverse it so the reported path follows signal flow.
            let mut cycle: Vec<String> = path[first..]
                .iter()
                .map(|&gid| circuit.net_name(circuit.gate(gid).output).to_string())
                .collect();
            cycle.reverse();
            return cycle;
        }
        position.insert(current, path.len());
        path.push(current);
        let next = circuit
            .gate(current)
            .inputs
            .iter()
            .find_map(|&input| circuit.driver(input).filter(|d| pending[d.index()] > 0));
        match next {
            Some(gid) => current = gid,
            // Unreachable for a genuinely stuck gate; bail out defensively.
            None => return circuit.net_names(&[circuit.gate(current).output]),
        }
    }
}

/// The logic level (longest distance, in gates, from any primary input) of
/// every net, indexed by [`NetId::index`]. Primary inputs have level 0.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn logic_levels(circuit: &Circuit) -> Result<Vec<usize>, NetlistError> {
    let order = topological_order(circuit)?;
    let mut level = vec![0usize; circuit.num_nets()];
    for &gid in order.iter() {
        let gate = circuit.gate(gid);
        let max_in = gate
            .inputs
            .iter()
            .map(|&n| level[n.index()])
            .max()
            .unwrap_or(0);
        level[gate.output.index()] = max_in + 1;
    }
    Ok(level)
}

/// The depth of the circuit: the maximum logic level over the primary
/// outputs (0 for a circuit whose outputs are directly tied to inputs).
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn depth(circuit: &Circuit) -> Result<usize, NetlistError> {
    let levels = logic_levels(circuit)?;
    Ok(circuit
        .outputs()
        .iter()
        .map(|&o| levels[o.index()])
        .max()
        .unwrap_or(0))
}

/// The transitive fan-in cone of `roots`: every gate whose output can reach
/// one of the root nets going backwards through gate inputs.
pub fn fanin_cone_gates(circuit: &Circuit, roots: &[NetId]) -> HashSet<GateId> {
    let mut cone = HashSet::new();
    let mut stack: Vec<NetId> = roots.to_vec();
    let mut seen_nets: HashSet<NetId> = roots.iter().copied().collect();
    while let Some(net) = stack.pop() {
        if let Some(gid) = circuit.driver(net) {
            if cone.insert(gid) {
                for &input in &circuit.gate(gid).inputs {
                    if seen_nets.insert(input) {
                        stack.push(input);
                    }
                }
            }
        }
    }
    cone
}

/// The *support* of `roots`: the primary inputs that the fan-in cone of the
/// root nets depends on, in primary-input order.
pub fn support(circuit: &Circuit, roots: &[NetId]) -> Vec<NetId> {
    let cone = fanin_cone_gates(circuit, roots);
    let mut nets: HashSet<NetId> = roots.iter().copied().collect();
    for gid in &cone {
        for &input in &circuit.gate(*gid).inputs {
            nets.insert(input);
        }
    }
    circuit
        .inputs()
        .iter()
        .copied()
        .filter(|n| nets.contains(n))
        .collect()
}

/// Marks, in one pass over the reverse of the topological order, the nets
/// the fan-in cones of `roots` read (the roots included) and the gates they
/// hold, indexed by [`NetId::index`] and [`GateId::index`]. The walk does not
/// enter the driver of a net `stop` holds for.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn fanin_marks(
    circuit: &Circuit,
    roots: &[NetId],
    stop: impl Fn(NetId) -> bool,
) -> Result<(Vec<bool>, Vec<bool>), NetlistError> {
    let mut read = vec![false; circuit.num_nets()];
    for &root in roots {
        read[root.index()] = true;
    }
    let mut cone = vec![false; circuit.num_gates()];
    for &gid in topological_order(circuit)?.iter().rev() {
        let gate = circuit.gate(gid);
        // Every consumer of `gate.output` comes later in the order, so its
        // mark is final here.
        if read[gate.output.index()]
            && !stop(gate.output)
            && circuit.driver(gate.output) == Some(gid)
        {
            cone[gid.index()] = true;
            for &input in &gate.inputs {
                read[input.index()] = true;
            }
        }
    }
    Ok((read, cone))
}

/// Marks the nets reachable from `starts` going forwards (the starts
/// included), indexed by [`NetId::index`]: one pass over the topological
/// order.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn fanout_marks(circuit: &Circuit, starts: &[NetId]) -> Result<Vec<bool>, NetlistError> {
    let mut reached = vec![false; circuit.num_nets()];
    for &start in starts {
        reached[start.index()] = true;
    }
    for &gid in topological_order(circuit)?.iter() {
        let gate = circuit.gate(gid);
        if gate.inputs.iter().any(|n| reached[n.index()]) {
            reached[gate.output.index()] = true;
        }
    }
    Ok(reached)
}

/// The primary outputs reachable from `start` going forwards, in output
/// order, each once. `start` itself counts if it is listed as an output.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn outputs_reached_from(circuit: &Circuit, start: NetId) -> Result<Vec<NetId>, NetlistError> {
    let mut reached = fanout_marks(circuit, &[start])?;
    // Taking each mark as it is read keeps repeated outputs out.
    Ok(circuit
        .outputs()
        .iter()
        .copied()
        .filter(|o| std::mem::take(&mut reached[o.index()]))
        .collect())
}

/// Summary statistics of a circuit, used both for reporting (Table I) and as
/// the feature vector of the SCOPE-style constant-propagation analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    /// Number of primary inputs (key inputs included).
    pub inputs: usize,
    /// Number of key inputs.
    pub key_inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of gates.
    pub gates: usize,
    /// Total number of gate input pins (literal count, area proxy).
    pub literals: usize,
    /// Longest input-to-output path length in gates (delay proxy).
    pub depth: usize,
}

/// Computes [`CircuitStats`] for a circuit.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic (depth cannot be computed).
pub fn stats(circuit: &Circuit) -> Result<CircuitStats, NetlistError> {
    Ok(CircuitStats {
        inputs: circuit.num_inputs(),
        key_inputs: circuit.key_inputs().len(),
        outputs: circuit.num_outputs(),
        gates: circuit.num_gates(),
        literals: circuit.num_literals(),
        depth: depth(circuit)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateType;

    /// Two-level circuit: o1 = (a AND b) OR c, o2 = NOT(a AND b).
    fn sample() -> Circuit {
        let mut c = Circuit::new("sample");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let cc = c.add_input("c").unwrap();
        let ab = c.add_gate(GateType::And, "ab", &[a, b]).unwrap();
        let o1 = c.add_gate(GateType::Or, "o1", &[ab, cc]).unwrap();
        let o2 = c.add_gate(GateType::Not, "o2", &[ab]).unwrap();
        c.mark_output(o1);
        c.mark_output(o2);
        c
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let c = sample();
        let order = topological_order(&c).unwrap();
        assert_eq!(order.len(), 3);
        let pos: HashMap<GateId, usize> = order.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        for (gid, gate) in c.gates() {
            for &input in &gate.inputs {
                if let Some(driver) = c.driver(input) {
                    assert!(pos[&driver] < pos[&gid]);
                }
            }
        }
    }

    #[test]
    fn levels_and_depth() {
        let c = sample();
        let levels = logic_levels(&c).unwrap();
        let ab = c.find_net("ab").unwrap();
        let o1 = c.find_net("o1").unwrap();
        assert_eq!(levels[ab.index()], 1);
        assert_eq!(levels[o1.index()], 2);
        assert_eq!(depth(&c).unwrap(), 2);
    }

    #[test]
    fn fanin_cone_and_support() {
        let c = sample();
        let o2 = c.find_net("o2").unwrap();
        let cone = fanin_cone_gates(&c, &[o2]);
        assert_eq!(cone.len(), 2); // NOT and AND
        let sup = support(&c, &[o2]);
        let names: Vec<&str> = sup.iter().map(|&n| c.net_name(n)).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn fanout_cone_and_reached_outputs() {
        use crate::reference::{fanout_cone_gates, fanout_map};
        let c = sample();
        let a = c.find_net("a").unwrap();
        let cc = c.find_net("c").unwrap();
        let fanout = fanout_map(&c);
        let from_a = fanout_cone_gates(&c, &fanout, a);
        assert_eq!(from_a.len(), 3); // AND, OR, NOT
        let from_c = fanout_cone_gates(&c, &fanout, cc);
        assert_eq!(from_c.len(), 1); // OR only
        let outs = outputs_reached_from(&c, cc).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(c.net_name(outs[0]), "o1");
        let outs_a = outputs_reached_from(&c, a).unwrap();
        assert_eq!(outs_a.len(), 2);
    }

    #[test]
    fn cycle_detection_reports_the_full_path() {
        // Build a three-gate cycle x -> y -> z -> x through the raw rewire
        // fixture hook (the construction API itself cannot create cycles).
        let mut c = Circuit::new("cyclic");
        let a = c.add_input("a").unwrap();
        let x = c.add_gate(GateType::And, "x", &[a, a]).unwrap();
        let y = c.add_gate(GateType::Buf, "y", &[x]).unwrap();
        let z = c.add_gate(GateType::Buf, "z", &[y]).unwrap();
        c.mark_output(z);
        assert!(topological_order(&c).is_ok());
        let x_gate = c.driver(x).unwrap();
        c.raw_set_gate_input(x_gate, 1, z);
        match topological_order(&c) {
            Err(NetlistError::CombinationalCycle(path)) => {
                // All three nets appear, in signal-flow order (cyclic
                // rotation of x -> y -> z).
                assert_eq!(path.len(), 3, "full path, not one net: {path:?}");
                let start = path.iter().position(|n| n == "x").unwrap();
                let rotated: Vec<&str> = (0..3).map(|i| path[(start + i) % 3].as_str()).collect();
                assert_eq!(rotated, vec!["x", "y", "z"]);
            }
            other => panic!("expected a cycle error, got {other:?}"),
        }
        // A gate feeding itself is the minimal cycle.
        let mut c = Circuit::new("self");
        let a = c.add_input("a").unwrap();
        let s = c.add_gate(GateType::And, "s", &[a, a]).unwrap();
        c.mark_output(s);
        let s_gate = c.driver(s).unwrap();
        c.raw_set_gate_input(s_gate, 0, s);
        match topological_order(&c) {
            Err(NetlistError::CombinationalCycle(path)) => {
                assert_eq!(path, vec!["s".to_string()]);
            }
            other => panic!("expected a cycle error, got {other:?}"),
        }
    }

    #[test]
    fn stats_cover_interface_and_structure() {
        let c = sample();
        let s = stats(&c).unwrap();
        assert_eq!(s.inputs, 3);
        assert_eq!(s.outputs, 2);
        assert_eq!(s.gates, 3);
        assert_eq!(s.literals, 5);
        assert_eq!(s.depth, 2);
        assert_eq!(s.key_inputs, 0);
    }
}

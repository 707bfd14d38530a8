//! Structural primitives shared by the removal attack and by KRATT's logic
//! removal step.

use kratt_netlist::analysis::{fanout_cone_gates_in, fanout_map, topological_order};
use kratt_netlist::{Circuit, GateId, NetId};
use std::collections::{HashMap, HashSet};

/// Finds the *critical signal* `cs1` of a locked netlist: the output of the
/// first gate (in topological order) on the paths from the key inputs to the
/// primary outputs through which **all** key influence flows (the paper's
/// Section III-A, step (i)).
///
/// Concretely, the candidate gates are those reachable from every key input;
/// among them, `cs1` is the output of the topologically first gate whose
/// removal disconnects every key input from every primary output — i.e. the
/// single merge point of the locking/restore unit.
///
/// Returns `None` if the circuit has no key inputs or no such single merge
/// point exists (e.g. random XOR locking, where key gates are scattered).
pub fn find_critical_signal(circuit: &Circuit) -> Option<NetId> {
    let key_inputs = circuit.key_inputs();
    if key_inputs.is_empty() {
        return None;
    }
    // One fan-out map serves every traversal below: the per-key-input cones
    // and each candidate's reachability re-check.
    let fanout = fanout_map(circuit);
    // Gates reachable from every key input.
    let mut common: Option<HashSet<GateId>> = None;
    for &key in &key_inputs {
        let cone = fanout_cone_gates_in(circuit, &fanout, key);
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
        .into_iter()
        .filter(|gid| common.contains(gid))
        .map(|gid| circuit.gate(gid).output)
        .find(|&candidate| !keys_reach_outputs_avoiding(circuit, &fanout, &key_inputs, candidate))
}

/// Whether any key input can still reach a primary output when forward
/// traversal is not allowed to pass through `blocked`. `fanout` is the
/// caller's shared fan-out map.
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

/// Finds, for each protected primary input of the extracted locking/restore
/// unit, the key input(s) associated with it: the key inputs that share a
/// gate with the protected input inside the unit (possibly through
/// inverters), as in the paper's Section III-A. Anti-SAT style units
/// associate two key inputs per protected input.
///
/// The returned pairs are `(protected input name, key input names)`, in
/// data-input order; each input's keys come in gate order, then in the
/// gate's input order, without repeats. One pass over the gates serves
/// every protected input.
pub fn associate_keys_with_inputs(unit: &Circuit) -> Vec<(String, Vec<String>)> {
    let key_inputs: HashSet<NetId> = unit.key_inputs().into_iter().collect();
    let data_inputs: Vec<NetId> = unit.data_inputs();

    // Map each net to the primary input it transitively buffers/inverts, if
    // it is just a chain of NOT/BUF gates from that input.
    let mut alias: HashMap<NetId, NetId> = HashMap::new();
    for &pi in unit.inputs() {
        alias.insert(pi, pi);
    }
    if let Ok(order) = topological_order(unit) {
        for gid in order {
            let gate = unit.gate(gid);
            if gate.inputs.len() == 1 {
                if let Some(&root) = alias.get(&gate.inputs[0]) {
                    alias.insert(gate.output, root);
                }
            }
        }
    }

    let slot: HashMap<NetId, usize> = data_inputs
        .iter()
        .enumerate()
        .map(|(index, &ppi)| (ppi, index))
        .collect();
    let mut keys: Vec<Vec<NetId>> = vec![Vec::new(); data_inputs.len()];
    let mut roots: Vec<NetId> = Vec::new();
    for (_, gate) in unit.gates() {
        roots.clear();
        roots.extend(gate.inputs.iter().filter_map(|n| alias.get(n).copied()));
        for &ppi in &roots {
            let Some(&index) = slot.get(&ppi) else {
                continue;
            };
            for &root in &roots {
                if key_inputs.contains(&root) && !keys[index].contains(&root) {
                    keys[index].push(root);
                }
            }
        }
    }
    data_inputs
        .iter()
        .zip(keys)
        .map(|(&ppi, keys)| {
            (
                unit.net_name(ppi).to_string(),
                keys.into_iter()
                    .map(|key| unit.net_name(key).to_string())
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_locking::{AntiSat, LockingTechnique, SarLock, SecretKey, TtLock};
    use kratt_netlist::transform::extract_cone;
    use kratt_netlist::GateType;

    fn majority() -> Circuit {
        let mut c = Circuit::new("majority");
        let a = c.add_input("x1").unwrap();
        let b = c.add_input("x2").unwrap();
        let x = c.add_input("x3").unwrap();
        let ab = c.add_gate(GateType::And, "ab", &[a, b]).unwrap();
        let ax = c.add_gate(GateType::And, "ax", &[a, x]).unwrap();
        let bx = c.add_gate(GateType::And, "bx", &[b, x]).unwrap();
        let maj = c.add_gate(GateType::Or, "f", &[ab, ax, bx]).unwrap();
        c.mark_output(maj);
        c
    }

    #[test]
    fn critical_signal_of_sarlock_is_the_flip_root() {
        let locked = SarLock::new(3)
            .lock(&majority(), &SecretKey::from_u64(0b100, 3))
            .unwrap();
        let cs1 = find_critical_signal(&locked.circuit).expect("SFLT has a critical signal");
        // The critical signal is the flip root: its only consumer is the XOR
        // that corrupts the primary output, and its cone contains every key
        // input together with the hard-wired mask logic.
        let fanout = kratt_netlist::analysis::fanout_map(&locked.circuit);
        let consumers = &fanout[&cs1];
        assert_eq!(consumers.len(), 1);
        let consumer = locked.circuit.gate(consumers[0]);
        assert_eq!(consumer.ty, GateType::Xor);
        assert!(locked.circuit.is_output(consumer.output));
        let unit = extract_cone(&locked.circuit, &[cs1], &[]).unwrap();
        assert_eq!(unit.key_inputs().len(), 3);
        assert!(
            unit.num_gates() > 6,
            "unit must include comparator and mask logic"
        );
    }

    #[test]
    fn critical_signal_of_ttlock_is_the_restore_root() {
        let locked = TtLock::new(3)
            .lock(&majority(), &SecretKey::from_u64(0b010, 3))
            .unwrap();
        let cs1 = find_critical_signal(&locked.circuit).expect("DFLT has a critical signal");
        let unit = extract_cone(&locked.circuit, &[cs1], &[]).unwrap();
        // The restore unit depends on all 3 key inputs and the 3 PPIs only.
        assert_eq!(unit.key_inputs().len(), 3);
        assert_eq!(unit.data_inputs().len(), 3);
    }

    #[test]
    fn no_key_inputs_means_no_critical_signal() {
        assert!(find_critical_signal(&majority()).is_none());
    }

    #[test]
    fn association_pairs_each_ppi_with_one_key_for_comparator_units() {
        let locked = TtLock::new(3)
            .lock(&majority(), &SecretKey::from_u64(0b001, 3))
            .unwrap();
        let cs1 = find_critical_signal(&locked.circuit).unwrap();
        let unit = extract_cone(&locked.circuit, &[cs1], &[]).unwrap();
        let assoc = associate_keys_with_inputs(&unit);
        assert_eq!(assoc.len(), 3);
        for (ppi, keys) in &assoc {
            assert_eq!(keys.len(), 1, "PPI {ppi} should pair with exactly one key");
        }
        // Each key input appears exactly once overall.
        let mut all_keys: Vec<&String> = assoc.iter().flat_map(|(_, k)| k).collect();
        all_keys.sort();
        all_keys.dedup();
        assert_eq!(all_keys.len(), 3);
    }

    #[test]
    fn association_pairs_each_ppi_with_two_keys_for_anti_sat() {
        let locked = AntiSat::new(6)
            .lock(&majority(), &SecretKey::from_u64(0b101_010, 6))
            .unwrap();
        let cs1 = find_critical_signal(&locked.circuit).unwrap();
        let unit = extract_cone(&locked.circuit, &[cs1], &[]).unwrap();
        let assoc = associate_keys_with_inputs(&unit);
        assert_eq!(assoc.len(), 3);
        for (ppi, keys) in &assoc {
            assert_eq!(
                keys.len(),
                2,
                "PPI {ppi} should pair with two keys in Anti-SAT"
            );
        }
    }
}

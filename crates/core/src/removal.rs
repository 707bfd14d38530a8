//! Step 1 of the flow: logic removal.
//!
//! KRATT identifies the critical signal `cs1`, splits the locked netlist into
//! the *locking/restore unit* (the fan-in cone of `cs1`) and the
//! *unit-stripped circuit* (USC, where `cs1` becomes a fresh primary input),
//! and records, for every protected primary input, the key input(s) it shares
//! a gate with inside the unit.

use crate::KrattError;
use kratt_attacks::structure::{associate_keys_with_inputs, find_critical_signal};
use kratt_netlist::transform::{extract_cone, remove_cone};
use kratt_netlist::Circuit;

/// The artefacts of the logic-removal step, consumed by every later step.
#[derive(Debug, Clone)]
pub struct RemovalArtifacts {
    /// Name of the critical signal `cs1`.
    pub critical_signal: String,
    /// The locking/restore unit: fan-in cone of `cs1`, with the protected
    /// primary inputs and key inputs as its primary inputs and `cs1` as its
    /// only output.
    pub unit: Circuit,
    /// The unit-stripped circuit: the locked netlist with the cone of `cs1`
    /// removed and `cs1` exposed as an additional primary input.
    pub unit_stripped: Circuit,
    /// For every protected primary input (by name), the key input name(s)
    /// associated with it. Anti-SAT-style units have two keys per input.
    pub associations: Vec<(String, Vec<String>)>,
}

impl RemovalArtifacts {
    /// Names of the protected primary inputs, in association order.
    pub fn protected_inputs(&self) -> Vec<String> {
        self.associations
            .iter()
            .map(|(ppi, _)| ppi.clone())
            .collect()
    }

    /// Names of the key inputs of the unit, in `keyinput` order.
    pub fn key_inputs(&self) -> Vec<String> {
        self.unit.key_input_names()
    }
}

/// Performs the logic-removal step on a locked netlist.
///
/// # Errors
///
/// Returns [`KrattError::NoKeyInputs`] for an unlocked netlist and
/// [`KrattError::NoCriticalSignal`] when the key inputs do not converge into
/// a single merge point (KRATT's removal-based flow then does not apply).
pub fn remove_locking_unit(locked: &Circuit) -> Result<RemovalArtifacts, KrattError> {
    if locked.key_inputs().is_empty() {
        return Err(KrattError::NoKeyInputs);
    }
    let cs1 = find_critical_signal(locked).ok_or(KrattError::NoCriticalSignal)?;
    let critical_signal = locked.net_name(cs1).to_string();
    let unit = extract_cone(locked, &[cs1], &[])?;
    let unit_stripped = remove_cone(locked, cs1)?;
    let associations = associate_keys_with_inputs(&unit);
    Ok(RemovalArtifacts {
        critical_signal,
        unit,
        unit_stripped,
        associations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_benchmarks::small::majority;
    use kratt_locking::{AntiSat, LockingTechnique, SarLock, SecretKey, TtLock};

    #[test]
    fn sarlock_unit_and_usc_are_split_correctly() {
        let original = majority();
        let locked = SarLock::new(3)
            .lock(&original, &SecretKey::from_u64(0b100, 3))
            .unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        // The unit contains every key input and every protected input.
        assert_eq!(artifacts.unit.key_inputs().len(), 3);
        assert_eq!(artifacts.unit.data_inputs().len(), 3);
        assert_eq!(artifacts.unit.num_outputs(), 1);
        // The USC exposes cs1 as an input and still has the original output.
        let cs1 = artifacts
            .unit_stripped
            .find_net(&artifacts.critical_signal)
            .unwrap();
        assert!(artifacts.unit_stripped.is_input(cs1));
        assert_eq!(
            artifacts.unit_stripped.num_outputs(),
            original.num_outputs()
        );
        // With cs1 tied to 0 the USC is the original circuit again.
        let recovered = kratt_netlist::transform::set_inputs_constant(
            &artifacts.unit_stripped,
            &[(cs1, false)],
        )
        .unwrap();
        let key_width = recovered.key_inputs().len();
        let recovered =
            kratt_locking::common::apply_key(&recovered, &SecretKey::from_u64(0, key_width))
                .unwrap();
        assert!(kratt_netlist::sim::exhaustively_equivalent(&original, &recovered).unwrap());
    }

    #[test]
    fn ttlock_associations_are_one_to_one() {
        let original = majority();
        let locked = TtLock::new(3)
            .lock(&original, &SecretKey::from_u64(0b010, 3))
            .unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        assert_eq!(artifacts.associations.len(), 3);
        for (_, keys) in &artifacts.associations {
            assert_eq!(keys.len(), 1);
        }
        assert_eq!(artifacts.protected_inputs(), vec!["x1", "x2", "x3"]);
        assert_eq!(artifacts.key_inputs().len(), 3);
    }

    #[test]
    fn anti_sat_associations_are_one_to_two() {
        let original = majority();
        let locked = AntiSat::new(6)
            .lock(&original, &SecretKey::from_u64(0b110_101, 6))
            .unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        for (_, keys) in &artifacts.associations {
            assert_eq!(keys.len(), 2);
        }
    }

    /// The association as the paper states it, one walk over the unit's
    /// gates per protected input: the reference of the one-pass
    /// [`associate_keys_with_inputs`].
    fn associate_keys_reference(unit: &Circuit) -> Vec<(String, Vec<String>)> {
        use kratt_netlist::analysis::topological_order;
        use kratt_netlist::NetId;
        use std::collections::{HashMap, HashSet};
        let key_inputs: HashSet<NetId> = unit.key_inputs().into_iter().collect();
        let mut alias: HashMap<NetId, NetId> = HashMap::new();
        for &pi in unit.inputs() {
            alias.insert(pi, pi);
        }
        if let Ok(order) = topological_order(unit) {
            for &gid in order.iter() {
                let gate = unit.gate(gid);
                if gate.inputs.len() == 1 {
                    if let Some(&root) = alias.get(&gate.inputs[0]) {
                        alias.insert(gate.output, root);
                    }
                }
            }
        }
        let mut result = Vec::new();
        for ppi in unit.data_inputs() {
            let mut keys: Vec<String> = Vec::new();
            for (_, gate) in unit.gates() {
                let roots: Vec<NetId> = gate
                    .inputs
                    .iter()
                    .filter_map(|n| alias.get(n).copied())
                    .collect();
                if roots.contains(&ppi) {
                    for &root in &roots {
                        if key_inputs.contains(&root) {
                            let name = unit.net_name(root).to_string();
                            if !keys.contains(&name) {
                                keys.push(name);
                            }
                        }
                    }
                }
            }
            result.push((unit.net_name(ppi).to_string(), keys));
        }
        result
    }

    #[test]
    fn one_pass_association_matches_the_reference_on_every_scheme_and_host() {
        // Every registry scheme on every Table-I host at scale 0.05: the
        // unit KRATT removes where there is one, the whole locked netlist
        // (RLL) where there is none.
        let registry = kratt_locking::scheme_registry();
        let mut units = 0;
        for row in kratt_benchmarks::table1_circuits(0.05) {
            for name in registry.names() {
                let spec = kratt_locking::SchemeSpec::new(name)
                    .unwrap()
                    .with_param("k", row.key_bits as u64)
                    .with_param("seed", 0xa55c);
                let locked = registry.lock(&spec, &row.circuit).unwrap();
                let unit = match remove_locking_unit(&locked.circuit) {
                    Ok(artifacts) => {
                        units += 1;
                        artifacts.unit
                    }
                    Err(_) => locked.circuit,
                };
                assert_eq!(
                    associate_keys_with_inputs(&unit),
                    associate_keys_reference(&unit),
                    "{}/{spec}",
                    row.name
                );
            }
        }
        assert!(units > 0);
    }

    #[test]
    fn removal_matches_the_references_on_every_scheme_and_host() {
        // Every registry scheme on every Table-I host at scale 0.05: the
        // first dominator is the cone-intersection scan's critical signal,
        // and the `Vec`-indexed rebuilds give the hash-map references' unit,
        // unit-stripped circuit and locked subcircuit, name for name.
        use crate::extraction::extract_locked_subcircuit;
        use crate::reference::{self, structure};
        let registry = kratt_locking::scheme_registry();
        let mut units = 0;
        for row in kratt_benchmarks::table1_circuits(0.05) {
            for name in registry.names() {
                let spec = kratt_locking::SchemeSpec::new(name)
                    .unwrap()
                    .with_param("k", row.key_bits as u64)
                    .with_param("seed", 0xa55c);
                let locked = registry.lock(&spec, &row.circuit).unwrap().circuit;
                let what = format!("{}/{spec}", row.name);
                let Some(cs1) = reference::find_critical_signal(&locked) else {
                    assert!(remove_locking_unit(&locked).is_err(), "{what}");
                    continue;
                };
                units += 1;
                let artifacts = remove_locking_unit(&locked).unwrap();
                assert_eq!(artifacts.critical_signal, locked.net_name(cs1), "{what}");
                let unit = reference::extract_cone(&locked, &[cs1], &[]).unwrap();
                assert_eq!(structure(&artifacts.unit), structure(&unit), "{what}");
                let usc = reference::remove_cone(&locked, cs1).unwrap();
                assert_eq!(
                    structure(&artifacts.unit_stripped),
                    structure(&usc),
                    "{what}"
                );
                let cut = usc.find_net(&artifacts.critical_signal).unwrap();
                let outputs = reference::outputs_reached_from(&usc, cut);
                let subcircuit = reference::extract_cone(&usc, &outputs, &[]).unwrap();
                let extracted = extract_locked_subcircuit(&artifacts).unwrap();
                assert_eq!(structure(&extracted), structure(&subcircuit), "{what}");
            }
        }
        assert!(units > 0);
    }

    #[test]
    fn apply_key_matches_the_reference_on_every_scheme_and_host() {
        // Every registry scheme on every Table-I host at scale 0.05: the one
        // constant-propagation rebuild gives the two-pass reference's
        // unlocked circuit under the planted key and under a wrong one
        // (every bit flipped), and its constant-folded locked netlist, name
        // for name.
        use crate::reference::{self, structure};
        let registry = kratt_locking::scheme_registry();
        for row in kratt_benchmarks::table1_circuits(0.05) {
            for name in registry.names() {
                let spec = kratt_locking::SchemeSpec::new(name)
                    .unwrap()
                    .with_param("k", row.key_bits as u64)
                    .with_param("seed", 0xa55c);
                let locked = registry.lock(&spec, &row.circuit).unwrap();
                let what = format!("{}/{spec}", row.name);
                let wrong = kratt_locking::SecretKey::from_bits(
                    locked.secret.bits().iter().map(|&bit| !bit).collect(),
                );
                for key in [&locked.secret, &wrong] {
                    let pins: Vec<_> = locked
                        .circuit
                        .key_inputs()
                        .into_iter()
                        .zip(key.bits().iter().copied())
                        .collect();
                    let expected = reference::set_inputs_constant(&locked.circuit, &pins).unwrap();
                    let unlocked = locked.apply_key(key).unwrap();
                    assert_eq!(structure(&unlocked), structure(&expected), "{what}");
                }
                let folded =
                    kratt_netlist::transform::propagate_constants(&locked.circuit).unwrap();
                let expected = reference::set_inputs_constant(&locked.circuit, &[]).unwrap();
                assert_eq!(structure(&folded), structure(&expected), "{what}");
            }
        }
    }

    #[test]
    fn unlocked_circuit_is_rejected() {
        assert!(matches!(
            remove_locking_unit(&majority()),
            Err(KrattError::NoKeyInputs)
        ));
    }
}

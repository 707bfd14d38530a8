//! The paper's §V discussion: reconstructing the original circuit from the
//! functionality-stripped circuit once the protected pattern is known.
//!
//! For locking schemes whose restore unit is hidden in read-proof hardware
//! (SFLL-Flex, row-activated LUTs), no attack can recover the key — but the
//! structural analysis still recovers the protected primary input pattern(s).
//! The original circuit is then rebuilt by driving the stripped critical
//! signal with a hard-wired comparator against the recovered pattern, which
//! is exactly "adding these values into the FSC using a comparator and XOR
//! logic".

use crate::{KrattError, RemovalArtifacts};
use kratt_netlist::analysis::topological_order;
use kratt_netlist::transform::set_inputs_constant;
use kratt_netlist::{Circuit, GateType, NetId};
use std::collections::HashMap;

/// Rebuilds the original circuit from the unit-stripped circuit and one
/// recovered protected pattern: the critical signal is re-driven by
/// `AND_i (ppi_i == pattern_i)` and the dangling key inputs are removed.
///
/// This is the single-pattern case (TTLock, CAC, SFLL-HD0); see
/// [`reconstruct_original_from_patterns`] for schemes that strip several
/// patterns (SFLL-Flex, LUT locking).
///
/// # Errors
///
/// Returns an error if a protected input named in `pattern` does not exist
/// in the unit-stripped circuit.
pub fn reconstruct_original(
    artifacts: &RemovalArtifacts,
    pattern: &[(String, bool)],
) -> Result<Circuit, KrattError> {
    reconstruct_original_from_patterns(artifacts, std::slice::from_ref(&pattern.to_vec()))
}

/// Rebuilds the original circuit from the unit-stripped circuit and a *set*
/// of recovered protected patterns: the critical signal is re-driven by
/// `OR_p AND_i (ppi_i == p_i)` — one hard-wired comparator per stripped
/// pattern — and the dangling key inputs are removed. This is exactly the
/// paper's §V construction ("adding these values into the FSC using a
/// comparator and XOR logic") for SFLL-Flex and row-activated LUT locking,
/// whose perturb unit strips several patterns.
///
/// An empty pattern set re-drives the critical signal with constant 0, i.e.
/// returns the functionality-stripped circuit itself.
///
/// # Errors
///
/// Returns an error if a protected input named in any pattern does not exist
/// in the unit-stripped circuit.
pub fn reconstruct_original_from_patterns(
    artifacts: &RemovalArtifacts,
    patterns: &[Vec<(String, bool)>],
) -> Result<Circuit, KrattError> {
    let usc = &artifacts.unit_stripped;
    let cs1_name = &artifacts.critical_signal;

    let mut rebuilt = Circuit::new(format!("{}_reconstructed", usc.name()));
    let mut map: HashMap<NetId, NetId> = HashMap::new();

    // Keep every primary input except the exposed critical signal.
    let cs1 = usc.find_net(cs1_name).ok_or_else(|| {
        KrattError::Netlist(kratt_netlist::NetlistError::UnknownNet(cs1_name.clone()))
    })?;
    for &pi in usc.inputs() {
        if pi == cs1 {
            continue;
        }
        let new = rebuilt.add_input(usc.net_name(pi))?;
        map.insert(pi, new);
    }

    // One hard-wired comparator per protected pattern, OR-reduced.
    let mut comparators: Vec<NetId> = Vec::with_capacity(patterns.len());
    for pattern in patterns {
        let mut terms: Vec<NetId> = Vec::with_capacity(pattern.len());
        for (name, value) in pattern {
            let source = rebuilt
                .find_net(name)
                .filter(|&n| rebuilt.is_input(n))
                .ok_or_else(|| {
                    KrattError::Netlist(kratt_netlist::NetlistError::UnknownNet(name.clone()))
                })?;
            let term = if *value {
                source
            } else {
                rebuilt.add_gate_auto(GateType::Not, "rec_inv", &[source])?
            };
            terms.push(term);
        }
        comparators.push(reduce(&mut rebuilt, GateType::And, terms, "rec_and")?);
    }
    let restored_cs1 = reduce(&mut rebuilt, GateType::Or, comparators, "rec_or")?;
    map.insert(cs1, restored_cs1);

    // Copy the USC logic on top.
    for &gid in topological_order(usc)?.iter() {
        let gate = usc.gate(gid);
        let inputs: Vec<NetId> = gate.inputs.iter().map(|n| map[n]).collect();
        let out = if rebuilt.find_net(usc.net_name(gate.output)).is_none() {
            rebuilt.add_gate(gate.ty, usc.net_name(gate.output), &inputs)?
        } else {
            rebuilt.add_gate_auto(gate.ty, usc.net_name(gate.output), &inputs)?
        };
        map.insert(gate.output, out);
    }
    for &o in usc.outputs() {
        rebuilt.mark_output(map[&o]);
    }

    // The key inputs are dangling now; tie them off so the interface matches
    // the original circuit.
    let keys: Vec<(NetId, bool)> = rebuilt
        .key_inputs()
        .into_iter()
        .map(|n| (n, false))
        .collect();
    Ok(set_inputs_constant(&rebuilt, &keys)?)
}

/// Balanced binary reduction of `nets` with gates of type `ty`. Zero nets
/// produce the neutral constant of the operation (1 for AND, 0 for OR); a
/// single net is returned unchanged.
fn reduce(
    circuit: &mut Circuit,
    ty: GateType,
    nets: Vec<NetId>,
    prefix: &str,
) -> Result<NetId, KrattError> {
    match nets.len() {
        0 => Ok(circuit.add_gate_auto(
            if ty == GateType::And {
                GateType::Const1
            } else {
                GateType::Const0
            },
            prefix,
            &[],
        )?),
        1 => Ok(nets[0]),
        _ => {
            let mut level = nets;
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                for pair in level.chunks(2) {
                    if pair.len() == 2 {
                        next.push(circuit.add_gate_auto(ty, prefix, pair)?);
                    } else {
                        next.push(pair[0]);
                    }
                }
                level = next;
            }
            Ok(level[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::og::{structural_analysis, StructuralAnalysisConfig, StructuralOutcome};
    use crate::removal::remove_locking_unit;
    use kratt_attacks::Oracle;
    use kratt_benchmarks::arith::ripple_carry_adder;
    use kratt_benchmarks::small::majority;
    use kratt_locking::{LockingTechnique, SecretKey, TtLock};
    use kratt_netlist::sim::exhaustively_equivalent;

    #[test]
    fn reconstruction_from_the_true_pattern_matches_the_original() {
        let original = majority();
        let secret = SecretKey::from_u64(0b110, 3);
        let locked = TtLock::new(3).lock(&original, &secret).unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let pattern: Vec<(String, bool)> = artifacts
            .protected_inputs()
            .into_iter()
            .enumerate()
            .map(|(i, name)| (name, secret.bits()[i]))
            .collect();
        let rebuilt = reconstruct_original(&artifacts, &pattern).unwrap();
        assert!(exhaustively_equivalent(&original, &rebuilt).unwrap());
    }

    #[test]
    fn reconstruction_from_the_recovered_pattern_matches_the_original() {
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b1011, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = crate::extraction::extract_locked_subcircuit(&artifacts).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let outcome = structural_analysis(
            &artifacts,
            &subcircuit,
            &locked.circuit,
            &oracle,
            &StructuralAnalysisConfig::default(),
        )
        .unwrap();
        let StructuralOutcome::Key {
            protected_pattern, ..
        } = outcome
        else {
            panic!("structural analysis should find the pattern");
        };
        let rebuilt = reconstruct_original(&artifacts, &protected_pattern).unwrap();
        assert!(exhaustively_equivalent(&original, &rebuilt).unwrap());
    }

    #[test]
    fn unknown_protected_input_is_an_error() {
        let original = majority();
        let locked = TtLock::new(3)
            .lock(&original, &SecretKey::from_u64(0, 3))
            .unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let bad = vec![("ghost".to_string(), true)];
        assert!(reconstruct_original(&artifacts, &bad).is_err());
    }

    #[test]
    fn empty_pattern_set_reproduces_the_stripped_circuit() {
        // With no patterns the critical signal is tied to 0, i.e. the rebuilt
        // circuit is the FSC: it must differ from the original exactly on the
        // protected pattern.
        let original = majority();
        let secret = SecretKey::from_u64(0b001, 3);
        let locked = TtLock::new(3).lock(&original, &secret).unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let fsc = reconstruct_original_from_patterns(&artifacts, &[]).unwrap();
        let sim_orig = kratt_netlist::sim::Simulator::new(&original).unwrap();
        let sim_fsc = kratt_netlist::sim::Simulator::new(&fsc).unwrap();
        let mut differing = 0usize;
        for pattern in 0u64..8 {
            let bits: Vec<bool> = (0..3).map(|i| pattern >> i & 1 != 0).collect();
            if sim_orig.run(&bits).unwrap() != sim_fsc.run(&bits).unwrap() {
                differing += 1;
                assert_eq!(pattern, secret.to_u64());
            }
        }
        assert_eq!(differing, 1);
    }

    /// The full §V flow for a multi-pattern scheme: recover every protected
    /// pattern with the oracle, then rebuild the original circuit.
    fn section_v_flow(
        original: &Circuit,
        locked: &kratt_locking::LockedCircuit,
        expected_patterns: usize,
    ) {
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = crate::extraction::extract_locked_subcircuit(&artifacts).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let patterns = crate::og::recover_protected_patterns(
            &artifacts,
            &subcircuit,
            &oracle,
            &StructuralAnalysisConfig::default(),
        )
        .unwrap();
        assert_eq!(patterns.len(), expected_patterns);
        let rebuilt = reconstruct_original_from_patterns(&artifacts, &patterns).unwrap();
        assert!(exhaustively_equivalent(original, &rebuilt).unwrap());
    }

    #[test]
    fn sfll_flex_original_is_reconstructed_from_recovered_patterns() {
        let original = ripple_carry_adder(3).unwrap();
        // Two protected patterns of 3 bits: 0b110 and 0b001.
        let secret = SecretKey::from_bits(vec![false, true, true, true, false, false]);
        let locked = kratt_locking::SfllFlex::new(3, 2)
            .lock(&original, &secret)
            .unwrap();
        section_v_flow(&original, &locked, 2);
    }

    #[test]
    fn lut_lock_original_is_reconstructed_from_recovered_patterns() {
        let original = ripple_carry_adder(3).unwrap();
        // Protect LUT addresses {0, 5, 6}.
        let secret = SecretKey::from_u64(0b0110_0001, 8);
        let locked = kratt_locking::LutLock::new(3)
            .lock(&original, &secret)
            .unwrap();
        section_v_flow(&original, &locked, 3);
    }

    #[test]
    fn single_pattern_schemes_also_work_through_the_multi_pattern_path() {
        let original = ripple_carry_adder(3).unwrap();
        let secret = SecretKey::from_u64(0b101, 3);
        let locked = TtLock::new(3).lock(&original, &secret).unwrap();
        section_v_flow(&original, &locked, 1);
    }
}

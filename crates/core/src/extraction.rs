//! Step 3 of the flow: logic extraction of the locked subcircuit.
//!
//! On the unit-stripped circuit, the primary outputs reachable from the
//! critical signal are the *locked primary outputs*; their fan-in cones form
//! the locked subcircuit the OL circuit-modification and the OG structural
//! analysis operate on.

use crate::{KrattError, RemovalArtifacts};
use kratt_netlist::analysis::outputs_reached_from;
use kratt_netlist::transform::extract_cone;
use kratt_netlist::Circuit;

/// Extracts the locked subcircuit: the cones of every primary output the
/// critical signal reaches in the unit-stripped circuit. The critical signal
/// itself remains a primary input of the subcircuit.
///
/// # Errors
///
/// Returns an error if the critical signal is missing from the unit-stripped
/// circuit (which would indicate corrupted artefacts).
pub fn extract_locked_subcircuit(artifacts: &RemovalArtifacts) -> Result<Circuit, KrattError> {
    let usc = &artifacts.unit_stripped;
    let cs1 = usc.find_net(&artifacts.critical_signal).ok_or_else(|| {
        KrattError::Netlist(kratt_netlist::NetlistError::UnknownNet(
            artifacts.critical_signal.clone(),
        ))
    })?;
    let locked_outputs = outputs_reached_from(usc, cs1)?;
    let mut subcircuit = extract_cone(usc, &locked_outputs, &[])?;
    subcircuit.set_name(format!("{}_locked_sub", usc.name()));
    Ok(subcircuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::removal::remove_locking_unit;
    use kratt_benchmarks::arith::ripple_carry_adder;
    use kratt_benchmarks::small::majority;
    use kratt_locking::{LockingTechnique, SecretKey, TtLock};

    #[test]
    fn majority_subcircuit_contains_the_whole_fsc() {
        let locked = TtLock::new(3)
            .lock(&majority(), &SecretKey::from_u64(0b100, 3))
            .unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
        // Single output, and the critical signal is one of its inputs.
        assert_eq!(subcircuit.num_outputs(), 1);
        assert!(subcircuit.find_net(&artifacts.critical_signal).is_some());
        // The protected inputs appear in the subcircuit (the FSC embeds the
        // protected cube), which is what the OG analysis exploits.
        for ppi in artifacts.protected_inputs() {
            assert!(
                subcircuit.find_net(&ppi).is_some(),
                "missing protected input {ppi}"
            );
        }
    }

    #[test]
    fn only_locked_outputs_are_extracted() {
        // Lock a multi-output adder: only the corrupted output's cone should
        // be in the locked subcircuit.
        let original = ripple_carry_adder(4).unwrap();
        let locked = TtLock::new(4)
            .lock(&original, &SecretKey::from_u64(0b1010, 4))
            .unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
        assert_eq!(
            subcircuit.num_outputs(),
            1,
            "TTLock corrupts exactly one output"
        );
        assert!(subcircuit.num_gates() < locked.circuit.num_gates());
        let expected_name = locked
            .circuit
            .net_name(locked.circuit.outputs()[locked.target_output])
            .to_string();
        assert_eq!(
            subcircuit.net_name(subcircuit.outputs()[0]),
            expected_name,
            "the extracted output is the corrupted one"
        );
    }
}

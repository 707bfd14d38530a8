//! Steps 4–5 of the flow: circuit modification and SCOPE (the oracle-less
//! path taken when the QBF formulation does not yield a key).
//!
//! * For SFLTs whose unit is not a plain comparator (e.g. Gen-Anti-SAT), the
//!   protected primary inputs are removed from the locking unit by tying them
//!   to a constant — they are irrelevant to the complementary /
//!   non-complementary functions — and SCOPE analyses the remaining key-only
//!   unit.
//! * For DFLTs, each protected primary input of the locked subcircuit is
//!   replaced by its associated key input, moving the information the FSC
//!   carries about the protected pattern onto the key inputs, and SCOPE
//!   analyses the modified subcircuit. All substitutions happen in one
//!   rebuild of the subcircuit ([`substitute_inputs`]), which costs one
//!   pass however many protected inputs there are (32 to 128 on the
//!   Table-I hosts).
//!
//! SCOPE itself runs through [`ScopeAttack`], whose plan replays each key
//! cofactor's constant propagation over reused buffers (see
//! [`kratt_attacks::scope_replay`]).

use crate::{KrattError, RemovalArtifacts};
use kratt_attacks::{Attack, AttackRequest, Budget, KeyGuess, ScopeAttack};
use kratt_netlist::transform::{set_inputs_constant, substitute_inputs};
use kratt_netlist::{Circuit, NetId};

/// Circuit modification for SFLT units: ties every protected primary input of
/// the unit to logic 0 and returns the simplified, key-only unit.
///
/// # Errors
///
/// Propagates netlist errors from the constant propagation.
pub fn modified_unit(artifacts: &RemovalArtifacts) -> Result<Circuit, KrattError> {
    let unit = &artifacts.unit;
    let assignments: Vec<(NetId, bool)> =
        unit.data_inputs().into_iter().map(|n| (n, false)).collect();
    Ok(set_inputs_constant(unit, &assignments)?)
}

/// Circuit modification for DFLT subcircuits: substitutes every protected
/// primary input by its associated key input, in one rebuild of the
/// subcircuit ([`substitute_inputs`]) over the single-key associations whose
/// protected input is an input of the subcircuit. A subcircuit with no such
/// association is returned unchanged.
///
/// # Errors
///
/// Propagates netlist errors from the substitution.
pub fn modified_subcircuit(
    artifacts: &RemovalArtifacts,
    subcircuit: &Circuit,
) -> Result<Circuit, KrattError> {
    let pairs: Vec<(&str, &str)> = artifacts
        .associations
        .iter()
        .filter(|(ppi, keys)| {
            keys.len() == 1
                && subcircuit
                    .find_net(ppi)
                    .is_some_and(|n| subcircuit.is_input(n))
        })
        .map(|(ppi, keys)| (ppi.as_str(), keys[0].as_str()))
        .collect();
    if pairs.is_empty() {
        return Ok(subcircuit.clone());
    }
    Ok(substitute_inputs(subcircuit, &pairs)?)
}

/// Runs SCOPE on the modified unit (the SFLT oracle-less path).
///
/// # Errors
///
/// Propagates SCOPE/netlist errors; a unit with no key inputs left after the
/// modification produces an empty guess instead of an error.
pub fn attack_unit_with_scope(
    artifacts: &RemovalArtifacts,
    scope: &ScopeAttack,
) -> Result<KeyGuess, KrattError> {
    let modified = modified_unit(artifacts)?;
    if modified.key_inputs().is_empty() {
        return Ok(KeyGuess::new());
    }
    scope_guess(scope, &modified)
}

/// Runs SCOPE on the modified locked subcircuit (the DFLT oracle-less path).
///
/// # Errors
///
/// Propagates SCOPE/netlist errors; a subcircuit with no key inputs after the
/// modification produces an empty guess instead of an error.
pub fn attack_subcircuit_with_scope(
    artifacts: &RemovalArtifacts,
    subcircuit: &Circuit,
    scope: &ScopeAttack,
) -> Result<KeyGuess, KrattError> {
    let modified = modified_subcircuit(artifacts, subcircuit)?;
    if modified.key_inputs().is_empty() {
        return Ok(KeyGuess::new());
    }
    scope_guess(scope, &modified)
}

/// Runs SCOPE through the unified attack API and lifts the outcome back into
/// a per-bit [`KeyGuess`].
fn scope_guess(scope: &ScopeAttack, modified: &Circuit) -> Result<KeyGuess, KrattError> {
    let run =
        scope.execute(&AttackRequest::oracle_less(modified).with_budget(Budget::unlimited()))?;
    Ok(run.outcome.as_guess(&modified.key_input_names()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_unit;
    use crate::extraction::extract_locked_subcircuit;
    use crate::removal::remove_locking_unit;
    use kratt_attacks::score_guess;
    use kratt_benchmarks::arith::ripple_carry_adder;
    use kratt_locking::{GenAntiSat, LockingTechnique, SecretKey, TtLock};
    use kratt_netlist::GateType;

    #[test]
    fn modified_unit_drops_protected_inputs() {
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b1101_0110, 8);
        let locked = GenAntiSat::new(8).lock(&original, &secret).unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let modified = modified_unit(&artifacts).unwrap();
        assert!(modified.data_inputs().is_empty(), "PPIs must be gone");
        assert_eq!(modified.key_inputs().len(), 8, "all key inputs must remain");
    }

    #[test]
    fn modified_subcircuit_replaces_ppis_with_keys() {
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b1001, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
        let modified = modified_subcircuit(&artifacts, &subcircuit).unwrap();
        for ppi in artifacts.protected_inputs() {
            assert!(
                modified
                    .find_net(&ppi)
                    .map(|n| !modified.is_input(n))
                    .unwrap_or(true),
                "protected input {ppi} should no longer be a primary input"
            );
        }
        assert_eq!(modified.key_inputs().len(), 4);
    }

    /// Input names in order, each gate's type, output name and fanin names
    /// in gate order, and the output names in order.
    #[allow(clippy::type_complexity)]
    fn structure(c: &Circuit) -> (Vec<&str>, Vec<(GateType, &str, Vec<&str>)>, Vec<&str>) {
        let names = |nets: &[NetId]| nets.iter().map(|&n| c.net_name(n)).collect::<Vec<_>>();
        let gates = c
            .gates()
            .map(|(_, gate)| (gate.ty, c.net_name(gate.output), names(&gate.inputs)))
            .collect();
        (names(c.inputs()), gates, names(c.outputs()))
    }

    #[test]
    fn one_rebuild_modification_matches_the_fold_on_every_scheme_and_host() {
        // Every registry scheme on every Table-I host at scale 0.05 whose
        // unit is a restore unit: the modified subcircuit equals the one
        // substituting each single-key association in turn builds, with
        // presence checked on the partly modified circuit.
        let registry = kratt_locking::scheme_registry();
        let mut restore_units = 0;
        for row in kratt_benchmarks::table1_circuits(0.05) {
            for name in registry.names() {
                let spec = kratt_locking::SchemeSpec::new(name)
                    .unwrap()
                    .with_param("k", row.key_bits as u64)
                    .with_param("seed", 0xa55c);
                let locked = registry.lock(&spec, &row.circuit).unwrap();
                let Ok(artifacts) = remove_locking_unit(&locked.circuit) else {
                    continue;
                };
                if !classify_unit(&artifacts).unwrap().is_restore_unit() {
                    continue;
                }
                restore_units += 1;
                let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
                let mut folded = subcircuit.clone();
                for (ppi, keys) in &artifacts.associations {
                    let present = folded.find_net(ppi).is_some_and(|n| folded.is_input(n));
                    if keys.len() == 1 && present {
                        folded = substitute_inputs(&folded, &[(ppi, &keys[0])]).unwrap();
                    }
                }
                let once = modified_subcircuit(&artifacts, &subcircuit).unwrap();
                assert_eq!(structure(&once), structure(&folded), "{}/{spec}", row.name);
            }
        }
        assert!(restore_units > 0);
    }

    #[test]
    fn dflt_scope_guess_is_partial_but_nonempty() {
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b0101, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
        let guess =
            attack_subcircuit_with_scope(&artifacts, &subcircuit, &ScopeAttack::new()).unwrap();
        let (cdk, dk) = score_guess(&locked, &guess);
        assert!(dk > 0, "the modified subcircuit should be informative");
        assert!(cdk <= dk);
    }

    #[test]
    fn gen_anti_sat_scope_guess_covers_all_keys() {
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b1101_1001, 8);
        let locked = GenAntiSat::new(8).lock(&original, &secret).unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let guess = attack_unit_with_scope(&artifacts, &ScopeAttack::new()).unwrap();
        let (_, dk) = score_guess(&locked, &guess);
        assert!(
            dk >= 4,
            "most key bits should be deciphered on the key-only unit, got {dk}"
        );
    }
}

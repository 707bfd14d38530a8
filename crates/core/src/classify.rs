//! Classification of the extracted unit: is it a DFLT restore unit?
//!
//! When the QBF step fails, KRATT checks whether the unit realises a
//! comparator `AND_i (p_i XNOR k_i)` (or the complement of one) between the
//! protected primary inputs `p_i` and their associated key inputs `k_i` —
//! the signature of a DFLT restore unit. The classification decides whether
//! the subcircuit-based paths (circuit modification / structural analysis)
//! are worth running.
//!
//! The decision is exact and runs in three stages, cheapest first:
//!
//! 1. **Simulation refutation.** A [`Simulator`] runs a few 64-lane words
//!    and compares the unit with the comparator lane by lane. A lane where
//!    they differ witnesses that the unit is no comparator; a lane where they
//!    agree witnesses that it is no complemented comparator. Once both
//!    witnesses exist the unit is [`UnitClass::Other`]. The words set every
//!    key to its protected input (`k = p`), for a random protected-input word
//!    and its complement, then flip one associated key bit per lane, cycling
//!    through all of them, over the same protected-input values; this
//!    refutes every unit that ignores an associated key bit or is unate in
//!    one. A last word of independent random values catches units that only
//!    fire near the key, such as SFLL-HD's Hamming-distance check, which
//!    agrees with the comparator (both 0) on almost every random lane.
//! 2. **BDD comparison.** The unit and the reference comparator are built in
//!    one [`BddManager`] under the order `p_0, k_0, p_1, k_1, …` followed by
//!    every other unit input, where a comparator has 3n nodes. Reduced
//!    ordered BDDs are canonical, so the unit is the comparator exactly when
//!    the two roots are equal, and its complement exactly when its root
//!    equals the negated reference.
//! 3. **SAT miters.** Only when the unit's BDD outgrows the stage's node
//!    budget, two gate-level miters decide `unit ≡ reference` and
//!    `unit ≡ NOT reference`.
//!
//! Each stage decides only what it can prove, and each decision is about the
//! same function of the same named inputs, so a unit gets the class the SAT
//! miters give it whichever stage decides it.

use crate::og::SplitMix64;
use crate::{KrattError, RemovalArtifacts};
use kratt_netlist::sim::Simulator;
use kratt_netlist::{Circuit, GateType, NetId};
use kratt_qbf::bdd::{BddManager, NodeLimitExceeded};
use kratt_sat::{Encoder, Lit, Solver, Var};
use std::collections::HashMap;

/// Node budget of the BDD stage. The largest unit of the Table-I hosts (a
/// resynthesised 128-bit comparator) peaks near 27k nodes, a fifth of it.
const BDD_NODE_BUDGET: usize = 1 << 17;

/// Seed of the simulation stage's word stream (fixed, so a unit is always
/// decided by the same stage).
const SIM_SEED: u64 = 0x6b72_6174_742d_636c;

/// What the locking/restore unit turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitClass {
    /// The unit is exactly `AND_i (ppi_i == key_i)` — a DFLT restore unit.
    Comparator,
    /// The unit is the complement of a comparator.
    ComplementComparator,
    /// Anything else (e.g. a masked SFLT unit whose QBF solve timed out, or a
    /// Gen-Anti-SAT unit).
    Other,
}

impl UnitClass {
    /// Whether the unit looks like the restore unit of a DFLT.
    pub fn is_restore_unit(self) -> bool {
        matches!(
            self,
            UnitClass::Comparator | UnitClass::ComplementComparator
        )
    }
}

/// The step of [`classify_unit`] that decided a unit's class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// The association is not one-to-one.
    Association,
    /// Stage 1 refuted both comparator classes.
    Simulation,
    /// Stage 2 compared the BDD roots.
    Bdd,
    /// Stage 3 ran the SAT miters.
    Sat,
}

/// Classifies the unit by deciding whether it is equivalent to a comparator
/// between each protected input and its associated key input, or to the
/// complement of one.
///
/// Units whose association is not one-to-one (e.g. Anti-SAT's two keys per
/// input) are immediately classified [`UnitClass::Other`]. Every other unit
/// goes through the [module](self)'s stages: packed simulation refutes most
/// non-comparators, a BDD comparison decides the rest exactly, and the SAT
/// miters run only for a unit whose BDD exceeds the node budget. The class is
/// the one the SAT miters alone would give.
///
/// # Errors
///
/// Propagates netlist errors from simulating the unit and from building the
/// reference comparator.
pub fn classify_unit(artifacts: &RemovalArtifacts) -> Result<UnitClass, KrattError> {
    classify_within(artifacts, BDD_NODE_BUDGET).map(|(class, _)| class)
}

/// [`classify_unit`] with an explicit BDD node budget, also reporting the
/// stage that decided.
fn classify_within(
    artifacts: &RemovalArtifacts,
    node_budget: usize,
) -> Result<(UnitClass, Stage), KrattError> {
    let unit = &artifacts.unit;
    if artifacts.associations.is_empty()
        || artifacts
            .associations
            .iter()
            .any(|(_, keys)| keys.len() != 1)
    {
        return Ok((UnitClass::Other, Stage::Association));
    }

    if refuted_by_simulation(artifacts)? {
        return Ok((UnitClass::Other, Stage::Simulation));
    }

    // Reference comparator over the same input names.
    let mut reference = Circuit::new("reference_comparator");
    let mut eq_terms: Vec<NetId> = Vec::with_capacity(artifacts.associations.len());
    for (ppi, keys) in &artifacts.associations {
        let p = reference.add_input(ppi.clone())?;
        let k = reference.add_input(keys[0].clone())?;
        eq_terms.push(reference.add_gate_auto(GateType::Xnor, "eq", &[p, k])?);
    }
    let root = if eq_terms.len() == 1 {
        eq_terms[0]
    } else {
        // Balanced AND tree.
        let mut level = eq_terms;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(reference.add_gate_auto(GateType::And, "and", pair)?);
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    };
    reference.mark_output(root);

    if let Ok(class) = decide_on_bdd(unit, &reference, node_budget) {
        return Ok((class, Stage::Bdd));
    }
    let class = if units_equivalent(unit, &reference, false) {
        UnitClass::Comparator
    } else if units_equivalent(unit, &reference, true) {
        UnitClass::ComplementComparator
    } else {
        UnitClass::Other
    };
    Ok((class, Stage::Sat))
}

/// Stage 1: whether some simulated lane has the unit differ from the
/// comparator and some lane has it agree, i.e. whether simulation proves the
/// unit [`UnitClass::Other`]. Inputs outside the association get random
/// values; a unit missing an associated input by name is left to the exact
/// stages.
fn refuted_by_simulation(artifacts: &RemovalArtifacts) -> Result<bool, KrattError> {
    let unit = &artifacts.unit;
    let position = |name: &str| unit.find_net(name).and_then(|net| unit.input_position(net));
    let Some(pairs) = artifacts
        .associations
        .iter()
        .map(|(ppi, keys)| Some((position(ppi)?, position(&keys[0])?)))
        .collect::<Option<Vec<(usize, usize)>>>()
    else {
        return Ok(false);
    };

    let sim = Simulator::new(unit)?;
    let mut differs = 0u64;
    let mut agrees = 0u64;
    let mut refuted = |inputs: &[u64]| -> Result<bool, KrattError> {
        let comparator = pairs
            .iter()
            .fold(!0u64, |acc, &(p, k)| acc & !(inputs[p] ^ inputs[k]));
        let mismatch = sim.run_words(inputs)?[0] ^ comparator;
        differs |= mismatch;
        agrees |= !mismatch;
        Ok(differs != 0 && agrees != 0)
    };

    let mut rng = SplitMix64(SIM_SEED);
    let mut inputs: Vec<u64> = (0..unit.num_inputs()).map(|_| rng.next_u64()).collect();
    let ppi_words: Vec<u64> = pairs.iter().map(|&(p, _)| inputs[p]).collect();
    for invert in [0, !0u64] {
        for (&(p, k), &word) in pairs.iter().zip(&ppi_words) {
            inputs[p] = word ^ invert;
            inputs[k] = word ^ invert;
        }
        if refuted(&inputs)? {
            return Ok(true);
        }
        // Lane `l` of flip word `w` flips key `(64 w + l) mod n`.
        for first_lane in (0..pairs.len()).step_by(64) {
            let mut flips = vec![0u64; pairs.len()];
            for lane in 0..64 {
                flips[(first_lane + lane) % pairs.len()] |= 1 << lane;
            }
            for (&(p, k), flip) in pairs.iter().zip(flips) {
                inputs[k] = inputs[p] ^ flip;
            }
            if refuted(&inputs)? {
                return Ok(true);
            }
        }
    }
    for word in &mut inputs {
        *word = rng.next_u64();
    }
    refuted(&inputs)
}

/// Stage 2: decides the class exactly on one BDD manager, the unit's inputs
/// and the reference's shared by name, or reports that the BDDs outgrew
/// `node_budget`.
fn decide_on_bdd(
    unit: &Circuit,
    reference: &Circuit,
    node_budget: usize,
) -> Result<UnitClass, NodeLimitExceeded> {
    // The reference lists its inputs as p_0, k_0, p_1, k_1, …; every unit
    // input needs a variable, as an unmapped net reads as constant 0.
    let mut var_of_name: HashMap<&str, u32> = HashMap::new();
    for circuit in [reference, unit] {
        for &net in circuit.inputs() {
            let next = var_of_name.len() as u32;
            var_of_name.entry(circuit.net_name(net)).or_insert(next);
        }
    }
    let var_of_input = |circuit: &Circuit| -> HashMap<NetId, u32> {
        circuit
            .inputs()
            .iter()
            .map(|&net| (net, var_of_name[circuit.net_name(net)]))
            .collect()
    };

    let mut manager = BddManager::new(node_budget);
    let root = manager.build_circuit_output(unit, &var_of_input(unit), unit.outputs()[0])?;
    let comparator = manager.build_circuit_output(
        reference,
        &var_of_input(reference),
        reference.outputs()[0],
    )?;
    Ok(if root == comparator {
        UnitClass::Comparator
    } else if root == manager.not(comparator)? {
        UnitClass::ComplementComparator
    } else {
        UnitClass::Other
    })
}

/// SAT check: `unit ≡ reference` (or `unit ≡ NOT reference` when
/// `complemented`), sharing inputs by name; inputs of the unit that the
/// reference does not mention are universally quantified implicitly (the
/// miter must be UNSAT for all of them).
fn units_equivalent(unit: &Circuit, reference: &Circuit, complemented: bool) -> bool {
    let mut solver = Solver::new();
    let encoder = Encoder::new();
    let enc_unit = encoder.encode(&mut solver, unit, &HashMap::new());
    let shared: HashMap<String, Var> = enc_unit.inputs().iter().cloned().collect();
    let enc_ref = encoder.encode(&mut solver, reference, &shared);
    let diff = solver.new_var();
    encoder.encode_xor2(
        &mut solver,
        diff,
        enc_unit.outputs()[0],
        enc_ref.outputs()[0],
    );
    // unit != ref must be unsatisfiable; for the complemented check we ask
    // unit == ref to be unsatisfiable instead.
    let target = if complemented {
        Lit::negative(diff)
    } else {
        Lit::positive(diff)
    };
    solver.add_clause([target]);
    solver.solve().is_unsat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::removal::remove_locking_unit;
    use kratt_benchmarks::small::{c17, majority};
    use kratt_locking::{AntiSat, Cac, LockingTechnique, SarLock, SecretKey, SfllHd, TtLock};

    /// A budget the BDD stage cannot meet: two slots hold the terminals, so
    /// the first variable already overflows and the SAT miters decide.
    const SAT_ONLY_BUDGET: usize = 2;

    fn unit_artifacts(unit: Circuit, associations: &[(&str, &str)]) -> RemovalArtifacts {
        RemovalArtifacts {
            critical_signal: unit.net_name(unit.outputs()[0]).to_string(),
            unit: unit.clone(),
            unit_stripped: unit,
            associations: associations
                .iter()
                .map(|&(ppi, key)| (ppi.to_string(), vec![key.to_string()]))
                .collect(),
        }
    }

    fn locked_artifacts(
        host: &Circuit,
        technique: &dyn LockingTechnique,
        secret: u64,
    ) -> RemovalArtifacts {
        let key = SecretKey::from_u64(secret, technique.key_bits());
        let locked = technique.lock(host, &key).unwrap();
        remove_locking_unit(&locked.circuit).unwrap()
    }

    #[test]
    fn ttlock_unit_is_a_comparator() {
        let artifacts = locked_artifacts(&majority(), &TtLock::new(3), 0b011);
        let class = classify_unit(&artifacts).unwrap();
        assert_eq!(class, UnitClass::Comparator);
        assert!(class.is_restore_unit());
    }

    #[test]
    fn cac_unit_is_a_restore_unit() {
        let artifacts = locked_artifacts(&majority(), &Cac::new(3), 0b110);
        // CAC's critical signal is the comparator (or its complement,
        // depending on how the MUX correction was merged).
        assert!(classify_unit(&artifacts).unwrap().is_restore_unit());
    }

    #[test]
    fn sarlock_unit_is_not_a_comparator() {
        let artifacts = locked_artifacts(&majority(), &SarLock::new(3), 0b100);
        assert_eq!(classify_unit(&artifacts).unwrap(), UnitClass::Other);
    }

    #[test]
    fn sat_fallback_agrees_with_the_default_budget() {
        let fixtures: Vec<(Circuit, Box<dyn LockingTechnique>, u64)> = vec![
            (majority(), Box::new(TtLock::new(3)), 0b011),
            (majority(), Box::new(Cac::new(3)), 0b110),
            (majority(), Box::new(SarLock::new(3)), 0b100),
            (c17(), Box::new(SfllHd::new(4, 1)), 0b1010),
        ];
        for (host, technique, secret) in fixtures {
            let artifacts = locked_artifacts(&host, technique.as_ref(), secret);
            let (class, stage) = classify_within(&artifacts, BDD_NODE_BUDGET).unwrap();
            let (fallback, fallback_stage) = classify_within(&artifacts, SAT_ONLY_BUDGET).unwrap();
            assert_eq!(class, fallback, "{}", technique.kind());
            if class.is_restore_unit() {
                assert_eq!(stage, Stage::Bdd, "{}", technique.kind());
                assert_eq!(fallback_stage, Stage::Sat, "{}", technique.kind());
            }
        }
    }

    #[test]
    fn complemented_comparator_is_decided_on_both_paths() {
        // u = NOT((x0 XNOR k0) AND (x1 XNOR k1) AND (x2 XNOR k2)).
        let mut unit = Circuit::new("complemented_comparator");
        let mut terms = Vec::new();
        for i in 0..3 {
            let p = unit.add_input(format!("x{i}")).unwrap();
            let k = unit.add_input(format!("keyinput{i}")).unwrap();
            terms.push(unit.add_gate_auto(GateType::Xnor, "eq", &[p, k]).unwrap());
        }
        let all = unit.add_gate(GateType::And, "all", &terms).unwrap();
        let u = unit.add_gate(GateType::Not, "u", &[all]).unwrap();
        unit.mark_output(u);
        let artifacts = unit_artifacts(
            unit,
            &[
                ("x0", "keyinput0"),
                ("x1", "keyinput1"),
                ("x2", "keyinput2"),
            ],
        );
        assert_eq!(
            classify_within(&artifacts, BDD_NODE_BUDGET).unwrap(),
            (UnitClass::ComplementComparator, Stage::Bdd)
        );
        assert_eq!(
            classify_within(&artifacts, SAT_ONLY_BUDGET).unwrap(),
            (UnitClass::ComplementComparator, Stage::Sat)
        );
    }

    #[test]
    fn unate_unit_short_circuits_to_other() {
        // u = ppi AND key is positive unate in its associated key bit, so
        // the matched-key and flipped-key lanes reject it before any BDD or
        // SAT work (an AND is no XNOR comparator).
        let mut unit = Circuit::new("unate_unit");
        let p = unit.add_input("x0").unwrap();
        let k = unit.add_input("keyinput0").unwrap();
        let u = unit.add_gate(GateType::And, "u", &[p, k]).unwrap();
        unit.mark_output(u);
        let artifacts = unit_artifacts(unit, &[("x0", "keyinput0")]);
        assert_eq!(
            classify_within(&artifacts, SAT_ONLY_BUDGET).unwrap(),
            (UnitClass::Other, Stage::Simulation)
        );
    }

    #[test]
    fn key_outside_unit_support_short_circuits_to_other() {
        // The unit output ignores its associated key entirely, so flipping
        // the key never moves it: simulation says Other without building
        // the reference comparator.
        let mut unit = Circuit::new("no_support_unit");
        let p = unit.add_input("x0").unwrap();
        let k = unit.add_input("keyinput0").unwrap();
        let dead = unit.add_gate(GateType::Buf, "dead", &[k]).unwrap();
        let u = unit.add_gate(GateType::Not, "u", &[p]).unwrap();
        unit.mark_output(u);
        unit.mark_output(dead);
        let artifacts = unit_artifacts(unit, &[("x0", "keyinput0")]);
        assert_eq!(
            classify_within(&artifacts, SAT_ONLY_BUDGET).unwrap(),
            (UnitClass::Other, Stage::Simulation)
        );
    }

    #[test]
    fn anti_sat_unit_is_other_because_of_double_association() {
        let artifacts = locked_artifacts(&majority(), &AntiSat::new(6), 0);
        assert_eq!(
            classify_within(&artifacts, BDD_NODE_BUDGET).unwrap(),
            (UnitClass::Other, Stage::Association)
        );
    }
}

//! The removal attack against SFLTs (Yasin et al., TETC'20).
//!
//! The attack identifies the critical signal of the locking unit, strips the
//! unit's logic cone and ties the exposed signal to the constant it takes
//! under the correct key, recovering the original circuit *without* learning
//! the key — the limitation that motivates KRATT's QBF formulation. Against
//! DFLTs the same procedure only recovers the functionality-stripped circuit,
//! which still differs from the original on the protected pattern.

use crate::engine::{Attack, AttackRequest, Budget, CostClass, Deadline, ThreatModel};
use crate::error::AttackError;
use crate::oracle::Oracle;
use crate::report::{AttackOutcome, AttackRun, StepTiming};
use crate::structure::find_critical_signal;
use kratt_netlist::transform::{remove_cone, set_inputs_constant};
use kratt_netlist::{Circuit, NetId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a removal attack stripped and recovered: [`Attack::execute`]
/// reports the circuit and names its one step after the signal.
#[derive(Debug)]
pub(crate) struct RemovalReport {
    /// The recovered circuit (key inputs removed, critical signal tied off).
    pub recovered: Circuit,
    /// Name of the critical signal that was removed.
    pub critical_signal: String,
}

/// The removal attack. Needs oracle access only to decide which constant the
/// stripped critical signal should be tied to (a handful of queries).
#[derive(Debug, Clone)]
pub struct RemovalAttack {
    /// Number of random patterns used to pick the constant.
    pub patterns: usize,
    /// RNG seed for those patterns.
    pub seed: u64,
}

impl Default for RemovalAttack {
    fn default() -> Self {
        RemovalAttack {
            patterns: 32,
            seed: 0,
        }
    }
}

impl RemovalAttack {
    /// Removal attack with default parameters.
    pub fn new() -> Self {
        RemovalAttack::default()
    }

    /// The attack under an explicit budget: `Ok(None)` means the deadline or
    /// the oracle-query cap was hit before both tie-off constants were
    /// evaluated (checked between the steps, so a single agreement sweep of
    /// `patterns` queries is the enforcement granularity).
    fn run_within_budget(
        &self,
        locked: &Circuit,
        oracle: &Oracle,
        budget: &Budget,
        deadline: Deadline,
    ) -> Result<Option<RemovalReport>, AttackError> {
        if locked.key_inputs().is_empty() {
            return Err(AttackError::NoKeyInputs);
        }
        let base_queries = oracle.queries();
        let cs1 = find_critical_signal(locked).ok_or(AttackError::NoCriticalSignal)?;
        let cs1_name = locked.net_name(cs1).to_string();
        let stripped = remove_cone(locked, cs1)?;

        // Tie the exposed critical signal and the now-dangling key inputs to
        // constants; pick the critical-signal constant that agrees with the
        // oracle on random patterns.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best: Option<(Circuit, usize)> = None;
        for constant in [false, true] {
            if deadline.expired()
                || budget.oracle_queries_exhausted(oracle.queries().saturating_sub(base_queries))
            {
                return Ok(None);
            }
            let candidate = self.tie_off(&stripped, &cs1_name, constant)?;
            let agreement = self.agreement(&candidate, oracle, &mut rng)?;
            let better = match &best {
                None => true,
                Some((_, best_agreement)) => agreement > *best_agreement,
            };
            if better {
                best = Some((candidate, agreement));
            }
        }
        let (recovered, _) = best.expect("two candidates evaluated");
        Ok(Some(RemovalReport {
            recovered,
            critical_signal: cs1_name,
        }))
    }

    fn tie_off(
        &self,
        stripped: &Circuit,
        cs1_name: &str,
        constant: bool,
    ) -> Result<Circuit, AttackError> {
        let mut assignments: Vec<(NetId, bool)> = Vec::new();
        let cs1 = stripped
            .find_net(cs1_name)
            .ok_or_else(|| AttackError::InterfaceMismatch(cs1_name.to_string()))?;
        assignments.push((cs1, constant));
        for key in stripped.key_inputs() {
            assignments.push((key, false));
        }
        Ok(set_inputs_constant(stripped, &assignments)?)
    }

    fn agreement(
        &self,
        candidate: &Circuit,
        oracle: &Oracle,
        rng: &mut StdRng,
    ) -> Result<usize, AttackError> {
        let sim = kratt_netlist::sim::Simulator::new(candidate)?;
        let names: Vec<String> = candidate
            .inputs()
            .iter()
            .map(|&n| candidate.net_name(n).to_string())
            .collect();
        let mut agreement = 0usize;
        for _ in 0..self.patterns {
            let pattern: Vec<bool> = (0..names.len()).map(|_| rng.gen_bool(0.5)).collect();
            let assignment: Vec<(&str, bool)> = names
                .iter()
                .map(String::as_str)
                .zip(pattern.iter().copied())
                .collect();
            let oracle_out = oracle.query_by_name(&assignment)?;
            let candidate_out = sim.run(&pattern)?;
            if oracle_out == candidate_out {
                agreement += 1;
            }
        }
        Ok(agreement)
    }
}

impl Attack for RemovalAttack {
    fn name(&self) -> &'static str {
        "removal"
    }

    /// Choosing the tie-off constant needs a handful of oracle queries, so
    /// the attack is oracle-guided only.
    fn supports(&self, model: ThreatModel) -> bool {
        model == ThreatModel::OracleGuided
    }

    /// One structural cone strip plus two `patterns`-query agreement sweeps —
    /// no solver in the loop, so the scheduler treats it as interleavable.
    fn cost_class(&self) -> CostClass {
        CostClass::Cheap
    }

    fn execute(&self, request: &AttackRequest<'_>) -> Result<AttackRun, AttackError> {
        let oracle = request.require_oracle(self.name())?;
        let deadline = request.deadline();
        let base_queries = oracle.queries();
        if deadline.expired() {
            return Ok(AttackRun::out_of_budget(
                self.name(),
                request.threat_model(),
            ));
        }
        let Some(report) =
            self.run_within_budget(request.locked, oracle, &request.budget, deadline.clone())?
        else {
            let mut run = AttackRun::out_of_budget(self.name(), request.threat_model());
            run.runtime = deadline.elapsed();
            run.oracle_queries = oracle.queries().saturating_sub(base_queries);
            return Ok(run);
        };
        let runtime = deadline.elapsed();
        Ok(AttackRun {
            attack: self.name().to_string(),
            threat_model: request.threat_model(),
            // Removal recovers the circuit, never the key — the very
            // limitation the paper's QBF formulation addresses.
            outcome: AttackOutcome::RecoveredCircuit(report.recovered),
            runtime,
            iterations: self.patterns,
            oracle_queries: oracle.queries().saturating_sub(base_queries),
            steps: vec![StepTiming::new(
                format!("strip-{}", report.critical_signal),
                runtime,
            )],
            members: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_locking::{AntiSat, LockingTechnique, SarLock, SecretKey, TtLock};
    use kratt_netlist::sim::exhaustively_equivalent;
    use kratt_netlist::{GateType, NetId};

    /// Runs the attack unbudgeted to keep the rich [`RemovalReport`]
    /// assertions; external callers go through [`Attack::execute`].
    fn report_of(
        attack: &RemovalAttack,
        locked: &Circuit,
        oracle: &Oracle,
    ) -> Result<RemovalReport, AttackError> {
        let report = attack
            .run_within_budget(locked, oracle, &Budget::unlimited(), Deadline::unlimited())?
            .expect("an unlimited budget never runs out");
        Ok(report)
    }

    fn adder3() -> Circuit {
        let mut c = Circuit::new("adder3");
        let a: Vec<NetId> = (0..3)
            .map(|i| c.add_input(format!("a{i}")).unwrap())
            .collect();
        let b: Vec<NetId> = (0..3)
            .map(|i| c.add_input(format!("b{i}")).unwrap())
            .collect();
        let mut carry = c.add_input("cin").unwrap();
        for i in 0..3 {
            let s1 = c
                .add_gate(GateType::Xor, format!("s1_{i}"), &[a[i], b[i]])
                .unwrap();
            let sum = c
                .add_gate(GateType::Xor, format!("sum{i}"), &[s1, carry])
                .unwrap();
            let c1 = c
                .add_gate(GateType::And, format!("c1_{i}"), &[a[i], b[i]])
                .unwrap();
            let c2 = c
                .add_gate(GateType::And, format!("c2_{i}"), &[s1, carry])
                .unwrap();
            carry = c
                .add_gate(GateType::Or, format!("cout{i}"), &[c1, c2])
                .unwrap();
            c.mark_output(sum);
        }
        c.mark_output(carry);
        c
    }

    #[test]
    fn removal_recovers_the_original_from_sarlock() {
        let original = adder3();
        let secret = SecretKey::from_u64(0b01101, 5);
        let locked = SarLock::new(5).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let report = report_of(&RemovalAttack::new(), &locked.circuit, &oracle).unwrap();
        assert!(exhaustively_equivalent(&original, &report.recovered).unwrap());
        assert_eq!(report.recovered.key_inputs().len(), 0);
    }

    #[test]
    fn removal_recovers_the_original_from_anti_sat() {
        let original = adder3();
        let secret = SecretKey::from_u64(0b101_110, 6);
        let locked = AntiSat::new(6).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let report = report_of(&RemovalAttack::new(), &locked.circuit, &oracle).unwrap();
        assert!(exhaustively_equivalent(&original, &report.recovered).unwrap());
    }

    #[test]
    fn removal_only_recovers_the_fsc_from_a_dflt() {
        // Against TTLock, stripping the restore unit leaves the perturbed
        // circuit: it differs from the original on exactly the protected
        // pattern — the paper's argument for why DFLTs resist removal.
        let original = adder3();
        let secret = SecretKey::from_u64(0b1011, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let report = report_of(&RemovalAttack::new(), &locked.circuit, &oracle).unwrap();
        assert!(!exhaustively_equivalent(&original, &report.recovered).unwrap());
        // And the difference is exactly the protected-input pattern: one
        // assignment of the 4 protected inputs, i.e. 2^(7-4) = 8 of the 128
        // full input patterns (the FSC behaviour of the paper's Fig. 5(d)).
        let sim_a = kratt_netlist::sim::Simulator::new(&original).unwrap();
        let sim_b = kratt_netlist::sim::Simulator::new(&report.recovered).unwrap();
        let differing = (0u64..(1 << 7))
            .filter(|&p| {
                let bits: Vec<bool> = (0..7).map(|i| p >> i & 1 != 0).collect();
                sim_a.run(&bits).unwrap() != sim_b.run(&bits).unwrap()
            })
            .count();
        assert_eq!(differing, 8);
    }

    #[test]
    fn unlocked_circuit_is_an_error() {
        let original = adder3();
        let oracle = Oracle::new(original.clone()).unwrap();
        assert!(matches!(
            report_of(&RemovalAttack::new(), &original, &oracle),
            Err(AttackError::NoKeyInputs)
        ));
    }
}

//! Double DIP: the SAT-attack variant that eliminates at least two wrong
//! keys per iteration (Shen & Zhou, GLSVLSI'17).
//!
//! Each round finds up to two distinguishing input patterns before the
//! iteration counter advances. In the sequential formulation both DIPs
//! eliminate wrong keys, so on point-function locking the number of
//! *iterations* halves while the number of oracle queries stays the same —
//! which is exactly why it still cannot break SAT-resilient locking within
//! the paper's time limit (Table III).
//!
//! Batching note: this implementation finds the two DIPs of a round in one
//! solver session (the second excluded from the first only by a blocking
//! clause on its data pattern, not by the first DIP's IO constraint) so
//! both can be queried against the oracle in a single packed sweep. The
//! second DIP may therefore eliminate no key the first did not, and on
//! point-function locking it does exactly that: on every 8-bit SARLock cell
//! of perfbench's `sat-campaign` workload, Double DIP spends 255 rounds and
//! 510 oracle queries where the SAT attack spends 255 queries. Its
//! iterations do not halve there, and its queries double.

use crate::engine::{Attack, AttackRequest, ThreatModel};
use crate::error::AttackError;
use crate::report::{AttackOutcome, AttackRun, StepTiming};
use crate::sat_attack::{BatchEnd, DipEngine};

/// The Double DIP attack. It runs under the request's
/// [`Budget`](crate::engine::Budget); an exhausted budget reports `OoT` like
/// the paper.
#[derive(Debug, Clone, Default)]
pub struct DoubleDipAttack;

impl DoubleDipAttack {
    /// Creates the attack.
    pub fn new() -> Self {
        DoubleDipAttack
    }
}

impl Attack for DoubleDipAttack {
    fn name(&self) -> &'static str {
        "double-dip"
    }

    fn supports(&self, model: ThreatModel) -> bool {
        model == ThreatModel::OracleGuided
    }

    fn execute(&self, request: &AttackRequest<'_>) -> Result<AttackRun, AttackError> {
        let oracle = request.require_oracle(self.name())?;
        let deadline = request.deadline();
        if deadline.expired() {
            return Ok(AttackRun::out_of_budget(
                self.name(),
                request.threat_model(),
            ));
        }
        let mut engine = DipEngine::new(request.locked, oracle, &request.budget, deadline)?;
        let mut iterations = 0usize;
        let outcome = loop {
            if engine.out_of_budget(iterations) {
                break AttackOutcome::OutOfBudget;
            }
            // Find up to two distinct DIPs in one solver session and query
            // the oracle for both in a single packed sweep.
            let batch = engine.find_dips(2);
            if !batch.dips.is_empty() {
                engine.constrain_batch(&batch.dips)?;
                // Only rounds that constrained something count as iterations
                // (the final empty exhaustion probe is bookkeeping, not
                // progress — the same convention as the SAT attack's per-DIP
                // count).
                iterations += 1;
            }
            match batch.end {
                Some(BatchEnd::Exhausted) => break engine.extract_key()?,
                Some(BatchEnd::Budget) => break AttackOutcome::OutOfBudget,
                None => {}
            }
        };
        let mut run = engine.attack_run(self.name(), outcome, iterations);
        run.steps
            .push(StepTiming::new("double-dip-loop", run.runtime));
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Budget;
    use crate::oracle::Oracle;
    use crate::sat_attack::SatAttack;
    use kratt_locking::{LockingTechnique, RandomXorLocking, SarLock, SecretKey};
    use kratt_netlist::{Circuit, GateType, NetId};
    use std::time::Duration;

    /// Runs the attack through [`Attack::execute`] under `budget`.
    fn run(locked: &Circuit, oracle: &Oracle, budget: Budget) -> Result<AttackRun, AttackError> {
        DoubleDipAttack::new()
            .execute(&AttackRequest::oracle_guided(locked, oracle).with_budget(budget))
    }

    fn adder4() -> Circuit {
        let mut c = Circuit::new("adder4");
        let a: Vec<NetId> = (0..4)
            .map(|i| c.add_input(format!("a{i}")).unwrap())
            .collect();
        let b: Vec<NetId> = (0..4)
            .map(|i| c.add_input(format!("b{i}")).unwrap())
            .collect();
        let mut carry = c.add_input("cin").unwrap();
        for i in 0..4 {
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
    fn double_dip_recovers_rll_keys() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b0111, 4);
        let locked = RandomXorLocking::new(4, 5)
            .lock(&original, &secret)
            .unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let run = run(&locked.circuit, &oracle, Budget::default()).unwrap();
        let key = run.outcome.exact_key().expect("RLL must be broken").clone();
        let unlocked = locked.apply_key(&key).unwrap();
        assert!(kratt_netlist::sim::exhaustively_equivalent(&original, &unlocked).unwrap());
    }

    #[test]
    fn double_dip_uses_no_more_iterations_than_the_sat_attack_on_sarlock() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b1010, 4);
        let locked = SarLock::new(4).lock(&original, &secret).unwrap();
        let oracle_a = Oracle::new(original.clone()).unwrap();
        let oracle_b = Oracle::new(original.clone()).unwrap();
        let sat = SatAttack::new()
            .execute(&AttackRequest::oracle_guided(&locked.circuit, &oracle_a))
            .unwrap();
        let ddip = run(&locked.circuit, &oracle_b, Budget::default()).unwrap();
        assert!(sat.outcome.exact_key().is_some());
        assert!(ddip.outcome.exact_key().is_some());
        assert!(
            ddip.iterations <= sat.iterations,
            "DDIP ({}) should not need more iterations than SAT ({})",
            ddip.iterations,
            sat.iterations
        );
    }

    #[test]
    fn double_dip_times_out_on_larger_point_functions() {
        let original = adder4();
        let secret = SecretKey::from_u64(0x155 & 0x1ff, 9);
        let locked = SarLock::new(9).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original).unwrap();
        let budget = Budget {
            time_limit: Some(Duration::from_secs(2)),
            max_iterations: 4,
            ..Budget::default()
        };
        let run = run(&locked.circuit, &oracle, budget).unwrap();
        assert!(run.outcome.is_out_of_budget());
    }
}

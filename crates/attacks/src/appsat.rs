//! AppSAT: the approximate SAT-attack variant (Shamsi et al., HOST'17).
//!
//! AppSAT interleaves the standard DIP loop with random-sampling rounds: the
//! current candidate key is simulated against the oracle on random patterns;
//! disagreeing patterns are added as IO constraints, and when the sampled
//! error drops below a threshold the attack stops early and returns the
//! (approximately correct) candidate. On point-function locking this
//! terminates quickly with a key that is wrong on at most a handful of
//! patterns — the "approximate functional recovery" behaviour the paper
//! discusses — while on traditional locking it behaves like the exact attack.

use crate::engine::{Attack, AttackRequest, ThreatModel};
use crate::error::AttackError;
use crate::report::{AttackOutcome, AttackRun, StepTiming};
use crate::sat_attack::{DipEngine, DipSearch};
use kratt_locking::SecretKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The AppSAT attack. It runs under the request's
/// [`Budget`](crate::engine::Budget); an exhausted budget reports `OoT` like
/// the paper.
#[derive(Debug, Clone)]
pub struct AppSatAttack {
    /// A sampling round runs after every `settle_every` DIP iterations.
    pub settle_every: usize,
    /// Number of random patterns simulated per sampling round.
    pub sample_patterns: usize,
    /// Maximum fraction of sampled patterns allowed to disagree for the
    /// candidate to be accepted as the approximate key.
    pub error_threshold: f64,
    /// RNG seed for the sampling rounds.
    pub seed: u64,
}

impl Default for AppSatAttack {
    fn default() -> Self {
        AppSatAttack {
            settle_every: 4,
            sample_patterns: 64,
            error_threshold: 0.0,
            seed: 0,
        }
    }
}

impl AppSatAttack {
    /// AppSAT with the default parameters.
    pub fn new() -> Self {
        AppSatAttack::default()
    }
}

impl Attack for AppSatAttack {
    fn name(&self) -> &'static str {
        "appsat"
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
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut engine = DipEngine::new(request.locked, oracle, &request.budget, deadline)?;
        let mut iterations = 0usize;
        let mut last_candidate: Vec<bool>;
        let outcome = loop {
            if engine.out_of_budget(iterations) {
                break AttackOutcome::OutOfBudget;
            }
            match engine.find_dip() {
                DipSearch::Found { dip, candidate_key } => {
                    let outputs = engine.query_oracle(&dip)?;
                    engine.constrain(&dip, &outputs);
                    last_candidate = candidate_key;
                    iterations += 1;
                }
                DipSearch::Exhausted => break engine.extract_key()?,
                DipSearch::Budget => break AttackOutcome::OutOfBudget,
            }

            // Sampling / settlement round: the candidate key is checked on
            // all sampled patterns in packed 64-wide sweeps — one
            // bit-parallel pass over the locked netlist and one batched
            // oracle query instead of `sample_patterns` scalar round trips.
            if iterations.is_multiple_of(self.settle_every) && !last_candidate.is_empty() {
                let candidate = last_candidate.clone();
                let patterns: Vec<Vec<bool>> = (0..self.sample_patterns)
                    .map(|_| {
                        (0..engine.num_data_inputs())
                            .map(|_| rng.gen_bool(0.5))
                            .collect()
                    })
                    .collect();
                let locked_rows = engine.simulate_locked_batch(&candidate, &patterns)?;
                let oracle_rows = engine.query_oracle_batch(&patterns)?;
                let mut disagreements = 0usize;
                let mut failing: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
                for ((pattern, locked_out), oracle_out) in
                    patterns.into_iter().zip(locked_rows).zip(oracle_rows)
                {
                    if locked_out != oracle_out {
                        disagreements += 1;
                        failing.push((pattern, oracle_out));
                    }
                }
                let error = disagreements as f64 / self.sample_patterns as f64;
                for (pattern, outputs) in &failing {
                    engine.constrain(pattern, outputs);
                }
                if error <= self.error_threshold {
                    break AttackOutcome::ExactKey(SecretKey::from_bits(candidate));
                }
            }
        };
        let mut run = engine.attack_run(self.name(), outcome, iterations);
        run.steps
            .push(StepTiming::new("dip-sampling-loop", run.runtime));
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Budget;
    use crate::oracle::Oracle;
    use kratt_locking::{LockingTechnique, RandomXorLocking, SarLock};
    use kratt_netlist::{Circuit, GateType, NetId};
    use std::time::Duration;

    /// Runs `attack` through [`Attack::execute`] under `budget`.
    fn run(
        attack: &AppSatAttack,
        locked: &Circuit,
        oracle: &Oracle,
        budget: Budget,
    ) -> Result<AttackRun, AttackError> {
        attack.execute(&AttackRequest::oracle_guided(locked, oracle).with_budget(budget))
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
    fn appsat_recovers_rll_exactly() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b1101, 4);
        let locked = RandomXorLocking::new(4, 21)
            .lock(&original, &secret)
            .unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let run = run(
            &AppSatAttack::new(),
            &locked.circuit,
            &oracle,
            Budget::default(),
        )
        .unwrap();
        let key = run.outcome.exact_key().expect("RLL must be broken").clone();
        let unlocked = locked.apply_key(&key).unwrap();
        assert!(kratt_netlist::sim::exhaustively_equivalent(&original, &unlocked).unwrap());
    }

    #[test]
    fn appsat_returns_an_approximate_key_for_a_point_function() {
        // On SARLock an approximate key is accepted once the sampled error is
        // zero; the returned key may corrupt at most one input pattern.
        let original = adder4();
        let secret = SecretKey::from_u64(0b101011, 6);
        let locked = SarLock::new(6).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let run = run(
            &AppSatAttack::new(),
            &locked.circuit,
            &oracle,
            Budget::default(),
        )
        .unwrap();
        let key = run
            .outcome
            .exact_key()
            .expect("AppSAT should settle on a key")
            .clone();
        let unlocked = locked.apply_key(&key).unwrap();
        // Count differing patterns: a wrong-but-approximate SARLock key
        // corrupts at most one protected-input pattern, i.e. at most
        // 2^(free inputs) = 2^(9-6) = 8 of the 512 full input patterns.
        let sim_a = kratt_netlist::sim::Simulator::new(&original).unwrap();
        let sim_b = kratt_netlist::sim::Simulator::new(&unlocked).unwrap();
        let differing = (0u64..(1 << 9))
            .filter(|&p| {
                let bits: Vec<bool> = (0..9).map(|i| p >> i & 1 != 0).collect();
                sim_a.run(&bits).unwrap() != sim_b.run(&bits).unwrap()
            })
            .count();
        assert!(
            differing <= 8,
            "approximate key corrupts {differing} patterns"
        );
    }

    #[test]
    fn appsat_respects_its_budget() {
        let original = adder4();
        let secret = SecretKey::from_u64(0x0f0 & 0x1ff, 9);
        let locked = SarLock::new(9).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original).unwrap();
        let attack = AppSatAttack {
            settle_every: 1000,
            ..Default::default()
        };
        let budget = Budget {
            time_limit: Some(Duration::from_millis(1)),
            max_iterations: 1,
            ..Budget::default()
        };
        let run = run(&attack, &locked.circuit, &oracle, budget).unwrap();
        assert!(run.outcome.is_out_of_budget());
    }
}

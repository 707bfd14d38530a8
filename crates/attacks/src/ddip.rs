//! Double DIP: the SAT-attack variant that eliminates at least two wrong
//! keys per iteration (Shen & Zhou, GLSVLSI'17).
//!
//! This is the sequential formulation. A round is up to two of the SAT
//! attack's steps: find a DIP, query the oracle for it, and constrain the
//! miter with the answer. The second DIP of a round is therefore searched
//! under the first one's IO constraint and eliminates keys the first did
//! not. The DIP sequence is exactly the SAT attack's, grouped in twos, so
//! the number of *iterations* halves while the number of oracle queries
//! stays the same. That is why it still cannot break SAT-resilient locking
//! within the paper's time limit (Table III).
//!
//! Shen and Zhou's four-copy miter, which asks for a pair of DIPs that
//! together eliminate at least two wrong keys, is not built. On SARLock each
//! DIP eliminates exactly one wrong key, the key equal to the DIP, so no such
//! pair exists: that miter would stop at once with a key that is wrong on
//! one input pattern.

use crate::engine::{Attack, AttackRequest, ThreatModel};
use crate::error::AttackError;
use crate::report::{AttackRun, StepTiming};
use crate::sat_attack::exact_dip_attack;

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
        let mut run = exact_dip_attack(self.name(), request, 2)?;
        // One step spans the whole run; a run that never started has none.
        if !run.steps.is_empty() {
            run.steps = vec![StepTiming::new("double-dip-loop", run.runtime)];
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Budget;
    use crate::oracle::Oracle;
    use crate::sat_attack::tests::{adder4, random_locked_soup, run as run_sat};
    use kratt_locking::{LockingTechnique, RandomXorLocking, SarLock, SecretKey};
    use kratt_netlist::sim::exhaustively_equivalent;
    use kratt_netlist::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    /// Runs the attack through [`Attack::execute`] under `budget`.
    fn run(locked: &Circuit, oracle: &Oracle, budget: Budget) -> Result<AttackRun, AttackError> {
        DoubleDipAttack::new()
            .execute(&AttackRequest::oracle_guided(locked, oracle).with_budget(budget))
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
        assert!(exhaustively_equivalent(&original, &unlocked).unwrap());
    }

    /// Each round takes two of the SAT attack's DIPs: half its iterations,
    /// rounded up, at exactly its oracle queries, one counted query per DIP.
    #[test]
    fn double_dip_uses_no_more_iterations_than_the_sat_attack_on_sarlock() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b1010, 4);
        let locked = SarLock::new(4).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let sat = run_sat(&locked.circuit, &oracle, Budget::default()).unwrap();
        let ddip = run(&locked.circuit, &oracle, Budget::default()).unwrap();
        assert_eq!(sat.oracle_queries, sat.iterations as u64);
        assert_eq!(
            (ddip.iterations, ddip.oracle_queries),
            (sat.iterations.div_ceil(2), sat.oracle_queries),
            "(rounds, queries) of Double DIP against the SAT attack's {} DIPs",
            sat.iterations
        );
        let key = ddip.exact_key().expect("4-bit SARLock must be broken");
        assert!(exhaustively_equivalent(&original, &locked.apply_key(key).unwrap()).unwrap());
    }

    /// The budget is checked before each DIP search, not once per round, so
    /// an oracle-query cap stops Double DIP where it stops the SAT attack.
    #[test]
    fn double_dip_spends_the_sat_attacks_queries_under_a_query_cap() {
        let original = adder4();
        let locked = SarLock::new(4)
            .lock(&original, &SecretKey::from_u64(0b1010, 4))
            .unwrap();
        let oracle = Oracle::new(original).unwrap();
        for cap in 1..=7u64 {
            let budget = Budget {
                max_oracle_queries: Some(cap),
                ..Budget::default()
            };
            let sat = run_sat(&locked.circuit, &oracle, budget.clone()).unwrap();
            let ddip = run(&locked.circuit, &oracle, budget).unwrap();
            assert!(ddip.outcome.is_out_of_budget(), "cap {cap}");
            assert!(
                ddip.oracle_queries <= cap,
                "cap {cap}: {} queries",
                ddip.oracle_queries
            );
            assert_eq!(ddip.oracle_queries, sat.oracle_queries, "cap {cap}");
        }
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

    proptest::proptest! {
        /// On random RLL, SARLock and Anti-SAT locks, Double DIP returns the
        /// SAT attack's key with its oracle queries, one per DIP, in half
        /// its iterations rounded up, and that key unlocks the host.
        #[test]
        fn prop_double_dip_takes_the_sat_attacks_dips_in_twos(seed in 0u64..1024) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let (host, locked, oracle) = random_locked_soup(seed, &mut rng);
            let sat = run_sat(&locked.circuit, &oracle, Budget::default()).unwrap();
            let ddip = run(&locked.circuit, &oracle, Budget::default()).unwrap();
            let key = sat.exact_key().expect("a lock of at most 5 key bits falls");
            proptest::prop_assert_eq!(ddip.exact_key(), Some(key));
            proptest::prop_assert_eq!(sat.oracle_queries, sat.iterations as u64);
            proptest::prop_assert_eq!(ddip.oracle_queries, sat.oracle_queries);
            proptest::prop_assert_eq!(ddip.iterations, sat.iterations.div_ceil(2));
            let unlocked = locked.apply_key(key).unwrap();
            proptest::prop_assert!(exhaustively_equivalent(&host, &unlocked).unwrap());
        }
    }
}

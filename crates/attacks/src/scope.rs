//! The SCOPE oracle-less attack: synthesis-based constant propagation.
//!
//! SCOPE analyses one key bit at a time: the locked netlist is
//! constant-propagated once with the bit tied to 0 and once with it tied to
//! 1, and structural features of the two results — gate count, literal
//! count, logic depth — are compared. If the two assignments are
//! structurally indistinguishable the bit is left undeciphered; if they
//! differ, the attack guesses the value whose circuit retained *more*
//! structure (the wrong value of a hard-wired comparison collapses the
//! corruption logic, which is exactly the asymmetry SCOPE keys on).
//!
//! The per-bit feature vectors come from two ternary cofactor analyses per
//! bit over a shared [`ScopePlan`], which
//! replays the resynthesis decisions virtually — no circuit is ever built.
//! The features equal those of a full [`set_inputs_constant`] rebuild and
//! stats pass by construction (see [`crate::scope_replay`]).
//!
//! As in the paper, SCOPE alone makes weak or no guesses on most
//! SAT-resilient techniques; its value inside KRATT comes from running it on
//! the *modified* locking unit / locked subcircuit instead of the full
//! netlist.
//!
//! [`set_inputs_constant`]: kratt_netlist::transform::set_inputs_constant

use crate::engine::{Attack, AttackRequest, CostClass, Deadline, ThreatModel};
use crate::error::AttackError;
use crate::report::{AttackOutcome, AttackRun, KeyGuess, StepTiming};
use crate::scope_replay::ScopePlan;
use kratt_netlist::analysis::CircuitStats;
use kratt_netlist::{Circuit, NetId};

/// Structural feature vector SCOPE extracts per key-bit assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeFeatures {
    /// Number of gates after constant propagation.
    pub gates: usize,
    /// Number of gate input pins (area proxy).
    pub literals: usize,
    /// Logic depth (delay proxy).
    pub depth: usize,
}

impl From<CircuitStats> for ScopeFeatures {
    fn from(s: CircuitStats) -> Self {
        ScopeFeatures {
            gates: s.gates,
            literals: s.literals,
            depth: s.depth,
        }
    }
}

/// The SCOPE attack.
#[derive(Debug, Clone, Default)]
pub struct ScopeAttack {
    /// Minimum gate-count difference between the two assignments for the bit
    /// to be considered deciphered. 0 means "any difference".
    pub margin: usize,
}

impl ScopeAttack {
    /// SCOPE with the default decision margin: any structural difference
    /// produces a guess.
    pub fn new() -> Self {
        ScopeAttack::default()
    }

    /// The per-bit analysis under an explicit deadline and iteration cap
    /// (one iteration = one analysed key bit): the guess, and the number of
    /// key bits analysed before a limit (or the end of the key) was reached.
    fn run_with_deadline(
        &self,
        locked: &Circuit,
        deadline: &Deadline,
        max_bits: usize,
    ) -> Result<(KeyGuess, usize), AttackError> {
        let key_inputs = locked.key_inputs();
        if key_inputs.is_empty() {
            return Err(AttackError::NoKeyInputs);
        }
        // One plan, over the circuit's cached topological order, serves
        // every cofactor run of the key sweep.
        let mut plan = ScopePlan::new(locked)?;
        let mut guess = KeyGuess::new();
        let mut analysed = 0usize;
        for &key in &key_inputs {
            if deadline.expired() || analysed >= max_bits {
                break;
            }
            analysed += 1;
            if let Some(value) = self.decide(&mut plan, key) {
                guess.set(locked.net_name(key), value);
            }
        }
        Ok((guess, analysed))
    }

    /// The guess the margin-aware comparison makes from the key bit's
    /// cofactor pair.
    fn decide(&self, plan: &mut ScopePlan<'_>, key: NetId) -> Option<bool> {
        let features0 = plan.features(&[(key, false)]);
        let features1 = plan.features(&[(key, true)]);
        if features0 == features1 {
            return None;
        }
        let difference = features0.gates.abs_diff(features1.gates);
        if difference < self.margin {
            return None;
        }
        // Guess the value that keeps more structure alive; break ties on
        // literal count, then depth.
        let ordering = features1
            .gates
            .cmp(&features0.gates)
            .then(features1.literals.cmp(&features0.literals))
            .then(features1.depth.cmp(&features0.depth));
        match ordering {
            std::cmp::Ordering::Greater => Some(true),
            std::cmp::Ordering::Less => Some(false),
            std::cmp::Ordering::Equal => None,
        }
    }
}

impl Attack for ScopeAttack {
    fn name(&self) -> &'static str {
        "scope"
    }

    /// SCOPE never touches the oracle, so it accepts requests under either
    /// threat model.
    fn supports(&self, _model: ThreatModel) -> bool {
        true
    }

    /// Simulation-bound per-bit analysis — milliseconds, not solver time —
    /// so the scheduler interleaves it through the injector.
    fn cost_class(&self) -> CostClass {
        CostClass::Cheap
    }

    fn execute(&self, request: &AttackRequest<'_>) -> Result<AttackRun, AttackError> {
        let deadline = request.deadline();
        if deadline.expired() {
            return Ok(AttackRun::out_of_budget(
                self.name(),
                request.threat_model(),
            ));
        }
        let (guess, analysed) =
            self.run_with_deadline(request.locked, &deadline, request.budget.max_iterations)?;
        let runtime = deadline.elapsed();
        // A deadline hit mid-key means the partial guess is incomplete
        // evidence, not a result: report out-of-budget like the others.
        let outcome = if analysed < request.locked.key_inputs().len() {
            AttackOutcome::OutOfBudget
        } else {
            AttackOutcome::PartialGuess(guess)
        };
        Ok(AttackRun {
            attack: self.name().to_string(),
            threat_model: request.threat_model(),
            outcome,
            runtime,
            iterations: analysed,
            oracle_queries: 0,
            steps: vec![StepTiming::new("per-bit-analysis", runtime)],
            members: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Budget;
    use crate::report::score_guess;
    use kratt_locking::{LockingTechnique, SarLock, SecretKey, TtLock};
    use kratt_netlist::GateType;

    /// Drives SCOPE through the unified API (the only entry point) and
    /// unwraps the full-key partial guess an unlimited budget guarantees.
    fn guess_of(attack: &ScopeAttack, locked: &Circuit) -> KeyGuess {
        let run = attack
            .execute(&AttackRequest::oracle_less(locked).with_budget(Budget::unlimited()))
            .unwrap();
        match run.outcome {
            AttackOutcome::PartialGuess(guess) => guess,
            other => panic!("expected a partial guess, got {}", other.kind()),
        }
    }

    /// A somewhat larger host so the locking unit is not the whole circuit.
    fn host() -> Circuit {
        let mut c = Circuit::new("host");
        let inputs: Vec<NetId> = (0..8)
            .map(|i| c.add_input(format!("g{i}")).unwrap())
            .collect();
        let mut prev = inputs[0];
        for (i, &input) in inputs.iter().enumerate().skip(1) {
            let ty = if i % 2 == 0 {
                GateType::Nand
            } else {
                GateType::Xor
            };
            prev = c.add_gate(ty, format!("h{i}"), &[prev, input]).unwrap();
        }
        let extra = c
            .add_gate(GateType::Nor, "extra", &[inputs[0], inputs[7]])
            .unwrap();
        let out = c.add_gate(GateType::Or, "out", &[prev, extra]).unwrap();
        c.mark_output(out);
        c.mark_output(extra);
        c
    }

    #[test]
    fn scope_recovers_sarlock_keys_from_the_mask_asymmetry() {
        let secret = SecretKey::from_u64(0b10110101, 8);
        let locked = SarLock::new(8).lock(&host(), &secret).unwrap();
        let guess = guess_of(&ScopeAttack::new(), &locked.circuit);
        let (cdk, dk) = score_guess(&locked, &guess);
        assert_eq!(
            dk, 8,
            "SARLock's hard-wired mask should make every bit decidable"
        );
        assert_eq!(cdk, 8, "every deciphered bit should be correct");
    }

    #[test]
    fn scope_is_only_partially_correct_on_a_dflt() {
        // TTLock's restore unit is a plain comparator: the only asymmetry a
        // per-bit constant propagation sees is the inverter on one of the two
        // assignments, so SCOPE's guesses are biased and only about half of
        // them are correct — the weak-standalone-SCOPE behaviour the paper
        // reports on DFLTs (Table II).
        let secret = SecretKey::from_u64(0b0110_1001, 8);
        let locked = TtLock::new(8).lock(&host(), &secret).unwrap();
        let guess = guess_of(&ScopeAttack::new(), &locked.circuit);
        let (cdk, dk) = score_guess(&locked, &guess);
        assert!(dk > 0, "the inverter asymmetry should produce guesses");
        assert!(
            cdk < dk,
            "standalone SCOPE must not fully recover a DFLT key"
        );
    }

    #[test]
    fn engine_selects_the_registered_name() {
        assert_eq!(ScopeAttack::new().name(), "scope");
        let registry = crate::registry::AttackRegistry::with_baselines();
        assert_eq!(registry.build("scope").unwrap().name(), "scope");
    }

    #[test]
    fn no_key_inputs_is_an_error() {
        let unlocked = host();
        assert!(matches!(
            ScopeAttack::new().execute(&AttackRequest::oracle_less(&unlocked)),
            Err(AttackError::NoKeyInputs)
        ));
    }

    #[test]
    fn margin_suppresses_weak_guesses() {
        let secret = SecretKey::from_u64(0b1010, 4);
        let locked = SarLock::new(4).lock(&host(), &secret).unwrap();
        let strict = ScopeAttack { margin: usize::MAX };
        assert_eq!(guess_of(&strict, &locked.circuit).deciphered(), 0);
    }
}

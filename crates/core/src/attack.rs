//! The KRATT orchestrator: the full flow of the paper's Fig. 4 under both
//! threat models.

use crate::classify::{classify_unit, UnitClass};
use crate::extraction::extract_locked_subcircuit;
use crate::og::{structural_analysis, StructuralAnalysisConfig, StructuralOutcome};
use crate::ol::{attack_subcircuit_with_scope, attack_unit_with_scope};
use crate::qbf_attack::{solve_unit_qbf, QbfStepOutcome};
use crate::removal::remove_locking_unit;
use crate::{KrattError, RemovalArtifacts};
use kratt_attacks::portfolio::DEFAULT_MEMBERS;
use kratt_attacks::registry::AttackRegistry;
use kratt_attacks::{
    Attack, AttackError, AttackOutcome, AttackRequest, AttackRun, Budget, Deadline, KeyGuess,
    Oracle, PortfolioAttack, ScopeAttack, StepTiming, ThreatModel,
};
use kratt_locking::SecretKey;
use kratt_netlist::Circuit;
use kratt_qbf::QbfConfig;
use std::time::{Duration, Instant};

/// Configuration of the whole pipeline.
///
/// The wall clock is not a field of its own: [`KrattConfig::apply_budget`]
/// hands a request's one [`Deadline`] to both engine configs, and the
/// orchestrator checks that same deadline after the QBF step. The paper's
/// one-minute limit is [`Budget::default`], which [`Attack::execute`] and
/// the direct entry points ([`KrattAttack::attack_oracle_less`],
/// [`KrattAttack::attack_oracle_guided`]) start.
#[derive(Debug, Clone, Default)]
pub struct KrattConfig {
    /// Limits of the 2QBF solver (BDD node budget, CEGAR iterations, SAT
    /// conflicts, deadline).
    pub qbf: QbfConfig,
    /// Decision margin of the SCOPE component.
    pub scope_margin: usize,
    /// Budget and heuristics of the oracle-guided structural analysis.
    pub structural: StructuralAnalysisConfig,
}

impl KrattConfig {
    /// Overlays a shared [`Budget`] and its started [`Deadline`] onto this
    /// configuration: both engines get the one deadline (with its
    /// cancellation flag), the QBF solver the budget's per-call conflict
    /// limit and the structural analysis its oracle-query cap, so the whole
    /// pipeline honours the one budget (and a portfolio race's
    /// cancellation) cooperatively.
    pub fn apply_budget(mut self, budget: &Budget, deadline: &Deadline) -> Self {
        self.qbf.deadline = deadline.clone();
        self.qbf.sat_conflict_limit = budget.sat_conflict_limit;
        self.structural.deadline = deadline.clone();
        if let Some(cap) = budget.max_oracle_queries {
            self.structural.max_oracle_queries = cap;
        }
        self
    }
}

/// Which step of the flow produced the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KrattPath {
    /// The QBF formulation on the extracted unit (SFLTs).
    Qbf,
    /// Circuit modification of the locking unit plus SCOPE (SFLTs whose QBF
    /// solve did not produce a key, e.g. Gen-Anti-SAT).
    ModifiedUnitScope,
    /// Circuit modification of the locked subcircuit plus SCOPE (DFLTs under
    /// the oracle-less threat model).
    ModifiedSubcircuitScope,
    /// Structural analysis and exhaustive search with the oracle (DFLTs under
    /// the oracle-guided threat model).
    StructuralAnalysis,
}

/// A full report of one KRATT run.
#[derive(Debug, Clone)]
pub struct KrattReport {
    /// The outcome: an exact key (the secret of an SFLT broken through QBF,
    /// or a provably correct equivalent for Anti-SAT-style multi-key units;
    /// the secret of a DFLT broken through structural analysis), a partial
    /// guess (the circuit-modification + SCOPE path), or out of budget.
    pub outcome: AttackOutcome,
    /// The pipeline step that produced the outcome.
    pub path: KrattPath,
    /// The unit classification, when the pipeline got that far.
    pub unit_class: Option<UnitClass>,
    /// Wall-clock runtime of the whole run.
    pub runtime: Duration,
    /// Per-step durations (removal, QBF, classification, ...).
    pub steps: Vec<StepTiming>,
    /// CEGAR refinement iterations spent by the QBF step (0 when the BDD
    /// fast path decided the instances).
    pub qbf_iterations: usize,
    /// The removal artefacts, exposed so callers can reuse the extracted
    /// unit / USC (e.g. for reconstruction).
    pub artifacts: RemovalArtifacts,
}

/// The KRATT attack.
#[derive(Debug, Clone, Default)]
pub struct KrattAttack {
    /// Pipeline configuration.
    pub config: KrattConfig,
}

impl KrattAttack {
    /// KRATT with the default configuration.
    pub fn new() -> Self {
        KrattAttack::default()
    }

    /// KRATT with an explicit configuration.
    pub fn with_config(config: KrattConfig) -> Self {
        KrattAttack { config }
    }

    /// Runs KRATT under the oracle-less threat model (steps 1–5 of Fig. 4),
    /// within [`Budget::default`]'s one-minute clock started now — what
    /// [`Attack::execute`] gives an [`AttackRequest::oracle_less`] request.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is not a single-merge-point locked
    /// design (no key inputs, or no critical signal).
    pub fn attack_oracle_less(&self, locked: &Circuit) -> Result<KrattReport, KrattError> {
        self.on_default_clock().run(locked, None)
    }

    /// Runs KRATT under the oracle-guided threat model (steps 1–3 and 6–7 of
    /// Fig. 4), within [`Budget::default`]'s one-minute clock started now —
    /// what [`Attack::execute`] gives an [`AttackRequest::oracle_guided`]
    /// request. Steps 6–7 run only on a unit classified as a DFLT restore
    /// unit; any other unit ends in the oracle-less step-5 branch of its
    /// class with a partial guess.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is not a single-merge-point locked
    /// design (no key inputs, or no critical signal).
    pub fn attack_oracle_guided(
        &self,
        locked: &Circuit,
        oracle: &Oracle,
    ) -> Result<KrattReport, KrattError> {
        self.on_default_clock().run(locked, Some(oracle))
    }

    /// This attack with both engines on one [`Budget::default`] deadline
    /// started now; every other setting is kept.
    fn on_default_clock(&self) -> KrattAttack {
        let deadline = Budget::default().start();
        let mut config = self.config.clone();
        config.qbf.deadline = deadline.clone();
        config.structural.deadline = deadline;
        KrattAttack { config }
    }

    /// The flow of Fig. 4. Steps 1–3 (logic removal, QBF, classification)
    /// run under both threat models; a QBF key or an expired deadline ends
    /// the run before classification. After it, an oracle and a DFLT
    /// restore unit take steps 6–7 (extraction, structural analysis), and
    /// anything else takes steps 4–5 (circuit modification plus SCOPE).
    fn run(&self, locked: &Circuit, oracle: Option<&Oracle>) -> Result<KrattReport, KrattError> {
        let start = Instant::now();
        let mut steps: Vec<StepTiming> = Vec::new();
        let artifacts = timed(&mut steps, "logic-removal", || remove_locking_unit(locked))?;
        let (qbf_outcome, qbf_iterations) = timed(&mut steps, "qbf", || {
            solve_unit_qbf(&artifacts, &self.config.qbf)
        })?;
        let mut unit_class = None;
        let (outcome, path) = if let QbfStepOutcome::Key { guess, .. } = qbf_outcome {
            (
                AttackOutcome::ExactKey(self.guess_to_key(locked, &guess)),
                KrattPath::Qbf,
            )
        } else if self.config.qbf.deadline.expired() {
            (AttackOutcome::OutOfBudget, KrattPath::Qbf)
        } else {
            let class = timed(&mut steps, "classification", || classify_unit(&artifacts))?;
            unit_class = Some(class);
            match oracle {
                // Only a DFLT restore unit guards the protected pattern
                // steps 6–7 search for — on any other unit (e.g. SFLL-HD
                // with h >= 1) the restore output does not flip at the
                // secret, so the oracle check would accept almost any
                // candidate.
                Some(oracle) if class.is_restore_unit() => {
                    let subcircuit = timed(&mut steps, "extraction", || {
                        extract_locked_subcircuit(&artifacts)
                    })?;
                    let analysis = timed(&mut steps, "structural-analysis", || {
                        structural_analysis(
                            &artifacts,
                            &subcircuit,
                            locked,
                            oracle,
                            &self.config.structural,
                        )
                    })?;
                    let outcome = match analysis {
                        StructuralOutcome::Key { guess, .. } => {
                            AttackOutcome::ExactKey(self.guess_to_key(locked, &guess))
                        }
                        StructuralOutcome::OutOfTime => AttackOutcome::OutOfBudget,
                    };
                    (outcome, KrattPath::StructuralAnalysis)
                }
                // Steps 4–5 on the locked subcircuit (restore units) or on
                // the unit itself (anything else).
                _ => {
                    let scope = ScopeAttack {
                        margin: self.config.scope_margin,
                    };
                    let (guess, path) = timed(&mut steps, "circuit-modification+scope", || {
                        if class.is_restore_unit() {
                            let subcircuit = extract_locked_subcircuit(&artifacts)?;
                            attack_subcircuit_with_scope(&artifacts, &subcircuit, &scope)
                                .map(|guess| (guess, KrattPath::ModifiedSubcircuitScope))
                        } else {
                            attack_unit_with_scope(&artifacts, &scope)
                                .map(|guess| (guess, KrattPath::ModifiedUnitScope))
                        }
                    })?;
                    (AttackOutcome::PartialGuess(guess), path)
                }
            }
        };
        Ok(KrattReport {
            outcome,
            path,
            unit_class,
            runtime: start.elapsed(),
            steps,
            qbf_iterations,
            artifacts,
        })
    }

    fn guess_to_key(&self, locked: &Circuit, guess: &KeyGuess) -> SecretKey {
        guess.to_secret_key(&kratt_attacks::key_input_names(locked))
    }
}

/// Runs one pipeline step, appending its duration to `steps` under `name`.
fn timed<T>(steps: &mut Vec<StepTiming>, name: &str, step: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = step();
    steps.push(StepTiming::new(name, start.elapsed()));
    value
}

impl Attack for KrattAttack {
    fn name(&self) -> &'static str {
        "kratt"
    }

    /// KRATT runs under both threat models (the OL and OG paths of Fig. 4).
    fn supports(&self, _model: ThreatModel) -> bool {
        true
    }

    fn execute(&self, request: &AttackRequest<'_>) -> Result<AttackRun, AttackError> {
        let deadline = request.deadline();
        if deadline.expired() {
            return Ok(AttackRun::out_of_budget(
                self.name(),
                request.threat_model(),
            ));
        }
        let base_queries = request.oracle.map(|o| o.queries()).unwrap_or(0);
        let attack = KrattAttack {
            config: self.config.clone().apply_budget(&request.budget, &deadline),
        };
        let report = attack.run(request.locked, request.oracle)?;
        Ok(AttackRun {
            attack: self.name().to_string(),
            threat_model: request.threat_model(),
            outcome: report.outcome,
            runtime: report.runtime,
            iterations: report.qbf_iterations,
            oracle_queries: request
                .oracle
                .map(|o| o.queries().saturating_sub(base_queries))
                .unwrap_or(0),
            steps: report.steps,
            members: Vec::new(),
        })
    }
}

/// The full attack registry of the suite: every baseline of
/// `kratt-attacks` (`"sat"`, `"double-dip"`, `"appsat"`, `"fall"`,
/// `"removal"`, `"scope"`) plus `"kratt"` itself and the `"portfolio"`
/// racer over [`DEFAULT_MEMBERS`] (`kratt,sat,appsat`; members are
/// instantiated from this same registry).
pub fn attack_registry() -> AttackRegistry {
    let mut registry = AttackRegistry::with_baselines();
    registry.register("kratt", || Box::new(KrattAttack::new()));
    registry.register("portfolio", || {
        // Build the members from a registry without the portfolio itself,
        // so the member list cannot recurse.
        let mut base = AttackRegistry::with_baselines();
        base.register("kratt", || Box::new(KrattAttack::new()));
        let members: Vec<String> = DEFAULT_MEMBERS.iter().map(|s| s.to_string()).collect();
        Box::new(
            PortfolioAttack::from_registry(&base, &members)
                .expect("every default member is registered"),
        )
    });
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_attacks::score_guess;
    use kratt_benchmarks::arith::ripple_carry_adder;
    use kratt_benchmarks::small::majority;
    use kratt_locking::{
        AntiSat, Cac, CasLock, GenAntiSat, LockingTechnique, SarLock, SecretKey, SfllHd, TtLock,
    };
    use kratt_netlist::sim::exhaustively_equivalent;

    #[test]
    fn oracle_less_qbf_path_breaks_the_running_example() {
        let original = majority();
        let secret = SecretKey::from_u64(0b100, 3);
        let locked = SarLock::new(3).lock(&original, &secret).unwrap();
        let report = KrattAttack::new()
            .attack_oracle_less(&locked.circuit)
            .unwrap();
        assert_eq!(report.path, KrattPath::Qbf);
        assert_eq!(report.outcome.exact_key().unwrap().to_u64(), 0b100);
    }

    #[test]
    fn oracle_less_breaks_every_sflt_functionally() {
        let original = ripple_carry_adder(4).unwrap();
        let techniques: Vec<(&str, Box<dyn LockingTechnique>)> = vec![
            ("sarlock", Box::new(SarLock::new(6))),
            ("anti-sat", Box::new(AntiSat::new(6))),
            ("cas-lock", Box::new(CasLock::new(6))),
            ("gen-anti-sat", Box::new(GenAntiSat::new(6))),
        ];
        for (name, technique) in techniques {
            let secret = SecretKey::from_u64(0b101_101, 6);
            let locked = technique.lock(&original, &secret).unwrap();
            let report = KrattAttack::new()
                .attack_oracle_less(&locked.circuit)
                .unwrap();
            let key = report
                .outcome
                .exact_key()
                .unwrap_or_else(|| panic!("{name}: expected an exact key"))
                .clone();
            let unlocked = locked.apply_key(&key).unwrap();
            assert!(
                exhaustively_equivalent(&original, &unlocked).unwrap(),
                "{name}: recovered key does not unlock"
            );
        }
    }

    #[test]
    fn oracle_less_dflt_path_reports_a_partial_guess() {
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b1010, 4);
        for locked in [
            TtLock::new(4).lock(&original, &secret).unwrap(),
            Cac::new(4).lock(&original, &secret).unwrap(),
        ] {
            let report = KrattAttack::new()
                .attack_oracle_less(&locked.circuit)
                .unwrap();
            assert_eq!(report.path, KrattPath::ModifiedSubcircuitScope);
            assert!(report.unit_class.unwrap().is_restore_unit());
            match &report.outcome {
                AttackOutcome::PartialGuess(guess) => {
                    let (cdk, dk) = score_guess(&locked, guess);
                    assert!(dk > 0);
                    assert!(cdk <= dk);
                }
                other => panic!("expected a partial guess, got {other:?}"),
            }
        }
    }

    #[test]
    fn oracle_guided_breaks_dflts_exactly() {
        let original = ripple_carry_adder(4).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let secret = SecretKey::from_u64(0b0110, 4);
        for locked in [
            TtLock::new(4).lock(&original, &secret).unwrap(),
            Cac::new(4).lock(&original, &secret).unwrap(),
        ] {
            let report = KrattAttack::new()
                .attack_oracle_guided(&locked.circuit, &oracle)
                .unwrap();
            assert_eq!(report.path, KrattPath::StructuralAnalysis);
            assert_eq!(report.outcome.exact_key().unwrap().to_u64(), 0b0110);
        }
    }

    #[test]
    fn oracle_guided_never_claims_a_wrong_sfll_hd_key() {
        // SFLL-HD with h = 1 restores a Hamming sphere, not one pattern: its
        // unit classifies as `Other`, so structural analysis must not run
        // (its oracle check would accept almost any candidate).
        let original = ripple_carry_adder(4).unwrap();
        for secret in 0..16 {
            let secret = SecretKey::from_u64(secret, 4);
            let locked = SfllHd::new(4, 1).lock(&original, &secret).unwrap();
            let oracle = Oracle::new(original.clone()).unwrap();
            let report = KrattAttack::new()
                .attack_oracle_guided(&locked.circuit, &oracle)
                .unwrap();
            if let Some(key) = report.outcome.exact_key() {
                let unlocked = locked.apply_key(key).unwrap();
                assert!(
                    exhaustively_equivalent(&original, &unlocked).unwrap(),
                    "secret {secret:?}: claimed key {} does not unlock",
                    key.to_u64()
                );
            } else {
                assert_ne!(report.path, KrattPath::StructuralAnalysis);
            }
        }
    }

    #[test]
    fn oracle_guided_sflt_is_resolved_by_qbf_without_touching_the_oracle() {
        let original = ripple_carry_adder(4).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let secret = SecretKey::from_u64(0b110101, 6);
        let locked = AntiSat::new(6).lock(&original, &secret).unwrap();
        let report = KrattAttack::new()
            .attack_oracle_guided(&locked.circuit, &oracle)
            .unwrap();
        assert_eq!(report.path, KrattPath::Qbf);
        assert_eq!(
            oracle.queries(),
            0,
            "the QBF path must not spend oracle queries"
        );
        let key = report.outcome.exact_key().unwrap().clone();
        let unlocked = locked.apply_key(&key).unwrap();
        assert!(exhaustively_equivalent(&original, &unlocked).unwrap());
    }

    #[test]
    fn out_of_budget_is_reported_when_budgets_are_zero() {
        let original = ripple_carry_adder(4).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let secret = SecretKey::from_u64(0b1001, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let config = KrattConfig {
            structural: StructuralAnalysisConfig {
                max_oracle_queries: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = KrattAttack::with_config(config)
            .attack_oracle_guided(&locked.circuit, &oracle)
            .unwrap();
        assert!(report.outcome.is_out_of_budget());
    }

    #[test]
    fn unlocked_or_scattered_locking_is_an_error() {
        let original = majority();
        assert!(matches!(
            KrattAttack::new().attack_oracle_less(&original),
            Err(KrattError::NoKeyInputs)
        ));
    }

    #[test]
    fn portfolio_verdict_parity_on_a_scheme_host_grid() {
        use kratt_attacks::{AttackRequest, Budget, PortfolioAttack};
        use std::time::Duration;

        let registry = attack_registry();
        let members: Vec<String> = ["kratt", "sat"].iter().map(|s| s.to_string()).collect();
        let hosts = [
            ("adder4", ripple_carry_adder(4).unwrap()),
            ("majority", majority()),
        ];
        let schemes: Vec<(&str, Box<dyn LockingTechnique>, SecretKey)> = vec![
            (
                "sarlock",
                Box::new(SarLock::new(3)),
                SecretKey::from_u64(0b101, 3),
            ),
            (
                "antisat",
                Box::new(AntiSat::new(4)),
                SecretKey::from_u64(0b0110, 4),
            ),
        ];
        for (host_name, original) in &hosts {
            for (scheme, technique, secret) in &schemes {
                let locked = technique.lock(original, secret).unwrap();
                let oracle = Oracle::new(original.clone()).unwrap();
                let request = AttackRequest::oracle_guided(&locked.circuit, &oracle)
                    .with_budget(Budget::with_time_limit(Duration::from_secs(60)));
                // Whether any member solves the cell solo (a single-member
                // portfolio verifies its claim exactly like the race does).
                let mut any_solo_verified = false;
                for member in &members {
                    let solo =
                        PortfolioAttack::from_registry(&registry, std::slice::from_ref(member))
                            .unwrap();
                    let run = solo.execute(&request).unwrap();
                    any_solo_verified |= run.winning_member().is_some_and(|m| m.verified);
                }
                let race = PortfolioAttack::from_registry(&registry, &members).unwrap();
                let run = race.execute(&request).unwrap();
                let winner = run
                    .winning_member()
                    .unwrap_or_else(|| panic!("{host_name}/{scheme}: race without a winner"));
                assert!(
                    winner.wall <= run.runtime,
                    "{host_name}/{scheme}: winner wall {:?} exceeds the race wall {:?}",
                    winner.wall,
                    run.runtime
                );
                // Verdict parity: the race must solve every cell its best
                // member solves — the whole point of racing.
                if any_solo_verified {
                    assert!(
                        winner.verified,
                        "{host_name}/{scheme}: a solo member verified its key \
                         but the race's winner (`{}`) did not",
                        winner.name
                    );
                }
            }
        }
    }

    #[test]
    fn outcome_as_guess_round_trips() {
        let locked = SarLock::new(3)
            .lock(&majority(), &SecretKey::from_u64(0b101, 3))
            .unwrap();
        let report = KrattAttack::new()
            .attack_oracle_less(&locked.circuit)
            .unwrap();
        let names = locked.circuit.key_input_names();
        let guess = report.outcome.as_guess(&names);
        assert_eq!(score_guess(&locked, &guess), (3, 3));
        assert_eq!(guess.to_secret_key(&names).to_u64(), 0b101);
    }
}

//! The portfolio attack: member engines racing under one shared budget.
//!
//! A [`PortfolioAttack`] spawns every member engine on its own scoped
//! thread, each with a clone of the request, a private oracle rebuilt from
//! the shared one (the oracle's query counter is not `Sync`), and a slice
//! of the one shared [`Budget`] (additive resources — iterations and
//! oracle queries — are split; the wall clock and per-call conflict limit
//! are not, because the members run concurrently). The members race to the
//! first *SAT-verified* exact-key claim: a claimant applies its key and
//! proves the unlocked circuit equivalent to the oracle's with the
//! campaign's complete equivalence kernel, then raises the shared
//! [`CancelFlag`]. Every member's request carries that flag, so it reaches
//! the one [`Deadline`](crate::Deadline) the member's SAT solvers, QBF
//! CEGAR loop, DIP loop and structural search stop on: the losers stop
//! promptly instead of running their slices dry.
//!
//! The merged [`AttackRun`] carries the winner's outcome, the portfolio's
//! total wall clock, the summed oracle queries of every member, and one
//! [`MemberRun`] row per member (arrival order) recording its outcome,
//! wall time, whether its claim verified, and whether it won the race.

use crate::engine::{Attack, AttackRequest, Budget, ThreatModel};
use crate::error::{catch_panic, AttackError};
use crate::oracle::Oracle;
use crate::registry::AttackRegistry;
use crate::report::{AttackOutcome, AttackRun, MemberRun, StepTiming};
use kratt_locking::SecretKey;
use kratt_netlist::Circuit;
use kratt_sat::CancelFlag;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The default member list: KRATT itself plus the two strongest
/// oracle-guided baselines of Table I.
pub const DEFAULT_MEMBERS: &[&str] = &["kratt", "sat", "appsat"];

/// How often the collector thread polls the caller's cancellation flag
/// while waiting for member results.
const COLLECT_POLL: Duration = Duration::from_millis(25);

/// A racing portfolio of attack engines (registered as `"portfolio"`).
pub struct PortfolioAttack {
    members: Vec<(String, Box<dyn Attack>)>,
}

impl std::fmt::Debug for PortfolioAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.members.iter().map(|(n, _)| n.as_str()).collect();
        f.debug_struct("PortfolioAttack")
            .field("members", &names)
            .finish()
    }
}

/// Parses a comma-separated member spec (empty items are skipped, so
/// `"kratt, sat,"` is two members).
pub fn parse_member_spec(spec: &str) -> Vec<String> {
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

impl PortfolioAttack {
    /// A portfolio over pre-built `(name, engine)` members.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadPortfolioMembers`] for an empty member
    /// list.
    pub fn new(members: Vec<(String, Box<dyn Attack>)>) -> Result<Self, AttackError> {
        if members.is_empty() {
            return Err(AttackError::BadPortfolioMembers("it is empty".into()));
        }
        Ok(PortfolioAttack { members })
    }

    /// A portfolio whose members are built from a registry by name.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadPortfolioMembers`] for an empty list, a
    /// duplicate member, or a `"portfolio"` entry (a portfolio cannot race
    /// itself), and [`AttackError::UnknownAttack`] for an unregistered name.
    pub fn from_registry(registry: &AttackRegistry, names: &[String]) -> Result<Self, AttackError> {
        let mut members = Vec::with_capacity(names.len());
        for name in names {
            if name == "portfolio" {
                return Err(AttackError::BadPortfolioMembers(
                    "the portfolio cannot be its own member".into(),
                ));
            }
            if members.iter().any(|(existing, _)| existing == name) {
                return Err(AttackError::BadPortfolioMembers(format!(
                    "`{name}` is listed twice"
                )));
            }
            members.push((name.clone(), registry.build(name)?));
        }
        PortfolioAttack::new(members)
    }

    /// The member names, in racing order.
    pub fn member_names(&self) -> Vec<&str> {
        self.members.iter().map(|(n, _)| n.as_str()).collect()
    }
}

/// What one member thread sends back over the collection channel.
struct RaceResult {
    name: String,
    run: Result<AttackRun, AttackError>,
    wall: Duration,
    verified: bool,
    /// Whether the flag was already up when this member finished — its
    /// `out-of-budget` outcome then reads `cancelled` in the member rows.
    cancelled: bool,
}

/// SAT-verifies an exact-key claim: applies the key and proves the
/// unlocked circuit equivalent to the oracle's original with the
/// campaign's complete kernel. Any failure (wrong key width, refutation,
/// inconclusive budget) counts as unverified — a portfolio never promotes
/// a claim it could not prove.
fn verify_exact(locked: &Circuit, original: &Circuit, key: &SecretKey) -> bool {
    match kratt_locking::apply_key(locked, key) {
        Ok(unlocked) => crate::campaign::equivalent_to(original, &unlocked).unwrap_or(false),
        Err(_) => false,
    }
}

/// Runs one member under a panic firewall and classifies its claim.
/// Returns `(run, verified, winning_claim)`. The member gets a private
/// oracle rebuilt from the original circuit — the shared [`Oracle`]'s
/// query counter is not `Sync`, so the shared instance never crosses into
/// the race threads.
fn run_member(
    attack: &dyn Attack,
    locked: &Circuit,
    original: Option<&Circuit>,
    budget: Budget,
    race: CancelFlag,
) -> (Result<AttackRun, AttackError>, bool, bool) {
    let oracle = match original {
        Some(circuit) => match Oracle::new(circuit.clone()) {
            Ok(oracle) => Some(oracle),
            Err(e) => return (Err(AttackError::Netlist(e)), false, false),
        },
        None => None,
    };
    let member_request = AttackRequest {
        locked,
        oracle: oracle.as_ref(),
        budget,
        cancel: Some(race),
    };
    let run = catch_panic(|| attack.execute(&member_request));
    match run {
        Ok(run) => match &run.outcome {
            AttackOutcome::ExactKey(key) => {
                let verified = match original {
                    Some(circuit) => verify_exact(locked, circuit, key),
                    None => false,
                };
                // Without an oracle there is nothing to verify against;
                // the first exact claim still ends the race.
                let winning = verified || original.is_none();
                (Ok(run), verified, winning)
            }
            _ => (Ok(run), false, false),
        },
        Err(e) => (Err(e), false, false),
    }
}

impl Attack for PortfolioAttack {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn supports(&self, model: ThreatModel) -> bool {
        self.members.iter().any(|(_, a)| a.supports(model))
    }

    fn execute(&self, request: &AttackRequest<'_>) -> Result<AttackRun, AttackError> {
        let model = request.threat_model();
        let runnable: Vec<&(String, Box<dyn Attack>)> = self
            .members
            .iter()
            .filter(|(_, a)| a.supports(model))
            .collect();
        if runnable.is_empty() {
            return Err(AttackError::Unsupported {
                attack: self.name().to_string(),
                model,
            });
        }
        let deadline = request.deadline();
        if deadline.expired() {
            let mut run = AttackRun::out_of_budget(self.name(), model);
            run.runtime = deadline.elapsed();
            return Ok(run);
        }

        // Only `Sync` state crosses into the race threads: the shared
        // oracle's query counter is a `Cell`, so members see the original
        // circuit and rebuild private oracles from it.
        let locked = request.locked;
        let original = request.oracle.map(|oracle| oracle.circuit());
        let slice = request.budget.slice(runnable.len());
        let race = CancelFlag::default();
        let start = Instant::now();
        let (tx, rx) = mpsc::channel::<RaceResult>();
        let mut arrivals: Vec<RaceResult> = Vec::with_capacity(runnable.len());

        std::thread::scope(|scope| {
            for (name, attack) in &runnable {
                let tx = tx.clone();
                let race = race.clone();
                let slice = slice.clone();
                scope.spawn(move || {
                    let wall_start = Instant::now();
                    let (run, verified, winning_claim) =
                        run_member(attack.as_ref(), locked, original, slice, race.clone());
                    let cancelled = race.load(Ordering::Relaxed) && !winning_claim;
                    if winning_claim {
                        race.store(true, Ordering::Relaxed);
                    }
                    let _ = tx.send(RaceResult {
                        name: name.clone(),
                        run,
                        wall: wall_start.elapsed(),
                        verified,
                        cancelled,
                    });
                });
            }
            drop(tx);
            // Collect in arrival order, relaying the portfolio's deadline —
            // which carries the caller's own cancellation — into the race.
            while arrivals.len() < runnable.len() {
                match rx.recv_timeout(COLLECT_POLL) {
                    Ok(result) => arrivals.push(result),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if deadline.expired() {
                            race.store(true, Ordering::Relaxed);
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        });

        let runtime = start.elapsed();
        let is = |result: &RaceResult, want: fn(&AttackOutcome) -> bool| matches!(&result.run, Ok(run) if want(&run.outcome));
        // The race's podium: a verified exact claim beats an unverified
        // one, beats a recovered circuit, beats a partial guess, beats
        // out-of-budget. Ties break on arrival order.
        let winner_idx = arrivals
            .iter()
            .position(|r| r.verified)
            .or_else(|| {
                arrivals
                    .iter()
                    .position(|r| is(r, |o| matches!(o, AttackOutcome::ExactKey(_))))
            })
            .or_else(|| {
                arrivals
                    .iter()
                    .position(|r| is(r, |o| matches!(o, AttackOutcome::RecoveredCircuit(_))))
            })
            .or_else(|| {
                arrivals
                    .iter()
                    .position(|r| is(r, |o| matches!(o, AttackOutcome::PartialGuess(_))))
            })
            .or_else(|| arrivals.iter().position(|r| r.run.is_ok()));
        let Some(winner_idx) = winner_idx else {
            // Every member errored: the first error speaks for the race.
            return Err(arrivals
                .into_iter()
                .next()
                .map(|r| r.run.expect_err("no Ok arrival exists"))
                .unwrap_or_else(|| {
                    AttackError::Other("portfolio race produced no results".into())
                }));
        };

        let members: Vec<MemberRun> = arrivals
            .iter()
            .enumerate()
            .map(|(i, r)| MemberRun {
                name: r.name.clone(),
                outcome: match &r.run {
                    Ok(run) if r.cancelled && matches!(run.outcome, AttackOutcome::OutOfBudget) => {
                        "cancelled".to_string()
                    }
                    Ok(run) => run.outcome.kind().to_string(),
                    Err(e) => format!("error: {e}"),
                },
                wall: r.wall,
                verified: r.verified,
                winner: i == winner_idx,
            })
            .collect();
        let steps: Vec<StepTiming> = arrivals
            .iter()
            .map(|r| StepTiming::new(format!("member:{}", r.name), r.wall))
            .collect();
        let oracle_queries = arrivals
            .iter()
            .filter_map(|r| r.run.as_ref().ok())
            .map(|run| run.oracle_queries)
            .sum();
        let winner_run = arrivals[winner_idx]
            .run
            .as_ref()
            .expect("the podium only seats Ok runs");
        Ok(AttackRun {
            attack: self.name().to_string(),
            threat_model: model,
            outcome: winner_run.outcome.clone(),
            runtime,
            iterations: winner_run.iterations,
            oracle_queries,
            steps,
            members,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_locking::{LockingTechnique, SarLock, SecretKey};
    use kratt_netlist::GateType;

    fn adder(width: usize, name: &str) -> Circuit {
        let mut c = Circuit::new(name);
        let a: Vec<_> = (0..width)
            .map(|i| c.add_input(format!("a{i}")).unwrap())
            .collect();
        let b: Vec<_> = (0..width)
            .map(|i| c.add_input(format!("b{i}")).unwrap())
            .collect();
        let mut carry = c.add_input("cin").unwrap();
        for i in 0..width {
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
    fn member_spec_parsing_skips_blanks() {
        assert_eq!(parse_member_spec("kratt, sat,"), vec!["kratt", "sat"]);
        assert!(parse_member_spec(" , ").is_empty());
    }

    #[test]
    fn from_registry_rejects_bad_member_lists() {
        let registry = AttackRegistry::with_baselines();
        let build = |names: &[&str]| {
            let names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
            PortfolioAttack::from_registry(&registry, &names)
        };
        for bad in [&[][..], &["sat", "portfolio"], &["sat", "sat"]] {
            let Err(error) = build(bad) else {
                panic!("{bad:?}: a bad member list must be rejected");
            };
            assert!(
                matches!(error, AttackError::BadPortfolioMembers(_)),
                "{bad:?}: {error:?}"
            );
            // The message names the member list, not a scenario set-up.
            let message = error.to_string();
            assert!(message.contains("portfolio member list"), "{message}");
            assert!(!message.contains("setup"), "{message}");
        }
        let Err(duplicate) = build(&["sat", "sat"]) else {
            panic!("a duplicate member must be rejected");
        };
        assert!(duplicate.to_string().contains("`sat`"));
        assert!(matches!(
            build(&["no-such-engine"]),
            Err(AttackError::UnknownAttack(_))
        ));
        let portfolio = build(&["sat", "scope"]).unwrap();
        assert_eq!(portfolio.member_names(), vec!["sat", "scope"]);
    }

    #[test]
    fn supports_is_the_union_of_the_members() {
        let registry = AttackRegistry::with_baselines();
        let og_only = PortfolioAttack::from_registry(&registry, &["sat".to_string()]).unwrap();
        assert!(og_only.supports(ThreatModel::OracleGuided));
        assert!(!og_only.supports(ThreatModel::OracleLess));
        let mixed =
            PortfolioAttack::from_registry(&registry, &["sat".to_string(), "scope".to_string()])
                .unwrap();
        assert!(mixed.supports(ThreatModel::OracleGuided));
        assert!(mixed.supports(ThreatModel::OracleLess));
    }

    #[test]
    fn race_recovers_a_verified_key_and_reports_the_members() {
        let host = adder(3, "add3");
        let secret = SecretKey::from_u64(0b110, 3);
        let locked = SarLock::new(3).lock(&host, &secret).unwrap();
        let oracle = Oracle::new(host).unwrap();
        let registry = AttackRegistry::with_baselines();
        let portfolio = PortfolioAttack::from_registry(
            &registry,
            &["sat".to_string(), "double-dip".to_string()],
        )
        .unwrap();
        let request = AttackRequest::oracle_guided(&locked.circuit, &oracle);
        let run = portfolio.execute(&request).unwrap();
        assert_eq!(run.attack, "portfolio");
        let key = run.outcome.exact_key().expect("race recovers the key");
        assert_eq!(key.bits().len(), 3);
        assert_eq!(run.members.len(), 2);
        let winner = run.winning_member().expect("a member won");
        assert!(winner.verified);
        assert!(winner.wall <= run.runtime);
        assert_eq!(run.members.iter().filter(|m| m.winner).count(), 1);
        // The JSON report carries the member rows.
        let json = run.to_json();
        assert!(json.contains("\"members\":["));
        assert!(json.contains("\"winner\":true"));
    }

    /// A member that always panics, standing in for an implementation bug.
    struct PanickingAttack;

    impl Attack for PanickingAttack {
        fn name(&self) -> &'static str {
            "panicker"
        }
        fn supports(&self, _model: ThreatModel) -> bool {
            true
        }
        fn execute(&self, _request: &AttackRequest<'_>) -> Result<AttackRun, AttackError> {
            panic!("deliberate member panic");
        }
    }

    #[test]
    fn a_panicking_member_becomes_an_error_row_not_an_abort() {
        let host = adder(3, "add3");
        let secret = SecretKey::from_u64(0b011, 3);
        let locked = SarLock::new(3).lock(&host, &secret).unwrap();
        let oracle = Oracle::new(host).unwrap();
        let registry = AttackRegistry::with_baselines();
        let portfolio = PortfolioAttack::new(vec![
            ("panicker".to_string(), Box::new(PanickingAttack)),
            ("sat".to_string(), registry.build("sat").unwrap()),
        ])
        .unwrap();
        let request = AttackRequest::oracle_guided(&locked.circuit, &oracle);
        let run = portfolio.execute(&request).unwrap();
        // The healthy member still wins the race with a verified key.
        assert_eq!(run.outcome.exact_key().unwrap().to_u64(), secret.to_u64());
        assert_eq!(run.winning_member().unwrap().name, "sat");
        let panicker = run.members.iter().find(|m| m.name == "panicker").unwrap();
        assert_eq!(
            panicker.outcome,
            "error: attack panicked: deliberate member panic"
        );
        assert!(!panicker.winner && !panicker.verified);
    }

    #[test]
    fn unsupported_model_is_rejected_before_spawning() {
        let host = adder(3, "add3");
        let secret = SecretKey::from_u64(0b010, 3);
        let locked = SarLock::new(3).lock(&host, &secret).unwrap();
        let registry = AttackRegistry::with_baselines();
        let portfolio = PortfolioAttack::from_registry(&registry, &["sat".to_string()]).unwrap();
        let request = AttackRequest::oracle_less(&locked.circuit);
        assert!(matches!(
            portfolio.execute(&request),
            Err(AttackError::Unsupported { .. })
        ));
    }
}

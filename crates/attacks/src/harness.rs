//! The parallel batch harness: runs an attacks × benchmarks matrix across
//! worker threads and collects structured rows.
//!
//! This is what the paper's evaluation actually is — every (attack,
//! locked circuit) pair of Tables II–V driven under one budget. Its one
//! driver is [`Campaign`](crate::campaign::Campaign), which the `table3` and
//! `campaign` binaries run, and [`Harness::run_matrix_scheduled`] is its one
//! entry point. The harness owns the fan-out with a **work-stealing
//! scheduler**: heavy solver-bound jobs (SAT/QBF CEGAR loops,
//! [`CostClass::Heavy`]) are dealt round-robin across per-worker deques so
//! the long poles start immediately, cheap structural jobs
//! ([`CostClass::Cheap`] — SCOPE, FALL, removal) wait in a global injector,
//! and an idle worker drains its own deque front, then the injector, then
//! steals from the *back* of the first non-empty peer deque in ring order.
//! Stragglers therefore never idle the pool: whichever worker frees up first
//! takes the next job, wherever it was queued. Every job builds its own
//! [`Oracle`] (oracles count queries through interior mutability and are
//! deliberately not shared across threads), and rows come back in
//! deterministic job order regardless of scheduling.
//!
//! Cases are built lazily: the scheduler calls the caller's case closure the
//! first time a worker reaches one of a case's jobs and memoises the result,
//! so the campaign locks a benchmark host *on demand* and the other attacks
//! on the same instance reuse it. A case that fails to build (e.g. a locking
//! scheme whose key width exceeds the host's protected-input count) becomes
//! one structured [`AttackError::Setup`] row per attack instead of a panic.
//! A halt ([`ScheduleOptions::halt_after`]) turns the jobs still queued into
//! [`AttackError::Interrupted`] rows — the hook the resumable campaign
//! journal uses to know which cells still need attacking.

use crate::engine::{Attack, AttackRequest, Budget, CostClass};
use crate::error::{catch_panic, AttackError};
use crate::oracle::Oracle;
use crate::report::AttackRun;
use kratt_netlist::Circuit;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One benchmark instance of the matrix: a locked netlist plus the original
/// circuit its oracle simulates (every campaign case is oracle-guided).
///
/// The circuits are shared behind [`Arc`]s, so a case is cheap to clone —
/// which is what lets the scheduler hand one memoised instance to many
/// attack jobs without rebuilding it.
#[derive(Debug, Clone)]
pub struct MatrixCase {
    /// The locked netlist under attack.
    pub locked: Arc<Circuit>,
    /// The original circuit behind the oracle.
    pub oracle: Arc<Circuit>,
}

/// Per-job scheduler telemetry, carried on every [`MatrixRow`] and on the
/// streamed campaign verdict records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTelemetry {
    /// Index of the worker thread that ran the job.
    pub worker: usize,
    /// Time the job spent queued before a worker picked it up.
    pub queue_wait: Duration,
    /// Whether the job was stolen from another worker's deque.
    pub stolen: bool,
}

/// Aggregate scheduler telemetry for one matrix run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs actually scheduled (after the include filter).
    pub jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Successful steals from another worker's deque.
    pub steals: usize,
    /// Jobs a halt caught before they started.
    pub interrupted: usize,
    /// Wall-clock time from scheduler start to the last worker joining.
    pub makespan: Duration,
}

/// One cell of the matrix: the run (or error) of one attack on one case.
#[derive(Debug)]
pub struct MatrixRow {
    /// Registry name of the attack.
    pub attack: String,
    /// Name of the benchmark case.
    pub case: String,
    /// The attack's run, or the error it reported (an unsupported threat
    /// model shows up here as [`AttackError::Unsupported`], not as a panic).
    pub result: Result<AttackRun, AttackError>,
    /// Scheduler telemetry for the job that produced this row.
    pub telemetry: JobTelemetry,
}

impl MatrixRow {
    /// The run, if the attack executed.
    pub fn run(&self) -> Option<&AttackRun> {
        self.result.as_ref().ok()
    }
}

/// The per-row streaming/journaling hook of [`ScheduleOptions`].
pub type RowHook<'a> = &'a (dyn Fn(usize, &MatrixRow) + Sync);

/// Knobs for one scheduled matrix run. `Default` runs every job, without
/// callbacks or halt.
#[derive(Default)]
pub struct ScheduleOptions<'a> {
    /// Which (case index, attack index) jobs to schedule; `None` schedules
    /// all. Filtered-out jobs return `None` rows — the campaign journal
    /// replays those cells from disk instead.
    pub include: Option<&'a (dyn Fn(usize, usize) -> bool + Sync)>,
    /// Called from the worker thread right after each *executed* job (never
    /// for interrupted ones) with the job index and the finished row —
    /// the streaming/journaling hook. Must be cheap-ish and thread-safe.
    pub on_row: Option<RowHook<'a>>,
    /// Halt the scheduler after this many executed jobs: remaining jobs come
    /// back interrupted. Deterministic crash injection for resume tests.
    pub halt_after: Option<usize>,
}

/// The result of a scheduled matrix run: rows in job order (`None` where the
/// include filter skipped the job) plus aggregate scheduler telemetry.
#[derive(Debug)]
pub struct ScheduleReport {
    /// One slot per (case, attack) job, case-major; `None` = filtered out.
    pub rows: Vec<Option<MatrixRow>>,
    /// Aggregate scheduler telemetry.
    pub stats: SchedulerStats,
}

/// The batch driver. See the module documentation.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Number of worker threads (at least 1).
    pub workers: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// A harness with one worker per available CPU.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Harness { workers }
    }

    /// A harness with an explicit worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Self {
        Harness {
            workers: workers.max(1),
        }
    }

    /// Runs every attack on every case under the shared budget with the
    /// work-stealing scheduler (see the module documentation for the queue
    /// discipline). `case_names` labels the cases; `build_case(i)` builds
    /// case `i` the first time a worker needs it, at most once per case
    /// (concurrent first accesses block on the winner), and its error
    /// becomes the row error of every attack on that case.
    ///
    /// Returns one slot per (case, attack) job, case-major — i.e.
    /// `rows[i * attacks.len() + j]` is attack `j` on case `i`, `None`
    /// where the include filter skipped the job — plus scheduler telemetry.
    pub fn run_matrix_scheduled(
        &self,
        attacks: &[Box<dyn Attack>],
        case_names: &[String],
        build_case: &(dyn Fn(usize) -> Result<MatrixCase, AttackError> + Sync),
        budget: &Budget,
        options: &ScheduleOptions<'_>,
    ) -> ScheduleReport {
        let num_attacks = attacks.len();
        let total = num_attacks * case_names.len();
        let mut heavy: Vec<usize> = Vec::new();
        let mut cheap: Vec<usize> = Vec::new();
        for job in 0..total {
            let (case_index, attack_index) = (job / num_attacks.max(1), job % num_attacks.max(1));
            if let Some(include) = options.include {
                if !include(case_index, attack_index) {
                    continue;
                }
            }
            match attacks[attack_index].cost_class() {
                CostClass::Heavy => heavy.push(job),
                CostClass::Cheap => cheap.push(job),
            }
        }
        let scheduled = heavy.len() + cheap.len();
        let workers = self.workers.min(scheduled.max(1));

        // Heavy jobs are dealt round-robin across the worker deques (the
        // longest-pole-first makespan heuristic); cheap jobs wait in the
        // injector and fill the gaps as workers free up.
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, job) in heavy.iter().enumerate() {
            deques[i % workers]
                .lock()
                .expect("dealing happens before workers start")
                .push_back(*job);
        }
        let injector: Mutex<VecDeque<usize>> = Mutex::new(cheap.into_iter().collect());

        let cases: Vec<OnceLock<Result<MatrixCase, AttackError>>> =
            case_names.iter().map(|_| OnceLock::new()).collect();
        let slots: Mutex<Vec<Option<MatrixRow>>> = Mutex::new((0..total).map(|_| None).collect());
        let steals = AtomicUsize::new(0);
        let interrupted = AtomicUsize::new(0);
        let executed = AtomicUsize::new(0);
        let halted = AtomicBool::new(false);
        let start = Instant::now();

        // Caught panics become structured rows; silence the default hook
        // for the duration of the matrix so a repeatedly panicking attack
        // does not spray one backtrace per job over the real output (the
        // same technique libtest uses). Restored on every exit path by the
        // guard.
        let _hook_guard = QuietPanicGuard::engage();

        std::thread::scope(|scope| {
            for worker in 0..workers {
                let deques = &deques;
                let injector = &injector;
                let cases = &cases;
                let slots = &slots;
                let steals = &steals;
                let interrupted = &interrupted;
                let executed = &executed;
                let halted = &halted;
                scope.spawn(move || loop {
                    let Some((job, stolen)) = next_job(worker, deques, injector) else {
                        return;
                    };
                    if stolen {
                        steals.fetch_add(1, Ordering::Relaxed);
                    }
                    let queue_wait = start.elapsed();
                    let case_index = job / num_attacks;
                    let attack = &attacks[job % num_attacks];
                    let cancelled = halted.load(Ordering::Acquire);
                    let result = if cancelled {
                        interrupted.fetch_add(1, Ordering::Relaxed);
                        Err(AttackError::Interrupted)
                    } else {
                        cases[case_index]
                            .get_or_init(|| build_case(case_index))
                            .clone()
                            .and_then(|case| {
                                catch_panic(|| run_one(attack.as_ref(), &case, budget))
                            })
                    };
                    let row = MatrixRow {
                        attack: attack.name().to_string(),
                        case: case_names[case_index].clone(),
                        result,
                        telemetry: JobTelemetry {
                            worker,
                            queue_wait,
                            stolen,
                        },
                    };
                    if !cancelled {
                        if let Some(on_row) = options.on_row {
                            on_row(job, &row);
                        }
                        let done = executed.fetch_add(1, Ordering::Relaxed) + 1;
                        if options.halt_after.is_some_and(|limit| done >= limit) {
                            halted.store(true, Ordering::Release);
                        }
                    }
                    slots.lock().expect("no worker panicked holding the lock")[job] = Some(row);
                });
            }
        });

        let makespan = start.elapsed();
        ScheduleReport {
            rows: slots.into_inner().expect("scope joined every worker"),
            stats: SchedulerStats {
                jobs: scheduled,
                workers,
                steals: steals.load(Ordering::Relaxed),
                interrupted: interrupted.load(Ordering::Relaxed),
                makespan,
            },
        }
    }
}

/// One scheduling decision: own deque front → injector front → steal from
/// the first non-empty victim's *back* (ring order from the worker's right
/// neighbour, so contention spreads instead of piling on worker 0).
fn next_job(
    worker: usize,
    deques: &[Mutex<VecDeque<usize>>],
    injector: &Mutex<VecDeque<usize>>,
) -> Option<(usize, bool)> {
    if let Some(job) = deques[worker]
        .lock()
        .expect("no worker panics holding a deque lock")
        .pop_front()
    {
        return Some((job, false));
    }
    if let Some(job) = injector
        .lock()
        .expect("no worker panics holding the injector lock")
        .pop_front()
    {
        return Some((job, false));
    }
    for offset in 1..deques.len() {
        let victim = (worker + offset) % deques.len();
        if let Some(job) = deques[victim]
            .lock()
            .expect("no worker panics holding a deque lock")
            .pop_back()
        {
            return Some((job, true));
        }
    }
    None
}

/// Swaps the process panic hook for a no-op and restores the original on
/// drop. Matrix workers catch their panics and report them as rows, so the
/// default stderr report would only be noise.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

struct QuietPanicGuard {
    previous: Option<PanicHook>,
}

impl QuietPanicGuard {
    fn engage() -> Self {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanicGuard {
            previous: Some(previous),
        }
    }
}

impl Drop for QuietPanicGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            std::panic::set_hook(previous);
        }
    }
}

/// Runs one attack on one case: builds the case's private oracle and
/// executes the request under the shared budget.
fn run_one(
    attack: &dyn Attack,
    case: &MatrixCase,
    budget: &Budget,
) -> Result<AttackRun, AttackError> {
    let oracle = Oracle::new(case.oracle.as_ref().clone()).map_err(AttackError::Netlist)?;
    attack.execute(&AttackRequest::oracle_guided(&case.locked, &oracle).with_budget(budget.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ThreatModel;
    use crate::registry::AttackRegistry;
    use kratt_locking::{LockingTechnique, SarLock, SecretKey};
    use kratt_netlist::{GateType, NetId};

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

    /// `count` SARLock-3 locks of the 4-bit adder named `case{i}`, case `i`
    /// planted with the secret `base ^ i`.
    fn sarlock_cases(count: u64, base: u64) -> (Vec<String>, Vec<MatrixCase>) {
        let original = Arc::new(adder4());
        (0..count)
            .map(|i| {
                let secret = SecretKey::from_u64(base ^ i, 3);
                let locked = SarLock::new(3).lock(&original, &secret).unwrap();
                let case = MatrixCase {
                    locked: Arc::new(locked.circuit),
                    oracle: Arc::clone(&original),
                };
                (format!("case{i}"), case)
            })
            .unzip()
    }

    /// Runs every job under the default options; with no include filter,
    /// every job has a row.
    fn run_all(
        harness: &Harness,
        attacks: &[Box<dyn Attack>],
        names: &[String],
        build_case: &(dyn Fn(usize) -> Result<MatrixCase, AttackError> + Sync),
    ) -> Vec<MatrixRow> {
        harness
            .run_matrix_scheduled(
                attacks,
                names,
                build_case,
                &Budget::default(),
                &ScheduleOptions::default(),
            )
            .rows
            .into_iter()
            .map(|slot| slot.expect("no include filter, so every job was scheduled"))
            .collect()
    }

    #[test]
    fn matrix_rows_come_back_in_job_order() {
        let registry = AttackRegistry::with_baselines();
        let attacks = vec![
            registry.build("sat").unwrap(),
            registry.build("scope").unwrap(),
        ];
        let (names, cases) = sarlock_cases(3, 0b101);
        let rows = run_all(&Harness::with_workers(4), &attacks, &names, &|i| {
            Ok(cases[i].clone())
        });
        assert_eq!(rows.len(), 6);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.case, format!("case{}", i / 2));
            assert_eq!(row.attack, if i % 2 == 0 { "sat" } else { "scope" });
            let run = row
                .run()
                .expect("both attacks support oracle-guided requests");
            assert!(
                !run.outcome.is_out_of_budget(),
                "row {i} ran out of a generous budget"
            );
        }
    }

    /// An attack whose `execute` always reports an error.
    struct RefusingAttack;

    impl Attack for RefusingAttack {
        fn name(&self) -> &'static str {
            "refuser"
        }
        fn supports(&self, _model: ThreatModel) -> bool {
            false
        }
        fn execute(&self, request: &AttackRequest<'_>) -> Result<AttackRun, AttackError> {
            Err(AttackError::Unsupported {
                attack: self.name().to_string(),
                model: request.threat_model(),
            })
        }
    }

    #[test]
    fn unsupported_pairs_surface_as_row_errors() {
        let (names, cases) = sarlock_cases(1, 0b110);
        let attacks: Vec<Box<dyn Attack>> = vec![Box::new(RefusingAttack)];
        let rows = run_all(&Harness::with_workers(1), &attacks, &names, &|i| {
            Ok(cases[i].clone())
        });
        assert!(matches!(
            rows[0].result,
            Err(AttackError::Unsupported { .. })
        ));
        assert!(rows[0].run().is_none());
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(Harness::with_workers(0).workers, 1);
        assert!(Harness::new().workers >= 1);
    }

    #[test]
    fn lazy_sources_materialise_each_case_once_and_setup_failures_become_rows() {
        let registry = AttackRegistry::with_baselines();
        let attacks = vec![
            registry.build("sat").unwrap(),
            registry.build("scope").unwrap(),
        ];
        let (_, good) = sarlock_cases(1, 0b010);
        let builds = AtomicUsize::new(0);
        let build_case = |index: usize| {
            builds.fetch_add(1, Ordering::Relaxed);
            if index == 0 {
                Ok(good[0].clone())
            } else {
                // A scheme whose key width exceeds the host's inputs.
                Err(AttackError::from(
                    kratt_locking::scheme::scheme_registry()
                        .lock(&"ttlock:k=64".parse().unwrap(), &good[0].oracle)
                        .unwrap_err(),
                ))
            }
        };
        let names = ["good".to_string(), "impossible".to_string()];
        let rows = run_all(&Harness::with_workers(4), &attacks, &names, &build_case);
        assert_eq!(rows.len(), 4);
        // Both attacks on the good case ran; the case was built exactly once
        // even though two jobs raced for it. The failed case was *attempted*
        // once and its error fanned out to every attack row, labelled.
        assert!(rows[0].run().is_some() && rows[1].run().is_some());
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        for row in &rows[2..] {
            assert_eq!(row.case, "impossible");
            match &row.result {
                Err(AttackError::Setup(message)) => {
                    assert!(message.contains("data inputs"), "{message}")
                }
                other => panic!("expected a Setup row error, got {other:?}"),
            }
        }
    }

    /// An attack that always panics, standing in for an implementation bug.
    struct PanickingAttack;

    impl Attack for PanickingAttack {
        fn name(&self) -> &'static str {
            "panicker"
        }
        fn supports(&self, _model: ThreatModel) -> bool {
            true
        }
        fn execute(&self, _request: &AttackRequest<'_>) -> Result<AttackRun, AttackError> {
            panic!("deliberate test panic");
        }
    }

    #[test]
    fn panicking_attack_becomes_a_row_error_not_an_abort() {
        let (names, cases) = sarlock_cases(1, 0b011);
        let registry = AttackRegistry::with_baselines();
        let attacks: Vec<Box<dyn Attack>> =
            vec![Box::new(PanickingAttack), registry.build("scope").unwrap()];
        let rows = run_all(&Harness::with_workers(2), &attacks, &names, &|i| {
            Ok(cases[i].clone())
        });
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].attack, "panicker");
        match &rows[0].result {
            Err(AttackError::Panicked(message)) => {
                assert!(message.contains("deliberate test panic"))
            }
            other => panic!("expected a Panicked row error, got {other:?}"),
        }
        // The healthy attack in the same matrix still produced its row.
        assert!(rows[1].run().is_some(), "scope row survived the panic");
    }

    #[test]
    fn halt_after_executes_exactly_that_many_jobs() {
        let registry = AttackRegistry::with_baselines();
        let attacks = vec![
            registry.build("scope").unwrap(),
            registry.build("fall").unwrap(),
        ];
        let (names, cases) = sarlock_cases(3, 0);
        let options = ScheduleOptions {
            halt_after: Some(2),
            ..ScheduleOptions::default()
        };
        let report = Harness::with_workers(1).run_matrix_scheduled(
            &attacks,
            &names,
            &|i| Ok(cases[i].clone()),
            &Budget::default(),
            &options,
        );
        let executed = report
            .rows
            .iter()
            .flatten()
            .filter(|row| !matches!(row.result, Err(AttackError::Interrupted)))
            .count();
        assert_eq!(executed, 2);
        assert_eq!(report.stats.interrupted, 4);
    }

    #[test]
    fn include_filter_skips_jobs_and_leaves_empty_slots() {
        let registry = AttackRegistry::with_baselines();
        let attacks = vec![
            registry.build("sat").unwrap(),
            registry.build("scope").unwrap(),
        ];
        let (_, locked) = sarlock_cases(1, 0b010);
        let names = ["case0".to_string(), "case1".to_string()];
        let seen = Mutex::new(Vec::new());
        let include = |case: usize, attack: usize| !(case == 0 && attack == 0);
        let on_row = |job: usize, row: &MatrixRow| {
            seen.lock().unwrap().push((job, row.attack.clone()));
        };
        let options = ScheduleOptions {
            include: Some(&include),
            on_row: Some(&on_row),
            ..ScheduleOptions::default()
        };
        let report = Harness::with_workers(2).run_matrix_scheduled(
            &attacks,
            &names,
            &|_| Ok(locked[0].clone()),
            &Budget::default(),
            &options,
        );
        assert_eq!(report.stats.jobs, 3);
        assert!(report.rows[0].is_none(), "filtered job has no row");
        assert!(report.rows[1..].iter().all(|slot| slot.is_some()));
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        assert_eq!(
            seen.iter().map(|(job, _)| *job).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "on_row fired exactly for the scheduled jobs"
        );
    }

    #[test]
    fn work_stealing_matches_the_static_split_rows() {
        let registry = AttackRegistry::with_baselines();
        let attacks = vec![
            registry.build("sat").unwrap(),
            registry.build("scope").unwrap(),
        ];
        let (names, cases) = sarlock_cases(2, 0b011);
        let stealing = run_all(&Harness::with_workers(3), &attacks, &names, &|i| {
            Ok(cases[i].clone())
        });
        // The rows of a one-worker static split: the same jobs one after
        // another, in job order (case-major).
        let mut sequential = Vec::new();
        for (name, case) in names.iter().zip(&cases) {
            for attack in &attacks {
                let oracle = Oracle::new(case.oracle.as_ref().clone()).unwrap();
                let request = AttackRequest::oracle_guided(&case.locked, &oracle);
                sequential.push((name.clone(), attack.execute(&request).unwrap()));
            }
        }
        assert_eq!(stealing.len(), sequential.len());
        for (row, (case, run)) in stealing.iter().zip(&sequential) {
            assert_eq!(&row.case, case);
            assert_eq!(row.attack, run.attack);
            let got = row.run().expect("every job succeeds");
            assert_eq!(
                got.outcome.kind(),
                run.outcome.kind(),
                "{case}/{}",
                run.attack
            );
            assert_eq!(got.outcome.exact_key(), run.outcome.exact_key());
        }
    }
}

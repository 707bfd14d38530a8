//! The traced run: per-layer metrics.
//!
//! The traced run builds the corpus with every set-up call spanned, then
//! runs every cell twice, back to back: once untraced through
//! `Attack::execute` as its baseline and once with a span around each public
//! entry point it calls (which of the two goes first alternates from
//! instance to instance, so both see the same machine). The traced cells'
//! time against the baseline's is the tracing overhead. KRATT cells follow
//! the steps of `KrattAttack::attack_oracle_less` / `attack_oracle_guided`
//! one by one and must reach the same outcome and key as their untraced
//! `Attack::execute` run. SAT-family cells span `Attack::execute` and turn the step
//! timings of the returned run into child spans. For the campaign workload a
//! concurrent campaign pass gives the scheduler's numbers, and a second run
//! against its journal times the replay path.

use crate::bench::{out_dir, Metric, Outcome};
use crate::cells::{
    campaign, campaign_pass, cell_name, cell_request, check, instance_of, panic_message, score,
    serial_cell, workload_attacks, CellResult,
};
use crate::corpus::{self, Corpus, Instance, Mode, Workload};
use crate::stats::ratio;
use crate::trace::{layer_totals, Recorder};
use kratt::classify::classify_unit;
use kratt::extraction::extract_locked_subcircuit;
use kratt::og::{structural_analysis, StructuralOutcome};
use kratt::ol::{attack_subcircuit_with_scope, attack_unit_with_scope};
use kratt::removal::remove_locking_unit;
use kratt::KrattConfig;
use kratt_attacks::{
    key_input_names, measure_dip_encoding, Attack, AttackOutcome, CampaignJournal, DipEngineKind,
    KeyGuess, ScopeAttack, Verdict,
};
use kratt_locking::scheme_registry;
use kratt_qbf::{ExistsForallSolver, MultiTargetResult};
use kratt_synth::check_equivalence_with_stats;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Inputs at or below this width are verified exhaustively by the campaign
/// kernel, without the fraig pipeline.
const EXHAUSTIVE_INPUT_LIMIT: usize = 20;

/// Wall-clock limit of the fraig-counter re-check of a verified claim.
const FRAIG_LIMIT: Duration = Duration::from_secs(60);

/// The per-layer metrics, in report order: (name, unit).
pub(crate) const PER_LAYER: [(&str, &str); 40] = [
    ("setup.gen_ms", "ms"),
    ("setup.lock_ms", "ms"),
    ("setup.resynth_ms", "ms"),
    ("setup.lint_ms", "ms"),
    ("setup.oracle_ms", "ms"),
    ("core.removal.self_ms", "ms"),
    ("core.qbf.self_ms", "ms"),
    ("qbf.cegar_iterations", "count"),
    ("qbf.sat_conflicts", "count"),
    ("qbf.bdd_decided_ratio", "ratio"),
    ("core.classify.self_ms", "ms"),
    ("core.extraction.self_ms", "ms"),
    ("core.ol.self_ms", "ms"),
    ("core.og.self_ms", "ms"),
    ("core.og.oracle_queries", "count"),
    ("core.og.budget_exhausted", "count"),
    ("dip.encode_ms", "ms"),
    ("dip.loop_ms", "ms"),
    ("dip.key_extraction_ms", "ms"),
    ("dip.iterations", "count"),
    ("dip.iters_per_s", "1/s"),
    ("ddip.run_ms", "ms"),
    ("ddip.iterations", "count"),
    ("sat.miter_vars", "count"),
    ("sat.miter_clauses", "count"),
    ("oracle.queries", "count"),
    ("oracle.queries_per_cell", "count"),
    ("verify.self_ms", "ms"),
    ("verify.share", "ratio"),
    ("verify.refuted", "count"),
    ("fraig.sat_calls", "count"),
    ("fraig.proved_merges", "count"),
    ("fraig.sweep_ms", "ms"),
    ("harness.queue_wait_ms", "ms"),
    ("harness.steals", "count"),
    ("harness.busy_ratio", "ratio"),
    ("harness.makespan_s", "s"),
    ("journal.appends", "count"),
    ("journal.replay_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Work counters the traced cells accumulate beside their spans.
#[derive(Debug, Default)]
struct Counters {
    qbf_solves: usize,
    qbf_bdd_decided: usize,
    cegar_iterations: usize,
    qbf_conflicts: u64,
    og_queries: u64,
    og_budget_exhausted: usize,
    dip_iterations: usize,
    ddip_iterations: usize,
    miter_vars: usize,
    miter_clauses: usize,
    fraig_sat_calls: usize,
    fraig_merges: usize,
    fraig_sweep: Duration,
}

/// Scheduler and journal numbers of the campaign baseline.
#[derive(Debug, Default)]
struct CampaignNumbers {
    queue_wait_ms: f64,
    steals: usize,
    busy_ratio: f64,
    makespan_s: f64,
    appends: usize,
    replay_ms: f64,
}

/// The traced run of one workload.
///
/// # Errors
///
/// Reports a corpus that fails to build or a campaign that fails to run.
pub fn traced(workload: Workload, seed: u64) -> Result<Outcome, String> {
    let recorder = Recorder::new(workload.name());
    let corpus = corpus::build(workload, seed, Some(&recorder))?;

    // Scheduler and journal numbers come from a concurrent campaign pass.
    let (campaign_cells, numbers) = if workload.mode() == Mode::Campaign {
        let (cells, numbers) = campaign_numbers(&corpus)?;
        (Some(cells), numbers)
    } else {
        (None, CampaignNumbers::default())
    };

    let attacks = workload_attacks(&corpus)?;
    let mut counters = Counters::default();
    let mut baseline = Vec::new();
    let mut traced = Vec::new();
    for cell in 0..corpus.instances.len() * attacks.len() {
        let attack = attacks[cell % attacks.len()].as_ref();
        let mut traced_cell = || match workload.mode() {
            Mode::Campaign => traced_dip_cell(&corpus, cell, attack, &recorder, &mut counters),
            _ => traced_kratt_cell(&corpus, cell, &recorder, &mut counters),
        };
        // Alternate per instance, so each attack runs both ways round.
        if instance_of(&corpus, cell).is_multiple_of(2) {
            baseline.push(serial_cell(&corpus, attack, cell));
            traced.push(traced_cell());
        } else {
            traced.push(traced_cell());
            baseline.push(serial_cell(&corpus, attack, cell));
        }
    }

    // Outcome, verdict, key, correct bits and oracle queries must match the
    // untraced baseline's (and the campaign pass's), and no cell may fail.
    let mut correct = !traced.iter().any(CellResult::failed);
    let mut compare = |what: &str, other: &[CellResult]| {
        for (base, trace) in other.iter().zip(&traced) {
            if base.signature() != trace.signature() {
                correct = false;
                println!(
                    "MISMATCH {}: traced {:?}, {what} {:?}",
                    base.name,
                    trace.signature(),
                    base.signature()
                );
            }
        }
    };
    compare("Attack::execute", &baseline);
    if let Some(cells) = &campaign_cells {
        compare("campaign", cells);
    }

    let spans = recorder.spans();
    let path = out_dir().join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    recorder.write(&path).map_err(|e| e.to_string())?;
    let totals = layer_totals(&spans);
    let ms = |layer: &str| totals.get(layer).map_or(0.0, |t| t.0.as_secs_f64() * 1e3);
    let self_ms = |layer: &str| totals.get(layer).map_or(0.0, |t| t.1.as_secs_f64() * 1e3);

    let cells_ms = ms("cell");
    let baseline_ms: f64 = baseline.iter().map(|c| c.latency.as_secs_f64() * 1e3).sum();
    let overhead = cells_ms / baseline_ms - 1.0;
    let loop_s = ms("dip.loop") / 1e3;
    let attempted = traced.len();
    let failed = traced.iter().filter(|c| c.failed()).count();
    let queries: u64 = traced.iter().map(|c| c.oracle_queries).sum();
    let values: BTreeMap<&str, f64> = [
        ("setup.gen_ms", ms("setup.gen")),
        ("setup.lock_ms", ms("setup.lock")),
        ("setup.resynth_ms", ms("setup.resynth")),
        ("setup.lint_ms", ms("setup.lint")),
        ("setup.oracle_ms", ms("setup.oracle")),
        ("core.removal.self_ms", self_ms("core.removal")),
        ("core.qbf.self_ms", self_ms("core.qbf")),
        ("qbf.cegar_iterations", counters.cegar_iterations as f64),
        ("qbf.sat_conflicts", counters.qbf_conflicts as f64),
        (
            "qbf.bdd_decided_ratio",
            ratio(counters.qbf_bdd_decided as f64, counters.qbf_solves as f64),
        ),
        ("core.classify.self_ms", self_ms("core.classify")),
        ("core.extraction.self_ms", self_ms("core.extraction")),
        ("core.ol.self_ms", self_ms("core.ol")),
        ("core.og.self_ms", self_ms("core.og")),
        ("core.og.oracle_queries", counters.og_queries as f64),
        (
            "core.og.budget_exhausted",
            counters.og_budget_exhausted as f64,
        ),
        ("dip.encode_ms", ms("dip.encode")),
        ("dip.loop_ms", loop_s * 1e3),
        ("dip.key_extraction_ms", ms("dip.key_extraction")),
        ("dip.iterations", counters.dip_iterations as f64),
        (
            "dip.iters_per_s",
            ratio(counters.dip_iterations as f64, loop_s),
        ),
        ("ddip.run_ms", ms("ddip.run")),
        ("ddip.iterations", counters.ddip_iterations as f64),
        ("sat.miter_vars", counters.miter_vars as f64),
        ("sat.miter_clauses", counters.miter_clauses as f64),
        ("oracle.queries", queries as f64),
        (
            "oracle.queries_per_cell",
            ratio(queries as f64, attempted as f64),
        ),
        ("verify.self_ms", self_ms("verify")),
        ("verify.share", ratio(ms("verify"), cells_ms)),
        (
            "verify.refuted",
            traced
                .iter()
                .filter(|c| c.verdict == Verdict::Refuted)
                .count() as f64,
        ),
        ("fraig.sat_calls", counters.fraig_sat_calls as f64),
        ("fraig.proved_merges", counters.fraig_merges as f64),
        ("fraig.sweep_ms", counters.fraig_sweep.as_secs_f64() * 1e3),
        ("harness.queue_wait_ms", numbers.queue_wait_ms),
        ("harness.steals", numbers.steals as f64),
        ("harness.busy_ratio", numbers.busy_ratio),
        ("harness.makespan_s", numbers.makespan_s),
        ("journal.appends", numbers.appends as f64),
        ("journal.replay_ms", numbers.replay_ms),
        ("trace.overhead_ratio", overhead),
    ]
    .into_iter()
    .collect();
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values[name],
        })
        .collect();

    println!(
        "{} seed {seed}: {attempted} cells traced, {} spans written to {}",
        workload.name(),
        spans.len(),
        path.display()
    );
    println!(
        "traced cells {cells_ms:.1} ms vs untraced {baseline_ms:.1} ms: overhead {:+.2}%",
        overhead * 100.0
    );
    for cell in traced.iter().filter(|c| c.failed()) {
        println!(
            "FAILED {} ({}, {}): {}",
            cell.name,
            cell.outcome,
            cell.verdict,
            cell.error.as_deref().unwrap_or("-")
        );
    }
    for m in &metrics {
        println!("{:>26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// An untraced campaign pass's results and scheduler numbers, plus a replay
/// of the finished campaign against its own journal.
fn campaign_numbers(corpus: &Corpus) -> Result<(Vec<CellResult>, CampaignNumbers), String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let journal = out_dir().join(format!(
        "journal-{}-{}-traced.jsonl",
        corpus.workload.name(),
        std::process::id()
    ));
    let result = (|| {
        let (cells, report) = campaign_pass(corpus, &journal)?;
        let stats = report.scheduler;
        // A worker is busy from picking a cell up to committing its verdict.
        let busy: Duration = cells.iter().map(|c| c.latency).sum();
        let waits: Vec<f64> = report
            .cells
            .iter()
            .map(|c| c.telemetry.queue_wait.as_secs_f64() * 1e3)
            .collect();
        let appends = CampaignJournal::open(&journal)
            .map_err(|e| e.to_string())?
            .len();
        let cache = corpus
            .cache
            .as_ref()
            .ok_or("campaign corpus without a cache")?;
        let start = Instant::now();
        let replay = campaign(corpus, &journal)?
            .run(&kratt::attack_registry(), &scheme_registry(), cache)
            .map_err(|e| e.to_string())?;
        let replay_ms = start.elapsed().as_secs_f64() * 1e3;
        if replay.replayed != cells.len() {
            return Err(format!(
                "journal replay restored {} of {} cells",
                replay.replayed,
                cells.len()
            ));
        }
        let numbers = CampaignNumbers {
            queue_wait_ms: waits.iter().sum::<f64>() / waits.len().max(1) as f64,
            steals: stats.steals,
            busy_ratio: ratio(
                busy.as_secs_f64(),
                stats.workers as f64 * stats.makespan.as_secs_f64(),
            ),
            makespan_s: stats.makespan.as_secs_f64(),
            appends,
            replay_ms,
        };
        Ok((cells, numbers))
    })();
    let _ = std::fs::remove_file(&journal);
    result
}

/// What a traced attack produced: the outcome and the oracle queries spent.
type Traced = Result<(AttackOutcome, u64), String>;

/// KRATT's pipeline, one public entry point per span, exactly as
/// `KrattAttack::execute` strings it together.
fn kratt_steps(corpus: &Corpus, instance: &Instance, rec: &Recorder, n: &mut Counters) -> Traced {
    let request = cell_request(corpus, instance);
    let deadline = request.deadline();
    let config = KrattConfig::default().apply_budget(&request.budget, &deadline);
    let locked = &instance.locked.circuit;
    let to_key = |guess: &KeyGuess| guess.to_secret_key(&key_input_names(locked));
    let err = |e: kratt::KrattError| e.to_string();

    let artifacts = rec
        .time("core.removal", || remove_locking_unit(locked))
        .map_err(err)?;
    let (result, stats) = rec.time("core.qbf", || {
        let unit = &artifacts.unit;
        let (keys, universal) = (unit.key_inputs(), unit.data_inputs());
        ExistsForallSolver::new(unit, &keys, &universal, unit.outputs()[0], false)
            .with_config(config.qbf.clone())
            .solve_targets_with_stats(&[false, true])
    });
    n.qbf_solves += 1;
    n.cegar_iterations += stats.iterations;
    n.qbf_conflicts += stats.sat_conflicts;
    if !matches!(result, MultiTargetResult::Unknown) && stats.iterations == 0 {
        n.qbf_bdd_decided += 1;
    }
    if let MultiTargetResult::Sat { witness, .. } = result {
        let guess: KeyGuess = witness.into_iter().collect();
        return Ok((AttackOutcome::ExactKey(to_key(&guess)), 0));
    }
    if deadline.instant().is_some_and(|d| Instant::now() >= d) {
        return Ok((AttackOutcome::OutOfBudget, 0));
    }

    let unit_class = rec
        .time("core.classify", || classify_unit(&artifacts))
        .map_err(err)?;
    match request.oracle {
        None => {
            let scope = ScopeAttack {
                margin: config.scope_margin,
                ..ScopeAttack::new()
            };
            let guess = if unit_class.is_restore_unit() {
                let sub = rec
                    .time("core.extraction", || extract_locked_subcircuit(&artifacts))
                    .map_err(err)?;
                rec.time("core.ol", || {
                    attack_subcircuit_with_scope(&artifacts, &sub, &scope)
                })
            } else {
                rec.time("core.ol", || attack_unit_with_scope(&artifacts, &scope))
            }
            .map_err(err)?;
            Ok((AttackOutcome::PartialGuess(guess), 0))
        }
        Some(oracle) => {
            let sub = rec
                .time("core.extraction", || extract_locked_subcircuit(&artifacts))
                .map_err(err)?;
            let before = oracle.queries();
            let outcome = rec
                .time("core.og", || {
                    structural_analysis(&artifacts, &sub, locked, oracle, &config.structural)
                })
                .map_err(err)?;
            let queries = oracle.queries() - before;
            n.og_queries += queries;
            Ok(match outcome {
                StructuralOutcome::Key { guess, .. } => {
                    (AttackOutcome::ExactKey(to_key(&guess)), queries)
                }
                StructuralOutcome::OutOfTime => {
                    n.og_budget_exhausted += 1;
                    (AttackOutcome::OutOfBudget, queries)
                }
            })
        }
    }
}

/// Replays one KRATT cell with spans, verifies it, and takes the fraig
/// counters of a verified claim.
fn traced_kratt_cell(corpus: &Corpus, cell: usize, rec: &Recorder, n: &mut Counters) -> CellResult {
    let instance = &corpus.instances[cell];
    let root = rec.open("cell", Some(cell));
    let start = Instant::now();
    let steps = rec.time("core.kratt", || {
        catch_unwind(AssertUnwindSafe(|| kratt_steps(corpus, instance, rec, n)))
            .unwrap_or_else(|payload| Err(panic_message(&*payload)))
    });
    let result = finish_cell(
        corpus,
        cell,
        instance.name(&corpus.hosts),
        steps,
        start,
        rec,
    );
    rec.close(root);
    fraig_counters(corpus, instance, &result, n);
    result
}

/// Replays one SAT-family cell: a span around `Attack::execute`, its step
/// timings as child spans, then verification.
fn traced_dip_cell(
    corpus: &Corpus,
    cell: usize,
    attack: &dyn Attack,
    rec: &Recorder,
    n: &mut Counters,
) -> CellResult {
    let instance = &corpus.instances[instance_of(corpus, cell)];
    let oracle = &corpus.oracles[instance.host];
    if attack.name() == "sat" {
        if let Ok(footprint) =
            measure_dip_encoding(&instance.locked.circuit, oracle, DipEngineKind::Aig)
        {
            n.miter_vars += footprint.vars;
            n.miter_clauses += footprint.clauses;
        }
    }
    let root = rec.open("cell", Some(cell));
    let start = Instant::now();
    let layer = if attack.name() == "sat" {
        "attacks.sat"
    } else {
        "attacks.ddip"
    };
    let span = rec.open(layer, None);
    let request = cell_request(corpus, instance);
    let run = catch_unwind(AssertUnwindSafe(|| attack.execute(&request)));
    rec.close(span);
    let steps = match run {
        Ok(Ok(run)) => {
            // `sat` reports its encoding, DIP loop and key extraction;
            // double-dip reports one step for its whole run, which is its
            // own layer so it does not blur the DIP-loop figures.
            let mut offset = Duration::ZERO;
            for step in &run.steps {
                let layer = match step.name.as_str() {
                    "encode" => "dip.encode",
                    "dip-loop" => "dip.loop",
                    "key-extraction" => "dip.key_extraction",
                    "double-dip-loop" => "ddip.run",
                    _ => "dip.other",
                };
                rec.add_child(span, layer, offset, step.duration);
                offset += step.duration;
            }
            if attack.name() == "sat" {
                n.dip_iterations += run.iterations;
            } else {
                n.ddip_iterations += run.iterations;
            }
            Ok((run.outcome, run.oracle_queries))
        }
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(panic_message(&*payload)),
    };
    let result = finish_cell(corpus, cell, cell_name(corpus, cell), steps, start, rec);
    rec.close(root);
    fraig_counters(corpus, instance, &result, n);
    result
}

/// Verifies a traced cell's claim inside a `verify` span and scores it.
fn finish_cell(
    corpus: &Corpus,
    cell: usize,
    name: String,
    steps: Traced,
    start: Instant,
    rec: &Recorder,
) -> CellResult {
    let instance = &corpus.instances[instance_of(corpus, cell)];
    let host = &corpus.hosts[instance.host].circuit;
    let ending = steps.map(|(outcome, queries)| {
        rec.time("verify", || check(host, &instance.locked, outcome, queries))
    });
    score(corpus, cell, name, start.elapsed(), ending)
}

/// The fraig counters of a verified claim, from `check_equivalence_with_stats`
/// on the same pair the kernel proved (outside every cell span).
fn fraig_counters(corpus: &Corpus, instance: &Instance, result: &CellResult, n: &mut Counters) {
    let host = &corpus.hosts[instance.host].circuit;
    if result.verdict != Verdict::Verified || host.num_inputs() <= EXHAUSTIVE_INPUT_LIMIT {
        return;
    }
    let Some(key) = result
        .key
        .as_deref()
        .and_then(|hex| kratt_locking::SecretKey::from_hex(hex).ok())
    else {
        return;
    };
    let Ok(unlocked) = instance.locked.apply_key(&key) else {
        return;
    };
    if let Ok((_, stats)) = check_equivalence_with_stats(host, &unlocked, None, Some(FRAIG_LIMIT)) {
        n.fraig_sat_calls += stats.sat_calls;
        n.fraig_merges += stats.proved_merges;
        n.fraig_sweep += stats.sweep_time;
    }
}

//! The untraced (end-to-end) run: drive passes over the corpus for the
//! requested time, setting the corpus up again a fixed number of times in
//! between, check every result, report the end-to-end metrics.
//!
//! The machine's speed moves in spells of ten to thirty seconds (the same
//! set-up took 0.36 to 0.79 s in one process on a 2-vCPU runner). The
//! set-ups are spread through the run so that `setup_s` sees the same spells
//! as the cells.

use crate::cells::{campaign_pass, campaign_workers, serial_pass, CellResult};
use crate::corpus::{self, Corpus, Mode, Workload};
use crate::stats::{median, ratio, tail, Tail};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A cell meant to finish is flagged when its latency reaches this share of
/// its budget: it could hit the budget on a slower run and flip
/// `solved_ratio`.
const BUDGET_MARGIN: f64 = 0.5;

/// Set-ups a run times. Set-up `i` runs once the passes have taken `i /
/// SETUPS` of the run, and the passes after it attack the corpus it built.
const SETUPS: usize = 7;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result line of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Cells attempted.
    pub attempted: usize,
    /// Cells that failed.
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The end-to-end metrics, in report order: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("cells_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("solved_ratio", "ratio"),
    ("key_accuracy", "ratio"),
    ("sound_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Where the runner writes journals and traces: `out/` beside its manifest.
pub(crate) fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process, in MB.
///
/// # Errors
///
/// When `/proc/self/status` has no `VmHWM` line.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One pass over the corpus. Campaign passes journal to a fresh file that
/// is removed afterwards.
///
/// # Errors
///
/// Reports a campaign that fails to run.
pub(crate) fn pass(corpus: &Corpus, index: usize) -> Result<Vec<CellResult>, String> {
    match corpus.workload.mode() {
        Mode::Campaign => {
            let journal = out_dir().join(format!(
                "journal-{}-{}-{index}.jsonl",
                corpus.workload.name(),
                std::process::id()
            ));
            std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
            let result = campaign_pass(corpus, &journal).map(|(cells, _)| cells);
            let _ = std::fs::remove_file(&journal);
            result
        }
        _ => serial_pass(corpus),
    }
}

/// The latency of every attempted cell, in ms.
fn attempted_latencies_ms(passes: &[Vec<CellResult>]) -> Vec<f64> {
    passes
        .iter()
        .flatten()
        .map(|cell| cell.latency.as_secs_f64() * 1e3)
        .collect()
}

/// Per-cell latency in ms: the slowest of the passes.
fn slowest_latencies_ms(passes: &[Vec<CellResult>]) -> Vec<f64> {
    (0..passes[0].len())
        .map(|cell| {
            passes
                .iter()
                .map(|pass| pass[cell].latency.as_secs_f64() * 1e3)
                .fold(0.0, f64::max)
        })
        .collect()
}

/// Cells whose exact-count results differ from the first pass.
pub(crate) fn repeat_mismatches(passes: &[Vec<CellResult>]) -> Vec<String> {
    let first = &passes[0];
    let mut out = Vec::new();
    for (i, pass) in passes.iter().enumerate().skip(1) {
        for (a, b) in first.iter().zip(pass) {
            if a.signature() != b.signature() {
                out.push(format!(
                    "{}: pass {i} gave {:?}, pass 0 gave {:?}",
                    a.name,
                    b.signature(),
                    a.signature()
                ));
            }
        }
    }
    out
}

/// The budget-margin check: cells meant to finish that came within
/// [`BUDGET_MARGIN`] of their budget (or hit it) on some pass, and cells
/// meant to hit their budget that finished.
pub(crate) fn budget_flags(
    cells: &[CellResult],
    latencies_ms: &[f64],
    budget: Duration,
) -> Vec<String> {
    let budget_ms = budget.as_secs_f64() * 1e3;
    let mut flags = Vec::new();
    for (cell, &ms) in cells.iter().zip(latencies_ms) {
        let hit = cell.outcome == "out-of-budget";
        if cell.expect_out_of_budget && !hit {
            flags.push(format!(
                "{}: meant to hit its {budget_ms:.0} ms budget but finished in {ms:.0} ms ({})",
                cell.name, cell.outcome
            ));
        } else if !cell.expect_out_of_budget && (hit || ms >= BUDGET_MARGIN * budget_ms) {
            flags.push(format!(
                "{}: meant to finish but took {ms:.0} ms of its {budget_ms:.0} ms budget ({})",
                cell.name, cell.outcome
            ));
        }
    }
    flags
}

/// What an untraced run measured.
#[derive(Debug, Clone)]
pub(crate) struct Timings {
    /// Wall time of every pass.
    pub passes: Vec<Duration>,
    /// Wall time of every set-up, in seconds.
    pub setups: Vec<f64>,
    /// Peak resident memory, in MB.
    pub rss_mb: f64,
}

/// The end-to-end metrics of a run's passes.
pub(crate) fn end_to_end(passes: &[Vec<CellResult>], timings: &Timings) -> (Vec<Metric>, Tail) {
    let all: Vec<&CellResult> = passes.iter().flatten().collect();
    let attempted = all.len();
    let latencies = attempted_latencies_ms(passes);
    let tail = tail(&latencies, passes[0].len()).expect("a workload has cells");
    let timed: Duration = timings.passes.iter().sum();
    let solved = all.iter().filter(|c| c.solved()).count();
    let failed = all.iter().filter(|c| c.failed()).count();
    let cdk: usize = all.iter().map(|c| c.cdk).sum();
    let key_bits: usize = all.iter().map(|c| c.key_bits).sum();
    let values = [
        attempted as f64 / timed.as_secs_f64(),
        median(&latencies).expect("a workload has cells"),
        tail.value,
        ratio(solved as f64, attempted as f64),
        ratio(cdk as f64, key_bits as f64),
        1.0 - ratio(failed as f64, attempted as f64),
        median(&timings.setups).expect("at least one set-up"),
        timings.rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    (metrics, tail)
}

/// Prints the failing cells, the budget flags and any pass-to-pass
/// mismatch; returns whether the run is correct: no cell failed and every
/// pass repeated the first exactly.
pub(crate) fn report_checks(
    passes: &[Vec<CellResult>],
    latencies_ms: &[f64],
    budget: Duration,
) -> bool {
    for cell in passes[0].iter().filter(|c| c.failed()) {
        println!(
            "FAILED {} ({}, {}): {}",
            cell.name,
            cell.outcome,
            cell.verdict,
            cell.error.as_deref().unwrap_or("-")
        );
    }
    for flag in budget_flags(&passes[0], latencies_ms, budget) {
        println!("BUDGET {flag}");
    }
    let mismatches = repeat_mismatches(passes);
    for m in &mismatches {
        println!("MISMATCH {m}");
    }
    mismatches.is_empty() && !passes.iter().flatten().any(CellResult::failed)
}

/// Drops the corpus and builds it again, recording the set-up time.
///
/// # Errors
///
/// As [`corpus::build`].
fn set_up(
    workload: Workload,
    seed: u64,
    corpus: &mut Option<Corpus>,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    // Drop the previous corpus first so every set-up allocates the same way.
    drop(corpus.take());
    let start = Instant::now();
    *corpus = Some(corpus::build(workload, seed, None)?);
    setups.push(start.elapsed().as_secs_f64());
    Ok(())
}

/// The untraced run: drive whole passes over the corpus for about
/// `seconds` of pass time (stopping at the pass boundary nearest to it,
/// after at least one pass), with [`SETUPS`] set-ups spread through it.
///
/// # Errors
///
/// Reports a corpus that fails to build or a campaign that fails to run.
pub fn untraced(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let window = Duration::from_secs(seconds);
    let mut corpus = None;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut passes = Vec::new();
    let mut pass_times: Vec<Duration> = Vec::new();
    loop {
        let timed: Duration = pass_times.iter().sum();
        while setups.len() < SETUPS && timed >= window * setups.len() as u32 / SETUPS as u32 {
            set_up(workload, seed, &mut corpus, &mut setups)?;
        }
        let start = Instant::now();
        passes.push(pass(corpus.as_ref().expect("set up above"), passes.len())?);
        let took = start.elapsed();
        pass_times.push(took);
        // Stop at the pass boundary nearest to `seconds`.
        if timed + took + took / 2 >= window {
            break;
        }
    }
    // Every run times the same number of set-ups.
    while setups.len() < SETUPS {
        set_up(workload, seed, &mut corpus, &mut setups)?;
    }
    let timings = Timings {
        passes: pass_times,
        setups,
        rss_mb: peak_rss_mb()?,
    };
    let (metrics, tail) = end_to_end(&passes, &timings);
    let attempted: usize = passes.iter().map(Vec::len).sum();
    let failed = passes.iter().flatten().filter(|c| c.failed()).count();
    let queries: u64 = passes.iter().flatten().map(|c| c.oracle_queries).sum();
    let clients = match workload.mode() {
        Mode::Campaign => format!("{} campaign workers", campaign_workers()),
        _ => "one client".to_string(),
    };
    let pass_list: Vec<String> = timings
        .passes
        .iter()
        .map(|d| format!("{:.2}", d.as_secs_f64()))
        .collect();
    let setup_list: Vec<String> = timings.setups.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "{} seed {seed}: {} cells x {} passes ({clients}), pass times {} s; set-ups {} s",
        workload.name(),
        passes[0].len(),
        passes.len(),
        pass_list.join(" "),
        setup_list.join(" ")
    );
    println!(
        "verdict_tail_ms is p{} of {} attempted cells ({} beyond); failed_ratio {:.4}; oracle_queries_per_cell {:.2}",
        tail.percentile,
        tail.samples,
        tail.beyond,
        ratio(failed as f64, attempted as f64),
        ratio(queries as f64, attempted as f64)
    );
    let correct = report_checks(
        &passes,
        &slowest_latencies_ms(&passes),
        workload.budget().time_limit.unwrap_or_default(),
    );
    for m in &metrics {
        println!("{:>16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use crate::traced::PER_LAYER;
    use kratt_attacks::Verdict;

    fn cell(ms: u64, outcome: &'static str, verdict: Verdict, cdk: usize) -> CellResult {
        CellResult {
            cell: 0,
            name: format!("cell-{ms}"),
            latency: Duration::from_millis(ms),
            outcome,
            verdict,
            key: None,
            cdk,
            key_bits: 8,
            oracle_queries: 0,
            error: None,
            expect_out_of_budget: false,
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).expect(name).value
    }

    #[test]
    fn ratios_divide_by_attempted_cells_errors_included() {
        let pass = vec![
            cell(10, "exact-key", Verdict::Verified, 8),
            cell(20, "exact-key", Verdict::Refuted, 3),
            cell(30, "partial-guess", Verdict::NotClaimed, 5),
            cell(40, "error", Verdict::Error, 0),
        ];
        let timings = Timings {
            passes: vec![Duration::from_secs(2)],
            setups: vec![0.5],
            rss_mb: 64.0,
        };
        let (m, tail) = end_to_end(&[pass], &timings);
        assert_eq!(value(&m, "cells_per_s"), 2.0);
        assert_eq!(value(&m, "solved_ratio"), 0.25);
        assert_eq!(value(&m, "key_accuracy"), 16.0 / 32.0);
        // The refuted claim and the error both fail.
        assert_eq!(value(&m, "sound_ratio"), 0.5);
        assert_eq!(value(&m, "verdict_p50_ms"), 25.0);
        assert_eq!(
            (value(&m, "setup_s"), value(&m, "peak_rss_mb")),
            (0.5, 64.0)
        );
        assert_eq!((tail.percentile, tail.samples), (50, 4));
    }

    #[test]
    fn every_attempted_cell_counts_at_its_measured_time() {
        let passes: Vec<Vec<CellResult>> = [30, 10, 20]
            .into_iter()
            .map(|ms| {
                vec![
                    cell(ms, "out-of-budget", Verdict::NotClaimed, 0),
                    cell(2 * ms, "out-of-budget", Verdict::NotClaimed, 0),
                ]
            })
            .collect();
        assert_eq!(slowest_latencies_ms(&passes), vec![30.0, 60.0]);
        assert!(repeat_mismatches(&passes).is_empty());
        let timings = Timings {
            passes: [90, 30, 60].map(Duration::from_millis).to_vec(),
            setups: vec![0.3, 0.1, 0.2, 0.9],
            rss_mb: 1.0,
        };
        let (m, _) = end_to_end(&passes, &timings);
        // Six cells in 0.18 s of passes; set-up time does not count.
        assert_eq!(value(&m, "cells_per_s"), 6.0 / 0.18);
        // The median of 10, 20, 20, 30, 40 and 60 ms.
        assert_eq!(value(&m, "verdict_p50_ms"), 25.0);
        assert_eq!(value(&m, "setup_s"), 0.25);
    }

    #[test]
    fn a_result_that_changes_between_passes_is_a_mismatch() {
        let first = vec![cell(5, "exact-key", Verdict::Verified, 8)];
        let second = vec![cell(5, "partial-guess", Verdict::NotClaimed, 6)];
        assert_eq!(repeat_mismatches(&[first, second]).len(), 1);
    }

    #[test]
    fn budget_flags_catch_near_misses_and_unexpected_finishes() {
        let budget = Duration::from_secs(2);
        let mut near = cell(1500, "exact-key", Verdict::Verified, 8);
        near.name = "near".into();
        let mut finished = cell(300, "exact-key", Verdict::Verified, 8);
        finished.name = "finished".into();
        finished.expect_out_of_budget = true;
        let mut hit = cell(2001, "out-of-budget", Verdict::NotClaimed, 0);
        hit.name = "hit".into();
        hit.expect_out_of_budget = true;
        let fine = cell(100, "exact-key", Verdict::Verified, 8);
        let cells = [near, finished, hit, fine];
        let latencies: Vec<f64> = cells
            .iter()
            .map(|c| c.latency.as_secs_f64() * 1e3)
            .collect();
        let flags = budget_flags(&cells, &latencies, budget);
        assert_eq!(flags.len(), 2, "{flags:?}");
        assert!(flags[0].starts_with("near:") && flags[1].starts_with("finished:"));
    }

    #[test]
    fn metric_names_are_valid_unique_and_declared_in_benchmark_json() {
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        let mut names: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
        for (name, unit) in &all {
            assert!(valid_metric_name(name), "{name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared_metrics = declared.matches("\"unit\":").count();
        assert_eq!(
            declared_metrics,
            all.len(),
            "BENCHMARK.json declares other metrics"
        );
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            }],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}

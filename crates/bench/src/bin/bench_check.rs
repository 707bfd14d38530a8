//! The benchmark regression gate: compares a fresh `BENCH_results.json`
//! against the committed `BENCH_baseline.json` and exits non-zero when a
//! tracked kernel regressed.
//!
//! ```sh
//! cargo run --release -p kratt-bench --bin bench_check -- \
//!     BENCH_baseline.json BENCH_results.json
//! ```
//!
//! Tracked kernels gate on the machine-portable packed-over-scalar speedup
//! ratio (tolerance `KRATT_BENCH_TOLERANCE`, default 0.25) and on the
//! absolute acceptance floor (`KRATT_MIN_PACKED_SPEEDUP`, default 8). The
//! exact work counters (CNF and DIP-miter sizes, fraig SAT calls and
//! merges, rewrite node counts) gate fatally within the same tolerance.
//! Attack telemetry drift (iterations / oracle queries) is reported but
//! only fails the gate with `KRATT_BENCH_STRICT=1`.

use kratt_bench::emit::{compare, BenchResults};
use std::process::ExitCode;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn load(path: &str) -> Result<BenchResults, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    BenchResults::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: bench_check <BENCH_baseline.json> <BENCH_results.json>");
        return ExitCode::from(2);
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(baseline), Ok(current)) => (baseline, current),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let tolerance = env_f64("KRATT_BENCH_TOLERANCE", 0.25);
    let min_speedup = env_f64("KRATT_MIN_PACKED_SPEEDUP", 8.0);
    let strict = std::env::var("KRATT_BENCH_STRICT").is_ok_and(|v| v == "1");

    println!(
        "bench_check: {} kernels, {} attack rows ({}% tolerance, {:.0}x floor{})",
        baseline.kernels.len(),
        baseline.attacks.len(),
        tolerance * 100.0,
        min_speedup,
        if strict { ", strict" } else { "" }
    );
    for kernel in &current.kernels {
        println!(
            "  kernel {:<24} scalar {:>9.3} ms  packed {:>9.3} ms  speedup {:>6.1}x",
            kernel.name, kernel.scalar_ms, kernel.packed_ms, kernel.speedup
        );
    }
    for kernel in &current.cnf {
        println!(
            "  cnf    {:<24} gate {:>7}v/{:>8}c  aig {:>7}v/{:>8}c  reduction {:>5.1}%/{:>5.1}%",
            kernel.name,
            kernel.gate_vars,
            kernel.gate_clauses,
            kernel.aig_vars,
            kernel.aig_clauses,
            kernel.var_reduction * 100.0,
            kernel.clause_reduction * 100.0
        );
    }
    for kernel in &current.fraig {
        println!(
            "  fraig  {:<24} fraig {:>9.1} ms  ({} SAT calls, {} merges)",
            kernel.name, kernel.fraig_ms, kernel.sat_calls, kernel.proved_merges
        );
    }

    for kernel in &current.dip_aig {
        println!(
            "  dip    {:<24} aig {:>7}v/{:>8}c  cegar {:>6.1} it/s  ({} key bits)",
            kernel.name,
            kernel.aig_vars,
            kernel.aig_clauses,
            kernel.aig_iters_per_sec,
            kernel.key_bits
        );
    }

    for kernel in &current.rewrite {
        println!(
            "  rewr   {:<24} nodes {:>6} -> {:>6}  levels {:>3} -> {:>3}  reduction {:>5.1}%",
            kernel.name,
            kernel.nodes_before,
            kernel.nodes_after,
            kernel.levels_before,
            kernel.levels_after,
            kernel.node_reduction * 100.0
        );
    }

    for kernel in &current.portfolio {
        println!(
            "  race   {:<24} race {:>9.1} ms  best {:>9.1} ms  worst {:>9.1} ms  overhead {:>5.2}x  (winner {}, {})",
            kernel.name,
            kernel.portfolio_ms,
            kernel.best_member_ms,
            kernel.worst_member_ms,
            kernel.overhead,
            kernel.winner,
            if kernel.verified { "verified" } else { "UNVERIFIED" }
        );
    }

    for kernel in &current.fraig_par {
        println!(
            "  fpar   {:<24} seq {:>9.1} ms  par {:>9.1} ms  speedup {:>6.2}x  ({} workers, verdicts {}, merges {})",
            kernel.name,
            kernel.seq_sweep_ms,
            kernel.par_sweep_ms,
            kernel.speedup,
            kernel.workers,
            if kernel.verdicts_match { "agree" } else { "DISAGREE" },
            if kernel.merges_match { "agree" } else { "DISAGREE" }
        );
    }

    let regressions = compare(&baseline, &current, tolerance, min_speedup, strict);
    let mut fatal = false;
    for regression in &regressions {
        let severity = if regression.fatal { "FAIL" } else { "warn" };
        println!("{severity}: {}: {}", regression.subject, regression.detail);
        fatal |= regression.fatal;
    }
    if fatal {
        ExitCode::FAILURE
    } else {
        println!("bench_check: no tracked kernel regressed");
        ExitCode::SUCCESS
    }
}

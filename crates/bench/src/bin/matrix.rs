//! Generic attacks × benchmarks sweep over the unified attack API: every
//! attack named in `KRATT_ATTACKS` (comma-separated registry names, default
//! `kratt,sat,scope`) runs against every Table 1 circuit locked by the four
//! paper techniques, fanned out across worker threads by the work-stealing
//! scheduler.
//!
//! ```sh
//! KRATT_ATTACKS=kratt,sat,double-dip KRATT_SCALE=0.02 KRATT_BUDGET_SECS=2 \
//!     cargo run --release -p kratt-bench --bin matrix
//! ```
//!
//! `KRATT_WORKERS` overrides the worker count (default: all CPUs).

use kratt_bench::Table;
use std::process::ExitCode;

const USAGE: &str = "\
matrix — every KRATT_ATTACKS attack x every Table-I circuit x the four locks

USAGE:
    matrix [--json] [--stream]

OPTIONS:
    --json               print the rows as JSON lines (after the run) instead of a table
    --stream             print each row as a JSON line the moment it finishes, closed by
                         one scheduler summary record
    --help               print this message

ENVIRONMENT:
    KRATT_ATTACKS       comma-separated registry names (default kratt,sat,scope)
    KRATT_SCALE         host scale factor
    KRATT_BUDGET_SECS   per-cell attack budget
    KRATT_WORKERS       worker threads (default: all CPUs)
";

fn main() -> ExitCode {
    let mut json = false;
    let mut stream = false;
    for flag in std::env::args().skip(1) {
        match flag.as_str() {
            "--json" => json = true,
            "--stream" => stream = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown option `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let options = kratt_bench::options_from_env();
    let names: Vec<String> = std::env::var("KRATT_ATTACKS")
        .unwrap_or_else(|_| "kratt,sat,scope".to_string())
        .split(',')
        .map(|name| name.trim().to_string())
        .filter(|name| !name.is_empty())
        .collect();
    let registry = kratt::attack_registry();
    let mut attacks = Vec::new();
    for name in &names {
        match registry.build(name) {
            Ok(attack) => attacks.push(attack),
            Err(e) => {
                eprintln!(
                    "error: {e} (known attacks: {})",
                    registry.names().join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }

    let harness = match std::env::var("KRATT_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(workers) => kratt_attacks::Harness::with_workers(workers),
        None => kratt_attacks::Harness::new(),
    };
    if !json && !stream {
        println!(
            "KRATT reproduction — attack matrix (scale {:.2}, budget {:?}, {} workers)\n",
            options.scale, options.baseline_budget, harness.workers
        );
    }

    let on_row: kratt_attacks::RowHook<'_> = &|_, row| {
        if stream {
            println!("{}", row.to_json_line());
        }
    };
    let (cases, rows, stats) =
        kratt_bench::run_attack_matrix_observed(&harness, &attacks, &options, on_row);

    if stream {
        println!("{}", stats.to_json_line());
    } else if json {
        for row in &rows {
            println!("{}", row.to_json_line());
        }
        println!("{}", stats.to_json_line());
    } else {
        let mut table = Table::new([
            "Case",
            "Attack",
            "Outcome",
            "Runtime (s)",
            "Iterations",
            "Oracle queries",
        ]);
        for row in &rows {
            match &row.result {
                Ok(run) => table.add_row([
                    row.case.clone(),
                    row.attack.clone(),
                    run.outcome.kind().to_string(),
                    format!("{:.3}", run.runtime.as_secs_f64()),
                    run.iterations.to_string(),
                    run.oracle_queries.to_string(),
                ]),
                Err(e) => table.add_row([
                    row.case.clone(),
                    row.attack.clone(),
                    format!("error: {e}"),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]),
            }
        }
        println!("{table}");
        println!(
            "{} cases x {} attacks = {} runs ({} steals, makespan {:.3}s)",
            cases,
            attacks.len(),
            rows.len(),
            stats.steals,
            stats.makespan.as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}

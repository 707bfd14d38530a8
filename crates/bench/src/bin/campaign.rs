//! The end-to-end campaign driver: lock → attack → verify over a named
//! preset or a campaign spec file, printing the verdict-stamped report as
//! an aligned table, JSON, or a stream of JSON-lines verdicts.
//!
//! ```sh
//! cargo run --release -p kratt-bench --bin campaign -- --preset table3
//! KRATT_SCALE=0.02 KRATT_BUDGET_SECS=2 \
//!     cargo run --release -p kratt-bench --bin campaign -- --preset smoke --json
//! cargo run --release -p kratt-bench --bin campaign -- \
//!     --preset smoke --journal run.jsonl --stream   # resumable, streaming
//! ```
//!
//! This is the suite's one campaign front end; presets, spec files and the
//! streaming output live in `kratt_bench::campaign`.
//!
//! Exits non-zero when any attack claimed an exact key (or recovered
//! circuit) that the verification step could not confirm against the
//! planted secret — the contract the CI `campaign` job gates on.
//! `KRATT_SCALE`, `KRATT_BUDGET_SECS` and `KRATT_WORKERS` scale the run as
//! for every other experiment binary.

use std::process::ExitCode;

const USAGE: &str = "\
campaign — scheme specs x hosts x attacks, locked on the fly and verified

USAGE:
    campaign [--preset <NAME|SPEC-FILE>] [OPTIONS]

OPTIONS:
    --preset <VALUE>      campaign to run: a preset name (table3, the default, or
                          smoke — both resynthesise every instance, as the paper
                          does) or a path to a campaign spec file with
                          scheme/host/attack/budget-secs/workers/journal
                          directives, one per line (no resynthesis step)
    --min-verified <N>    additionally fail unless at least N cells come back
                          verified (guards against capability regressions where
                          attacks silently stop finding keys; default 0)
    --journal <PATH>      append every verdict to a persistent journal; re-runs
                          replay it and attack only unrecorded cells
    --halt-after <N>      stop scheduling new cells after N fresh verdicts (the
                          crash-resume drill: halt mid-sweep, re-run to finish)
    --json                print the machine-readable JSON report
    --stream              print each verdict cell as a JSON line the moment it
                          commits, closed by one summary record
    --help                print this message
";

fn main() -> ExitCode {
    let mut preset = "table3".to_string();
    let mut json = false;
    let mut stream = false;
    let mut min_verified = 0usize;
    let mut journal: Option<String> = None;
    let mut halt_after: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--preset" => match args.next() {
                Some(name) => preset = name,
                None => {
                    eprintln!("error: --preset expects a name or spec file\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--min-verified" => match args.next().and_then(|v| v.parse().ok()) {
                Some(count) => min_verified = count,
                None => {
                    eprintln!("error: --min-verified expects a cell count\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--journal" => match args.next() {
                Some(path) => journal = Some(path),
                None => {
                    eprintln!("error: --journal expects a path\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--halt-after" => match args.next().and_then(|v| v.parse().ok()) {
                Some(cells) => halt_after = Some(cells),
                None => {
                    eprintln!("error: --halt-after expects a cell count\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
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
    let mut builder = match kratt_bench::resolve_campaign(&preset, &options) {
        Ok(builder) => builder,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(workers) = std::env::var("KRATT_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        builder = builder.workers(workers);
    }
    if let Some(path) = journal {
        builder = builder.journal(path);
    }
    if let Some(cells) = halt_after {
        builder = builder.halt_after_cells(cells);
    }
    let campaign = match builder.build() {
        Ok(campaign) => campaign,
        Err(e) => {
            eprintln!("error: {preset}: {e}");
            return ExitCode::from(2);
        }
    };
    if !json && !stream {
        println!(
            "KRATT campaign `{preset}`: {} schemes x {} hosts x {} attacks = {} cells (scale {:.2}, budget {:?})\n",
            campaign.schemes.len(),
            campaign.hosts.len(),
            campaign.attacks.len(),
            campaign.num_cells(),
            options.scale,
            campaign.budget.time_limit.unwrap_or_default(),
        );
    }

    let report = match kratt_bench::run_campaign_with_output(&campaign, stream) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !stream {
        if json {
            println!("{}", report.to_json());
        } else {
            println!("{}", report.render());
        }
    }

    let unverified = report.unverified_exact_claims();
    if unverified > 0 {
        eprintln!(
            "error: {unverified} exact claim(s) failed verification against the planted secret"
        );
        return ExitCode::FAILURE;
    }
    let verified = report
        .cells
        .iter()
        .filter(|cell| cell.verdict == kratt_attacks::Verdict::Verified)
        .count();
    if verified < min_verified {
        eprintln!(
            "error: only {verified} cell(s) verified, --min-verified {min_verified} requires more \
             (did an attack lose the ability to break these schemes?)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

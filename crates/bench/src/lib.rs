//! Experiment harness regenerating every table and figure of the KRATT
//! paper's evaluation (Section IV).
//!
//! Each public `run_*` function corresponds to one table or figure and is
//! wrapped by a thin binary (`cargo run -p kratt-bench --bin table2
//! --release`, etc.). The harness works on the synthetic benchmark analogs of
//! `kratt-benchmarks`; the `KRATT_SCALE` environment variable scales the host
//! circuits' gate budgets (1.0 = paper-scale gate counts, default 0.05 so the
//! whole suite regenerates in minutes on a laptop), and `KRATT_BUDGET_SECS`
//! sets the per-attack budget used to declare "OoT" for the baseline attacks
//! (the paper used two days; the default here is a few seconds — the
//! qualitative outcome is identical because the baselines' DIP counts are
//! exponential in the key length).

pub mod campaign;
pub mod experiments;
pub mod table;

pub use campaign::{
    build_campaign, campaign_hosts, resynthesis_prepare, run_campaign_preset, CAMPAIGN_PRESETS,
};
pub use experiments::{
    run_corruption_study, run_fig6, run_table1, run_table2, run_table3, run_table4, run_table5,
    run_valkyrie_sweep, ExperimentOptions,
};
pub use table::Table;

use std::time::Duration;

/// Reads the circuit scale from `KRATT_SCALE` (default 0.05).
pub fn scale_from_env() -> f64 {
    std::env::var("KRATT_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.05)
        .clamp(0.01, 1.0)
}

/// Reads the per-attack baseline budget from `KRATT_BUDGET_SECS` (default 5).
pub fn budget_from_env() -> Duration {
    let seconds = std::env::var("KRATT_BUDGET_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(5);
    Duration::from_secs(seconds.max(1))
}

/// Reads the number of resynthesised variants for Fig. 6 from
/// `KRATT_FIG6_VARIANTS` (default 10; the paper uses 50).
pub fn fig6_variants_from_env() -> usize {
    std::env::var("KRATT_FIG6_VARIANTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(10)
        .max(2)
}

/// Options shared by every experiment run.
pub fn options_from_env() -> ExperimentOptions {
    ExperimentOptions {
        scale: scale_from_env(),
        baseline_budget: budget_from_env(),
        fig6_variants: fig6_variants_from_env(),
    }
}

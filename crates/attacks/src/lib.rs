//! Baseline logic-locking attacks and the oracle abstraction.
//!
//! These are the attacks the paper compares KRATT against:
//!
//! * [`Oracle`] — the "functional IC bought on the market": it answers
//!   input/output queries for the original circuit and counts how many
//!   queries an attack spends.
//! * [`ScopeAttack`] — the oracle-less SCOPE constant-propagation attack
//!   \[Alaql et al., TVLSI'21\]: per key bit, compare the synthesised circuit
//!   with the bit tied to 0 and to 1 and guess from the structural asymmetry.
//! * [`SatAttack`] — the oracle-guided SAT-based attack \[Subramanyan et
//!   al., HOST'15\]: iteratively find distinguishing input patterns (DIPs)
//!   with a key-pair miter, query the oracle, and constrain until all
//!   remaining keys are equivalent.
//! * [`DoubleDipAttack`] — the Double DIP variant \[Shen & Zhou\] that
//!   eliminates at least two wrong keys per iteration.
//! * [`AppSatAttack`] — the approximate AppSAT variant \[Shamsi et al.\]
//!   that terminates early with an approximately correct key.
//! * [`RemovalAttack`] — the removal attack \[Yasin et al., TETC'20\] that
//!   identifies the critical signal of an SFLT, strips its cone and rewires
//!   the output to a constant.
//! * [`FallAttack`] — the FALL functional-analysis attack \[Sirone &
//!   Subramanyan, DATE'19\] against stripped-functionality locking, which the
//!   paper reports running "without success" on its synthesised circuits.
//! * [`structure::find_critical_signal`] — the shared structural primitive
//!   (the first gate all key inputs pass through) used both by the removal
//!   attack and by KRATT's logic-removal step.
//!
//! Every attack is additionally exposed through the unified attack API:
//!
//! * [`Attack`] — the engine trait (`name` / `supports` / `execute`) every
//!   attack implements, driven by an [`AttackRequest`] (locked netlist,
//!   optional oracle, shared [`Budget`]) and returning a unified
//!   [`AttackRun`] report.
//! * [`AttackRegistry`] — name-based construction (`"sat"`,
//!   `"double-dip"`, `"appsat"`, `"fall"`, `"removal"`, `"scope"`; the
//!   `kratt` crate adds `"kratt"`).
//! * [`Harness`] — the parallel attacks × benchmarks scheduler, which
//!   builds each case lazily, once, when a worker first needs it. Only
//!   [`Campaign`] drives it: the `table3` and `campaign` binaries run
//!   through a campaign.
//! * [`Campaign`] — the end-to-end lock → attack → verify pipeline: scheme
//!   specs × hosts × attacks expanded into harness jobs, locked instances
//!   memoised in a content-addressed [`CorpusCache`], every claimed key
//!   verified against the planted secret. Configured only through the
//!   validating [`CampaignBuilder`] (typed [`CampaignError`]s for empty or
//!   contradictory axes), and runnable as a *service*: a persistent
//!   [`CampaignJournal`] replays recorded verdicts so re-runs attack only
//!   unrecorded cells, and [`Campaign::run_observed`] streams each verdict
//!   as it commits.
//! * The [`Harness`] schedules jobs with per-worker work-stealing deques
//!   through its one entry point, [`Harness::run_matrix_scheduled`]:
//!   [`CostClass::Heavy`] solver jobs are dealt round-robin across the
//!   workers' deques, [`CostClass::Cheap`] structural jobs wait in a global
//!   injector, and an idle worker steals from the back of the first
//!   non-empty peer deque ([`SchedulerStats`], per-row [`JobTelemetry`]).
//!
//! The unified attack API is the *only* entry point: the legacy per-attack
//! inherent `run` methods were removed, callers go through
//! [`Attack::execute`] or the [`AttackRegistry`]. Budgets are unified in
//! the request's [`Budget`], and the [`Deadline`] it starts (carrying the
//! request's cancellation flag) is the only stop condition of the SAT/QBF
//! loops, so every component of an attack honours one wall clock
//! cooperatively.

pub mod appsat;
pub mod campaign;
pub mod ddip;
pub mod engine;
pub mod error;
pub mod fall;
pub mod harness;
pub mod journal;
pub mod oracle;
pub mod portfolio;
pub mod registry;
pub mod removal;
pub mod report;
pub mod sat_attack;
pub mod scope;
pub mod scope_replay;
pub mod structure;

// The logic-removal references of kratt-netlist's tests, one copy for
// every crate that checks against them.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../netlist/src/reference.rs"]
mod reference;

pub use appsat::AppSatAttack;
pub use campaign::{
    Campaign, CampaignBuilder, CampaignCell, CampaignError, CampaignHost, CampaignReport,
    CorpusCache, LockedInstance, PrepareHook, Verdict,
};
pub use ddip::DoubleDipAttack;
pub use engine::{Attack, AttackRequest, Budget, CostClass, Deadline, ThreatModel};
pub use error::AttackError;
pub use fall::{FallAttack, FallConfig};
pub use harness::{
    Harness, JobTelemetry, MatrixCase, MatrixRow, RowHook, ScheduleOptions, ScheduleReport,
    SchedulerStats,
};
pub use journal::CampaignJournal;
pub use oracle::Oracle;
pub use portfolio::PortfolioAttack;
pub use registry::AttackRegistry;
pub use removal::RemovalAttack;
pub use report::{
    key_input_names, score_guess, AttackOutcome, AttackRun, KeyGuess, MemberRun, NamedGuess,
    StepTiming,
};
pub use sat_attack::{measure_dip_encoding, DipEncodeStats, DipEngineKind, SatAttack};
pub use scope::ScopeAttack;
pub use scope_replay::ScopePlan;

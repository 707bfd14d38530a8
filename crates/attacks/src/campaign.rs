//! The end-to-end campaign pipeline: scheme specs × benchmark hosts ×
//! registry attacks, driven lock → attack → verify.
//!
//! A [`Campaign`] names its scenarios declaratively — locking schemes as
//! [`SchemeSpec`]s, hosts as circuits with their Table-I key widths, attacks
//! as registry names — and expands them into jobs for the batch
//! [`Harness`]. Locked instances are generated *on the fly* when the first
//! worker reaches a cell, memoised in a content-addressed [`CorpusCache`] so
//! N attacks on one instance lock once, and every claimed key or recovered
//! circuit is **verified** against the planted secret with the bit-parallel
//! equivalence kernel before it is reported. The [`CampaignReport`] carries
//! one verdict-stamped cell per (host, scheme, attack) triple, rendered as an
//! aligned table or JSON.
//!
//! This is what the paper's evaluation *is* — Tables III–V are campaigns —
//! and the `kratt-bench` presets (`table3`, `smoke`) are thin instances of
//! it. [`Campaign::builder`] is the one way to configure a campaign.
//!
//! The campaign is a *resumable service*, not a one-shot batch function:
//!
//! * An optional [`CampaignJournal`]
//!   (installed via [`CampaignBuilder::journal`]) persists every committed
//!   verdict as a fingerprint-keyed JSON line. Re-running against the same
//!   journal replays recorded cells and schedules only the unrecorded ones,
//!   so a grown matrix attacks its new cells only and a crash mid-sweep
//!   resumes from the last committed row.
//! * Cells run through the harness's work-stealing scheduler; a halt
//!   ([`CampaignBuilder::halt_after_cells`]) turns the cells still queued
//!   into interrupted error cells that a resume re-attacks.
//! * [`Campaign::run_observed`] streams each verdict-stamped cell to a
//!   callback the moment it commits — the `campaign` binary's `--stream`
//!   prints JSON-lines from it, terminated by
//!   [`CampaignReport::summary_json`].

use crate::engine::{Attack, Budget};
use crate::error::AttackError;
use crate::harness::{
    Harness, JobTelemetry, MatrixCase, MatrixRow, ScheduleOptions, SchedulerStats,
};
use crate::journal::{cell_fingerprint, instance_fingerprint, CampaignJournal};
use crate::registry::AttackRegistry;
use crate::report::{key_input_names, score_guess, AttackOutcome, JsonScalar};
use kratt_lint::{lint_locked, LintReport};
use kratt_locking::{LockedCircuit, SchemeRegistry, SchemeSpec};
use kratt_netlist::{Circuit, NetlistError};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// One host circuit of a campaign: the original design plus the key width a
/// width-less spec defaults to on it (the paper's Table I column).
#[derive(Debug, Clone)]
pub struct CampaignHost {
    /// Display name (`"c2670"`, ...).
    pub name: String,
    /// The original circuit; also the oracle behind oracle-guided attacks.
    pub circuit: Arc<Circuit>,
    /// Key width applied to specs that do not pin `k` themselves.
    pub default_key_bits: usize,
}

impl CampaignHost {
    /// A host with the given default key width.
    pub fn new(name: impl Into<String>, circuit: Circuit, default_key_bits: usize) -> Self {
        CampaignHost {
            name: name.into(),
            circuit: Arc::new(circuit),
            default_key_bits,
        }
    }
}

/// A locked instance of the corpus: the spec that planted it, the host it
/// locks and the full [`LockedCircuit`] (including the planted secret the
/// verification step checks claims against).
#[derive(Debug)]
pub struct LockedInstance {
    /// The resolved spec (key width filled in) the instance was locked from.
    pub spec: SchemeSpec,
    /// Name of the host circuit.
    pub host: String,
    /// The locked netlist plus its ground-truth metadata.
    pub locked: LockedCircuit,
    /// The locked netlist shared for attack jobs.
    pub shared: Arc<Circuit>,
    /// The static-lint report of the locked netlist against its host,
    /// stamped when the instance enters the corpus (before any attack).
    pub lint: LintReport,
}

/// A post-lock transform applied to every instance before it enters the
/// corpus (the campaign presets plug resynthesis in here, mirroring the
/// paper's Cadence Genus step). The tag participates in the corpus content
/// address so differently-prepared instances never collide.
pub type PrepareHook =
    Arc<dyn Fn(LockedCircuit) -> Result<LockedCircuit, AttackError> + Send + Sync>;

/// A typed campaign-configuration error, produced by
/// [`CampaignBuilder::build`] and the journal layer.
///
/// Old call sites that traffic in [`AttackError`] keep working through the
/// `From<CampaignError> for AttackError` shim (kept for one release); new
/// code should match on this type directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The campaign names no locking schemes — the matrix has zero rows.
    EmptySchemes,
    /// The campaign names no host circuits.
    EmptyHosts,
    /// The campaign names no attacks — the matrix has zero columns.
    EmptyAttacks,
    /// One axis names the same member twice — the cells would silently
    /// double and their journal fingerprints would collide.
    DuplicateAxis {
        /// Which axis (`"scheme"`, `"host"` or `"attack"`).
        axis: &'static str,
        /// The duplicated member.
        name: String,
    },
    /// A scheme spec string failed to parse.
    Spec(String),
    /// The campaign journal could not be opened or read.
    Journal(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::EmptySchemes => write!(f, "campaign has no locking schemes"),
            CampaignError::EmptyHosts => write!(f, "campaign has no host circuits"),
            CampaignError::EmptyAttacks => write!(f, "campaign has no attacks"),
            CampaignError::DuplicateAxis { axis, name } => {
                write!(f, "campaign {axis} axis names `{name}` more than once")
            }
            CampaignError::Spec(message) => write!(f, "bad scheme spec: {message}"),
            CampaignError::Journal(message) => write!(f, "campaign journal: {message}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The one-release compatibility shim: campaign-configuration errors used to
/// surface as stringly [`AttackError::Other`]; old call sites keep matching.
impl From<CampaignError> for AttackError {
    fn from(e: CampaignError) -> Self {
        AttackError::Other(e.to_string())
    }
}

/// A corpus address: (host-netlist fingerprint, canonical spec, prepare tag).
type CorpusKey = (u64, String, String);
/// A memoised corpus slot (first accessor locks, the rest block then share).
type CorpusSlot = Arc<OnceLock<Result<Arc<LockedInstance>, AttackError>>>;

/// The content-addressed in-memory corpus of locked instances. Keys are
/// (host-netlist fingerprint, canonical spec, prepare tag), so reusing one
/// cache across campaigns — or N attacks hitting one cell — locks each
/// distinct instance exactly once; concurrent first accesses block on the
/// winner instead of duplicating the work.
#[derive(Default)]
pub struct CorpusCache {
    entries: Mutex<HashMap<CorpusKey, CorpusSlot>>,
    locks_performed: AtomicUsize,
}

impl CorpusCache {
    /// An empty cache.
    pub fn new() -> Self {
        CorpusCache::default()
    }

    /// Number of instances actually locked (cache misses) so far.
    pub fn locks_performed(&self) -> usize {
        self.locks_performed.load(Ordering::Relaxed)
    }

    /// Returns the instance for (host, spec), locking it on first access.
    /// `spec` must already be resolved (key width pinned).
    ///
    /// # Errors
    ///
    /// Returns (and caches) [`AttackError::Setup`] when the scheme fails on
    /// the host.
    pub fn get_or_lock(
        &self,
        schemes: &SchemeRegistry,
        host: &CampaignHost,
        spec: &SchemeSpec,
        prepare: Option<&(String, PrepareHook)>,
    ) -> Result<Arc<LockedInstance>, AttackError> {
        let tag = prepare.map(|(tag, _)| tag.clone()).unwrap_or_default();
        let key = (circuit_fingerprint(&host.circuit), spec.to_string(), tag);
        let slot = {
            let mut entries = self.entries.lock().expect("corpus lock never poisoned");
            Arc::clone(entries.entry(key).or_default())
        };
        slot.get_or_init(|| {
            let mut locked = schemes.lock(spec, &host.circuit)?;
            if let Some((_, hook)) = prepare {
                locked = hook(locked)?;
            }
            // Counted only on success: a failed setup is an error cell, not
            // a locked instance.
            self.locks_performed.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::new(locked.circuit.clone());
            let lint = lint_locked(&host.circuit, &locked.circuit);
            Ok(Arc::new(LockedInstance {
                spec: spec.clone(),
                host: host.name.clone(),
                locked,
                shared,
                lint,
            }))
        })
        .clone()
    }
}

/// A stable fingerprint of a circuit's full structure (interface, gates,
/// outputs) — the content half of the corpus cache's address.
pub fn circuit_fingerprint(circuit: &Circuit) -> u64 {
    let mut hasher = DefaultHasher::new();
    circuit.name().hash(&mut hasher);
    for &input in circuit.inputs() {
        circuit.net_name(input).hash(&mut hasher);
    }
    for (_, gate) in circuit.gates() {
        gate.ty.hash(&mut hasher);
        circuit.net_name(gate.output).hash(&mut hasher);
        for &input in &gate.inputs {
            circuit.net_name(input).hash(&mut hasher);
        }
    }
    for &output in circuit.outputs() {
        circuit.net_name(output).hash(&mut hasher);
    }
    hasher.finish()
}

/// The verification verdict of one campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The claimed key (or recovered circuit) provably restores the
    /// original function.
    Verified,
    /// The attack claimed an exact result that does **not** restore the
    /// original function — the bug class the verification step exists for.
    Refuted,
    /// The attack claimed an exact result but the verification step could
    /// not reach a verdict (budget exhausted, unusable key). Counts as
    /// unverified for the CI gate — an inconclusive check is never a
    /// confirmation.
    Unverified,
    /// The attack made no exact claim (partial guess, out of budget);
    /// nothing to verify.
    NotClaimed,
    /// The cell never ran (scenario setup failed or the attack errored).
    Error,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Verified => write!(f, "verified"),
            Verdict::Refuted => write!(f, "REFUTED"),
            Verdict::Unverified => write!(f, "UNVERIFIED"),
            Verdict::NotClaimed => write!(f, "-"),
            Verdict::Error => write!(f, "error"),
        }
    }
}

/// One cell of a campaign: the verdict-stamped result of one attack on one
/// locked instance.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Host circuit name.
    pub host: String,
    /// Resolved scheme spec the instance was locked from.
    pub scheme: String,
    /// Compact lint summary of the locked instance (`clean`, `2W+1I`, ...),
    /// stamped before the attack ran; `-` when the instance never locked.
    pub lint: String,
    /// Registry name of the attack.
    pub attack: String,
    /// Outcome kind (`"exact-key"`, ...), when the attack ran.
    pub outcome: Option<&'static str>,
    /// The independent verification verdict.
    pub verdict: Verdict,
    /// The claimed exact key (width-preserving hex), if one was claimed.
    pub key: Option<String>,
    /// Correctly deciphered key bits, scored against the planted secret
    /// (verified exact keys count fully, per the paper's convention).
    pub cdk: usize,
    /// Deciphered key bits.
    pub dk: usize,
    /// Wall-clock runtime of the attack.
    pub runtime: Duration,
    /// Attack iterations performed.
    pub iterations: usize,
    /// Oracle queries spent.
    pub oracle_queries: u64,
    /// The structured error, when the cell did not produce a run.
    pub error: Option<String>,
    /// Scheduler telemetry of the job that produced the cell: which worker
    /// ran it, how long it waited in queue, whether it was stolen.
    pub telemetry: JobTelemetry,
    /// Whether the cell was replayed from a journal instead of attacked.
    pub replayed: bool,
}

impl CampaignCell {
    /// Renders the cell as one flat JSON-lines record (the `--stream` row
    /// format, identical to the journal's cell records minus the
    /// fingerprint).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        crate::report::json_str(&mut out, "type", "cell");
        out.push(',');
        cell_json_body(&mut out, self);
        out.push('}');
        out
    }
}

/// Serialises a cell's fields as the body of a flat JSON object (no braces):
/// the one shape shared by the report's `cells` array, the `--stream` rows
/// and the journal's cell records.
pub(crate) fn cell_json_body(out: &mut String, cell: &CampaignCell) {
    use crate::report::{json_key, json_str};
    json_str(out, "host", &cell.host);
    out.push(',');
    json_str(out, "scheme", &cell.scheme);
    out.push(',');
    json_str(out, "lint", &cell.lint);
    out.push(',');
    json_str(out, "attack", &cell.attack);
    out.push(',');
    match cell.outcome {
        Some(outcome) => json_str(out, "outcome", outcome),
        None => {
            json_key(out, "outcome");
            out.push_str("null");
        }
    }
    out.push(',');
    json_str(out, "verdict", &cell.verdict.to_string());
    if let Some(key) = &cell.key {
        out.push(',');
        json_str(out, "key", key);
    }
    out.push_str(&format!(
        ",\"cdk\":{},\"dk\":{},\"runtime_secs\":{:.6},\"iterations\":{},\"oracle_queries\":{}",
        cell.cdk,
        cell.dk,
        cell.runtime.as_secs_f64(),
        cell.iterations,
        cell.oracle_queries
    ));
    out.push_str(&format!(
        ",\"worker\":{},\"queue_wait_secs\":{:.6},\"stolen\":{},\"replayed\":{}",
        cell.telemetry.worker,
        cell.telemetry.queue_wait.as_secs_f64(),
        cell.telemetry.stolen,
        cell.replayed
    ));
    if let Some(error) = &cell.error {
        out.push(',');
        json_str(out, "error", error);
    }
}

/// Reconstructs a cell from the parsed key/value pairs of a journal record.
/// Returns `None` when a required field is missing or malformed — the
/// journal skips such records, costing one re-attack.
pub(crate) fn cell_from_pairs(pairs: &[(String, JsonScalar)]) -> Option<CampaignCell> {
    let field = |name: &str| pairs.iter().find(|(key, _)| key == name).map(|(_, v)| v);
    let text = |name: &str| field(name).and_then(JsonScalar::as_str).map(str::to_string);
    let num = |name: &str| field(name).and_then(JsonScalar::as_f64);
    let duration = |name: &str| match num(name) {
        Some(secs) if secs.is_finite() && secs > 0.0 => Duration::from_secs_f64(secs),
        _ => Duration::ZERO,
    };
    Some(CampaignCell {
        host: text("host")?,
        scheme: text("scheme")?,
        lint: text("lint")?,
        attack: text("attack")?,
        outcome: field("outcome")
            .and_then(JsonScalar::as_str)
            .and_then(outcome_tag),
        verdict: verdict_tag(&text("verdict")?)?,
        key: text("key"),
        cdk: num("cdk").unwrap_or(0.0) as usize,
        dk: num("dk").unwrap_or(0.0) as usize,
        runtime: duration("runtime_secs"),
        iterations: num("iterations").unwrap_or(0.0) as usize,
        oracle_queries: num("oracle_queries").unwrap_or(0.0) as u64,
        error: text("error"),
        telemetry: JobTelemetry {
            worker: num("worker").unwrap_or(0.0) as usize,
            queue_wait: duration("queue_wait_secs"),
            stolen: matches!(field("stolen"), Some(JsonScalar::Bool(true))),
        },
        replayed: false,
    })
}

/// Maps a serialized outcome kind back onto the `'static` tag the run
/// types use.
fn outcome_tag(tag: &str) -> Option<&'static str> {
    [
        "exact-key",
        "partial-guess",
        "recovered-circuit",
        "out-of-budget",
    ]
    .into_iter()
    .find(|known| *known == tag)
}

/// Parses the canonical [`Verdict`] display form.
fn verdict_tag(tag: &str) -> Option<Verdict> {
    match tag {
        "verified" => Some(Verdict::Verified),
        "REFUTED" => Some(Verdict::Refuted),
        "UNVERIFIED" => Some(Verdict::Unverified),
        "-" => Some(Verdict::NotClaimed),
        "error" => Some(Verdict::Error),
        _ => None,
    }
}

/// The report of one campaign run: every cell plus corpus statistics.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One cell per (host, scheme, attack) triple, host-major then
    /// scheme-major (the job order of the matrix).
    pub cells: Vec<CampaignCell>,
    /// Attack names, in column order.
    pub attacks: Vec<String>,
    /// Distinct instances actually locked (the corpus cache's miss count —
    /// with A attacks per instance this is `cells / A` when nothing was
    /// cached from earlier campaigns).
    pub locked_instances: usize,
    /// Cells replayed from the journal instead of re-attacked.
    pub replayed: usize,
    /// Work-stealing scheduler statistics of the fresh (non-replayed) part
    /// of the run.
    pub scheduler: SchedulerStats,
}

impl CampaignReport {
    /// Cells actually attacked this run (scheduled minus interrupted).
    pub fn attacked(&self) -> usize {
        self.scheduler.jobs - self.scheduler.interrupted
    }

    /// Cells a halt caught before they started.
    pub fn interrupted(&self) -> usize {
        self.scheduler.interrupted
    }

    /// Cells claiming an exact key or recovered circuit.
    pub fn exact_claims(&self) -> impl Iterator<Item = &CampaignCell> {
        self.cells
            .iter()
            .filter(|cell| matches!(cell.outcome, Some("exact-key") | Some("recovered-circuit")))
    }

    /// Number of exact claims the verification step could not confirm. The
    /// CI `campaign` job fails when this is non-zero.
    pub fn unverified_exact_claims(&self) -> usize {
        self.exact_claims()
            .filter(|cell| cell.verdict != Verdict::Verified)
            .count()
    }

    /// Renders the report as an aligned plain-text table.
    pub fn render(&self) -> String {
        let header = [
            "Host", "Scheme", "Lint", "Attack", "Outcome", "Verdict", "cdk/dk", "Key", "Time (s)",
            "Iters", "Queries",
        ];
        let rows: Vec<[String; 11]> = self
            .cells
            .iter()
            .map(|cell| {
                [
                    cell.host.clone(),
                    cell.scheme.clone(),
                    cell.lint.clone(),
                    cell.attack.clone(),
                    cell.outcome
                        .map(str::to_string)
                        .or_else(|| cell.error.clone())
                        .unwrap_or_else(|| "-".to_string()),
                    cell.verdict.to_string(),
                    format!("{}/{}", cell.cdk, cell.dk),
                    cell.key.clone().unwrap_or_else(|| "-".to_string()),
                    format!("{:.3}", cell.runtime.as_secs_f64()),
                    cell.iterations.to_string(),
                    cell.oracle_queries.to_string(),
                ]
            })
            .collect();
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (cell, width) in cells.iter().zip(&widths) {
                out.push_str(&format!("{cell:>width$}  "));
            }
            out.push('\n');
        };
        render_row(&mut out, &header.map(str::to_string));
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &rows {
            render_row(&mut out, row);
        }
        out.push_str(&format!(
            "{} cells, {} instances locked, {} unverified exact claims\n",
            self.cells.len(),
            self.locked_instances,
            self.unverified_exact_claims()
        ));
        out.push_str(&format!(
            "{} replayed from journal, {} attacked, {} interrupted; {} steals across {} workers, {:.3}s makespan\n",
            self.replayed,
            self.attacked(),
            self.scheduler.interrupted,
            self.scheduler.steals,
            self.scheduler.workers,
            self.scheduler.makespan.as_secs_f64()
        ));
        out
    }

    /// The one-line JSON summary record that terminates a `--stream` run:
    /// campaign totals plus the scheduler telemetry, no per-cell data.
    pub fn summary_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        crate::report::json_str(&mut out, "type", "summary");
        out.push_str(&format!(
            ",\"cells\":{},\"locked_instances\":{},\"unverified_exact_claims\":{},\"replayed\":{},\"attacked\":{},\"interrupted\":{},\"steals\":{},\"workers\":{},\"makespan_secs\":{:.6}",
            self.cells.len(),
            self.locked_instances,
            self.unverified_exact_claims(),
            self.replayed,
            self.attacked(),
            self.scheduler.interrupted,
            self.scheduler.steals,
            self.scheduler.workers,
            self.scheduler.makespan.as_secs_f64()
        ));
        out.push('}');
        out
    }

    /// Renders the report as a machine-readable JSON object (hand-rolled:
    /// the workspace is offline and carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.cells.len());
        out.push_str("{\"attacks\":[");
        for (i, attack) in self.attacks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(attack);
            out.push('"');
        }
        out.push_str(&format!(
            "],\"locked_instances\":{},\"unverified_exact_claims\":{},\"replayed\":{},\"attacked\":{},\"interrupted\":{},\"steals\":{},\"makespan_secs\":{:.6},\"cells\":[",
            self.locked_instances,
            self.unverified_exact_claims(),
            self.replayed,
            self.attacked(),
            self.scheduler.interrupted,
            self.scheduler.steals,
            self.scheduler.makespan.as_secs_f64()
        ));
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            cell_json_body(&mut out, cell);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// A declarative campaign: the cross product of scheme specs, hosts and
/// attacks, plus the one shared budget every cell runs under.
pub struct Campaign {
    /// The locking schemes of the matrix; width-less specs pick up each
    /// host's default key width.
    pub schemes: Vec<SchemeSpec>,
    /// The host circuits.
    pub hosts: Vec<CampaignHost>,
    /// Attack registry names, in column order.
    pub attacks: Vec<String>,
    /// The shared per-cell budget.
    pub budget: Budget,
    /// Worker threads; `None` uses one per CPU.
    pub workers: Option<usize>,
    /// Optional post-lock transform (tag, hook) applied to every instance.
    pub prepare: Option<(String, PrepareHook)>,
    /// Optional journal path: recorded verdicts replay instead of
    /// re-running, fresh verdicts append.
    pub journal: Option<PathBuf>,
    /// Halt the scheduler after this many executed cells — deterministic
    /// crash injection for the resume tests and the `--halt-after` flag.
    pub halt_after_cells: Option<usize>,
}

impl Campaign {
    /// The validating builder — the one way to configure a campaign.
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder::default()
    }

    /// Number of cells the campaign expands to.
    pub fn num_cells(&self) -> usize {
        self.schemes.len() * self.hosts.len() * self.attacks.len()
    }

    /// Runs the campaign end to end — lock (memoised through `corpus`),
    /// attack (through the batch harness), verify (against each planted
    /// secret) — and returns the verdict-stamped report.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::UnknownAttack`] when an attack name is not in
    /// the registry. Scheme and locking failures are *not* errors here;
    /// they surface as [`Verdict::Error`] cells.
    pub fn run(
        &self,
        attack_registry: &AttackRegistry,
        scheme_registry: &SchemeRegistry,
        corpus: &CorpusCache,
    ) -> Result<CampaignReport, AttackError> {
        self.run_observed(attack_registry, scheme_registry, corpus, &|_| {})
    }

    /// Runs the campaign like [`run`](Campaign::run), additionally invoking
    /// `on_cell` for every committed cell as it commits: journal-replayed
    /// cells first (in matrix order), then fresh cells the moment a worker
    /// finishes scoring them (in completion order, from worker threads —
    /// the callback must be `Sync`). Interrupted cells are *not* streamed;
    /// they only appear in the final report. The `campaign` binary's
    /// `--stream` prints [`CampaignCell::to_json_line`] from this callback
    /// and terminates with [`CampaignReport::summary_json`].
    pub fn run_observed(
        &self,
        attack_registry: &AttackRegistry,
        scheme_registry: &SchemeRegistry,
        corpus: &CorpusCache,
        on_cell: &(dyn Fn(&CampaignCell) + Sync),
    ) -> Result<CampaignReport, AttackError> {
        let attacks: Vec<Box<dyn Attack>> = self
            .attacks
            .iter()
            .map(|name| attack_registry.build(name))
            .collect::<Result<_, _>>()?;

        // One case per (host, scheme) pair, host-major; resolve each spec's
        // key width against its host up front so names, corpus addresses
        // and journal fingerprints are stable.
        let resolved: Vec<(usize, SchemeSpec)> = self
            .hosts
            .iter()
            .enumerate()
            .flat_map(|(host_index, host)| {
                self.schemes
                    .iter()
                    .map(move |spec| (host_index, spec.clone().or_key_bits(host.default_key_bits)))
            })
            .collect();
        let names: Vec<String> = resolved
            .iter()
            .map(|(host_index, spec)| format!("{}/{}", self.hosts[*host_index].name, spec))
            .collect();

        let journal = match &self.journal {
            Some(path) => Some(CampaignJournal::open(path)?),
            None => None,
        };
        let prepare_tag = self
            .prepare
            .as_ref()
            .map(|(tag, _)| tag.as_str())
            .unwrap_or("");
        let case_fps: Vec<u64> = resolved
            .iter()
            .map(|(host_index, spec)| {
                instance_fingerprint(
                    circuit_fingerprint(&self.hosts[*host_index].circuit),
                    &spec.to_string(),
                    prepare_tag,
                )
            })
            .collect();
        let columns = attacks.len();
        let total = resolved.len() * columns;
        let fp_of = |job: usize| {
            cell_fingerprint(
                case_fps[job / columns],
                &self.attacks[job % columns],
                &self.budget,
            )
        };

        // Replay recorded verdicts up front; only the holes get scheduled.
        let mut replayed: Vec<Option<CampaignCell>> = (0..total).map(|_| None).collect();
        if let Some(journal) = &journal {
            for (job, slot) in replayed.iter_mut().enumerate() {
                if let Some(mut cell) = journal.cell(fp_of(job)) {
                    cell.replayed = true;
                    on_cell(&cell);
                    *slot = Some(cell);
                }
            }
        }
        let replayed_count = replayed.iter().flatten().count();

        let build_case = |index: usize| {
            let (host_index, spec) = &resolved[index];
            let host = &self.hosts[*host_index];
            let instance =
                corpus.get_or_lock(scheme_registry, host, spec, self.prepare.as_ref())?;
            if let Some(journal) = &journal {
                // Trust-by-fingerprint: the journal's verdicts are only
                // valid for the exact locked netlist they were scored
                // against. Deterministic seeded locking makes this check
                // meaningful — same spec, same host, same bits.
                let locked_fp = circuit_fingerprint(&instance.shared);
                match journal.instance_locked_fp(case_fps[index]) {
                    Some(recorded) if recorded != locked_fp => {
                        return Err(AttackError::Setup(format!(
                            "journal {} is stale for {}/{}: the recorded locked-netlist \
                             fingerprint {recorded:016x} no longer matches the netlist \
                             this build locks ({locked_fp:016x}); delete the journal to \
                             re-attack from scratch",
                            journal.path().display(),
                            host.name,
                            spec,
                        )));
                    }
                    Some(_) => {}
                    None => journal.record_instance(case_fps[index], locked_fp),
                }
            }
            Ok(MatrixCase {
                locked: Arc::clone(&instance.shared),
                oracle: Arc::clone(&host.circuit),
            })
        };

        let fresh: Mutex<Vec<Option<CampaignCell>>> =
            Mutex::new((0..total).map(|_| None).collect());
        let include = |case: usize, attack: usize| replayed[case * columns + attack].is_none();
        let on_row = |job: usize, row: &MatrixRow| {
            let case = job / columns;
            let (host_index, spec) = &resolved[case];
            let host = &self.hosts[*host_index];
            // Memoised — the worker that ran the job already materialised
            // the case, so this never re-locks.
            let instance = corpus
                .get_or_lock(scheme_registry, host, spec, self.prepare.as_ref())
                .ok();
            let cell = score_cell(host, spec, row, instance.as_deref());
            if let Some(journal) = &journal {
                journal.record_cell(fp_of(job), &cell);
            }
            on_cell(&cell);
            fresh.lock().expect("cell collection lock")[job] = Some(cell);
        };
        let options = ScheduleOptions {
            include: Some(&include),
            on_row: Some(&on_row),
            halt_after: self.halt_after_cells,
        };

        let harness = match self.workers {
            Some(workers) => Harness::with_workers(workers),
            None => Harness::new(),
        };
        let schedule =
            harness.run_matrix_scheduled(&attacks, &names, &build_case, &self.budget, &options);

        let fresh = fresh.into_inner().expect("cell collection lock");
        let mut cells = Vec::with_capacity(total);
        for (job, slot) in schedule.rows.into_iter().enumerate() {
            let case = job / columns;
            let (host_index, spec) = &resolved[case];
            if let Some(cell) = replayed[job].take() {
                cells.push(cell);
            } else if let Some(cell) = fresh[job].clone() {
                cells.push(cell);
            } else {
                // Interrupted before a worker picked it up: scored here (not
                // in `on_row`), never journaled, so a resume re-attacks it.
                let row = slot.unwrap_or_else(|| MatrixRow {
                    attack: self.attacks[job % columns].clone(),
                    case: names[case].clone(),
                    result: Err(AttackError::Interrupted),
                    telemetry: JobTelemetry::default(),
                });
                cells.push(score_cell(&self.hosts[*host_index], spec, &row, None));
            }
        }
        Ok(CampaignReport {
            cells,
            attacks: self.attacks.clone(),
            locked_instances: corpus.locks_performed(),
            replayed: replayed_count,
            scheduler: schedule.stats,
        })
    }
}

/// The validating builder behind [`Campaign::builder`]: collects the axes
/// and service knobs, then [`build`](CampaignBuilder::build) rejects empty
/// or contradictory configurations with a typed [`CampaignError`].
#[derive(Default)]
pub struct CampaignBuilder {
    schemes: Vec<SchemeSpec>,
    spec_errors: Vec<String>,
    hosts: Vec<CampaignHost>,
    attacks: Vec<String>,
    budget: Option<Budget>,
    workers: Option<usize>,
    prepare: Option<(String, PrepareHook)>,
    journal: Option<PathBuf>,
    halt_after_cells: Option<usize>,
}

impl CampaignBuilder {
    /// Adds already-parsed scheme specs.
    pub fn specs(mut self, specs: impl IntoIterator<Item = SchemeSpec>) -> Self {
        self.schemes.extend(specs);
        self
    }

    /// Adds scheme specs from their string forms; parse failures are
    /// collected and surfaced by [`build`](CampaignBuilder::build) as
    /// [`CampaignError::Spec`].
    pub fn spec_strs<'a>(mut self, texts: impl IntoIterator<Item = &'a str>) -> Self {
        for text in texts {
            match text.parse() {
                Ok(spec) => self.schemes.push(spec),
                Err(e) => self.spec_errors.push(format!("`{text}`: {e}")),
            }
        }
        self
    }

    /// Adds host circuits.
    pub fn hosts(mut self, hosts: impl IntoIterator<Item = CampaignHost>) -> Self {
        self.hosts.extend(hosts);
        self
    }

    /// Adds attacks by registry name.
    pub fn attacks<I>(mut self, names: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        self.attacks.extend(names.into_iter().map(Into::into));
        self
    }

    /// Sets the shared per-cell budget (defaults to [`Budget::default`]).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Pins the worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Installs a post-lock transform (the tag keys the corpus cache and
    /// the journal fingerprints).
    pub fn prepare(mut self, tag: impl Into<String>, hook: PrepareHook) -> Self {
        self.prepare = Some((tag.into(), hook));
        self
    }

    /// Installs the persistent journal: recorded verdicts replay, fresh
    /// verdicts append.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Halts the scheduler after N executed cells (crash injection for the
    /// resume tests and the `campaign` binary's `--halt-after`).
    pub fn halt_after_cells(mut self, cells: usize) -> Self {
        self.halt_after_cells = Some(cells);
        self
    }

    /// Validates the configuration into a runnable [`Campaign`].
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] when a spec string failed to parse;
    /// `Empty{Schemes,Hosts,Attacks}` when an axis is empty;
    /// [`CampaignError::DuplicateAxis`] when an axis names one member twice
    /// (the cells would double and their journal fingerprints collide).
    pub fn build(self) -> Result<Campaign, CampaignError> {
        if !self.spec_errors.is_empty() {
            return Err(CampaignError::Spec(self.spec_errors.join("; ")));
        }
        if self.schemes.is_empty() {
            return Err(CampaignError::EmptySchemes);
        }
        if self.hosts.is_empty() {
            return Err(CampaignError::EmptyHosts);
        }
        if self.attacks.is_empty() {
            return Err(CampaignError::EmptyAttacks);
        }
        find_duplicate("scheme", self.schemes.iter().map(|s| s.to_string()))?;
        find_duplicate("host", self.hosts.iter().map(|h| h.name.clone()))?;
        find_duplicate("attack", self.attacks.iter().cloned())?;
        Ok(Campaign {
            schemes: self.schemes,
            hosts: self.hosts,
            attacks: self.attacks,
            budget: self.budget.unwrap_or_default(),
            workers: self.workers,
            prepare: self.prepare,
            journal: self.journal,
            halt_after_cells: self.halt_after_cells,
        })
    }
}

/// Rejects a repeated member on one campaign axis.
fn find_duplicate(
    axis: &'static str,
    names: impl Iterator<Item = String>,
) -> Result<(), CampaignError> {
    let mut seen = std::collections::HashSet::new();
    for name in names {
        if !seen.insert(name.clone()) {
            return Err(CampaignError::DuplicateAxis { axis, name });
        }
    }
    Ok(())
}

/// Scores and verifies one matrix row into a campaign cell.
fn score_cell(
    host: &CampaignHost,
    spec: &SchemeSpec,
    row: &MatrixRow,
    instance: Option<&LockedInstance>,
) -> CampaignCell {
    let mut cell = CampaignCell {
        host: host.name.clone(),
        scheme: spec.to_string(),
        lint: instance
            .map(|i| i.lint.summary())
            .unwrap_or_else(|| "-".to_string()),
        attack: row.attack.clone(),
        outcome: None,
        verdict: Verdict::Error,
        key: None,
        cdk: 0,
        dk: 0,
        runtime: Duration::ZERO,
        iterations: 0,
        oracle_queries: 0,
        error: None,
        telemetry: row.telemetry,
        replayed: false,
    };
    let (run, instance) = match (&row.result, instance) {
        (Ok(run), Some(instance)) => (run, instance),
        (Err(error), _) => {
            cell.error = Some(error.to_string());
            return cell;
        }
        (Ok(_), None) => {
            // A run without its instance cannot happen (the instance is what
            // the run attacked), but degrade gracefully rather than panic.
            cell.error = Some("locked instance missing from the corpus".to_string());
            return cell;
        }
    };
    cell.outcome = Some(run.outcome.kind());
    cell.runtime = run.runtime;
    cell.iterations = run.iterations;
    cell.oracle_queries = run.oracle_queries;

    let key_names = key_input_names(&instance.locked.circuit);
    let guess = run.outcome.as_guess(&key_names);
    let (cdk, dk) = score_guess(&instance.locked, &guess);
    cell.cdk = cdk;
    cell.dk = dk;

    cell.verdict = match &run.outcome {
        AttackOutcome::ExactKey(key) => {
            cell.key = Some(key.to_hex());
            match instance.locked.apply_key(key) {
                Ok(unlocked) => match equivalent_to(&host.circuit, &unlocked) {
                    Ok(true) => Verdict::Verified,
                    Ok(false) => Verdict::Refuted,
                    Err(e) => {
                        cell.error = Some(format!("verification inconclusive: {e}"));
                        Verdict::Unverified
                    }
                },
                Err(e) => {
                    // A key of the wrong width provably cannot unlock the
                    // design — that is a refutation, not an inconclusive.
                    cell.error = Some(format!("claimed key is unusable: {e}"));
                    Verdict::Refuted
                }
            }
        }
        AttackOutcome::RecoveredCircuit(recovered) => match equivalent_to(&host.circuit, recovered)
        {
            Ok(true) => Verdict::Verified,
            Ok(false) => Verdict::Refuted,
            Err(e) => {
                cell.error = Some(format!("verification inconclusive: {e}"));
                Verdict::Unverified
            }
        },
        AttackOutcome::PartialGuess(_) | AttackOutcome::OutOfBudget => Verdict::NotClaimed,
    };
    if cell.verdict == Verdict::Verified {
        // The paper's convention: a key proven functionally correct counts
        // fully even when Anti-SAT-style multi-key equivalences make it
        // differ bitwise from the stored secret.
        cell.cdk = cell.dk;
    }
    cell
}

/// Wall-clock ceiling of the FRAIG proof.
const SAT_VERIFY_LIMIT: Duration = Duration::from_secs(60);

/// The campaign's equivalence kernel, and it must be *complete*: the preset
/// schemes are point functions whose wrong keys corrupt as little as one
/// pattern in 2^157, which no random sample would ever hit. Every host,
/// whatever its width, goes to `kratt-synth`'s FRAIG, which matches inputs
/// by name and outputs by position: both circuits share one
/// structurally-hashed AIG (a correctly unlocked candidate hashes most of
/// the host logic onto the original's nodes); its seeded signature sweeps,
/// anchored by the all-zeros and all-ones patterns, refute a grossly wrong
/// claim at once; and the sweep rebuilds the AIG with each proven node
/// substituted by its representative, so most output pairs end as one edge
/// and only the rest reach a SAT query.
///
/// # Errors
///
/// Returns an error when the interfaces differ, a circuit is cyclic, or the
/// FRAIG exhausts its budget without a verdict — an error is never a
/// confirmation, so the campaign stamps such cells [`Verdict::Unverified`],
/// not `Verified`.
pub fn equivalent_to(original: &Circuit, candidate: &Circuit) -> Result<bool, NetlistError> {
    if original.num_inputs() != candidate.num_inputs()
        || original.num_outputs() != candidate.num_outputs()
    {
        return Err(NetlistError::Transform(
            "interface widths differ between compared circuits".into(),
        ));
    }
    match kratt_synth::check_equivalence_with_budget(
        original,
        candidate,
        None,
        Some(SAT_VERIFY_LIMIT),
    )
    .map_err(|e| NetlistError::Transform(format!("SAT equivalence check failed: {e}")))?
    {
        kratt_synth::EquivalenceResult::Equivalent => Ok(true),
        kratt_synth::EquivalenceResult::NotEquivalent(_) => Ok(false),
        kratt_synth::EquivalenceResult::Unknown => Err(NetlistError::Transform(
            "SAT equivalence check exhausted its budget without a verdict".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ThreatModel;
    use crate::report::AttackRun;
    use kratt_locking::{scheme_registry, LockingTechnique, SarLock, SecretKey};
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
    fn campaign_locks_each_instance_once_and_verifies_sat_keys() {
        let campaign = Campaign::builder()
            .spec_strs(["sarlock", "ttlock:k=4"])
            .hosts([
                CampaignHost::new("add4", adder(4, "add4"), 3),
                CampaignHost::new("add5", adder(5, "add5"), 3),
            ])
            .attacks(["sat", "scope"])
            .workers(4)
            .build()
            .unwrap();
        let corpus = CorpusCache::new();
        let report = campaign
            .run(
                &AttackRegistry::with_baselines(),
                &scheme_registry(),
                &corpus,
            )
            .unwrap();
        assert_eq!(report.cells.len(), campaign.num_cells());
        assert_eq!(report.cells.len(), 8);
        // 2 hosts x 2 schemes locked once each despite 2 attacks per cell.
        assert_eq!(report.locked_instances, 4);
        assert_eq!(corpus.locks_performed(), 4);
        // The SAT attack breaks both point functions at these widths, and
        // every exact key it claims must verify against the planted secret.
        let sat_cells: Vec<_> = report
            .cells
            .iter()
            .filter(|cell| cell.attack == "sat")
            .collect();
        assert_eq!(sat_cells.len(), 4);
        for cell in sat_cells {
            assert_eq!(cell.outcome, Some("exact-key"), "{}", cell.scheme);
            assert_eq!(cell.verdict, Verdict::Verified, "{}", cell.scheme);
            assert!(cell.key.as_deref().unwrap().contains("'h"));
            assert_eq!(cell.cdk, cell.dk);
        }
        assert_eq!(report.unverified_exact_claims(), 0);
        // Width-less specs picked up the host default.
        assert!(report.cells.iter().any(|c| c.scheme == "sarlock:k=3"));
        // Every cell carries a pre-attack lint stamp, and registry schemes
        // never produce error-level findings.
        for cell in &report.cells {
            assert_ne!(cell.lint, "-", "{}: missing lint stamp", cell.scheme);
            assert!(!cell.lint.contains('E'), "{}: {}", cell.scheme, cell.lint);
        }
        // SARLock's hardwired mask leaks its secret to ternary propagation,
        // so its cells carry forced-key-bit warnings.
        assert!(report
            .cells
            .iter()
            .filter(|c| c.scheme.starts_with("sarlock"))
            .all(|c| c.lint.contains('W')));
        assert!(report.render().contains("Lint"));
        assert!(report.to_json().contains("\"lint\":"));

        // Re-running against the same corpus locks nothing new.
        let again = campaign
            .run(
                &AttackRegistry::with_baselines(),
                &scheme_registry(),
                &corpus,
            )
            .unwrap();
        assert_eq!(again.locked_instances, 4);
    }

    #[test]
    fn failed_locks_become_error_cells_not_panics() {
        let campaign = Campaign::builder()
            .spec_strs(["ttlock:k=40"])
            .hosts([CampaignHost::new("tiny", adder(2, "tiny"), 2)])
            .attacks(["sat"])
            .build()
            .unwrap();
        let report = campaign
            .run(
                &AttackRegistry::with_baselines(),
                &scheme_registry(),
                &CorpusCache::new(),
            )
            .unwrap();
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert_eq!(cell.verdict, Verdict::Error);
        assert!(cell.outcome.is_none());
        assert!(
            cell.error.as_deref().unwrap().contains("setup failed"),
            "{:?}",
            cell.error
        );
    }

    #[test]
    fn refuted_claims_are_flagged() {
        // Forge a report row claiming a wrong key and check the verifier
        // refuses it.
        let host = CampaignHost::new("add4", adder(4, "add4"), 3);
        let secret = SecretKey::from_u64(0b101, 3);
        let locked = SarLock::new(3).lock(&host.circuit, &secret).unwrap();
        let shared = Arc::new(locked.circuit.clone());
        let lint = lint_locked(&host.circuit, &locked.circuit);
        let instance = LockedInstance {
            spec: "sarlock:k=3".parse().unwrap(),
            host: "add4".to_string(),
            locked,
            shared,
            lint,
        };
        let wrong = SecretKey::from_u64(0b010, 3);
        let mut run = AttackRun::out_of_budget("sat", ThreatModel::OracleGuided);
        run.outcome = AttackOutcome::ExactKey(wrong);
        let row = MatrixRow {
            attack: "sat".to_string(),
            case: "add4/sarlock:k=3".to_string(),
            result: Ok(run),
            telemetry: JobTelemetry::default(),
        };
        let cell = score_cell(&host, &instance.spec, &row, Some(&instance));
        assert_eq!(cell.verdict, Verdict::Refuted);
        assert!(cell.cdk < cell.dk);

        let report = CampaignReport {
            cells: vec![cell],
            attacks: vec!["sat".to_string()],
            locked_instances: 1,
            replayed: 0,
            scheduler: SchedulerStats::default(),
        };
        assert_eq!(report.unverified_exact_claims(), 1);
        assert!(report.render().contains("REFUTED"));
        assert!(report.to_json().contains("\"verdict\":\"REFUTED\""));
    }

    /// `((x0 AND x1) OR x2) AND x3 …` over `width` named inputs — a function
    /// in which every input plays a different role — with the inputs
    /// declared in reverse order when `reversed`.
    fn and_or_chain(width: usize, reversed: bool) -> Circuit {
        let mut c = Circuit::new("chain");
        let mut order: Vec<usize> = (0..width).collect();
        if reversed {
            order.reverse();
        }
        for i in order {
            c.add_input(format!("x{i}")).unwrap();
        }
        let xs: Vec<_> = (0..width)
            .map(|i| c.find_net(&format!("x{i}")).unwrap())
            .collect();
        let mut acc = xs[0];
        for (i, &x) in xs.iter().enumerate().skip(1) {
            let ty = if i % 2 == 1 {
                GateType::And
            } else {
                GateType::Or
            };
            acc = c.add_gate(ty, format!("g{i}"), &[acc, x]).unwrap();
        }
        c.mark_output(acc);
        c
    }

    #[test]
    fn equivalence_kernel_matches_inputs_by_name_at_every_width() {
        // The same function with its inputs declared in opposite orders: a
        // positional comparison would refute it, a by-name one proves it.
        for width in [4, 21] {
            let (forward, backward) = (and_or_chain(width, false), and_or_chain(width, true));
            assert!(
                equivalent_to(&forward, &backward).unwrap(),
                "{width} inputs"
            );
        }
    }

    #[test]
    fn equivalence_kernel_is_complete_on_wide_hosts() {
        // 25 inputs: 2^25 patterns, far beyond any sample.
        let host = adder(12, "wide");
        assert_eq!(host.num_inputs(), 25);
        assert!(equivalent_to(&host, &host.clone()).unwrap());
        let secret = SecretKey::from_u64(0xAB, 8);
        let locked = SarLock::new(8).lock(&host, &secret).unwrap();
        let good = locked.apply_key(&secret).unwrap();
        assert!(equivalent_to(&host, &good).unwrap());
        // The adversarial case for sampling: a SARLock wrong key corrupts
        // exactly ONE pattern out of 2^25 — the FRAIG's signature sweeps
        // never hit it, its SAT queries must.
        let wrong = SecretKey::from_u64(0xAB ^ 0x01, 8);
        let bad = locked.apply_key(&wrong).unwrap();
        assert!(
            !equivalent_to(&host, &bad).unwrap(),
            "a one-pattern corruption must be refuted, not sampled past"
        );
        // Gross corruption is refuted by the FRAIG's signature sweeps.
        let mut corrupted = host.clone();
        let out = corrupted.outputs()[0];
        let renamed = corrupted.fresh_net_name("sum0$bad");
        corrupted.rename_net(out, renamed).unwrap();
        let a0 = corrupted.find_net("a0").unwrap();
        let flipped = corrupted
            .add_gate(GateType::Xnor, "sum0", &[out, a0])
            .unwrap();
        corrupted.replace_output_at(0, flipped);
        assert!(!equivalent_to(&host, &corrupted).unwrap());
        // Interface mismatches are errors, not verdicts.
        assert!(equivalent_to(&host, &adder(4, "small")).is_err());
    }

    #[test]
    fn builder_validates_axes_with_typed_errors() {
        let hosts = || vec![CampaignHost::new("add4", adder(4, "add4"), 3)];
        assert!(matches!(
            Campaign::builder().build(),
            Err(CampaignError::EmptySchemes)
        ));
        assert!(matches!(
            Campaign::builder().spec_strs(["sarlock"]).build(),
            Err(CampaignError::EmptyHosts)
        ));
        assert!(matches!(
            Campaign::builder()
                .spec_strs(["sarlock"])
                .hosts(hosts())
                .build(),
            Err(CampaignError::EmptyAttacks)
        ));
        assert!(matches!(
            Campaign::builder()
                .spec_strs(["sarlock", "sarlock:k="])
                .hosts(hosts())
                .attacks(["sat"])
                .build(),
            Err(CampaignError::Spec(_))
        ));
        assert!(matches!(
            Campaign::builder()
                .spec_strs(["sarlock"])
                .hosts(hosts())
                .attacks(["sat", "sat"])
                .build(),
            Err(CampaignError::DuplicateAxis { axis: "attack", .. })
        ));
        let built = Campaign::builder()
            .spec_strs(["sarlock"])
            .hosts(hosts())
            .attacks(["sat"])
            .budget(Budget::zero())
            .workers(2)
            .halt_after_cells(1)
            .journal("unused.jsonl")
            .build()
            .unwrap();
        assert_eq!(built.num_cells(), 1);
        assert_eq!(built.workers, Some(2));
        assert_eq!(built.halt_after_cells, Some(1));
        assert!(built.journal.is_some());
        // The one-release shim: typed errors still convert for call sites
        // that traffic in `AttackError`.
        let shimmed: AttackError = CampaignError::EmptySchemes.into();
        assert!(matches!(shimmed, AttackError::Other(_)));
    }

    #[test]
    fn journal_replays_recorded_cells_and_attacks_only_new_ones() {
        let path = std::env::temp_dir().join(format!(
            "kratt-campaign-replay-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let campaign = Campaign::builder()
            .spec_strs(["sarlock"])
            .hosts([CampaignHost::new("add4", adder(4, "add4"), 3)])
            .attacks(["sat", "scope"])
            .journal(&path)
            .build()
            .unwrap();
        let first = campaign
            .run(
                &AttackRegistry::with_baselines(),
                &scheme_registry(),
                &CorpusCache::new(),
            )
            .unwrap();
        assert_eq!(first.replayed, 0);
        assert_eq!(first.attacked(), 2);

        // Second run, fresh corpus: every cell replays, nothing locks,
        // nothing is attacked, and the streamed cells say so.
        let corpus = CorpusCache::new();
        let streamed = Mutex::new(Vec::new());
        let second = campaign
            .run_observed(
                &AttackRegistry::with_baselines(),
                &scheme_registry(),
                &corpus,
                &|cell| streamed.lock().unwrap().push(cell.to_json_line()),
            )
            .unwrap();
        assert_eq!(second.replayed, 2);
        assert_eq!(second.attacked(), 0);
        assert_eq!(corpus.locks_performed(), 0);
        assert!(second.cells.iter().all(|cell| cell.replayed));
        let streamed = streamed.into_inner().unwrap();
        assert_eq!(streamed.len(), 2);
        assert!(streamed
            .iter()
            .all(|line| line.contains("\"replayed\":true")));
        assert!(second.summary_json().contains("\"type\":\"summary\""));
        // The replayed verdicts are semantically identical to the originals.
        for (a, b) in first.cells.iter().zip(&second.cells) {
            assert_eq!(a.attack, b.attack);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.key, b.key);
            assert_eq!((a.cdk, a.dk), (b.cdk, b.dk));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_replays_a_verdict_only_under_its_own_budget() {
        let path = std::env::temp_dir().join(format!(
            "kratt-campaign-budget-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let run_at = |budget: Budget| {
            Campaign::builder()
                .spec_strs(["sarlock"])
                .hosts([CampaignHost::new("add4", adder(4, "add4"), 3)])
                .attacks(["sat", "scope"])
                .budget(budget)
                .journal(&path)
                .build()
                .unwrap()
                .run(
                    &AttackRegistry::with_baselines(),
                    &scheme_registry(),
                    &CorpusCache::new(),
                )
                .unwrap()
        };
        let short = Budget::with_time_limit(Duration::from_secs(1));
        let long = Budget::with_time_limit(Duration::from_secs(3));
        let first = run_at(short.clone());
        assert_eq!((first.replayed, first.attacked()), (0, 2));
        // Another budget: every cell is attacked again.
        let other = run_at(long.clone());
        assert_eq!((other.replayed, other.attacked()), (0, 2));
        // The same budget again, either one: every cell replays.
        for budget in [short, long] {
            let same = run_at(budget);
            assert_eq!((same.replayed, same.attacked()), (2, 0));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corpus_cache_is_content_addressed() {
        let corpus = CorpusCache::new();
        let registry = scheme_registry();
        let host_a = CampaignHost::new("a", adder(4, "add4"), 3);
        // Same netlist content under a different *host label* but identical
        // circuit: same address, locked once.
        let host_b = CampaignHost::new("b", adder(4, "add4"), 3);
        let spec: SchemeSpec = "sarlock:k=3".parse().unwrap();
        let first = corpus.get_or_lock(&registry, &host_a, &spec, None).unwrap();
        let second = corpus.get_or_lock(&registry, &host_b, &spec, None).unwrap();
        assert_eq!(corpus.locks_performed(), 1);
        assert!(Arc::ptr_eq(&first, &second));
        // A different spec (seed) is a different address.
        let reseeded: SchemeSpec = "sarlock:k=3,seed=5".parse().unwrap();
        corpus
            .get_or_lock(&registry, &host_a, &reseeded, None)
            .unwrap();
        assert_eq!(corpus.locks_performed(), 2);
        // A different circuit is a different address.
        let host_c = CampaignHost::new("c", adder(5, "add5"), 3);
        corpus.get_or_lock(&registry, &host_c, &spec, None).unwrap();
        assert_eq!(corpus.locks_performed(), 3);
    }
}

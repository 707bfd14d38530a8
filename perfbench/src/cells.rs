//! Driving cells: one attack on one locked instance, verified and scored.
//!
//! KRATT workloads run their cells one at a time through `Attack::execute`
//! (one client, closed loop); the campaign workload runs a whole pass
//! through `Campaign::run_observed`, and the traced run also drives each of
//! its cells once untraced as the baseline of its overhead. Either way every
//! exact claim is checked with the campaign's own kernel (`equivalent_to`
//! against the host) and every cell ends as a [`CellResult`].

use crate::corpus::{campaign_specs, resynthesis_prepare, Corpus, Instance, Mode};
use kratt_attacks::campaign::equivalent_to;
use kratt_attacks::{
    key_input_names, score_guess, Attack, AttackOutcome, AttackRequest, Campaign, CampaignReport,
    Verdict,
};
use kratt_locking::{scheme_registry, LockedCircuit};
use kratt_netlist::Circuit;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The verdict-stamped result of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Index of the cell in the pass.
    pub cell: usize,
    /// `host/spec` (plus `@attack` in campaign workloads).
    pub name: String,
    /// Time from the cell's start to its verdict: the attack plus, for an
    /// exact claim, its verification.
    pub latency: Duration,
    /// The outcome kind (`exact-key`, ...), or `error`.
    pub outcome: &'static str,
    /// The verification verdict.
    pub verdict: Verdict,
    /// The claimed exact key, as hex.
    pub key: Option<String>,
    /// Correctly deciphered key bits (all of them for a verified key).
    pub cdk: usize,
    /// Key width of the instance.
    pub key_bits: usize,
    /// Oracle queries the attack spent.
    pub oracle_queries: u64,
    /// Why the cell failed or why its claim was not confirmed.
    pub error: Option<String>,
    /// Whether the cell is meant to run out of budget.
    pub expect_out_of_budget: bool,
}

impl CellResult {
    /// Errors, panics, and refuted or inconclusive claims.
    pub fn failed(&self) -> bool {
        matches!(
            self.verdict,
            Verdict::Refuted | Verdict::Unverified | Verdict::Error
        )
    }

    /// A verified exact key.
    pub fn solved(&self) -> bool {
        self.verdict == Verdict::Verified
    }

    /// Everything about the result that must repeat exactly on every pass
    /// and every run with one seed.
    pub fn signature(&self) -> (&'static str, Verdict, Option<&str>, usize, u64) {
        (
            self.outcome,
            self.verdict,
            self.key.as_deref(),
            self.cdk,
            self.oracle_queries,
        )
    }
}

/// An attack's outcome and oracle queries, checked by the verification
/// kernel.
#[derive(Debug)]
pub(crate) struct Checked {
    outcome: AttackOutcome,
    oracle_queries: u64,
    verdict: Verdict,
    /// Why the claim was not confirmed.
    error: Option<String>,
}

/// Verifies an exact claim against the host with the campaign's kernel.
pub(crate) fn check(
    host: &Circuit,
    locked: &LockedCircuit,
    outcome: AttackOutcome,
    oracle_queries: u64,
) -> Checked {
    let (verdict, error) = match &outcome {
        AttackOutcome::ExactKey(key) => match locked.apply_key(key) {
            Ok(unlocked) => match equivalent_to(host, &unlocked) {
                Ok(true) => (Verdict::Verified, None),
                Ok(false) => (
                    Verdict::Refuted,
                    Some("the kernel refuted the claimed key".to_string()),
                ),
                Err(e) => (
                    Verdict::Unverified,
                    Some(format!("verification inconclusive: {e}")),
                ),
            },
            Err(e) => (
                Verdict::Refuted,
                Some(format!("claimed key is unusable: {e}")),
            ),
        },
        _ => (Verdict::NotClaimed, None),
    };
    Checked {
        outcome,
        oracle_queries,
        verdict,
        error,
    }
}

/// The instance a cell attacks (campaign cells are instance × attack).
pub(crate) fn instance_of(corpus: &Corpus, cell: usize) -> usize {
    cell / corpus.workload.attacks().len()
}

/// Scores how a cell ended — a checked attack, or the error or panic that
/// stopped it — into its result.
pub(crate) fn score(
    corpus: &Corpus,
    cell: usize,
    name: String,
    latency: Duration,
    ending: Result<Checked, String>,
) -> CellResult {
    let instance = &corpus.instances[instance_of(corpus, cell)];
    let host = &corpus.hosts[instance.host].name;
    let mut result = CellResult {
        cell,
        name,
        latency,
        outcome: "error",
        verdict: Verdict::Error,
        key: None,
        cdk: 0,
        key_bits: instance.locked.secret.len(),
        oracle_queries: 0,
        error: None,
        expect_out_of_budget: corpus.workload.expects_out_of_budget(host),
    };
    match ending {
        Ok(checked) => {
            let key_names = key_input_names(&instance.locked.circuit);
            let (cdk, dk) = score_guess(&instance.locked, &checked.outcome.as_guess(&key_names));
            result.outcome = checked.outcome.kind();
            result.key = checked.outcome.exact_key().map(|k| k.to_hex());
            // A verified key counts fully, as in the campaign's scoring.
            result.cdk = if checked.verdict == Verdict::Verified {
                dk
            } else {
                cdk
            };
            result.verdict = checked.verdict;
            result.oracle_queries = checked.oracle_queries;
            result.error = checked.error;
        }
        Err(error) => result.error = Some(error),
    }
    result
}

/// `host/spec`, plus `@attack` in campaign workloads.
pub(crate) fn cell_name(corpus: &Corpus, cell: usize) -> String {
    let instance = corpus.instances[instance_of(corpus, cell)].name(&corpus.hosts);
    match corpus.workload.mode() {
        Mode::Campaign => {
            let attacks = corpus.workload.attacks();
            format!("{instance}@{}", attacks[cell % attacks.len()])
        }
        _ => instance,
    }
}

/// The request a cell sends: oracle-guided when the workload grants an
/// oracle.
pub(crate) fn cell_request<'a>(corpus: &'a Corpus, instance: &'a Instance) -> AttackRequest<'a> {
    let request = match corpus.workload.mode() {
        Mode::OracleLess => AttackRequest::oracle_less(&instance.locked.circuit),
        _ => AttackRequest::oracle_guided(&instance.locked.circuit, &corpus.oracles[instance.host]),
    };
    request.with_budget(corpus.workload.budget())
}

/// Renders a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_string());
    format!("panicked: {text}")
}

/// The workload's attacks, built from the suite's registry.
///
/// # Errors
///
/// Reports an attack the registry does not know.
pub(crate) fn workload_attacks(corpus: &Corpus) -> Result<Vec<Box<dyn Attack>>, String> {
    let registry = kratt::attack_registry();
    corpus
        .workload
        .attacks()
        .iter()
        .map(|name| registry.build(name).map_err(|e| e.to_string()))
        .collect()
}

/// One cell through `Attack::execute`, verified and scored.
pub(crate) fn serial_cell(corpus: &Corpus, attack: &dyn Attack, cell: usize) -> CellResult {
    let instance = &corpus.instances[instance_of(corpus, cell)];
    let start = Instant::now();
    let request = cell_request(corpus, instance);
    let ending = match catch_unwind(AssertUnwindSafe(|| attack.execute(&request))) {
        Ok(Ok(run)) => Ok(check(
            &corpus.hosts[instance.host].circuit,
            &instance.locked,
            run.outcome,
            run.oracle_queries,
        )),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(panic_message(&*payload)),
    };
    score(
        corpus,
        cell,
        cell_name(corpus, cell),
        start.elapsed(),
        ending,
    )
}

/// One pass over the workload's cells, one at a time through
/// `Attack::execute` (one client, closed loop): how the KRATT workloads
/// run.
///
/// # Errors
///
/// Reports an attack the registry does not know.
pub fn serial_pass(corpus: &Corpus) -> Result<Vec<CellResult>, String> {
    let attacks = workload_attacks(corpus)?;
    Ok((0..corpus.instances.len() * attacks.len())
        .map(|cell| serial_cell(corpus, attacks[cell % attacks.len()].as_ref(), cell))
        .collect())
}

/// Worker threads of the campaign workload: one per CPU.
pub(crate) fn campaign_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The campaign a pass runs, journaling to `journal`.
///
/// # Errors
///
/// Reports a campaign the builder rejects.
pub(crate) fn campaign(corpus: &Corpus, journal: &Path) -> Result<Campaign, String> {
    let (tag, hook) = resynthesis_prepare();
    Campaign::builder()
        .specs(campaign_specs(corpus.workload, corpus.seed))
        .hosts(corpus.hosts.iter().cloned())
        .attacks(corpus.workload.attacks().iter().copied())
        .budget(corpus.workload.budget())
        .workers(campaign_workers())
        .prepare(tag, hook)
        .journal(journal)
        .build()
        .map_err(|e| e.to_string())
}

/// One pass of the campaign workload against the pre-filled corpus cache,
/// journaling to a fresh `journal`. A cell's latency runs from the moment
/// its worker picked it up to the moment its verified verdict committed.
/// The pickup is the scheduler's start plus the cell's queue wait; the
/// scheduler starts `makespan` before `run_observed` returns, after the
/// campaign has opened its journal and fingerprinted its cases, so that
/// set-up is not charged to any cell.
///
/// # Errors
///
/// Reports a campaign that fails to build or run.
pub(crate) fn campaign_pass(
    corpus: &Corpus,
    journal: &Path,
) -> Result<(Vec<CellResult>, CampaignReport), String> {
    let _ = std::fs::remove_file(journal);
    let campaign = campaign(corpus, journal)?;
    let cache = corpus
        .cache
        .as_ref()
        .ok_or("campaign corpus without a cache")?;
    let committed: Mutex<HashMap<(String, String, String), Instant>> = Mutex::new(HashMap::new());
    let report = campaign
        .run_observed(
            &kratt::attack_registry(),
            &scheme_registry(),
            cache,
            &|cell| {
                let key = (cell.host.clone(), cell.scheme.clone(), cell.attack.clone());
                committed
                    .lock()
                    .expect("commit log lock")
                    .insert(key, Instant::now());
            },
        )
        .map_err(|e| e.to_string())?;
    let returned = Instant::now();
    let scheduler_start = returned
        .checked_sub(report.scheduler.makespan)
        .unwrap_or(returned);
    let committed = committed.into_inner().expect("commit log lock");
    let results = report
        .cells
        .iter()
        .enumerate()
        .map(|(cell, c)| {
            let pickup = scheduler_start + c.telemetry.queue_wait;
            let done = committed
                .get(&(c.host.clone(), c.scheme.clone(), c.attack.clone()))
                .copied()
                .unwrap_or(returned);
            let instance = &corpus.instances[instance_of(corpus, cell)];
            CellResult {
                cell,
                name: cell_name(corpus, cell),
                latency: done.saturating_duration_since(pickup),
                outcome: c.outcome.unwrap_or("error"),
                verdict: c.verdict,
                key: c.key.clone(),
                cdk: c.cdk,
                key_bits: instance.locked.secret.len(),
                oracle_queries: c.oracle_queries,
                error: c.error.clone(),
                expect_out_of_budget: corpus
                    .workload
                    .expects_out_of_budget(&corpus.hosts[instance.host].name),
            }
        })
        .collect();
    Ok((results, report))
}

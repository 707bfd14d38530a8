//! The unified attack API: every attack in the suite — the baselines here
//! and KRATT itself in `kratt-core` — is driven through the same
//! [`Attack`] trait as an interchangeable engine over a
//! (locked netlist, optional oracle, budget) request.
//!
//! * [`ThreatModel`] names the paper's two adversary models (oracle-less /
//!   oracle-guided); [`Attack::supports`] declares which ones an engine
//!   accepts and [`Attack::execute`] rejects the others with
//!   [`AttackError::Unsupported`].
//! * [`Budget`] is the one shared resource budget (wall clock, iterations,
//!   SAT conflicts, oracle queries). [`Budget::start`] turns it into a
//!   [`Deadline`] — an absolute point in time that is threaded down into the
//!   SAT and QBF solver loops so every component of an attack honours the
//!   same wall-clock limit cooperatively instead of restarting its own
//!   timer per solver call.
//! * [`AttackRequest`] bundles the three inputs; the unified
//!   [`AttackRun`] result covers the outcomes of
//!   all attacks (exact key, partial guess, recovered circuit, out of
//!   budget) plus shared telemetry.

use crate::error::AttackError;
use crate::oracle::Oracle;
use crate::report::AttackRun;
use kratt_netlist::Circuit;
pub use kratt_sat::CancelFlag;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The scheduling cost class of an attack.
///
/// The work-stealing batch harness deals [`Heavy`](CostClass::Heavy)
/// solver-bound jobs (SAT/QBF CEGAR loops that may run to their deadline)
/// out across the worker deques first so the long poles start immediately,
/// and interleaves [`Cheap`](CostClass::Cheap) structural jobs (SCOPE,
/// FALL, removal — simulation- and analysis-bound, typically milliseconds)
/// through the global injector to fill the gaps. The class is advisory:
/// it orders the queues, it never changes what runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Structural / simulation-bound; expected to finish quickly.
    Cheap,
    /// Solver-bound; may legitimately consume its whole budget.
    Heavy,
}

/// The two adversary models of the paper (Section II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreatModel {
    /// The attacker has only the locked netlist.
    OracleLess,
    /// The attacker additionally owns a functional (activated) IC and can
    /// query it as a black box.
    OracleGuided,
}

impl ThreatModel {
    /// Both models, in paper order.
    pub const ALL: [ThreatModel; 2] = [ThreatModel::OracleLess, ThreatModel::OracleGuided];
}

impl fmt::Display for ThreatModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreatModel::OracleLess => write!(f, "oracle-less"),
            ThreatModel::OracleGuided => write!(f, "oracle-guided"),
        }
    }
}

/// The one shared resource budget of an attack run. Replaces the previously
/// scattered per-attack knobs (per-attack budget fields,
/// `QbfConfig::time_limit`, the structural-analysis timeouts): a request
/// carries a single `Budget` and every engine derives its solver limits
/// from it.
///
/// The paper gives the baseline attacks a two-day limit on a 32-core server;
/// this reproduction scales the limits down but keeps the semantics: an
/// exhausted budget is reported as the out-of-budget *outcome*, never as an
/// error.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Wall-clock limit for the whole attack (`None` = unlimited).
    pub time_limit: Option<Duration>,
    /// Maximum number of attack iterations (DIPs, refinement rounds, ...).
    pub max_iterations: usize,
    /// Conflict budget handed to each individual SAT call.
    pub sat_conflict_limit: Option<u64>,
    /// Cap on oracle queries (`None` = unlimited).
    pub max_oracle_queries: Option<u64>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            time_limit: Some(Duration::from_secs(60)),
            max_iterations: 100_000,
            sat_conflict_limit: None,
            max_oracle_queries: None,
        }
    }
}

impl Budget {
    /// A budget with only a wall-clock limit.
    pub fn with_time_limit(limit: Duration) -> Self {
        Budget {
            time_limit: Some(limit),
            ..Default::default()
        }
    }

    /// A budget without any limits (runs to completion).
    pub fn unlimited() -> Self {
        Budget {
            time_limit: None,
            max_iterations: usize::MAX,
            sat_conflict_limit: None,
            max_oracle_queries: None,
        }
    }

    /// An already-exhausted budget: every conforming attack returns the
    /// out-of-budget outcome immediately. Used by the conformance tests.
    pub fn zero() -> Self {
        Budget {
            time_limit: Some(Duration::ZERO),
            max_iterations: 0,
            sat_conflict_limit: Some(0),
            max_oracle_queries: Some(0),
        }
    }

    /// Starts the wall clock: captures "now" and converts the relative
    /// time limit into an absolute [`Deadline`].
    pub fn start(&self) -> Deadline {
        Deadline::started(self.time_limit)
    }

    /// Whether `queries` oracle queries exceed the query cap.
    pub fn oracle_queries_exhausted(&self, queries: u64) -> bool {
        self.max_oracle_queries
            .map(|cap| queries >= cap)
            .unwrap_or(false)
    }

    /// A per-member slice of this budget for an `n`-way portfolio race.
    ///
    /// The members run *concurrently*, so the wall clock and the per-call
    /// SAT conflict limit are shared as-is; the additive resources
    /// (iterations, oracle queries) are ceil-divided so the portfolio as a
    /// whole never spends more than the caller granted.
    pub fn slice(&self, n: usize) -> Budget {
        let n = n.max(1);
        Budget {
            time_limit: self.time_limit,
            max_iterations: self.max_iterations.div_ceil(n),
            sat_conflict_limit: self.sat_conflict_limit,
            max_oracle_queries: self.max_oracle_queries.map(|q| q.div_ceil(n as u64)),
        }
    }
}

/// An absolute wall-clock deadline plus the instant the attack started,
/// plus a shared cooperative [`CancelFlag`].
///
/// The deadline is cheap to clone (clones share the cancellation flag and
/// the expiry latch) and is handed down (as a raw [`Instant`] via
/// [`Deadline::instant`], and as a [`CancelFlag`] via
/// [`Deadline::cancel_flag`]) into `kratt-sat`'s `SolverConfig` and
/// `kratt-qbf`'s `QbfConfig`, so a long-running SAT or CEGAR loop aborts at
/// the *attack's* deadline — or the instant a portfolio sibling wins the
/// race — rather than restarting a fresh per-call timer.
///
/// [`Deadline::expired`] sits on hot loops (the DIP loop, FALL's per-node
/// scan, removal's cone walk), so it reads the clock only every
/// [`CLOCK_CHECK_INTERVAL`] calls and latches the first expiry it sees;
/// between clock reads it costs two relaxed atomic loads. The very first
/// call always reads the clock, so an already-spent budget is still
/// reported immediately.
#[derive(Debug, Clone)]
pub struct Deadline {
    start: Instant,
    end: Option<Instant>,
    cancel: CancelFlag,
    gate: Arc<ExpiryGate>,
}

/// How many [`Deadline::expired`] calls share one `Instant::now` read.
pub const CLOCK_CHECK_INTERVAL: u32 = 64;

/// Shared expiry state: once the clock has been observed past the end
/// instant the latch stays set, so clones agree and later calls skip the
/// syscall entirely.
#[derive(Debug, Default)]
struct ExpiryGate {
    latched: AtomicBool,
    calls: AtomicU32,
}

impl Deadline {
    /// A deadline `limit` from now (`None` = unlimited).
    pub fn started(limit: Option<Duration>) -> Self {
        let start = Instant::now();
        Deadline {
            start,
            end: limit.map(|l| start + l),
            cancel: CancelFlag::default(),
            gate: Arc::new(ExpiryGate::default()),
        }
    }

    /// A deadline that never expires.
    pub fn unlimited() -> Self {
        Deadline::started(None)
    }

    /// Replaces the cancellation flag with an externally shared one (the
    /// portfolio hands every member the same race flag this way).
    pub fn with_cancel(mut self, cancel: CancelFlag) -> Self {
        self.cancel = cancel;
        self
    }

    /// Whether the deadline has passed or the run was cancelled.
    pub fn expired(&self) -> bool {
        if self.is_cancelled() || self.gate.latched.load(Ordering::Relaxed) {
            return true;
        }
        let Some(end) = self.end else {
            return false;
        };
        // `fetch_add` returns the pre-increment value, so call 0 — the
        // entry check every engine performs — always reads the clock.
        let calls = self.gate.calls.fetch_add(1, Ordering::Relaxed);
        if !calls.is_multiple_of(CLOCK_CHECK_INTERVAL) {
            return false;
        }
        if Instant::now() >= end {
            self.gate.latched.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Raises the cancellation flag: every holder of this deadline (or of
    /// its [`cancel_flag`](Deadline::cancel_flag)) observes `expired() ==
    /// true` from its next check onwards.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the cancellation flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The shared cancellation flag, in the form `SolverConfig::cancel` and
    /// `QbfConfig::cancel` take.
    pub fn cancel_flag(&self) -> CancelFlag {
        self.cancel.clone()
    }

    /// Wall-clock time since the attack started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Time left before expiry; `None` means unlimited. Always reads the
    /// clock — budget-splitting callers need the exact value.
    pub fn remaining(&self) -> Option<Duration> {
        self.end
            .map(|end| end.saturating_duration_since(Instant::now()))
    }

    /// The absolute expiry instant, in the form the solver configs take.
    pub fn instant(&self) -> Option<Instant> {
        self.end
    }
}

/// Everything an attack needs: the locked netlist, oracle access when the
/// threat model grants it, and the shared [`Budget`].
#[derive(Debug)]
pub struct AttackRequest<'a> {
    /// The locked netlist under attack.
    pub locked: &'a Circuit,
    /// The functional IC, when the adversary has one.
    pub oracle: Option<&'a Oracle>,
    /// The shared resource budget.
    pub budget: Budget,
    /// An externally shared cancellation flag: when present, the deadline
    /// engines derive via [`AttackRequest::deadline`] reports `expired()`
    /// as soon as the flag is raised (the portfolio race uses this to stop
    /// losing members).
    pub cancel: Option<CancelFlag>,
}

impl<'a> AttackRequest<'a> {
    /// An oracle-less request with the default budget.
    pub fn oracle_less(locked: &'a Circuit) -> Self {
        AttackRequest {
            locked,
            oracle: None,
            budget: Budget::default(),
            cancel: None,
        }
    }

    /// An oracle-guided request with the default budget.
    pub fn oracle_guided(locked: &'a Circuit, oracle: &'a Oracle) -> Self {
        AttackRequest {
            locked,
            oracle: Some(oracle),
            budget: Budget::default(),
            cancel: None,
        }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a shared cancellation flag (see [`AttackRequest::cancel`]).
    pub fn with_cancel(mut self, cancel: CancelFlag) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Starts the budget's wall clock and attaches the request's
    /// cancellation flag. Engines should derive their deadline here rather
    /// than from `budget.start()` so external cancellation reaches them.
    pub fn deadline(&self) -> Deadline {
        let deadline = self.budget.start();
        match &self.cancel {
            Some(flag) => deadline.with_cancel(flag.clone()),
            None => deadline,
        }
    }

    /// The threat model this request grants.
    pub fn threat_model(&self) -> ThreatModel {
        if self.oracle.is_some() {
            ThreatModel::OracleGuided
        } else {
            ThreatModel::OracleLess
        }
    }

    /// The oracle, or the [`AttackError::Unsupported`] error an
    /// oracle-guided-only attack reports on an oracle-less request.
    pub fn require_oracle(&self, attack: &str) -> Result<&'a Oracle, AttackError> {
        self.oracle.ok_or_else(|| AttackError::Unsupported {
            attack: attack.to_string(),
            model: ThreatModel::OracleLess,
        })
    }
}

/// A logic-locking attack as an interchangeable engine.
///
/// Implementors are stateless configuration objects (`Send + Sync`), so one
/// instance can serve many concurrent [`execute`](Attack::execute) calls —
/// which is what the batch [`Harness`](crate::harness::Harness) does.
pub trait Attack: Send + Sync {
    /// The registry name of the attack (`"sat"`, `"kratt"`, ...).
    fn name(&self) -> &'static str;

    /// Whether the attack accepts requests under the given threat model.
    /// [`execute`](Attack::execute) returns [`AttackError::Unsupported`]
    /// exactly when this returns `false` for the request's model.
    fn supports(&self, model: ThreatModel) -> bool;

    /// The scheduling cost class the batch harness orders job queues by.
    /// Defaults to [`CostClass::Heavy`] — the conservative choice for
    /// solver-bound engines; fast structural attacks override to
    /// [`CostClass::Cheap`].
    fn cost_class(&self) -> CostClass {
        CostClass::Heavy
    }

    /// Runs the attack on a request.
    ///
    /// Exhausting the budget is *not* an error: conforming implementations
    /// return [`AttackOutcome::OutOfBudget`](crate::report::AttackOutcome)
    /// (immediately, when the request's budget is already spent).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Unsupported`] for an unsupported threat model,
    /// [`AttackError::NoKeyInputs`] for an unlocked netlist, and propagates
    /// interface/netlist errors.
    fn execute(&self, request: &AttackRequest<'_>) -> Result<AttackRun, AttackError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_default_has_a_time_limit() {
        let budget = Budget::default();
        assert!(budget.time_limit.is_some());
        let custom = Budget::with_time_limit(Duration::from_secs(5));
        assert_eq!(custom.time_limit, Some(Duration::from_secs(5)));
        assert!(Budget::unlimited().time_limit.is_none());
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let deadline = Budget::zero().start();
        assert!(deadline.expired());
        assert_eq!(deadline.remaining(), Some(Duration::ZERO));
        assert!(deadline.instant().is_some());
        assert!(Budget::zero().oracle_queries_exhausted(0));
    }

    #[test]
    fn unlimited_deadline_never_expires() {
        let deadline = Deadline::unlimited();
        assert!(!deadline.expired());
        assert!(deadline.remaining().is_none());
        assert!(deadline.instant().is_none());
    }

    #[test]
    fn cancellation_makes_a_deadline_expire() {
        let deadline = Deadline::unlimited();
        assert!(!deadline.expired());
        let clone = deadline.clone();
        deadline.cancel();
        assert!(clone.expired());
        assert!(clone.is_cancelled());
        // The flag propagates into deadlines built around the same token.
        let other = Deadline::unlimited().with_cancel(deadline.cancel_flag());
        assert!(other.expired());
    }

    #[test]
    fn expiry_latches_and_interval_gates_the_clock() {
        // Already expired at call 0: the entry check latches, so every
        // later call — including the clock-gated ones — stays true.
        let deadline = Deadline::started(Some(Duration::ZERO));
        for _ in 0..(CLOCK_CHECK_INTERVAL * 2) {
            assert!(deadline.expired());
        }
        // A live deadline stays false through the gated calls.
        let live = Deadline::started(Some(Duration::from_secs(3600)));
        for _ in 0..(CLOCK_CHECK_INTERVAL * 2) {
            assert!(!live.expired());
        }
    }

    #[test]
    fn request_cancel_flag_reaches_the_derived_deadline() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        c.mark_output(a);
        let flag = CancelFlag::default();
        let request = AttackRequest::oracle_less(&c)
            .with_budget(Budget::unlimited())
            .with_cancel(flag.clone());
        let deadline = request.deadline();
        assert!(!deadline.expired());
        flag.store(true, Ordering::Relaxed);
        assert!(deadline.expired());
    }

    #[test]
    fn budget_slices_divide_additive_resources_only() {
        let budget = Budget {
            time_limit: Some(Duration::from_secs(9)),
            max_iterations: 10,
            sat_conflict_limit: Some(500),
            max_oracle_queries: Some(7),
        };
        let slice = budget.slice(3);
        assert_eq!(slice.time_limit, budget.time_limit);
        assert_eq!(slice.sat_conflict_limit, budget.sat_conflict_limit);
        assert_eq!(slice.max_iterations, 4);
        assert_eq!(slice.max_oracle_queries, Some(3));
        // Unlimited budgets stay unlimited; n = 0 is treated as 1.
        let unlimited = Budget::unlimited().slice(0);
        assert_eq!(unlimited.max_iterations, usize::MAX);
        assert!(unlimited.max_oracle_queries.is_none());
    }

    #[test]
    fn oracle_query_cap_is_checked() {
        let budget = Budget {
            max_oracle_queries: Some(10),
            ..Budget::default()
        };
        assert!(!budget.oracle_queries_exhausted(9));
        assert!(budget.oracle_queries_exhausted(10));
        assert!(!Budget::default().oracle_queries_exhausted(u64::MAX));
    }

    #[test]
    fn threat_model_display_and_request_shape() {
        assert_eq!(ThreatModel::OracleLess.to_string(), "oracle-less");
        assert_eq!(ThreatModel::OracleGuided.to_string(), "oracle-guided");
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        c.mark_output(a);
        let request = AttackRequest::oracle_less(&c).with_budget(Budget::zero());
        assert_eq!(request.threat_model(), ThreatModel::OracleLess);
        assert!(matches!(
            request.require_oracle("sat"),
            Err(AttackError::Unsupported {
                model: ThreatModel::OracleLess,
                ..
            })
        ));
    }
}

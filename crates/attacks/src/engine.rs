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
//!   SAT conflicts, oracle queries). [`AttackRequest::deadline`] starts its
//!   clock as a [`Deadline`] (defined in `kratt-sat`, re-exported here)
//!   carrying the request's cancellation flag. That one value is the only
//!   stop condition below the request: the SAT solvers, the QBF CEGAR
//!   loop, KRATT's structural analysis and every attack loop hold a clone
//!   of it, so every component honours the same wall-clock limit — and a
//!   portfolio race's cancellation — instead of restarting its own timer
//!   per solver call.
//! * [`AttackRequest`] bundles the three inputs; the unified
//!   [`AttackRun`] result covers the outcomes of
//!   all attacks (exact key, partial guess, recovered circuit, out of
//!   budget) plus shared telemetry.

use crate::error::AttackError;
use crate::oracle::Oracle;
use crate::report::AttackRun;
use kratt_netlist::Circuit;
pub use kratt_sat::{CancelFlag, Deadline};
use std::fmt;
use std::time::Duration;

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

/// The one shared resource budget of an attack run. A request carries a
/// single `Budget` and every engine derives its limits from it. Its wall
/// clock becomes the run's one [`Deadline`], and that deadline is the only
/// stop condition the SAT solvers, the QBF CEGAR loop and KRATT's
/// structural analysis consult: none of their configs has a relative time
/// limit, a raw deadline instant or a separate cancel flag.
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
    use std::sync::atomic::Ordering;

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
        assert!(deadline.instant().is_some());
        assert!(Budget::zero().oracle_queries_exhausted(0));
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

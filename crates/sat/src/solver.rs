//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The implementation follows the classic MiniSat architecture: two watched
//! literals per clause, first-UIP conflict analysis, VSIDS variable
//! activities with phase saving, Luby-sequence restarts and LBD-guided
//! learnt-clause database reduction. It additionally supports incremental
//! solving under assumptions, a conflict budget and a [`Deadline`] so that
//! callers (the oracle-guided baseline attacks) can observe well-defined
//! "out of time" outcomes.

use crate::deadline::Deadline;
use crate::heap::ActivityHeap;
use crate::lit::{Lit, Var};

/// Three-valued assignment of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// A satisfying assignment returned by [`Solver::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// The value assigned to `var` (unconstrained variables default to
    /// `false`).
    pub fn value(&self, var: Var) -> bool {
        self.values.get(var.index()).copied().unwrap_or(false)
    }

    /// Whether the literal is satisfied by this model.
    pub fn lit_is_true(&self, lit: Lit) -> bool {
        self.value(lit.var()) != lit.is_negative()
    }

    /// Number of variables covered by the model.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model is empty (a formula with no variables).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The configured conflict or time budget was exhausted first.
    Unknown,
}

impl SatResult {
    /// Returns the model if the result is SAT.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// `true` if the result is [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// `true` if the result is [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }
}

/// Multiplicative decay applied to variable activities per conflict.
const VAR_DECAY: f64 = 0.95;
/// Multiplicative decay applied to clause activities per conflict.
const CLAUSE_DECAY: f64 = 0.999;
/// Conflicts allowed in the first restart interval (scaled by Luby).
const RESTART_BASE: f64 = 100.0;
/// Baseline number of learnt clauses kept before database reduction.
const MAX_LEARNTS_BASE: usize = 8000;

/// The resource budgets of a solver.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Abort with [`SatResult::Unknown`] after this many conflicts.
    pub conflict_limit: Option<u64>,
    /// Abort with [`SatResult::Unknown`] once this deadline expires or is
    /// cancelled. It is shared across every incremental `solve*` call, which
    /// is how an attack's one wall-clock budget reaches the solver. Checked
    /// at call entry and after every conflict; its cancellation flag alone
    /// is polled on every decision, so a portfolio sibling that finishes
    /// first stops this solver within one propagation round.
    pub deadline: Deadline,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            conflict_limit: None,
            deadline: Deadline::unlimited(),
        }
    }
}

/// Counters describing the work a solver has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of conflicts analysed.
    pub conflicts: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Learnt clauses discarded by database reduction.
    pub removed_clauses: u64,
    /// Number of `solve*` calls served. Incremental callers (the CEGAR
    /// loops) make many calls against one solver; this counter makes the
    /// reuse visible in telemetry.
    pub solve_calls: u64,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
    lbd: u32,
    deleted: bool,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: usize,
    blocker: Lit,
}

/// The CDCL solver. See the [crate-level documentation](crate) for an
/// example.
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    stats: SolverStats,
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    heap: ActivityHeap,
    var_inc: f64,
    cla_inc: f64,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reason: Vec<Option<usize>>,
    level: Vec<u32>,
    qhead: usize,
    seen: Vec<bool>,
    ok: bool,
    learnt_count: usize,
}

enum SearchOutcome {
    Sat(Model),
    Unsat,
    Restart,
    Budget,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Self {
        Self::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            config,
            stats: SolverStats::default(),
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            heap: ActivityHeap::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            trail: Vec::new(),
            trail_lim: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            qhead: 0,
            seen: Vec::new(),
            ok: true,
            learnt_count: 0,
        }
    }

    /// Replaces the per-call conflict limit (useful between incremental
    /// calls).
    pub fn set_conflict_limit(&mut self, conflict_limit: Option<u64>) {
        self.config.conflict_limit = conflict_limit;
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of variables created.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (original and learnt, excluding deleted ones).
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let index = self.assigns.len();
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow_to(index + 1);
        self.heap.insert(index, &self.activity);
        Var(index as u32)
    }

    /// Adds a clause. Returns `false` if the clause (together with what has
    /// been added before) makes the formula trivially unsatisfiable.
    ///
    /// Must be called with the solver at decision level 0, which is always
    /// the case between `solve` calls.
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable that was never created.
    pub fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        assert_eq!(
            self.decision_level(),
            0,
            "clauses must be added at decision level 0"
        );
        if !self.ok {
            return false;
        }
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        for &lit in &clause {
            assert!(
                lit.var().index() < self.num_vars(),
                "literal uses unknown variable"
            );
        }
        clause.sort();
        clause.dedup();
        // A literal is `var << 1 | negated`, so sorting puts `v` right
        // before `¬v`: one pass over neighbours finds every tautology.
        if clause.windows(2).any(|pair| pair[1] == !pair[0]) {
            return true;
        }
        // Clauses satisfied at level 0 are dropped; false literals at level
        // 0 are removed.
        let mut simplified: Vec<Lit> = Vec::with_capacity(clause.len());
        for &lit in &clause {
            match self.value_lit(lit) {
                LBool::True => return true,
                LBool::False => continue,
                LBool::Undef => simplified.push(lit),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(simplified, false, 0);
                true
            }
        }
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under the given assumption literals. The solver
    /// remains usable afterwards: more clauses and variables can be added and
    /// `solve*` can be called again (incremental solving).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.stats.solve_calls += 1;
        if !self.ok {
            return SatResult::Unsat;
        }
        if self.config.deadline.expired() {
            return SatResult::Unknown;
        }
        let conflict_budget = self
            .config
            .conflict_limit
            .map(|limit| self.stats.conflicts + limit);
        let mut restarts = 0u64;
        loop {
            let interval = luby(2.0, restarts) * RESTART_BASE;
            let outcome = self.search(interval as u64, assumptions, conflict_budget);
            self.cancel_until(0);
            match outcome {
                SearchOutcome::Sat(model) => return SatResult::Sat(model),
                SearchOutcome::Unsat => return SatResult::Unsat,
                SearchOutcome::Budget => return SatResult::Unknown,
                SearchOutcome::Restart => {
                    restarts += 1;
                    self.stats.restarts += 1;
                }
            }
        }
    }

    fn search(
        &mut self,
        conflicts_allowed: u64,
        assumptions: &[Lit],
        conflict_budget: Option<u64>,
    ) -> SearchOutcome {
        let mut local_conflicts = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                local_conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                let (learnt, backtrack_level, lbd) = self.analyze(conflict);
                self.cancel_until(backtrack_level);
                self.record_learnt(learnt, lbd);
                self.decay_activities();
                if self.config.deadline.expired() {
                    return SearchOutcome::Budget;
                }
            } else {
                if let Some(budget) = conflict_budget {
                    if self.stats.conflicts >= budget {
                        return SearchOutcome::Budget;
                    }
                }
                // Only the cancellation flag (one relaxed load) is polled
                // per decision: the clock read and the expiry gate's
                // atomic increment stay on the conflict branch, which is
                // orders of magnitude rarer.
                if self.config.deadline.is_cancelled() {
                    return SearchOutcome::Budget;
                }
                if local_conflicts >= conflicts_allowed {
                    return SearchOutcome::Restart;
                }
                if self.learnt_count > self.max_learnts() {
                    self.reduce_learnts();
                }

                // Place assumptions before free decisions.
                let mut next_decision: Option<Lit> = None;
                while self.decision_level() < assumptions.len() {
                    let assumption = assumptions[self.decision_level()];
                    match self.value_lit(assumption) {
                        LBool::True => {
                            // Already satisfied: open a dummy level so the
                            // decision level keeps tracking the assumption
                            // index.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => return SearchOutcome::Unsat,
                        LBool::Undef => {
                            next_decision = Some(assumption);
                            break;
                        }
                    }
                }
                let decision = match next_decision {
                    Some(lit) => lit,
                    None => match self.pick_branch_lit() {
                        Some(lit) => lit,
                        None => return SearchOutcome::Sat(self.extract_model()),
                    },
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(decision, None);
            }
        }
    }

    fn extract_model(&self) -> Model {
        Model {
            values: self
                .assigns
                .iter()
                .map(|&a| matches!(a, LBool::True))
                .collect(),
        }
    }

    fn max_learnts(&self) -> usize {
        MAX_LEARNTS_BASE + (self.stats.conflicts / 3) as usize
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn value_lit(&self, lit: Lit) -> LBool {
        match self.assigns[lit.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if lit.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if lit.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<usize>) {
        let var = lit.var().index();
        self.assigns[var] = if lit.is_positive() {
            LBool::True
        } else {
            LBool::False
        };
        self.level[var] = self.decision_level() as u32;
        self.reason[var] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let propagated = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // `propagated` just became true, so `!propagated` became false.
            // Clauses watching `!propagated` live in `watches[propagated]`
            // (watch lists are indexed by the negation of the watched
            // literal, as in MiniSat).
            let false_lit = !propagated;
            // The list is compacted in place (read cursor `index`, write
            // cursor `keep`) instead of being rebuilt into a fresh Vec:
            // propagation is the solver's hottest loop and this keeps it
            // allocation-free. New watches discovered along the way go to
            // *other* lists (`!new_watch` is never `propagated`), so the
            // taken buffer is safe to reuse.
            let mut watchers = std::mem::take(&mut self.watches[propagated.code()]);
            let mut keep = 0usize;
            let mut conflict: Option<usize> = None;
            let mut index = 0;
            while index < watchers.len() {
                let watcher = watchers[index];
                index += 1;
                if conflict.is_some() {
                    watchers[keep] = watcher;
                    keep += 1;
                    continue;
                }
                if self.clauses[watcher.clause].deleted {
                    continue;
                }
                // Cheap check: if the blocker is already true the clause is
                // satisfied and the watch can stay.
                if self.value_lit(watcher.blocker) == LBool::True {
                    watchers[keep] = watcher;
                    keep += 1;
                    continue;
                }
                let clause_index = watcher.clause;
                let first = {
                    let clause = &mut self.clauses[clause_index];
                    // Ensure the false literal sits at position 1.
                    if clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                    debug_assert_eq!(clause.lits[1], false_lit);
                    clause.lits[0]
                };
                if first != watcher.blocker && self.value_lit(first) == LBool::True {
                    watchers[keep] = Watcher {
                        clause: clause_index,
                        blocker: first,
                    };
                    keep += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                {
                    let clause = &mut self.clauses[clause_index];
                    for k in 2..clause.lits.len() {
                        let candidate = clause.lits[k];
                        let candidate_false = match self.assigns[candidate.var().index()] {
                            LBool::Undef => false,
                            LBool::True => candidate.is_negative(),
                            LBool::False => candidate.is_positive(),
                        };
                        if !candidate_false {
                            clause.lits.swap(1, k);
                            moved = true;
                            break;
                        }
                    }
                }
                if moved {
                    let new_watch = self.clauses[clause_index].lits[1];
                    self.watches[(!new_watch).code()].push(Watcher {
                        clause: clause_index,
                        blocker: first,
                    });
                    continue;
                }
                // Clause is unit or conflicting.
                watchers[keep] = Watcher {
                    clause: clause_index,
                    blocker: first,
                };
                keep += 1;
                if self.value_lit(first) == LBool::False {
                    conflict = Some(clause_index);
                    self.qhead = self.trail.len();
                } else {
                    self.unchecked_enqueue(first, Some(clause_index));
                }
            }
            watchers.truncate(keep);
            self.watches[propagated.code()] = watchers;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backtrack level and the clause LBD.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, usize, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut clause_index = conflict;
        let mut trail_index = self.trail.len();

        loop {
            {
                if self.clauses[clause_index].learnt {
                    self.bump_clause_activity(clause_index);
                }
                let lits: Vec<Lit> = self.clauses[clause_index].lits.clone();
                let skip = usize::from(p.is_some());
                for &q in lits.iter().skip(skip) {
                    let var = q.var().index();
                    if !self.seen[var] && self.level[var] > 0 {
                        self.bump_var_activity(q.var());
                        self.seen[var] = true;
                        if self.level[var] as usize >= self.decision_level() {
                            counter += 1;
                        } else {
                            learnt.push(q);
                        }
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            loop {
                trail_index -= 1;
                if self.seen[self.trail[trail_index].var().index()] {
                    break;
                }
            }
            let pivot = self.trail[trail_index];
            p = Some(pivot);
            self.seen[pivot.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            clause_index = self.reason[pivot.var().index()]
                .expect("non-decision literal must have a reason clause");
        }
        learnt[0] = !p.expect("conflict analysis visits at least one literal");

        // Clear the `seen` flags of the remaining literals.
        for &lit in learnt.iter().skip(1) {
            self.seen[lit.var().index()] = false;
        }

        // Backtrack level: the highest level among the non-asserting lits.
        let (backtrack_level, lbd) = if learnt.len() == 1 {
            (0, 1)
        } else {
            let mut max_index = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_index].var().index()]
                {
                    max_index = i;
                }
            }
            learnt.swap(1, max_index);
            let mut levels: Vec<u32> = learnt.iter().map(|l| self.level[l.var().index()]).collect();
            levels.sort_unstable();
            levels.dedup();
            (
                self.level[learnt[1].var().index()] as usize,
                levels.len() as u32,
            )
        };
        (learnt, backtrack_level, lbd)
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>, lbd: u32) {
        if learnt.len() == 1 {
            self.unchecked_enqueue(learnt[0], None);
        } else {
            let asserting = learnt[0];
            let clause_index = self.attach_clause(learnt, true, lbd);
            self.unchecked_enqueue(asserting, Some(clause_index));
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> usize {
        debug_assert!(lits.len() >= 2);
        let index = self.clauses.len();
        self.watches[(!lits[0]).code()].push(Watcher {
            clause: index,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            clause: index,
            blocker: lits[0],
        });
        if learnt {
            self.learnt_count += 1;
            self.stats.learnt_clauses += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: self.cla_inc,
            lbd,
            deleted: false,
        });
        index
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let new_len = self.trail_lim[level];
        for index in (new_len..self.trail.len()).rev() {
            let lit = self.trail[index];
            let var = lit.var().index();
            self.polarity[var] = lit.is_positive();
            self.assigns[var] = LBool::Undef;
            self.reason[var] = None;
            if !self.heap.contains(var) {
                self.heap.insert(var, &self.activity);
            }
        }
        self.trail.truncate(new_len);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        loop {
            let var = self.heap.pop_max(&self.activity)?;
            if self.assigns[var] == LBool::Undef {
                let polarity = self.polarity[var];
                return Some(Lit::with_polarity(Var(var as u32), polarity));
            }
        }
    }

    fn bump_var_activity(&mut self, var: Var) {
        let index = var.index();
        self.activity[index] += self.var_inc;
        if self.activity[index] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.decrease_key(index, &self.activity);
    }

    fn bump_clause_activity(&mut self, clause: usize) {
        self.clauses[clause].activity += self.cla_inc;
        if self.clauses[clause].activity > 1e20 {
            for c in &mut self.clauses {
                if c.learnt {
                    c.activity *= 1e-20;
                }
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLAUSE_DECAY;
    }

    /// Discards roughly half of the learnt clauses, preferring to keep
    /// clauses with low LBD and high activity. Clauses currently used as
    /// reasons are kept.
    fn reduce_learnts(&mut self) {
        let locked: Vec<bool> = {
            let mut locked = vec![false; self.clauses.len()];
            for &reason in self.reason.iter().flatten() {
                locked[reason] = true;
            }
            locked
        };
        let mut candidates: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                let c = &self.clauses[i];
                c.learnt && !c.deleted && !locked[i] && c.lits.len() > 2
            })
            .collect();
        candidates.sort_by(|&a, &b| {
            let ca = &self.clauses[a];
            let cb = &self.clauses[b];
            cb.lbd.cmp(&ca.lbd).then(
                ca.activity
                    .partial_cmp(&cb.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_remove = candidates.len() / 2;
        for &index in candidates.iter().take(to_remove) {
            self.clauses[index].deleted = true;
            self.learnt_count -= 1;
            self.stats.removed_clauses += 1;
        }
        // Purge watchers of deleted clauses.
        for list in &mut self.watches {
            list.retain(|w| !self.clauses[w.clause].deleted);
        }
    }
}

/// The Luby restart sequence scaled by `y` (`y = 2` gives 1,1,2,1,1,2,4,...).
fn luby(y: f64, mut x: u64) -> f64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::CancelFlag;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn lit(solver_vars: &[Var], index: isize) -> Lit {
        if index > 0 {
            Lit::positive(solver_vars[(index - 1) as usize])
        } else {
            Lit::negative(solver_vars[(-index - 1) as usize])
        }
    }

    /// Brute-force reference solver for cross-checking.
    fn brute_force(num_vars: usize, clauses: &[Vec<isize>]) -> Option<Vec<bool>> {
        for assignment in 0u64..(1u64 << num_vars) {
            let values: Vec<bool> = (0..num_vars).map(|i| assignment >> i & 1 != 0).collect();
            let ok = clauses.iter().all(|clause| {
                clause.iter().any(|&l| {
                    let v = l.unsigned_abs() - 1;
                    if l > 0 {
                        values[v]
                    } else {
                        !values[v]
                    }
                })
            });
            if ok {
                return Some(values);
            }
        }
        None
    }

    fn build(num_vars: usize, clauses: &[Vec<isize>]) -> (Solver, Vec<Var>) {
        build_with(SolverConfig::default(), num_vars, clauses)
    }

    fn build_with(
        config: SolverConfig,
        num_vars: usize,
        clauses: &[Vec<isize>],
    ) -> (Solver, Vec<Var>) {
        let mut solver = Solver::with_config(config);
        let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
        for clause in clauses {
            solver.add_clause(clause.iter().map(|&l| lit(&vars, l)));
        }
        (solver, vars)
    }

    #[test]
    fn simple_sat_and_model() {
        let (mut solver, vars) = build(2, &[vec![1, 2], vec![-1, 2]]);
        match solver.solve() {
            SatResult::Sat(model) => assert!(model.value(vars[1])),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn simple_unsat() {
        let (mut solver, _) = build(1, &[vec![1], vec![-1]]);
        assert!(solver.solve().is_unsat());
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut solver = Solver::new();
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn unsat_xor_chain() {
        // x1 ^ x2, x2 ^ x3, x1 ^ x3 with odd parity constraints is UNSAT:
        // encode x1 != x2, x2 != x3, x1 != x3 (an odd cycle).
        let clauses = vec![
            vec![1, 2],
            vec![-1, -2],
            vec![2, 3],
            vec![-2, -3],
            vec![1, 3],
            vec![-1, -3],
        ];
        let (mut solver, _) = build(3, &clauses);
        assert!(solver.solve().is_unsat());
        assert!(brute_force(3, &clauses).is_none());
    }

    #[test]
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        // Variables p_{i,j}: pigeon i in hole j; i in 0..3, j in 0..2.
        // var index = i * 2 + j + 1.
        let mut clauses: Vec<Vec<isize>> = Vec::new();
        for i in 0..3isize {
            clauses.push(vec![i * 2 + 1, i * 2 + 2]);
        }
        for j in 0..2isize {
            for i1 in 0..3isize {
                for i2 in (i1 + 1)..3isize {
                    clauses.push(vec![-(i1 * 2 + j + 1), -(i2 * 2 + j + 1)]);
                }
            }
        }
        let (mut solver, _) = build(6, &clauses);
        assert!(solver.solve().is_unsat());
    }

    #[test]
    fn assumptions_are_respected_and_incremental() {
        let (mut solver, vars) = build(3, &[vec![1, 2, 3]]);
        // Under assumptions ¬1 ¬2 the only model sets 3.
        let result =
            solver.solve_with_assumptions(&[Lit::negative(vars[0]), Lit::negative(vars[1])]);
        match result {
            SatResult::Sat(model) => {
                assert!(!model.value(vars[0]));
                assert!(!model.value(vars[1]));
                assert!(model.value(vars[2]));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        // Now also assume ¬3: UNSAT under assumptions, but still SAT without.
        let result = solver.solve_with_assumptions(&[
            Lit::negative(vars[0]),
            Lit::negative(vars[1]),
            Lit::negative(vars[2]),
        ]);
        assert!(result.is_unsat());
        assert!(solver.solve().is_sat());
        // Incremental: add a clause forcing var0, re-solve.
        solver.add_clause([Lit::positive(vars[0])]);
        match solver.solve() {
            SatResult::Sat(model) => assert!(model.value(vars[0])),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_unit_clauses_detected_at_add_time() {
        let mut solver = Solver::new();
        let a = solver.new_var();
        assert!(solver.add_clause([Lit::positive(a)]));
        assert!(!solver.add_clause([Lit::negative(a)]));
        assert!(solver.solve().is_unsat());
    }

    #[test]
    fn tautologies_are_dropped_in_any_literal_order() {
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| solver.new_var()).collect();
        let (x, others) = (vars[0], &vars[1..]);
        let mut clause = vec![Lit::positive(x), Lit::negative(x)];
        clause.extend(others.iter().map(|&v| Lit::negative(v)));
        // Every rotation of the clause and of its reverse: the complementary
        // pair lands at every distance and in both orders.
        let mut orders = Vec::new();
        for base in [clause.clone(), clause.iter().rev().copied().collect()] {
            for shift in 0..base.len() {
                let mut order = base.clone();
                order.rotate_left(shift);
                orders.push(order);
            }
        }
        let before = solver.num_clauses();
        for order in orders {
            assert!(solver.add_clause(order));
            assert_eq!(solver.num_clauses(), before, "a tautology was stored");
        }
        // The dropped clause constrains nothing: with every other literal
        // false, `x` stays free in both phases.
        for &v in others {
            assert!(solver.add_clause([Lit::positive(v)]));
        }
        for phase in [Lit::positive(x), Lit::negative(x)] {
            assert!(solver.solve_with_assumptions(&[phase]).is_sat());
        }
    }

    #[test]
    fn budget_returns_unknown() {
        // A hard pigeonhole instance with a conflict budget of 1 should run
        // out of budget (or, if solved that fast, at least not crash).
        let (mut solver, _) = pigeonhole(7, 6, SolverConfig::default());
        solver.set_conflict_limit(Some(5));
        let result = solver.solve();
        assert!(matches!(result, SatResult::Unknown | SatResult::Unsat));
        // With the budget lifted the instance is decided (UNSAT).
        solver.set_conflict_limit(None);
        assert!(solver.solve().is_unsat());
    }

    fn pigeonhole(pigeons: isize, holes: isize, config: SolverConfig) -> (Solver, Vec<Var>) {
        let mut clauses: Vec<Vec<isize>> = Vec::new();
        for i in 0..pigeons {
            clauses.push((0..holes).map(|j| i * holes + j + 1).collect());
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    clauses.push(vec![-(i1 * holes + j + 1), -(i2 * holes + j + 1)]);
                }
            }
        }
        build_with(config, (pigeons * holes) as usize, &clauses)
    }

    /// A solver config whose deadline never expires but shares `flag`.
    fn cancellable(flag: &CancelFlag) -> SolverConfig {
        SolverConfig {
            deadline: Deadline::unlimited().with_cancel(flag.clone()),
            ..Default::default()
        }
    }

    #[test]
    fn pre_raised_cancel_flag_aborts_at_call_entry() {
        let flag = CancelFlag::new(AtomicBool::new(true));
        let (mut solver, _) = build_with(cancellable(&flag), 3, &[vec![1, 2], vec![-1, 3]]);
        assert!(matches!(solver.solve(), SatResult::Unknown));
        // Lowering the flag restores the solver.
        flag.store(false, Ordering::Relaxed);
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn cancel_flag_trips_mid_solve() {
        // PHP(12, 11) is far beyond what a CDCL solver decides in seconds
        // (pigeonhole needs exponential resolution proofs), so the only way
        // the background solve below returns promptly is the cancellation
        // flag raised mid-search.
        let flag = CancelFlag::default();
        let (mut solver, _) = pigeonhole(12, 11, cancellable(&flag));
        let worker = std::thread::spawn(move || solver.solve());
        std::thread::sleep(Duration::from_millis(30));
        flag.store(true, Ordering::Relaxed);
        let result = worker.join().expect("solver thread panicked");
        assert!(matches!(result, SatResult::Unknown));
    }

    #[test]
    fn stats_are_populated() {
        let (mut solver, _) = build(3, &[vec![1, 2], vec![-1, 3], vec![-2, -3], vec![1, 3]]);
        let _ = solver.solve();
        let stats = solver.stats();
        assert!(stats.propagations > 0 || stats.decisions > 0);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 2.0, 1.0];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(2.0, i as u64), e, "luby({i})");
        }
    }

    proptest::proptest! {
        /// Random 3-SAT instances agree with the brute-force reference, and
        /// returned models actually satisfy the formula.
        #[test]
        fn prop_matches_brute_force(seed in 0u64..300) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let num_vars = rng.gen_range(3..9usize);
            let num_clauses = rng.gen_range(2..30usize);
            let clauses: Vec<Vec<isize>> = (0..num_clauses)
                .map(|_| {
                    let len = rng.gen_range(1..4usize);
                    (0..len)
                        .map(|_| {
                            let v = rng.gen_range(1..=num_vars) as isize;
                            if rng.gen_bool(0.5) { v } else { -v }
                        })
                        .collect()
                })
                .collect();
            let reference = brute_force(num_vars, &clauses);
            let (mut solver, vars) = build(num_vars, &clauses);
            let result = solver.solve();
            match (reference, result) {
                (Some(_), SatResult::Sat(model)) => {
                    // Verify the model satisfies every clause.
                    for clause in &clauses {
                        let satisfied = clause.iter().any(|&l| {
                            let value = model.value(vars[l.unsigned_abs() - 1]);
                            if l > 0 { value } else { !value }
                        });
                        proptest::prop_assert!(satisfied, "model violates clause {clause:?}");
                    }
                }
                (None, SatResult::Unsat) => {}
                (reference, result) => {
                    return Err(proptest::test_runner::TestCaseError::fail(
                        format!("disagreement: brute force {:?}, solver {:?}",
                                reference.is_some(), result.is_sat()),
                    ));
                }
            }
        }
    }
}

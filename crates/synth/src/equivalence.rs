//! Combinational equivalence checking through a FRAIG (functionally reduced
//! AIG; Mishchenko, Chatterjee, Jiang and Brayton, 2005, as in ABC's
//! `fraig`/`cec`).
//!
//! Both circuits are lowered into **one** shared [`Aig`] (inputs matched by
//! name), so logic common to the two halves hashes to a single node before
//! any solver exists — outputs that become literally identical edges are
//! proven equivalent for free. What hashing cannot close is settled by
//! substitution:
//!
//! 1. **Packed simulation** — seeded 64-lane sweeps over every node (the
//!    first sweep's lanes 0 and 1 carry the all-zeros and all-ones
//!    patterns) partition the nodes into candidate equivalence classes
//!    (signature equal up to complementation). An output pair whose
//!    signatures differ is already a counterexample, and the check ends
//!    there.
//! 2. **Substitution sweep** — the output cone is rebuilt node by node, in
//!    topological order, into a fresh [`Aig`] from its fanins'
//!    representatives, so structural hashing merges a node with its class
//!    representative for free whenever their fanins already merged. SAT is
//!    asked only about a candidate hashing leaves open, on a CNF loaded
//!    lazily from the rebuilt graph (a node gets its clauses the first time
//!    a query reaches it). A proven node is replaced by its representative,
//!    so the logic above it hashes together too; a SAT answer is a
//!    counterexample pattern that re-simulates and refutes later candidates
//!    for free.
//! 3. **Outputs** — an output pair whose rebuilt edges are equal is proven
//!    with no query; each other pair gets its own assumption query, and
//!    only queries the budget leaves undecided fall back to one monolithic
//!    miter solve.
//!
//! Every entry point runs this pipeline; there is no second checker.

use crate::SynthError;
use kratt_netlist::aig::{Aig, AigLit};
use kratt_netlist::Circuit;
use kratt_sat::{Deadline, Lit, Model, SatResult, Solver, SolverConfig, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Outcome of an equivalence check between two circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivalenceResult {
    /// The circuits compute the same function on every shared input pattern.
    Equivalent,
    /// The circuits differ; the counterexample assigns every primary input by
    /// name.
    NotEquivalent(Vec<(String, bool)>),
    /// The solver budget was exhausted before a verdict was reached.
    Unknown,
}

impl EquivalenceResult {
    /// `true` if the result is [`EquivalenceResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivalenceResult::Equivalent)
    }
}

/// Work counters of one FRAIG equivalence check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FraigStats {
    /// AND nodes of the shared miter AIG.
    pub aig_nodes: usize,
    /// Candidate equivalence classes with at least two members.
    pub candidate_classes: usize,
    /// Class members that structural hashing rebuilt onto their
    /// representative, because their fanins had already merged: no SAT call.
    pub hashed_merges: usize,
    /// Class members a SAT query proved equal to their representative, and
    /// that the sweep then substituted by it.
    pub proved_merges: usize,
    /// Candidate pairs refuted by a counterexample pattern before any SAT
    /// call was spent on them.
    pub simulation_refutations: usize,
    /// Total SAT queries (merge attempts plus output pairs).
    pub sat_calls: usize,
    /// Whether the monolithic full-miter fallback ran.
    pub fell_back_to_miter: bool,
    /// Wall-clock time of the substitution sweep alone (the rebuild with
    /// its merges and refutations; simulation and the output stage are
    /// excluded).
    pub sweep_time: Duration,
}

/// Conflict cap of each *merge* query — applied whether or not the caller
/// gave a budget (a larger caller budget is clamped down to this for the
/// sweep). An inconclusive merge is simply not taken (sound — merging is an
/// optimisation), so individual internal pairs may not stall the sweep.
/// Output queries run under the caller's unclamped budget and stay complete.
const MERGE_CONFLICT_CAP: u64 = 20_000;

/// Conflict budget of one *merge* query: the caller's per-query limit
/// clamped down to [`MERGE_CONFLICT_CAP`] (and the cap itself when the
/// caller gave none). Merges are an optimisation, so an inconclusive query
/// is skipped rather than allowed to stall the sweep.
fn merge_query_cap(conflict_limit: Option<u64>) -> u64 {
    conflict_limit
        .unwrap_or(MERGE_CONFLICT_CAP)
        .min(MERGE_CONFLICT_CAP)
}

/// Conflict budget of one *output* query: exactly the caller's per-query
/// limit, deliberately **not** clamped by [`MERGE_CONFLICT_CAP`] — output
/// queries decide the verdict, so an unbudgeted caller gets a complete
/// (unbounded) solve even though its merge queries were capped.
fn output_query_budget(conflict_limit: Option<u64>) -> Option<u64> {
    conflict_limit
}

/// Seeded 64-lane sweeps used to build the candidate signatures.
const SIGNATURE_SWEEPS: usize = 8;

/// Checks whether two circuits with the same interface compute the same
/// outputs for every input pattern, with no resource budget.
///
/// Inputs are matched *by name* (order does not matter); outputs are matched
/// by position. Inputs present in only one of the circuits are allowed — they
/// are treated as unconstrained, which is the behaviour needed when comparing
/// a locked circuit (with key inputs pinned) against the original.
///
/// # Errors
///
/// Returns [`SynthError::InterfaceMismatch`] if the output counts differ.
pub fn check_equivalence(a: &Circuit, b: &Circuit) -> Result<EquivalenceResult, SynthError> {
    check_equivalence_with_budget(a, b, None, None)
}

/// [`check_equivalence`] with optional conflict and wall-clock budgets.
///
/// `time_limit` bounds the *whole* pipeline (one absolute deadline shared by
/// every SAT query). `conflict_limit` is a **per-query** cap, not a total:
/// the sweep makes one query per candidate merge hashing leaves open and
/// one per output pair that does not rebuild to one edge, so total
/// conflicts can reach `conflict_limit × queries` — pass a `time_limit`
/// when the overall budget matters.
///
/// # Errors
///
/// Returns [`SynthError::InterfaceMismatch`] if the output counts differ.
pub fn check_equivalence_with_budget(
    a: &Circuit,
    b: &Circuit,
    conflict_limit: Option<u64>,
    time_limit: Option<Duration>,
) -> Result<EquivalenceResult, SynthError> {
    check_equivalence_with_stats(a, b, conflict_limit, time_limit).map(|(result, _)| result)
}

/// [`check_equivalence_with_budget`], additionally reporting how the FRAIG
/// earned its verdict.
///
/// # Errors
///
/// Returns [`SynthError::InterfaceMismatch`] if the output counts differ.
pub fn check_equivalence_with_stats(
    a: &Circuit,
    b: &Circuit,
    conflict_limit: Option<u64>,
    time_limit: Option<Duration>,
) -> Result<(EquivalenceResult, FraigStats), SynthError> {
    check_interfaces(a, b)?;
    let mut stats = FraigStats::default();

    // --- One shared AIG: common logic hashes together. ---------------------
    let mut aig = Aig::new(format!("{}_eq_{}", a.name(), b.name()));
    let outs_a = aig.add_circuit(a)?;
    let outs_b = aig.add_circuit(b)?;
    stats.aig_nodes = aig.num_ands();
    if outs_a == outs_b {
        return Ok((EquivalenceResult::Equivalent, stats));
    }
    let deadline = Deadline::started(time_limit);

    // --- Packed simulation: refute outright, or form candidate classes. ----
    let signatures = Signatures::new(&aig);
    if let Some(pattern) = signatures.distinguishing_pattern(&outs_a, &outs_b) {
        return Ok((
            EquivalenceResult::NotEquivalent(named(&aig, &pattern)),
            stats,
        ));
    }
    let cone = aig.cone(aig.outputs());
    let (representative, classes) = signatures.classes(&cone);
    stats.candidate_classes = classes;

    // --- Substitution sweep: rebuild the cone onto proven representatives. -
    let sweep_start = Instant::now();
    let mut fraig = Fraig::new(
        &aig,
        SolverConfig {
            conflict_limit: Some(merge_query_cap(conflict_limit)),
            deadline: deadline.clone(),
        },
    );
    let budget_hit = fraig.sweep(&aig, &cone, &representative, &deadline, &mut stats);
    stats.sweep_time = sweep_start.elapsed();

    // --- Outputs: equal rebuilt edges are proven; query the rest. ----------
    fraig
        .solver
        .set_conflict_limit(output_query_budget(conflict_limit));
    let mut survivors: Vec<(AigLit, AigLit)> = Vec::new();
    for (&la, &lb) in outs_a.iter().zip(&outs_b) {
        let (x, y) = (fraig.edge(la), fraig.edge(lb));
        if x == y {
            continue;
        }
        if budget_hit {
            survivors.push((x, y));
            continue;
        }
        stats.sat_calls += 1;
        match fraig.differ(x, y) {
            SatResult::Unsat => {}
            SatResult::Sat(model) => {
                return Ok((
                    EquivalenceResult::NotEquivalent(named(&aig, &fraig.pattern(&model))),
                    stats,
                ));
            }
            SatResult::Unknown => survivors.push((x, y)),
        }
    }
    if survivors.is_empty() {
        return Ok((EquivalenceResult::Equivalent, stats));
    }

    // --- Fallback: one monolithic miter over the surviving pairs. ----------
    stats.fell_back_to_miter = true;
    stats.sat_calls += 1;
    let diffs: Vec<Lit> = survivors
        .iter()
        .map(|&(x, y)| {
            let (lit_x, lit_y) = (fraig.lit(x), fraig.lit(y));
            assume_difference(&mut fraig.solver, lit_x, lit_y)
        })
        .collect();
    let any = fraig.solver.new_var();
    let mut clause: Vec<Lit> = diffs.clone();
    clause.push(Lit::negative(any));
    fraig.solver.add_clause(clause);
    for diff in diffs {
        fraig.solver.add_clause([Lit::positive(any), !diff]);
    }
    match fraig.solver.solve_with_assumptions(&[Lit::positive(any)]) {
        SatResult::Unsat => Ok((EquivalenceResult::Equivalent, stats)),
        SatResult::Sat(model) => Ok((
            EquivalenceResult::NotEquivalent(named(&aig, &fraig.pattern(&model))),
            stats,
        )),
        SatResult::Unknown => Ok((EquivalenceResult::Unknown, stats)),
    }
}

fn check_interfaces(a: &Circuit, b: &Circuit) -> Result<(), SynthError> {
    if a.num_outputs() != b.num_outputs() {
        return Err(SynthError::InterfaceMismatch(format!(
            "`{}` has {} outputs, `{}` has {}",
            a.name(),
            a.num_outputs(),
            b.name(),
            b.num_outputs()
        )));
    }
    Ok(())
}

/// The seeded packed-simulation signatures of every node of the shared AIG.
struct Signatures {
    /// The input words of each sweep, one per AIG input.
    patterns: Vec<Vec<u64>>,
    /// Each node's value word in every sweep, indexed by node.
    words: Vec<[u64; SIGNATURE_SWEEPS]>,
}

impl Signatures {
    fn new(aig: &Aig) -> Self {
        let mut rng = StdRng::seed_from_u64(0xF4A1_6EED);
        let mut patterns = Vec::with_capacity(SIGNATURE_SWEEPS);
        let mut words = vec![[0u64; SIGNATURE_SWEEPS]; aig.num_nodes()];
        for sweep in 0..SIGNATURE_SWEEPS {
            let mut inputs: Vec<u64> = (0..aig.num_inputs()).map(|_| rng.gen()).collect();
            if sweep == 0 {
                // Anchor lanes: lane 0 is the all-zeros pattern, lane 1 the
                // all-ones pattern.
                for word in &mut inputs {
                    *word = *word & !0b11 | 0b10;
                }
            }
            for (node, value) in words.iter_mut().zip(aig.eval_words(&inputs)) {
                node[sweep] = value;
            }
            patterns.push(inputs);
        }
        Signatures { patterns, words }
    }

    /// The value word of an edge in one sweep.
    fn word(&self, lit: AigLit, sweep: usize) -> u64 {
        let word = self.words[lit.node() as usize][sweep];
        if lit.is_complemented() {
            !word
        } else {
            word
        }
    }

    /// The first simulated input pattern (one bit per AIG input) on which
    /// some output pair differs, if any.
    fn distinguishing_pattern(&self, outs_a: &[AigLit], outs_b: &[AigLit]) -> Option<Vec<bool>> {
        (0..SIGNATURE_SWEEPS).find_map(|sweep| {
            let differ = outs_a
                .iter()
                .zip(outs_b)
                .map(|(&la, &lb)| self.word(la, sweep) ^ self.word(lb, sweep))
                .find(|&diff| diff != 0)?;
            let lane = differ.trailing_zeros();
            Some(
                self.patterns[sweep]
                    .iter()
                    .map(|word| word >> lane & 1 != 0)
                    .collect(),
            )
        })
    }

    /// Groups the nodes marked in `cone` (the output cone) by
    /// phase-normalised signature (the phase is a node's value under the
    /// all-zeros pattern). Returns, per node, the edge of its class
    /// representative — the lowest-index member, phase-adjusted so that it
    /// equals the node on every simulated pattern — for every member but
    /// the representative itself, and the number of classes with at least
    /// two members.
    fn classes(self, cone: &[bool]) -> (Vec<Option<AigLit>>, usize) {
        let mut first: HashMap<[u64; SIGNATURE_SWEEPS], (u32, bool, bool)> = HashMap::new();
        let mut representative = vec![None; cone.len()];
        let mut classes = 0;
        for node in 1..cone.len() as u32 {
            if !cone[node as usize] {
                continue;
            }
            let mut signature = self.words[node as usize];
            let phase = signature[0] & 1 != 0;
            if phase {
                signature.iter_mut().for_each(|word| *word = !*word);
            }
            match first.entry(signature) {
                Entry::Vacant(slot) => {
                    slot.insert((node, phase, false));
                }
                Entry::Occupied(mut slot) => {
                    let (rep, rep_phase, shared) = slot.get_mut();
                    if !*shared {
                        *shared = true;
                        classes += 1;
                    }
                    representative[node as usize] = Some(AigLit::new(*rep, *rep_phase != phase));
                }
            }
        }
        (representative, classes)
    }
}

/// The rebuilt graph of the sweep, with the lazily loaded CNF image its
/// queries run on.
struct Fraig {
    /// The rebuilt graph. Its inputs are the shared AIG's, in order.
    graph: Aig,
    /// Each shared-AIG node's edge in `graph`, once the sweep reached it.
    map: Vec<AigLit>,
    /// The solver all queries share.
    solver: Solver,
    /// The solver variable of each `graph` node, once a query reached it.
    vars: Vec<Option<Var>>,
    /// A variable fixed true, the image of the constant node.
    truth: Var,
}

impl Fraig {
    fn new(aig: &Aig, config: SolverConfig) -> Self {
        let mut graph = Aig::new(format!("{}_fraig", aig.name()));
        let mut map = vec![AigLit::FALSE; aig.num_nodes()];
        for (&node, name) in aig.input_nodes().iter().zip(aig.input_names()) {
            map[node as usize] = graph.add_input(name.as_str());
        }
        let mut solver = Solver::with_config(config);
        let truth = solver.new_var();
        solver.add_clause([Lit::positive(truth)]);
        Fraig {
            graph,
            map,
            solver,
            vars: Vec::new(),
            truth,
        }
    }

    /// The rebuilt edge of a shared-AIG edge the sweep has reached.
    fn edge(&self, lit: AigLit) -> AigLit {
        let mapped = self.map[lit.node() as usize];
        if lit.is_complemented() {
            mapped.complement()
        } else {
            mapped
        }
    }

    /// Rebuilds the output cone of `aig` (the nodes marked in `cone`) in
    /// topological order. Each AND node is rebuilt from its fanins' edges; a
    /// node with a class representative then merges by hashing when it
    /// rebuilt onto the representative's edge, is refuted when a
    /// counterexample pattern tells the two apart, and otherwise asks SAT —
    /// a proven node maps to the representative's edge. Once the deadline
    /// fires, querying stops but hashing continues. Counts into `stats` and
    /// returns whether the deadline fired.
    fn sweep(
        &mut self,
        aig: &Aig,
        cone: &[bool],
        representative: &[Option<AigLit>],
        deadline: &Deadline,
        stats: &mut FraigStats,
    ) -> bool {
        let mut refinements = Refinements::new(aig.num_inputs());
        let mut querying = true;
        for node in 1..aig.num_nodes() as u32 {
            if !cone[node as usize] || !aig.is_and(node) {
                continue;
            }
            let (f0, f1) = aig.fanins(node);
            let (e0, e1) = (self.edge(f0), self.edge(f1));
            let built = self.graph.and(e0, e1);
            self.map[node as usize] = built;
            let Some(rep) = representative[node as usize] else {
                continue;
            };
            let target = self.edge(rep);
            if built == target {
                stats.hashed_merges += 1;
                continue;
            }
            if !querying {
                continue;
            }
            if refinements.refutes(rep, node) {
                stats.simulation_refutations += 1;
                continue;
            }
            stats.sat_calls += 1;
            match self.differ(built, target) {
                SatResult::Unsat => {
                    self.map[node as usize] = target;
                    stats.proved_merges += 1;
                }
                SatResult::Sat(model) => refinements.push(aig, &self.pattern(&model)),
                SatResult::Unknown => {
                    // A conflict-capped merge query is simply not taken; a
                    // fired deadline ends the querying.
                    querying = !deadline.expired();
                }
            }
        }
        !querying
    }

    /// The solver literal of a rebuilt edge, first giving every node of its
    /// cone that no query reached yet a variable: an input gets a fresh one,
    /// an AND node its three Tseitin clauses.
    fn lit(&mut self, edge: AigLit) -> Lit {
        self.vars.resize(self.graph.num_nodes(), None);
        let mut stack = vec![edge.node()];
        while let Some(&node) = stack.last() {
            if node == 0 || self.vars[node as usize].is_some() {
                stack.pop();
                continue;
            }
            if !self.graph.is_and(node) {
                self.vars[node as usize] = Some(self.solver.new_var());
                stack.pop();
                continue;
            }
            let (f0, f1) = self.graph.fanins(node);
            let depth = stack.len();
            for fanin in [f0.node(), f1.node()] {
                if fanin != 0 && self.vars[fanin as usize].is_none() {
                    stack.push(fanin);
                }
            }
            if stack.len() > depth {
                continue;
            }
            stack.pop();
            let (a, b) = (self.image(f0), self.image(f1));
            let var = self.solver.new_var();
            let out = Lit::positive(var);
            self.solver.add_clause([!out, a]);
            self.solver.add_clause([!out, b]);
            self.solver.add_clause([out, !a, !b]);
            self.vars[node as usize] = Some(var);
        }
        self.image(edge)
    }

    /// The solver literal of an edge whose node already has a variable.
    fn image(&self, edge: AigLit) -> Lit {
        let plain = match edge.node() {
            0 => Lit::negative(self.truth),
            node => Lit::positive(self.vars[node as usize].expect("the cone was encoded first")),
        };
        if edge.is_complemented() {
            !plain
        } else {
            plain
        }
    }

    /// Asks whether two rebuilt edges can differ, under the solver's
    /// current budget.
    fn differ(&mut self, x: AigLit, y: AigLit) -> SatResult {
        let (lit_x, lit_y) = (self.lit(x), self.lit(y));
        let diff = assume_difference(&mut self.solver, lit_x, lit_y);
        self.solver.solve_with_assumptions(&[diff])
    }

    /// The input pattern of a model, one bit per input. An input no query
    /// reached lies outside every queried cone, so any value works; it
    /// reads `false`.
    fn pattern(&self, model: &Model) -> Vec<bool> {
        self.graph
            .input_nodes()
            .iter()
            .map(|&node| {
                self.vars
                    .get(node as usize)
                    .copied()
                    .flatten()
                    .is_some_and(|var| model.value(var))
            })
            .collect()
    }
}

/// Counterexample patterns of the sweep, packed 64 to a word and simulated
/// over the shared AIG, so each refines every later candidate.
struct Refinements {
    /// Every node's value in each full word, indexed by node.
    full: Vec<Vec<u64>>,
    /// The input words of the open word.
    inputs: Vec<u64>,
    /// Every node's value in the open word; empty while no lane is used.
    open: Vec<u64>,
    /// Lanes of the open word used so far.
    lanes: u32,
}

impl Refinements {
    fn new(num_inputs: usize) -> Self {
        Refinements {
            full: Vec::new(),
            inputs: vec![0; num_inputs],
            open: Vec::new(),
            lanes: 0,
        }
    }

    /// Adds a pattern in the open word's next lane and re-simulates that
    /// word; unused lanes replay the all-zeros pattern, a legitimate
    /// pattern too. A full word is closed and a new one opened.
    fn push(&mut self, aig: &Aig, pattern: &[bool]) {
        for (word, &bit) in self.inputs.iter_mut().zip(pattern) {
            *word |= u64::from(bit) << self.lanes;
        }
        self.lanes += 1;
        self.open = aig.eval_words(&self.inputs);
        if self.lanes == 64 {
            self.full.push(std::mem::take(&mut self.open));
            self.inputs.fill(0);
            self.lanes = 0;
        }
    }

    /// Whether some pattern tells `node` apart from its representative
    /// edge.
    fn refutes(&self, rep: AigLit, node: u32) -> bool {
        let flip = if rep.is_complemented() { !0 } else { 0 };
        self.full
            .iter()
            .chain((!self.open.is_empty()).then_some(&self.open))
            .any(|values| values[node as usize] != values[rep.node() as usize] ^ flip)
    }
}

/// Fresh variable constrained to `lit_a ⊕ lit_b`, returned as a positive
/// assumption literal.
fn assume_difference(solver: &mut Solver, lit_a: Lit, lit_b: Lit) -> Lit {
    let diff = solver.new_var();
    solver.add_clause([Lit::negative(diff), lit_a, lit_b]);
    solver.add_clause([Lit::negative(diff), !lit_a, !lit_b]);
    solver.add_clause([Lit::positive(diff), !lit_a, lit_b]);
    solver.add_clause([Lit::positive(diff), lit_a, !lit_b]);
    Lit::positive(diff)
}

/// Names an input pattern of the shared AIG (the union of both circuits'
/// inputs), sorted by name.
fn named(aig: &Aig, pattern: &[bool]) -> Vec<(String, bool)> {
    let mut rows: Vec<(String, bool)> = aig
        .input_names()
        .iter()
        .cloned()
        .zip(pattern.iter().copied())
        .collect();
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::GateType;

    fn xor_direct() -> Circuit {
        let mut c = Circuit::new("xor_direct");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let o = c.add_gate(GateType::Xor, "o", &[a, b]).unwrap();
        c.mark_output(o);
        c
    }

    fn xor_nand_only() -> Circuit {
        // a XOR b out of four NAND gates.
        let mut c = Circuit::new("xor_nand");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let n1 = c.add_gate(GateType::Nand, "n1", &[a, b]).unwrap();
        let n2 = c.add_gate(GateType::Nand, "n2", &[a, n1]).unwrap();
        let n3 = c.add_gate(GateType::Nand, "n3", &[b, n1]).unwrap();
        let o = c.add_gate(GateType::Nand, "o", &[n2, n3]).unwrap();
        c.mark_output(o);
        c
    }

    #[test]
    fn equivalent_circuits_are_recognised() {
        let result = check_equivalence(&xor_direct(), &xor_nand_only()).unwrap();
        assert!(result.is_equivalent());
    }

    #[test]
    fn structurally_identical_circuits_need_no_solver() {
        let c = xor_direct();
        let (result, stats) = check_equivalence_with_stats(&c, &c.clone(), None, None).unwrap();
        assert!(result.is_equivalent());
        assert_eq!(stats.sat_calls, 0, "hashing must close the identical case");
    }

    #[test]
    fn different_circuits_yield_a_counterexample() {
        let mut c = Circuit::new("and2");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let o = c.add_gate(GateType::And, "o", &[a, b]).unwrap();
        c.mark_output(o);
        match check_equivalence(&xor_direct(), &c).unwrap() {
            EquivalenceResult::NotEquivalent(cex) => {
                // The counterexample must actually distinguish the circuits.
                let value = |name: &str| cex.iter().find(|(n, _)| n == name).unwrap().1;
                let a_val = value("a");
                let b_val = value("b");
                assert_ne!(a_val ^ b_val, a_val && b_val);
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn extra_inputs_in_one_circuit_are_unconstrained() {
        // A locked XOR with its key input left free is NOT equivalent to the
        // original (the key can corrupt it), but with the key folded to the
        // correct constant it is.
        let mut locked = Circuit::new("locked");
        let a = locked.add_input("a").unwrap();
        let b = locked.add_input("b").unwrap();
        let k = locked.add_input("keyinput0").unwrap();
        let x = locked.add_gate(GateType::Xor, "x", &[a, b]).unwrap();
        let o = locked.add_gate(GateType::Xor, "o", &[x, k]).unwrap();
        locked.mark_output(o);
        let original = xor_direct();
        match check_equivalence(&original, &locked).unwrap() {
            EquivalenceResult::NotEquivalent(cex) => {
                assert!(cex.iter().any(|(n, v)| n == "keyinput0" && *v));
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
        let k_net = locked.find_net("keyinput0").unwrap();
        let unlocked =
            kratt_netlist::transform::set_inputs_constant(&locked, &[(k_net, false)]).unwrap();
        assert!(check_equivalence(&original, &unlocked)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn mismatched_outputs_are_an_interface_error() {
        let mut two_outputs = xor_direct();
        let a = two_outputs.find_net("a").unwrap();
        two_outputs.mark_output(a);
        assert!(matches!(
            check_equivalence(&xor_direct(), &two_outputs),
            Err(SynthError::InterfaceMismatch(_))
        ));
    }

    #[test]
    fn budget_can_return_unknown() {
        // With a zero conflict budget the solver cannot finish on a
        // non-trivial instance; Unknown (or a fast verdict) is acceptable,
        // the call must simply not hang or panic.
        let result = check_equivalence_with_budget(
            &xor_direct(),
            &xor_nand_only(),
            Some(0),
            Some(Duration::from_millis(1)),
        )
        .unwrap();
        assert!(matches!(
            result,
            EquivalenceResult::Unknown | EquivalenceResult::Equivalent
        ));
    }

    #[test]
    fn gate_level_baseline_agrees_with_the_fraig_pipeline() {
        // The baseline is exhaustive gate-level simulation of both circuits.
        let mut and2 = Circuit::new("and2");
        let a = and2.add_input("a").unwrap();
        let b = and2.add_input("b").unwrap();
        let o = and2.add_gate(GateType::And, "o", &[a, b]).unwrap();
        and2.mark_output(o);
        for other in [xor_nand_only(), and2] {
            let simulated =
                kratt_netlist::sim::exhaustively_equivalent(&xor_direct(), &other).unwrap();
            let proved = check_equivalence(&xor_direct(), &other).unwrap();
            assert_eq!(proved.is_equivalent(), simulated, "{}", other.name());
            assert_eq!(
                matches!(proved, EquivalenceResult::NotEquivalent(_)),
                !simulated
            );
        }
    }

    #[test]
    fn fraig_proves_resynthesised_variants_with_merges() {
        // A multi-output circuit against its high-effort resynthesis: the
        // pipeline must prove equivalence, typically earning internal merges
        // along the way.
        let mut c = Circuit::new("host");
        let ins: Vec<_> = (0..6)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let g1 = c
            .add_gate(GateType::And, "g1", &[ins[0], ins[1], ins[2]])
            .unwrap();
        let g2 = c
            .add_gate(GateType::Nor, "g2", &[ins[2], ins[3], ins[4]])
            .unwrap();
        let g3 = c.add_gate(GateType::Xor, "g3", &[g1, g2]).unwrap();
        let g4 = c.add_gate(GateType::Nand, "g4", &[g3, ins[5]]).unwrap();
        c.mark_output(g3);
        c.mark_output(g4);
        let variant = crate::resynthesize(
            &c,
            &crate::ResynthesisOptions::with_seed(5).effort(crate::Effort::High),
        )
        .unwrap();
        let (result, stats) = check_equivalence_with_stats(&c, &variant, None, None).unwrap();
        assert!(result.is_equivalent());
        assert!(!stats.fell_back_to_miter);
        assert!(stats.aig_nodes > 0);
    }

    #[test]
    fn substitution_hashes_merges_on_a_resynthesised_host() {
        // Wide gates that resynthesis re-associates, each feeding logic that
        // it leaves alone: once the sweep proves a wide gate equal to its
        // re-associated twin and substitutes it, the gates above rebuild
        // onto the original's nodes, so their merges cost no query.
        let mut c = Circuit::new("host");
        let ins: Vec<_> = (0..12)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let kinds = [GateType::And, GateType::Or, GateType::Xor, GateType::Nand];
        for (g, ty) in kinds.iter().enumerate() {
            let wide = c
                .add_gate(*ty, format!("w{g}"), &ins[g * 2..g * 2 + 5])
                .unwrap();
            let above = c
                .add_gate(GateType::Xor, format!("x{g}"), &[wide, ins[11 - g]])
                .unwrap();
            let top = c
                .add_gate(GateType::Or, format!("o{g}"), &[above, ins[g]])
                .unwrap();
            c.mark_output(top);
        }
        let variant = crate::resynthesize(
            &c,
            &crate::ResynthesisOptions::with_seed(3).effort(crate::Effort::High),
        )
        .unwrap();
        let (result, stats) = check_equivalence_with_stats(&c, &variant, None, None).unwrap();
        assert!(result.is_equivalent());
        assert!(stats.proved_merges > 0, "{stats:?}");
        assert!(stats.hashed_merges > 0, "{stats:?}");
    }

    #[test]
    fn merge_queries_are_capped_but_output_queries_are_not() {
        // Merge queries are an optimisation: any caller budget is clamped
        // down to the sweep cap.
        assert_eq!(merge_query_cap(None), MERGE_CONFLICT_CAP);
        assert_eq!(merge_query_cap(Some(5)), 5);
        assert_eq!(
            merge_query_cap(Some(MERGE_CONFLICT_CAP * 10)),
            MERGE_CONFLICT_CAP
        );
        // Output-miter queries decide the verdict: the caller's budget
        // passes through unclamped, and no budget means a complete solve.
        assert_eq!(output_query_budget(None), None);
        assert_eq!(
            output_query_budget(Some(MERGE_CONFLICT_CAP * 10)),
            Some(MERGE_CONFLICT_CAP * 10)
        );
        // Regression: a conflict budget far above the merge cap must not be
        // clamped for the output stage — the check still completes.
        let result = check_equivalence_with_budget(
            &xor_direct(),
            &xor_nand_only(),
            Some(MERGE_CONFLICT_CAP * 100),
            None,
        )
        .unwrap();
        assert!(result.is_equivalent());
    }

    proptest::proptest! {
        /// The fraig verdict agrees with exhaustive simulation on random
        /// gate soups of 5–12 inputs, each checked against four partners:
        /// its high-effort resynthesis (equivalent); a copy whose first
        /// output flips on the one pattern `p` (not equivalent, and `p` is
        /// the only counterexample there is); a copy with its second output
        /// wired to another net (whatever exhaustive simulation says); and a
        /// copy whose first output flips only on the all-ones pattern, which
        /// the anchor lane of the first simulation sweep must refute with no
        /// SAT call. Seeds span all of `u64`, so a larger `PROPTEST_CASES`
        /// draws soups a smaller one did not.
        #[test]
        fn prop_fraig_verdicts_match_exhaustive_simulation(seed in 0u64..=u64::MAX) {
            use kratt_netlist::sim::exhaustively_equivalent;
            use kratt_netlist::NetId;
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(7));
            let n = rng.gen_range(5..13usize);
            let mut soup = Circuit::new(format!("soup{seed}"));
            let inputs: Vec<NetId> =
                (0..n).map(|i| soup.add_input(format!("i{i}")).unwrap()).collect();
            let mut nets = inputs.clone();
            let kinds = [
                GateType::And, GateType::Nand, GateType::Or, GateType::Nor,
                GateType::Xor, GateType::Xnor, GateType::Not, GateType::Buf,
            ];
            for g in 0..16 {
                let ty = kinds[rng.gen_range(0..kinds.len())];
                let arity = match ty {
                    GateType::Not | GateType::Buf => 1,
                    _ => rng.gen_range(2..4usize),
                };
                let ins: Vec<NetId> =
                    (0..arity).map(|_| nets[rng.gen_range(0..nets.len())]).collect();
                nets.push(soup.add_gate(ty, format!("g{g}"), &ins).unwrap());
            }
            let gates = nets[n..].to_vec();
            let with_outputs = |mut circuit: Circuit, first: NetId, second: NetId| {
                circuit.mark_output(first);
                circuit.mark_output(second);
                circuit
            };
            let c = with_outputs(soup.clone(), gates[15], gates[3]);

            let variant = crate::resynthesize(
                &c,
                &crate::ResynthesisOptions::with_seed(seed).effort(crate::Effort::High),
            )
            .unwrap();
            let verdict = check_equivalence(&c, &variant).unwrap();
            proptest::prop_assert!(verdict.is_equivalent(), "resynthesis: {:?}", verdict);

            let p: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            let mut flipped = soup.clone();
            let literals: Vec<NetId> = inputs
                .iter()
                .zip(&p)
                .enumerate()
                .map(|(i, (&input, &bit))| {
                    if bit {
                        input
                    } else {
                        flipped.add_gate(GateType::Not, format!("p{i}"), &[input]).unwrap()
                    }
                })
                .collect();
            let minterm = flipped.add_gate(GateType::And, "minterm", &literals).unwrap();
            let first = flipped.add_gate(GateType::Xor, "flip", &[gates[15], minterm]).unwrap();
            let flipped = with_outputs(flipped, first, gates[3]);
            let mut expected: Vec<(String, bool)> =
                (0..n).map(|i| (format!("i{i}"), p[i])).collect();
            expected.sort();
            let verdict = check_equivalence(&c, &flipped).unwrap();
            proptest::prop_assert_eq!(verdict, EquivalenceResult::NotEquivalent(expected));

            let rewired = with_outputs(soup.clone(), gates[15], gates[1]);
            let simulated = exhaustively_equivalent(&c, &rewired).unwrap();
            let verdict = check_equivalence(&c, &rewired).unwrap();
            proptest::prop_assert_eq!(verdict.is_equivalent(), simulated);
            proptest::prop_assert_eq!(
                matches!(verdict, EquivalenceResult::NotEquivalent(_)),
                !simulated
            );

            let mut anchored = soup;
            let all_ones = anchored.add_gate(GateType::And, "all_ones", &inputs).unwrap();
            let first = anchored.add_gate(GateType::Xor, "flip", &[gates[15], all_ones]).unwrap();
            let anchored = with_outputs(anchored, first, gates[3]);
            let mut expected: Vec<(String, bool)> = (0..n).map(|i| (format!("i{i}"), true)).collect();
            expected.sort();
            let (verdict, stats) = check_equivalence_with_stats(&c, &anchored, None, None).unwrap();
            proptest::prop_assert_eq!(verdict, EquivalenceResult::NotEquivalent(expected));
            proptest::prop_assert_eq!(stats.sat_calls, 0);
        }
    }
}

//! A 2QBF (∃∀) solver built on the `kratt-sat` CDCL engine.
//!
//! KRATT formulates the key recovery of single-flip locking techniques as the
//! quantified Boolean formula
//!
//! ```text
//! ∃ K  ∀ PPI .  locking_unit(PPI, K) = constant
//! ```
//!
//! i.e. "is there a key under which the locking unit output is stuck at a
//! constant for every protected primary input pattern?". The paper solves
//! these with DepQBF; this crate provides the reproduction's replacement: a
//! counterexample-guided abstraction refinement (CEGAR) loop that alternates
//! between a *synthesis* SAT instance (propose a key consistent with all
//! counterexamples seen so far) and a *verification* SAT instance (find a
//! universal assignment breaking the candidate). CEGAR is complete for the
//! exists-forall fragment, which is the only fragment KRATT ever emits.
//!
//! # Example
//!
//! ```
//! use kratt_netlist::{Circuit, GateType};
//! use kratt_qbf::{ExistsForallSolver, QbfResult};
//!
//! # fn main() -> Result<(), kratt_netlist::NetlistError> {
//! // out = (x AND k0) AND NOT k1: with k0 = 0 the output is 0 for every x.
//! let mut c = Circuit::new("unit");
//! let x = c.add_input("x")?;
//! let k0 = c.add_input("keyinput0")?;
//! let k1 = c.add_input("keyinput1")?;
//! let a = c.add_gate(GateType::And, "a", &[x, k0])?;
//! let nk1 = c.add_gate(GateType::Not, "nk1", &[k1])?;
//! let out = c.add_gate(GateType::And, "out", &[a, nk1])?;
//! c.mark_output(out);
//!
//! let solver = ExistsForallSolver::new(&c, &[k0, k1], &[x], out, false);
//! match solver.solve() {
//!     QbfResult::Sat(assignment) => assert!(!assignment["keyinput0"] || assignment["keyinput1"]),
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

pub mod bdd;
pub mod qdimacs;

use kratt_netlist::aig::{Aig, AigLit};
use kratt_netlist::{Circuit, NetId};
use kratt_sat::{encode_aig, AigEncoding, Deadline, Lit, SatResult, Solver, Var};
use std::collections::HashMap;

/// Configuration of the 2QBF solver.
#[derive(Debug, Clone)]
pub struct QbfConfig {
    /// Maximum number of CEGAR refinement iterations before giving up.
    pub max_iterations: usize,
    /// The deadline of the attack that issued the solve (unlimited by
    /// default): checked at solve entry and on each CEGAR iteration, and
    /// handed to both underlying SAT solvers, so neither a long loop nor a
    /// single stuck SAT call overshoots the attack's wall-clock budget, and
    /// a portfolio sibling's win stops a running loop promptly.
    pub deadline: Deadline,
    /// Conflict budget handed to each underlying SAT call.
    pub sat_conflict_limit: Option<u64>,
    /// Node budget of the BDD fast path that is tried before CEGAR (0
    /// disables it). Locking-unit functions have compact BDDs under an
    /// interleaved order, which is what makes 64–128-bit keys tractable.
    pub bdd_node_limit: usize,
}

impl Default for QbfConfig {
    fn default() -> Self {
        QbfConfig {
            max_iterations: 10_000,
            deadline: Deadline::unlimited(),
            sat_conflict_limit: None,
            bdd_node_limit: 1 << 21,
        }
    }
}

/// Outcome of a 2QBF solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QbfResult {
    /// The formula is true; the map gives a witness assignment (by net name)
    /// for the existential variables.
    Sat(HashMap<String, bool>),
    /// The formula is false: no existential assignment works for every
    /// universal assignment.
    Unsat,
    /// The iteration, conflict or time budget was exhausted.
    Unknown,
}

impl QbfResult {
    /// Returns the witness if the result is SAT.
    pub fn witness(&self) -> Option<&HashMap<String, bool>> {
        match self {
            QbfResult::Sat(w) => Some(w),
            _ => None,
        }
    }

    /// `true` if the result is [`QbfResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, QbfResult::Sat(_))
    }
}

/// Outcome of [`ExistsForallSolver::solve_targets_with_stats`]: the same
/// prefix solved for several output constants over one shared incremental
/// solver pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiTargetResult {
    /// Some constant is achievable; carries the witness and that constant.
    Sat {
        /// Witness assignment (by net name) for the existential variables.
        witness: HashMap<String, bool>,
        /// The output constant the witness achieves.
        target: bool,
    },
    /// No queried constant is achievable.
    Unsat,
    /// The budget was exhausted before a verdict on at least one constant
    /// (and no constant was proven achievable).
    Unknown,
}

/// Statistics of one CEGAR solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QbfStats {
    /// Number of candidate/counterexample refinement iterations.
    pub iterations: usize,
    /// Total conflicts across both underlying SAT solvers.
    pub sat_conflicts: u64,
}

/// A solver for `∃ E ∀ U . circuit(E, U) [output net] = target`.
///
/// `E` (existential) and `U` (universal) must together cover every primary
/// input of the circuit; inputs in neither list are treated as universal
/// (the sound, conservative choice for an attack: the key must work for every
/// value of anything that is not a key input).
#[derive(Debug)]
pub struct ExistsForallSolver<'a> {
    circuit: &'a Circuit,
    existential: Vec<NetId>,
    universal: Vec<NetId>,
    output: NetId,
    target: bool,
    config: QbfConfig,
}

impl<'a> ExistsForallSolver<'a> {
    /// Creates a solver for the given circuit and quantifier prefix.
    ///
    /// `output` is the net whose value must equal `target` for all universal
    /// assignments. Primary inputs not listed in `existential` are treated as
    /// universal even if absent from `universal`.
    pub fn new(
        circuit: &'a Circuit,
        existential: &[NetId],
        universal: &[NetId],
        output: NetId,
        target: bool,
    ) -> Self {
        let mut universal: Vec<NetId> = universal.to_vec();
        for &pi in circuit.inputs() {
            if !existential.contains(&pi) && !universal.contains(&pi) {
                universal.push(pi);
            }
        }
        ExistsForallSolver {
            circuit,
            existential: existential.to_vec(),
            universal,
            output,
            target,
            config: QbfConfig::default(),
        }
    }

    /// Replaces the CEGAR configuration.
    pub fn with_config(mut self, config: QbfConfig) -> Self {
        self.config = config;
        self
    }

    /// Serialises this instance in QDIMACS format (the DepQBF input format
    /// the original tool uses), without solving it. See [`qdimacs::export`].
    pub fn to_qdimacs(&self) -> String {
        qdimacs::export(
            self.circuit,
            &self.existential,
            &self.universal,
            self.output,
            self.target,
        )
    }

    /// Solves the formula. See [`QbfResult`].
    pub fn solve(&self) -> QbfResult {
        self.solve_with_stats().0
    }

    /// Solves the formula and also returns iteration statistics.
    ///
    /// The BDD fast path is tried first (it decides the comparator / AND-tree
    /// shaped locking units of the paper in milliseconds even for 128-bit
    /// keys); if its node budget is exceeded, the complete CEGAR loop takes
    /// over.
    pub fn solve_with_stats(&self) -> (QbfResult, QbfStats) {
        if self.config.deadline.expired() {
            return (QbfResult::Unknown, QbfStats::default());
        }
        if self.config.bdd_node_limit > 0 {
            if let Some(mut results) = self.solve_with_bdd_targets(&[self.target]) {
                return (
                    results.pop().expect("one target queried"),
                    QbfStats {
                        iterations: 0,
                        sat_conflicts: 0,
                    },
                );
            }
        }
        self.solve_with_cegar()
    }

    /// Solves the same quantifier prefix for several output constants (the
    /// instance's own `target` is ignored). The BDD fast path builds the
    /// unit function once and quantifies it per constant; when its node
    /// budget is exceeded the CEGAR fallback shares one verifier and one
    /// synthesizer — with all their learned clauses — across every
    /// constant, instead of re-encoding the unit per target. This is the
    /// engine behind KRATT's "is the unit stuck at 0, else at 1?"
    /// key-confirmation question.
    pub fn solve_targets_with_stats(&self, targets: &[bool]) -> (MultiTargetResult, QbfStats) {
        let mut stats = QbfStats::default();
        if self.config.deadline.expired() {
            return (MultiTargetResult::Unknown, stats);
        }
        if self.config.bdd_node_limit > 0 {
            if let Some(results) = self.solve_with_bdd_targets(targets) {
                for (&target, result) in targets.iter().zip(results) {
                    if let QbfResult::Sat(witness) = result {
                        return (MultiTargetResult::Sat { witness, target }, stats);
                    }
                }
                return (MultiTargetResult::Unsat, stats);
            }
        }
        let mut engine = CegarEngine::new(self);
        let mut saw_unknown = false;
        let mut outcome = MultiTargetResult::Unsat;
        for &target in targets {
            match engine.solve_target(target, &mut stats) {
                QbfResult::Sat(witness) => {
                    outcome = MultiTargetResult::Sat { witness, target };
                    break;
                }
                QbfResult::Unsat => {}
                QbfResult::Unknown => saw_unknown = true,
            }
        }
        stats.sat_conflicts = engine.sat_conflicts();
        if saw_unknown && !matches!(outcome, MultiTargetResult::Sat { .. }) {
            outcome = MultiTargetResult::Unknown;
        }
        (outcome, stats)
    }

    /// BDD decision procedure over one shared function build; returns `None`
    /// if the node budget is exceeded. The result vector is parallel to
    /// `targets`.
    fn solve_with_bdd_targets(&self, targets: &[bool]) -> Option<Vec<QbfResult>> {
        let var_of = bdd::paired_input_order(self.circuit, &self.existential, &self.universal);
        let mut manager = bdd::BddManager::new(self.config.bdd_node_limit);
        let root = manager
            .build_circuit_output(self.circuit, &var_of, self.output)
            .ok()?;
        let num_vars = var_of.len();
        let mut quantified = vec![false; num_vars];
        for &net in &self.universal {
            if let Some(&var) = var_of.get(&net) {
                quantified[var as usize] = true;
            }
        }
        let mut results = Vec::with_capacity(targets.len());
        for &target in targets {
            // We need unit == target for all universal inputs.
            let objective = if target {
                root
            } else {
                manager.not(root).ok()?
            };
            let keys_only = manager.forall(objective, &quantified).ok()?;
            results.push(match manager.any_sat(keys_only) {
                None => QbfResult::Unsat,
                Some(assignment) => {
                    let value_of_var: HashMap<u32, bool> = assignment.into_iter().collect();
                    let witness = self
                        .existential
                        .iter()
                        .map(|&net| {
                            let value = var_of
                                .get(&net)
                                .and_then(|v| value_of_var.get(v).copied())
                                .unwrap_or(false);
                            (self.circuit.net_name(net).to_string(), value)
                        })
                        .collect();
                    QbfResult::Sat(witness)
                }
            });
        }
        Some(results)
    }

    /// Counterexample-guided abstraction refinement loop (complete fallback).
    fn solve_with_cegar(&self) -> (QbfResult, QbfStats) {
        let mut stats = QbfStats::default();
        let mut engine = CegarEngine::new(self);
        let result = engine.solve_target(self.target, &mut stats);
        stats.sat_conflicts = engine.sat_conflicts();
        (result, stats)
    }
}

/// The incremental CEGAR state shared across targets: one verifier holding a
/// single encoding of the circuit (candidate keys and the "wrong" output
/// value are both *assumed*, never asserted, so nothing is re-encoded
/// between checks) and one synthesizer accumulating counterexample copies.
/// Copies added while solving for output constant `t` force their output
/// through an activation literal `act_t`, so the same clause database serves
/// both constants: solving under `act_0` sees only the `= 0` copies, under
/// `act_1` only the `= 1` copies — with every learned clause retained across
/// iterations *and* targets.
///
/// Both the verifier instance and every counterexample copy are encoded
/// through the AIG core IR ([`kratt_sat::encode_aig`]): the unit is
/// lowered once into a structurally hashed AIG, and each counterexample copy
/// lowers the unit with its universal inputs *bound to constants*, so the
/// folding shrinks the copy to a function of the keys alone before any
/// clause is emitted.
struct CegarEngine<'a, 'c> {
    problem: &'a ExistsForallSolver<'c>,
    verifier: Solver,
    verify_encoding: AigEncoding,
    out_lit: Lit,
    synthesizer: Solver,
    exist_vars: HashMap<String, Var>,
    /// Per-constant activation literal of the synthesizer copies
    /// (index `usize::from(target)`), created on first use.
    activation: [Option<Var>; 2],
}

impl<'a, 'c> CegarEngine<'a, 'c> {
    fn new(problem: &'a ExistsForallSolver<'c>) -> Self {
        // Verification solver: one AIG image of the circuit; a candidate key
        // and the wrong output value are checked by assuming their literals.
        // Both solvers share the loop's deadline so no single SAT call can
        // overshoot the attack's wall-clock budget.
        let solver_config = kratt_sat::SolverConfig {
            conflict_limit: problem.config.sat_conflict_limit,
            deadline: problem.config.deadline.clone(),
            ..Default::default()
        };
        let mut verifier = Solver::with_config(solver_config.clone());
        let verify_aig = unit_aig(problem.circuit, problem.output, &HashMap::new());
        let verify_encoding = encode_aig(&mut verifier, &verify_aig, &HashMap::new());
        let out_lit = verify_encoding.outputs()[0];

        // Synthesis solver: one shared set of existential variables; each
        // counterexample adds a fresh copy of the circuit with the universal
        // inputs substituted by the counterexample constants.
        let mut synthesizer = Solver::with_config(solver_config);
        let exist_vars: HashMap<String, Var> = problem
            .existential
            .iter()
            .map(|&net| {
                (
                    problem.circuit.net_name(net).to_string(),
                    synthesizer.new_var(),
                )
            })
            .collect();

        CegarEngine {
            problem,
            verifier,
            verify_encoding,
            out_lit,
            synthesizer,
            exist_vars,
            activation: [None, None],
        }
    }

    /// Total conflicts spent by both underlying solvers so far.
    fn sat_conflicts(&self) -> u64 {
        self.synthesizer.stats().conflicts + self.verifier.stats().conflicts
    }

    /// Runs the refinement loop for one output constant, reusing whatever
    /// both solvers have already learned. `stats.iterations` accumulates.
    fn solve_target(&mut self, target: bool, stats: &mut QbfStats) -> QbfResult {
        let problem = self.problem;
        let act =
            *self.activation[usize::from(target)].get_or_insert_with(|| self.synthesizer.new_var());

        // Seed the loop with the all-zero universal assignment so the first
        // candidate is already consistent with at least one pattern.
        let mut counterexample: Vec<bool> = vec![false; problem.universal.len()];

        for _ in 0..problem.config.max_iterations {
            stats.iterations += 1;
            if problem.config.deadline.expired() {
                return QbfResult::Unknown;
            }

            // Refine: add a copy of the circuit with the counterexample's
            // universal values *folded in as constants* during AIG lowering
            // (the copy shrinks to a function of the keys alone), sharing
            // the existential variables. Only the output clause is gated
            // behind the activation literal — the copy is otherwise inert
            // when this target is not assumed.
            let bound: HashMap<String, AigLit> = problem
                .universal
                .iter()
                .zip(&counterexample)
                .map(|(&net, &value)| {
                    (
                        problem.circuit.net_name(net).to_string(),
                        AigLit::FALSE.when(!value),
                    )
                })
                .collect();
            let copy_aig = unit_aig(problem.circuit, problem.output, &bound);
            let copy = encode_aig(&mut self.synthesizer, &copy_aig, &self.exist_vars);
            let copy_out = copy.outputs()[0];
            self.synthesizer
                .add_clause([Lit::negative(act), polarised(copy_out, target)]);

            // Propose a candidate.
            let candidate = match self
                .synthesizer
                .solve_with_assumptions(&[Lit::positive(act)])
            {
                SatResult::Sat(model) => {
                    let mut candidate: Vec<(NetId, bool)> = Vec::new();
                    for &net in &problem.existential {
                        let var = self.exist_vars[problem.circuit.net_name(net)];
                        candidate.push((net, model.value(var)));
                    }
                    candidate
                }
                SatResult::Unsat => return QbfResult::Unsat,
                SatResult::Unknown => return QbfResult::Unknown,
            };

            // Verify the candidate: is there a universal assignment that
            // makes the output take the wrong value?
            let mut assumptions: Vec<Lit> = Vec::with_capacity(candidate.len() + 1);
            assumptions.push(polarised(self.out_lit, !target));
            assumptions.extend(candidate.iter().map(|&(net, value)| {
                let var = self
                    .verify_encoding
                    .input_var(problem.circuit.net_name(net))
                    .expect("existential input present in verification encoding");
                Lit::with_polarity(var, value)
            }));
            match self.verifier.solve_with_assumptions(&assumptions) {
                SatResult::Unsat => {
                    let witness = candidate
                        .into_iter()
                        .map(|(net, value)| (problem.circuit.net_name(net).to_string(), value))
                        .collect();
                    return QbfResult::Sat(witness);
                }
                SatResult::Sat(model) => {
                    counterexample = problem
                        .universal
                        .iter()
                        .map(|&net| {
                            let var = self
                                .verify_encoding
                                .input_var(problem.circuit.net_name(net))
                                .expect("universal input present in verification encoding");
                            model.value(var)
                        })
                        .collect();
                }
                SatResult::Unknown => return QbfResult::Unknown,
            }
        }
        QbfResult::Unknown
    }
}

/// Lowers the unit into a fresh AIG with the given inputs bound (typically a
/// counterexample's universal constants) and the interesting net registered
/// as the single output.
///
/// # Panics
///
/// Panics on a cyclic circuit — the construction API cannot produce one, and
/// every caller hands over a well-formed extracted unit.
fn unit_aig(circuit: &Circuit, output: NetId, bound: &HashMap<String, AigLit>) -> Aig {
    let mut aig = Aig::new(circuit.name());
    let lits = aig
        .lower_circuit(circuit, bound)
        .expect("QBF unit circuits are acyclic");
    aig.add_output(circuit.net_name(output), lits[output.index()]);
    aig
}

/// `lit` if `value`, `¬lit` otherwise — the literal asserting that the
/// (possibly complemented) encoded edge takes `value`.
fn polarised(lit: Lit, value: bool) -> Lit {
    if value {
        lit
    } else {
        !lit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::GateType;

    /// A 2-bit comparator unit: out = AND_i (x_i XNOR k_i) — the restore unit
    /// of a DFLT. There is no key making it constant, so both QBF problems
    /// are UNSAT.
    fn comparator(bits: usize) -> Circuit {
        let mut c = Circuit::new("cmp");
        let xs: Vec<NetId> = (0..bits)
            .map(|i| c.add_input(format!("x{i}")).unwrap())
            .collect();
        let ks: Vec<NetId> = (0..bits)
            .map(|i| c.add_input(format!("keyinput{i}")).unwrap())
            .collect();
        let eqs: Vec<NetId> = (0..bits)
            .map(|i| {
                c.add_gate(GateType::Xnor, format!("eq{i}"), &[xs[i], ks[i]])
                    .unwrap()
            })
            .collect();
        let out = c.add_gate(GateType::And, "out", &eqs).unwrap();
        c.mark_output(out);
        c
    }

    /// A SARLock-style unit: out = comparator(x, k) AND NOT comparator(k, secret).
    /// With k = secret the output is constant 0 for every x.
    fn sarlock_unit(bits: usize, secret: u64) -> Circuit {
        let mut c = Circuit::new("sarlock_unit");
        let xs: Vec<NetId> = (0..bits)
            .map(|i| c.add_input(format!("x{i}")).unwrap())
            .collect();
        let ks: Vec<NetId> = (0..bits)
            .map(|i| c.add_input(format!("keyinput{i}")).unwrap())
            .collect();
        let eqs: Vec<NetId> = (0..bits)
            .map(|i| {
                c.add_gate(GateType::Xnor, format!("eq{i}"), &[xs[i], ks[i]])
                    .unwrap()
            })
            .collect();
        let cmp = c.add_gate(GateType::And, "cmp", &eqs).unwrap();
        // Mask: key equals the hard-wired secret.
        let mask_bits: Vec<NetId> = (0..bits)
            .map(|i| {
                if secret >> i & 1 != 0 {
                    ks[i]
                } else {
                    c.add_gate(GateType::Not, format!("nk{i}"), &[ks[i]])
                        .unwrap()
                }
            })
            .collect();
        let is_secret = c.add_gate(GateType::And, "is_secret", &mask_bits).unwrap();
        let not_secret = c
            .add_gate(GateType::Not, "not_secret", &[is_secret])
            .unwrap();
        let out = c
            .add_gate(GateType::And, "flip", &[cmp, not_secret])
            .unwrap();
        c.mark_output(out);
        c
    }

    #[test]
    fn sarlock_unit_secret_found_for_constant_zero() {
        let secret = 0b101;
        let c = sarlock_unit(3, secret);
        let keys = c.key_inputs();
        let xs = c.data_inputs();
        let out = c.outputs()[0];
        let solver = ExistsForallSolver::new(&c, &keys, &xs, out, false);
        let (result, stats) = solver.solve_with_stats();
        match result {
            QbfResult::Sat(witness) => {
                for (i, &k) in keys.iter().enumerate() {
                    let expected = secret >> i & 1 != 0;
                    assert_eq!(witness[c.net_name(k)], expected, "key bit {i}");
                }
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        // The BDD fast path decides the instance without CEGAR iterations.
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn sarlock_unit_constant_one_is_unsat() {
        let c = sarlock_unit(3, 0b010);
        let keys = c.key_inputs();
        let xs = c.data_inputs();
        let out = c.outputs()[0];
        let solver = ExistsForallSolver::new(&c, &keys, &xs, out, true);
        assert_eq!(solver.solve(), QbfResult::Unsat);
    }

    #[test]
    fn comparator_unit_is_unsat_for_both_constants() {
        let c = comparator(3);
        let keys = c.key_inputs();
        let xs = c.data_inputs();
        let out = c.outputs()[0];
        for target in [false, true] {
            let solver = ExistsForallSolver::new(&c, &keys, &xs, out, target);
            assert_eq!(solver.solve(), QbfResult::Unsat, "target {target}");
        }
    }

    #[test]
    fn unlisted_inputs_default_to_universal() {
        // out = x OR k: ∃k ∀x out = 1 is SAT with k = 1 even if x is not
        // passed explicitly as universal.
        let mut c = Circuit::new("or");
        let x = c.add_input("x").unwrap();
        let k = c.add_input("keyinput0").unwrap();
        let out = c.add_gate(GateType::Or, "out", &[x, k]).unwrap();
        c.mark_output(out);
        let _ = x;
        let solver = ExistsForallSolver::new(&c, &[k], &[], out, true);
        match solver.solve() {
            QbfResult::Sat(witness) => assert!(witness["keyinput0"]),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn iteration_budget_returns_unknown() {
        let c = sarlock_unit(4, 0b1011);
        let keys = c.key_inputs();
        let xs = c.data_inputs();
        let out = c.outputs()[0];
        let solver = ExistsForallSolver::new(&c, &keys, &xs, out, false).with_config(QbfConfig {
            max_iterations: 0,
            bdd_node_limit: 0,
            ..Default::default()
        });
        assert_eq!(solver.solve(), QbfResult::Unknown);
    }

    #[test]
    fn cancelled_deadline_stops_the_cegar_loop() {
        let c = sarlock_unit(4, 0b1011);
        let keys = c.key_inputs();
        let xs = c.data_inputs();
        let out = c.outputs()[0];
        let deadline = Deadline::unlimited();
        deadline.cancel();
        let solver = ExistsForallSolver::new(&c, &keys, &xs, out, false).with_config(QbfConfig {
            bdd_node_limit: 0,
            deadline,
            ..Default::default()
        });
        assert_eq!(
            solver.solve_with_stats(),
            (QbfResult::Unknown, QbfStats::default())
        );
        assert_eq!(
            solver.solve_targets_with_stats(&[false, true]),
            (MultiTargetResult::Unknown, QbfStats::default())
        );
    }

    /// Brute-force reference: enumerate all existential assignments and check
    /// them against all universal assignments by simulation.
    fn brute_force_exists_forall(
        circuit: &Circuit,
        existential: &[NetId],
        universal: &[NetId],
        target: bool,
    ) -> Option<u64> {
        let sim = kratt_netlist::sim::Simulator::new(circuit).unwrap();
        'outer: for e_val in 0u64..(1u64 << existential.len()) {
            for u_val in 0u64..(1u64 << universal.len()) {
                let mut assignment: Vec<(NetId, bool)> = Vec::new();
                for (i, &net) in existential.iter().enumerate() {
                    assignment.push((net, e_val >> i & 1 != 0));
                }
                for (i, &net) in universal.iter().enumerate() {
                    assignment.push((net, u_val >> i & 1 != 0));
                }
                let outputs = sim.run_assignment(&assignment).unwrap();
                if outputs[0] != target {
                    continue 'outer;
                }
            }
            return Some(e_val);
        }
        None
    }

    /// Decides an exported QDIMACS instance by brute force over its outer
    /// blocks: true iff some assignment of the outer `e` block leaves the
    /// matrix satisfiable (over the inner `e` block) under every assignment
    /// of the `a` block.
    fn brute_force_qdimacs(text: &str) -> bool {
        let is_prefix = |line: &&str| line.starts_with("e ") || line.starts_with("a ");
        let block = |kind: &str| -> Vec<Var> {
            let line = text.lines().find(|l| l.starts_with(kind)).unwrap();
            line[kind.len()..]
                .split_whitespace()
                .map(|t| t.parse::<usize>().unwrap())
                .take_while(|&v| v != 0)
                .map(|v| Var::from_index(v - 1))
                .collect()
        };
        let (exists, forall) = (block("e "), block("a "));
        let matrix: Vec<&str> = text.lines().filter(|l| !is_prefix(l)).collect();
        let mut solver = kratt_sat::Cnf::from_dimacs(&matrix.join("\n"))
            .unwrap()
            .to_solver();
        let assign = |vars: &[Var], bits: u64| -> Vec<Lit> {
            vars.iter()
                .enumerate()
                .map(|(i, &v)| Lit::with_polarity(v, bits >> i & 1 != 0))
                .collect()
        };
        (0u64..1 << exists.len()).any(|e_val| {
            (0u64..1 << forall.len()).all(|u_val| {
                let mut assumptions = assign(&exists, e_val);
                assumptions.extend(assign(&forall, u_val));
                solver.solve_with_assumptions(&assumptions).is_sat()
            })
        })
    }

    proptest::proptest! {
        /// Random small units: CEGAR agrees with brute force about
        /// satisfiability, and returned witnesses actually work.
        #[test]
        fn prop_matches_brute_force(seed in 0u64..60) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = Circuit::new(format!("rand{seed}"));
            let xs: Vec<NetId> = (0..3).map(|i| c.add_input(format!("x{i}")).unwrap()).collect();
            let ks: Vec<NetId> =
                (0..3).map(|i| c.add_input(format!("keyinput{i}")).unwrap()).collect();
            let mut nets: Vec<NetId> = xs.iter().chain(ks.iter()).copied().collect();
            let kinds = [
                GateType::And, GateType::Nand, GateType::Or, GateType::Nor,
                GateType::Xor, GateType::Xnor,
            ];
            for g in 0..8 {
                let ty = kinds[rng.gen_range(0..kinds.len())];
                let a = nets[rng.gen_range(0..nets.len())];
                let b = nets[rng.gen_range(0..nets.len())];
                let out = c.add_gate(ty, format!("g{g}"), &[a, b]).unwrap();
                nets.push(out);
            }
            let out = *nets.last().unwrap();
            c.mark_output(out);
            let target = rng.gen_bool(0.5);

            let reference = brute_force_exists_forall(&c, &ks, &xs, target);
            let solver = ExistsForallSolver::new(&c, &ks, &xs, out, target);
            // The exported instance is the one CEGAR decides.
            proptest::prop_assert_eq!(
                brute_force_qdimacs(&solver.to_qdimacs()),
                reference.is_some()
            );
            match (reference, solver.solve()) {
                (Some(_), QbfResult::Sat(witness)) => {
                    // Check the witness against every universal assignment.
                    let sim = kratt_netlist::sim::Simulator::new(&c).unwrap();
                    for u_val in 0u64..8 {
                        let mut assignment: Vec<(NetId, bool)> = Vec::new();
                        for (i, &net) in xs.iter().enumerate() {
                            assignment.push((net, u_val >> i & 1 != 0));
                        }
                        for &net in &ks {
                            assignment.push((net, witness[c.net_name(net)]));
                        }
                        let outputs = sim.run_assignment(&assignment).unwrap();
                        proptest::prop_assert_eq!(outputs[0], target);
                    }
                }
                (None, QbfResult::Unsat) => {}
                (reference, result) => {
                    return Err(proptest::test_runner::TestCaseError::fail(format!(
                        "disagreement: brute force {:?}, cegar {:?}",
                        reference.is_some(),
                        result.is_sat()
                    )));
                }
            }
        }
    }
}

//! Combinational equivalence checking through a fraig-style pipeline.
//!
//! Both circuits are lowered into **one** shared [`Aig`] (inputs matched by
//! name), so logic common to the two halves hashes to a single node before
//! any solver exists — outputs that become literally identical edges are
//! proven equivalent for free. What hashing cannot close is handled in three
//! escalating stages:
//!
//! 1. **Packed simulation** — seeded 64-lane random sweeps over every AIG
//!    node partition the nodes into candidate equivalence classes (signature
//!    equal up to complementation).
//! 2. **Incremental SAT sweeping (fraig)** — one solver holds the AIG's CNF
//!    image ([`kratt_sat::Encoder::encode_aig`]); each candidate is checked
//!    against its class representative under an assumption. Proven pairs are
//!    asserted as equalities (strengthening every later query); SAT answers
//!    yield counterexample patterns that re-simulate and refute other
//!    candidates for free.
//! 3. **Output miters** — each output pair gets its own assumption query
//!    over the now heavily-merged instance; only queries the budget leaves
//!    undecided fall back to one monolithic full-miter solve.
//!
//! Every entry point runs this pipeline; there is no second checker.

use crate::SynthError;
use kratt_netlist::aig::{Aig, AigLit};
use kratt_netlist::Circuit;
use kratt_sat::{AigEncoding, Encoder, Lit, SatResult, Solver, SolverConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Work counters of one fraig-style equivalence check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FraigStats {
    /// AND nodes of the shared miter AIG.
    pub aig_nodes: usize,
    /// Candidate equivalence classes with at least two members.
    pub candidate_classes: usize,
    /// Node pairs the SAT sweep proved equal and merged.
    pub proved_merges: usize,
    /// Candidate pairs refuted by a counterexample pattern before any SAT
    /// call was spent on them.
    pub simulation_refutations: usize,
    /// Total SAT queries (merge attempts plus output miters).
    pub sat_calls: usize,
    /// Whether the monolithic full-miter fallback ran.
    pub fell_back_to_miter: bool,
    /// Wall-clock time of the fraig sweep stage alone (class partitioning
    /// through the last merge/refutation, excluding the output miters).
    pub sweep_time: Duration,
}

/// Conflict cap of each *merge* query — applied whether or not the caller
/// gave a budget (a larger caller budget is clamped down to this for the
/// sweep). An inconclusive merge is simply skipped (sound — merging is an
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

/// Conflict budget of one *output-miter* query: exactly the caller's
/// per-query limit, deliberately **not** clamped by [`MERGE_CONFLICT_CAP`]
/// — output queries decide the verdict, so an unbudgeted caller gets a
/// complete (unbounded) solve even though its merge queries were capped.
fn output_query_budget(conflict_limit: Option<u64>) -> Option<u64> {
    conflict_limit
}

/// Random 64-lane sweeps used to build the candidate signatures.
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
/// the fraig pipeline issues one query per candidate merge and per output
/// pair, so total conflicts can reach `conflict_limit × queries` — pass a
/// `time_limit` when the overall budget matters.
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

/// [`check_equivalence_with_budget`], additionally reporting how the fraig
/// pipeline earned its verdict.
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

    // --- Pre-encode optimisation: cut rewriting shrinks the shared image ---
    // (and can converge the two halves structurally, which the re-derived
    // output check below catches for free). Output registration order is
    // `a`'s outputs then `b`'s, so the halves split at `a.num_outputs()`.
    let aig = aig.rewrite();
    let outs_a: Vec<AigLit> = aig.outputs()[..a.num_outputs()].to_vec();
    let outs_b: Vec<AigLit> = aig.outputs()[a.num_outputs()..].to_vec();
    stats.aig_nodes = aig.num_ands();
    if outs_a == outs_b {
        return Ok((EquivalenceResult::Equivalent, stats));
    }

    let deadline = time_limit.map(|limit| Instant::now() + limit);
    let mut solver = Solver::with_config(SolverConfig {
        conflict_limit: Some(merge_query_cap(conflict_limit)),
        deadline,
        ..Default::default()
    });
    let encoder = Encoder::new();
    let encoding = encoder.encode_aig(&mut solver, &aig, &HashMap::new());

    // --- Candidate classes from packed random simulation. ------------------
    let mut rng = StdRng::seed_from_u64(0xF4A1_6EED);
    let mut signatures: Vec<Vec<u64>> = vec![Vec::with_capacity(SIGNATURE_SWEEPS); aig.num_nodes()];
    for _ in 0..SIGNATURE_SWEEPS {
        let words: Vec<u64> = (0..aig.num_inputs()).map(|_| rng.gen()).collect();
        let values = aig.eval_words(&words);
        for (signature, value) in signatures.iter_mut().zip(&values) {
            signature.push(*value);
        }
    }
    // Group nodes by phase-normalised signature; only nodes the encoding
    // materialised can be merged.
    let cone = aig.cone(aig.outputs());
    let mut classes: HashMap<Vec<u64>, Vec<(u32, bool)>> = HashMap::new();
    for node in 1..aig.num_nodes() as u32 {
        if !cone[node as usize] || encoding.lit_of(AigLit::new(node, false)).is_none() {
            continue;
        }
        let signature = &signatures[node as usize];
        let phase = signature[0] & 1 != 0;
        let canonical: Vec<u64> = if phase {
            signature.iter().map(|w| !w).collect()
        } else {
            signature.clone()
        };
        classes.entry(canonical).or_default().push((node, phase));
    }
    let mut ordered: Vec<Vec<(u32, bool)>> = classes
        .into_values()
        .filter(|members| members.len() > 1)
        .collect();
    for members in &mut ordered {
        members.sort_unstable();
    }
    ordered.sort_unstable_by_key(|members| members[0]);
    stats.candidate_classes = ordered.len();

    // --- Fraig sweep: prove or refute each candidate against its rep. ------
    // Counterexample patterns accumulate and refute later candidates by
    // simulation before any SAT effort is spent on them.
    let sweep_start = Instant::now();
    let budget_hit = sweep_classes(&aig, &mut solver, &encoding, &ordered, deadline, &mut stats);
    stats.sweep_time = sweep_start.elapsed();

    // --- Output miters over the merged instance. ---------------------------
    solver.set_budget(output_query_budget(conflict_limit), None);
    let mut survivors: Vec<(Lit, Lit)> = Vec::new();
    for (&la, &lb) in outs_a.iter().zip(&outs_b) {
        if la == lb {
            continue;
        }
        let lit_a = encoding.lit_of(la).expect("outputs are materialised");
        let lit_b = encoding.lit_of(lb).expect("outputs are materialised");
        if budget_hit {
            survivors.push((lit_a, lit_b));
            continue;
        }
        stats.sat_calls += 1;
        let diff = assume_difference(&mut solver, lit_a, lit_b);
        match solver.solve_with_assumptions(&[diff]) {
            SatResult::Unsat => {}
            SatResult::Sat(model) => {
                return Ok((
                    EquivalenceResult::NotEquivalent(counterexample(&encoding, &model)),
                    stats,
                ));
            }
            SatResult::Unknown => survivors.push((lit_a, lit_b)),
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
        .map(|&(lit_a, lit_b)| assume_difference(&mut solver, lit_a, lit_b))
        .collect();
    let any = solver.new_var();
    let mut clause: Vec<Lit> = diffs.clone();
    clause.push(Lit::negative(any));
    solver.add_clause(clause);
    for diff in diffs {
        solver.add_clause([Lit::positive(any), !diff]);
    }
    match solver.solve_with_assumptions(&[Lit::positive(any)]) {
        SatResult::Unsat => Ok((EquivalenceResult::Equivalent, stats)),
        SatResult::Sat(model) => Ok((
            EquivalenceResult::NotEquivalent(counterexample(&encoding, &model)),
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

/// Sweeps the candidate classes on one solver: each candidate is refuted by
/// simulation where a counterexample pattern already distinguishes it from
/// its class representative, and otherwise settled by a conflict-capped SAT
/// merge query whose proven equality is asserted into the solver. Counts
/// its merges, refutations and SAT calls into `stats`, and returns whether
/// the wall-clock deadline ended the sweep early.
fn sweep_classes(
    aig: &Aig,
    solver: &mut Solver,
    encoding: &AigEncoding,
    classes: &[Vec<(u32, bool)>],
    deadline: Option<Instant>,
    stats: &mut FraigStats,
) -> bool {
    let mut extra_signatures: Vec<Vec<u64>> = vec![Vec::new(); aig.num_nodes()];
    let mut pending_cex: Vec<Vec<bool>> = Vec::new();
    for members in classes {
        let (rep, rep_phase) = members[0];
        for &(node, phase) in &members[1..] {
            flush_counterexamples(aig, &mut pending_cex, &mut extra_signatures);
            let same = rep_phase == phase;
            let refuted = extra_signatures[rep as usize]
                .iter()
                .zip(&extra_signatures[node as usize])
                .any(|(&wr, &wn)| if same { wr != wn } else { wr != !wn });
            if refuted {
                stats.simulation_refutations += 1;
                continue;
            }
            let lit_r = encoding
                .lit_of(AigLit::new(rep, false))
                .expect("class members are materialised");
            let lit_n = encoding
                .lit_of(AigLit::new(node, !same))
                .expect("class members are materialised");
            stats.sat_calls += 1;
            let diff = assume_difference(solver, lit_r, lit_n);
            match solver.solve_with_assumptions(&[diff]) {
                SatResult::Unsat => {
                    solver.add_clause([!lit_r, lit_n]);
                    solver.add_clause([lit_r, !lit_n]);
                    stats.proved_merges += 1;
                }
                SatResult::Sat(model) => {
                    let pattern: Vec<bool> = encoding
                        .inputs()
                        .iter()
                        .map(|&(_, var)| model.value(var))
                        .collect();
                    pending_cex.push(pattern);
                }
                SatResult::Unknown => {
                    if deadline.map(|d| Instant::now() >= d).unwrap_or(false) {
                        return true;
                    }
                    // Conflict-capped merge query: skip this pair, keep going.
                }
            }
        }
    }
    false
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

/// Runs the accumulated counterexample patterns through the AIG and appends
/// the resulting word to every node's refinement signature.
fn flush_counterexamples(aig: &Aig, pending: &mut Vec<Vec<bool>>, extra: &mut [Vec<u64>]) {
    if pending.is_empty() {
        return;
    }
    for chunk in pending.chunks(64) {
        let mut words = vec![0u64; aig.num_inputs()];
        for (lane, pattern) in chunk.iter().enumerate() {
            for (word, &bit) in words.iter_mut().zip(pattern) {
                *word |= u64::from(bit) << lane;
            }
        }
        // Unused lanes replay the all-zero pattern — a legitimate pattern,
        // so the refinement stays sound.
        let values = aig.eval_words(&words);
        for (signature, value) in extra.iter_mut().zip(&values) {
            signature.push(*value);
        }
    }
    pending.clear();
}

/// Decodes a model into a named counterexample over the AIG inputs (the
/// union of both circuits' inputs), sorted by name.
fn counterexample(
    encoding: &kratt_sat::AigEncoding,
    model: &kratt_sat::Model,
) -> Vec<(String, bool)> {
    let mut rows: Vec<(String, bool)> = encoding
        .inputs()
        .iter()
        .map(|(name, var)| (name.clone(), model.value(*var)))
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
        /// gate soups of 5–12 inputs, each checked against three partners:
        /// its high-effort resynthesis (equivalent); a copy whose first
        /// output flips on the one pattern `p` (not equivalent, and `p` is
        /// the only counterexample there is); and a copy with its second
        /// output wired to another net (whatever exhaustive simulation
        /// says).
        #[test]
        fn prop_fraig_verdicts_match_exhaustive_simulation(seed in 0u64..64) {
            use kratt_netlist::sim::exhaustively_equivalent;
            use kratt_netlist::NetId;
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131) + 7);
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

            let rewired = with_outputs(soup, gates[15], gates[1]);
            let simulated = exhaustively_equivalent(&c, &rewired).unwrap();
            let verdict = check_equivalence(&c, &rewired).unwrap();
            proptest::prop_assert_eq!(verdict.is_equivalent(), simulated);
            proptest::prop_assert_eq!(
                matches!(verdict, EquivalenceResult::NotEquivalent(_)),
                !simulated
            );
        }
    }
}

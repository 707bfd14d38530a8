//! The oracle-guided SAT-based attack and the shared DIP-loop machinery used
//! by its Double DIP and AppSAT variants.

use crate::engine::{Attack, AttackRequest, Budget, Deadline, ThreatModel};
use crate::error::AttackError;
use crate::oracle::Oracle;
use crate::report::{AttackOutcome, AttackRun, StepTiming};
use kratt_locking::SecretKey;
use kratt_netlist::sim::Simulator;
use kratt_netlist::{Aig, AigLit, Circuit};
use kratt_sat::{encode_aig, Lit, SatResult, Solver, SolverConfig, Var};
use std::collections::HashMap;

/// The miter construction [`measure_dip_encoding`] measures.
///
/// The DIP engines have one construction: the locked circuit lowered into
/// one structurally hashed AIG whose two key copies share all data-input
/// logic, shrunk by [`Aig::rewrite`] and encoded with `encode_aig`. The enum
/// survives only because [`measure_dip_encoding`] keeps its signature for
/// the callers that pass [`DipEngineKind::Aig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DipEngineKind {
    /// Structurally hashed, rewritten AIG miter encoded with `encode_aig`.
    #[default]
    Aig,
}

/// Name suffix of the second key copy's inputs inside the AIG miter. The
/// data inputs share their real names (so both halves strash together); only
/// the key inputs are duplicated under this suffix.
const KEY_B_SUFFIX: &str = "__kratt_b";

/// Result of one distinguishing-input search.
pub(crate) enum DipSearch {
    /// A DIP was found; carries the data-input pattern and the candidate key
    /// (the `K_A` assignment of the satisfying model).
    Found {
        dip: Vec<bool>,
        candidate_key: Vec<bool>,
    },
    /// No DIP exists any more: all keys consistent with the constraints are
    /// functionally equivalent.
    Exhausted,
    /// The SAT budget ran out.
    Budget,
}

/// The incremental two-copy miter the whole SAT-attack family is built on.
///
/// One CDCL solver lives for the whole CEGAR loop: the miter clause is gated
/// behind an activation literal, DIP search solves under the assumption that
/// the gate is open, and key extraction solves the *same* solver with the
/// gate closed — so the learned clauses of every iteration carry over and
/// the miter is never re-encoded.
pub(crate) struct DipEngine<'a> {
    locked: &'a Circuit,
    locked_sim: Simulator<'a>,
    oracle: &'a Oracle,
    solver: Solver,
    /// Activation literal of the miter clause (`act → outputs differ`).
    miter_act: Var,
    key_a: Vec<Var>,
    data_vars: Vec<Var>,
    key_names: Vec<String>,
    /// Positions of the data / key inputs inside `locked.inputs()`.
    data_positions: Vec<usize>,
    key_positions: Vec<usize>,
    /// Position of each data input inside `oracle.circuit().inputs()`.
    oracle_positions: Vec<usize>,
    /// The locked circuit lowered once; every IO constraint is folded
    /// from it ([`DipEngine::constrain`]). `from_circuit` keeps the input
    /// order, so input `p` of `locked` is `base.input_nodes()[p]`.
    base: Aig,
    /// The edge of every `base` node in the IO constraint being folded,
    /// reused across constraints (node 0, the constant, stays `FALSE`).
    fold: Vec<AigLit>,
    /// The key variables of copy A and copy B by key name: the
    /// `shared_inputs` each constraint copy is encoded over.
    key_copies: [HashMap<String, Var>; 2],
    /// `(vars, clauses)` of the initial miter encoding, captured before any
    /// IO-constraint copy is added — the per-iteration baseline the
    /// `dip_aig` golden table of `tests/exact_counters.rs` pins.
    encode_footprint: (usize, usize),
    /// The oracle's lifetime query count when this engine was created, so
    /// budget accounting and telemetry report this run's queries only even
    /// when a caller reuses one oracle across runs.
    base_queries: u64,
    /// The run's budget and started deadline, which every loop of the
    /// family stops on ([`DipEngine::out_of_budget`]).
    budget: Budget,
    deadline: Deadline,
}

impl<'a> DipEngine<'a> {
    pub(crate) fn new(
        locked: &'a Circuit,
        oracle: &'a Oracle,
        budget: &Budget,
        deadline: Deadline,
    ) -> Result<Self, AttackError> {
        let key_names = locked.key_input_names();
        if key_names.is_empty() {
            return Err(AttackError::NoKeyInputs);
        }
        let data_names = locked.data_input_names();
        let oracle_circuit = oracle.circuit();
        let oracle_positions = data_names
            .iter()
            .map(|name| {
                oracle_circuit
                    .find_net(name)
                    .and_then(|net| oracle_circuit.input_position(net))
                    .ok_or_else(|| AttackError::InterfaceMismatch(name.clone()))
            })
            .collect::<Result<Vec<usize>, AttackError>>()?;

        // The attack's one deadline bounds every SAT call; no per-call
        // time limit, which would restart the clock per DIP.
        let mut solver = Solver::with_config(SolverConfig {
            conflict_limit: budget.sat_conflict_limit,
            deadline: deadline.clone(),
        });
        // Both key copies live in one structurally hashed AIG: copy A keeps
        // the real input names, copy B binds every key input to a renamed
        // fresh input, so the whole data-input logic hashes to shared nodes
        // and only the key-dependent cones duplicate.
        let mut aig = Aig::new(format!("{}_dip_miter", locked.name()));
        let lits_a = aig.lower_circuit(locked, &HashMap::new())?;
        let outs_a: Vec<AigLit> = locked.outputs().iter().map(|o| lits_a[o.index()]).collect();
        let bound: HashMap<String, AigLit> = key_names
            .iter()
            .map(|n| (n.clone(), aig.add_input(format!("{n}{KEY_B_SUFFIX}"))))
            .collect();
        let lits_b = aig.lower_circuit(locked, &bound)?;
        let outs_b: Vec<AigLit> = locked.outputs().iter().map(|o| lits_b[o.index()]).collect();
        let miter = aig.miter(&outs_a, &outs_b);
        aig.add_output("__kratt_miter", miter);
        // Pre-encode optimisation: cut rewriting shrinks the miter cone
        // once, and every CEGAR iteration then solves against the smaller
        // image.
        let aig = aig.rewrite();
        let enc = encode_aig(&mut solver, &aig, &HashMap::new());
        let miter_lit = *enc.outputs().last().expect("miter output registered");
        let key_a: Vec<Var> = key_names
            .iter()
            .map(|n| enc.input_var(n).expect("key input encoded"))
            .collect();
        let key_b: Vec<Var> = key_names
            .iter()
            .map(|n| {
                enc.input_var(&format!("{n}{KEY_B_SUFFIX}"))
                    .expect("key copy input encoded")
            })
            .collect();
        let data_vars: Vec<Var> = data_names
            .iter()
            .map(|n| enc.input_var(n).expect("data input encoded"))
            .collect();
        // The miter is gated, not asserted: DIP search assumes `miter_act`,
        // key extraction assumes its negation on the same solver.
        let miter_act = solver.new_var();
        solver.add_clause([Lit::negative(miter_act), miter_lit]);
        let encode_footprint = (solver.num_vars(), solver.num_clauses());

        let position_of = |name: &String| {
            let net = locked.find_net(name).expect("input exists");
            locked.input_position(net).expect("is input")
        };
        let data_positions = data_names.iter().map(position_of).collect();
        let key_positions = key_names.iter().map(position_of).collect();
        let base = Aig::from_circuit(locked)?;
        let fold = vec![AigLit::FALSE; base.num_nodes()];
        let key_copies = [&key_a, &key_b].map(|keys| {
            key_names
                .iter()
                .cloned()
                .zip(keys.iter().copied())
                .collect::<HashMap<String, Var>>()
        });
        Ok(DipEngine {
            locked,
            locked_sim: Simulator::new(locked)?,
            oracle,
            solver,
            miter_act,
            key_a,
            data_vars,
            key_names,
            data_positions,
            key_positions,
            oracle_positions,
            base,
            fold,
            key_copies,
            encode_footprint,
            base_queries: oracle.queries(),
            budget: budget.clone(),
            deadline,
        })
    }

    /// `(vars, clauses)` of the initial miter encoding — the image every
    /// CEGAR iteration re-solves, before any IO-constraint copies.
    pub(crate) fn encode_footprint(&self) -> (usize, usize) {
        self.encode_footprint
    }

    /// Whether the loop must stop before its next DIP search: the deadline
    /// passed, the `iterations` completed so far reached the iteration cap,
    /// or the oracle-query cap is spent.
    pub(crate) fn out_of_budget(&self, iterations: usize) -> bool {
        self.deadline.expired()
            || iterations >= self.budget.max_iterations
            || self.budget.oracle_queries_exhausted(self.oracle_queries())
    }

    /// Searches for the next distinguishing input pattern: one solve of
    /// the miter with its gate open.
    pub(crate) fn find_dip(&mut self) -> DipSearch {
        match self
            .solver
            .solve_with_assumptions(&[Lit::positive(self.miter_act)])
        {
            SatResult::Sat(model) => DipSearch::Found {
                dip: self.data_vars.iter().map(|&v| model.value(v)).collect(),
                candidate_key: self.key_a.iter().map(|&v| model.value(v)).collect(),
            },
            SatResult::Unsat => DipSearch::Exhausted,
            SatResult::Unknown => DipSearch::Budget,
        }
    }

    /// The oracle's input pattern for a data-input pattern; oracle inputs
    /// the locked circuit lacks stay `false`.
    fn oracle_pattern(&self, dip: &[bool]) -> Vec<bool> {
        let mut pattern = vec![false; self.oracle.num_inputs()];
        for (&position, &value) in self.oracle_positions.iter().zip(dip) {
            pattern[position] = value;
        }
        pattern
    }

    /// Queries the oracle for the given data-input pattern.
    pub(crate) fn query_oracle(&self, dip: &[bool]) -> Result<Vec<bool>, AttackError> {
        Ok(self.oracle.query(&self.oracle_pattern(dip))?)
    }

    /// Queries the oracle for many data-input patterns in packed 64-wide
    /// sweeps. Counts one query per pattern, exactly like the scalar path.
    pub(crate) fn query_oracle_batch(
        &self,
        dips: &[Vec<bool>],
    ) -> Result<Vec<Vec<bool>>, AttackError> {
        let patterns: Vec<Vec<bool>> = dips.iter().map(|dip| self.oracle_pattern(dip)).collect();
        Ok(self.oracle.query_batch(&patterns)?)
    }

    /// Adds the IO constraint "both key copies must reproduce `outputs` on
    /// `dip`" to the miter.
    ///
    /// One pass over `base` in node order folds the constraint into a
    /// scratch AIG: data inputs become the DIP's constants, key inputs the
    /// scratch AIG's inputs, and every AND node the conjunction of its
    /// folded fanins, so constant folding leaves only the key-dependent
    /// residue. That AIG is encoded once per key copy over the copy's key
    /// variables, and every output literal is pinned to the oracle's
    /// response with a unit clause.
    pub(crate) fn constrain(&mut self, dip: &[bool], outputs: &[bool]) {
        let mut scratch = Aig::new("dip_constraint");
        let inputs = self.base.input_nodes();
        for (&position, &value) in self.data_positions.iter().zip(dip) {
            self.fold[inputs[position] as usize] = AigLit::TRUE.when(value);
        }
        for (&position, name) in self.key_positions.iter().zip(&self.key_names) {
            self.fold[inputs[position] as usize] = scratch.add_input(name.as_str());
        }
        for node in 1..self.base.num_nodes() as u32 {
            if self.base.is_and(node) {
                let (f0, f1) = self.base.fanins(node);
                let (a, b) = (folded(&self.fold, f0), folded(&self.fold, f1));
                self.fold[node as usize] = scratch.and(a, b);
            }
        }
        // Output names are never read: the scratch AIG only lives for the
        // two encodings below.
        for &lit in self.base.outputs() {
            scratch.add_output(String::new(), folded(&self.fold, lit));
        }
        for keys in &self.key_copies {
            let enc = encode_aig(&mut self.solver, &scratch, keys);
            for (&out_lit, &value) in enc.outputs().iter().zip(outputs) {
                self.solver
                    .add_clause([if value { out_lit } else { !out_lit }]);
            }
        }
    }

    /// The family's one ending once no DIP is left: a key consistent with
    /// every accumulated IO constraint, which is functionally correct.
    ///
    /// Re-solves the *same* solver as the DIP loop with the miter gate
    /// closed (`¬miter_act`), so the `K_A` copy — already constrained by
    /// every IO pair — yields the key directly with all learned clauses
    /// retained. The shared deadline or conflict budget running out
    /// mid-extraction ends the run out of budget, and constraints no key
    /// satisfies are [`AttackError::NoConsistentKey`]: neither is ever a
    /// fabricated key.
    pub(crate) fn extract_key(&mut self) -> Result<AttackOutcome, AttackError> {
        match self
            .solver
            .solve_with_assumptions(&[Lit::negative(self.miter_act)])
        {
            SatResult::Sat(model) => Ok(AttackOutcome::ExactKey(SecretKey::from_bits(
                self.key_a.iter().map(|&v| model.value(v)).collect(),
            ))),
            SatResult::Unsat => Err(AttackError::NoConsistentKey),
            SatResult::Unknown => Ok(AttackOutcome::OutOfBudget),
        }
    }

    /// The run of the DIP-family attack `attack`, ending now with `outcome`
    /// after `iterations` iterations; its step timings are the caller's.
    pub(crate) fn attack_run(
        &self,
        attack: &str,
        outcome: AttackOutcome,
        iterations: usize,
    ) -> AttackRun {
        AttackRun {
            attack: attack.to_string(),
            threat_model: ThreatModel::OracleGuided,
            outcome,
            runtime: self.deadline.elapsed(),
            iterations,
            oracle_queries: self.oracle_queries(),
            steps: Vec::new(),
            members: Vec::new(),
        }
    }

    /// The full-width locked-circuit input pattern for `(key, data)`.
    fn locked_pattern(&self, key: &[bool], data: &[bool]) -> Vec<bool> {
        let mut pattern = vec![false; self.locked.num_inputs()];
        for (&position, &value) in self.data_positions.iter().zip(data) {
            pattern[position] = value;
        }
        for (&position, &value) in self.key_positions.iter().zip(key) {
            pattern[position] = value;
        }
        pattern
    }

    /// Simulates the locked circuit under `key` on many data patterns in
    /// packed 64-wide sweeps.
    pub(crate) fn simulate_locked_batch(
        &self,
        key: &[bool],
        data: &[Vec<bool>],
    ) -> Result<Vec<Vec<bool>>, AttackError> {
        let patterns: Vec<Vec<bool>> = data
            .iter()
            .map(|row| self.locked_pattern(key, row))
            .collect();
        Ok(self.locked_sim.run_batch(&patterns)?)
    }

    /// Number of data (non-key) inputs.
    pub(crate) fn num_data_inputs(&self) -> usize {
        self.data_vars.len()
    }

    /// Number of oracle queries this run has spent so far.
    pub(crate) fn oracle_queries(&self) -> u64 {
        self.oracle.queries().saturating_sub(self.base_queries)
    }
}

/// The edge `lit` of the base AIG maps to under the node map `fold`.
fn folded(fold: &[AigLit], lit: AigLit) -> AigLit {
    fold[lit.node() as usize].when(!lit.is_complemented())
}

/// CNF footprint of the initial DIP miter, as pinned by the `dip_aig`
/// golden table of `tests/exact_counters.rs` and reported by perfbench's
/// traced `sat` cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DipEncodeStats {
    /// Solver variables after the miter encode (before any constraints).
    pub vars: usize,
    /// Solver clauses after the miter encode (before any constraints).
    pub clauses: usize,
}

/// Builds the DIP miter for `locked` and reports its CNF footprint without
/// running the CEGAR loop.
///
/// The engine argument has one value, [`DipEngineKind::Aig`]; the
/// parameter stays so that existing callers keep compiling.
pub fn measure_dip_encoding(
    locked: &Circuit,
    oracle: &Oracle,
    _engine: DipEngineKind,
) -> Result<DipEncodeStats, AttackError> {
    let budget = Budget::default();
    let deadline = budget.start();
    let dip = DipEngine::new(locked, oracle, &budget, deadline)?;
    let (vars, clauses) = dip.encode_footprint();
    Ok(DipEncodeStats { vars, clauses })
}

/// The SAT-based attack of Subramanyan et al. (HOST'15): iteratively find
/// DIPs, query the oracle, and constrain the key space until every remaining
/// key is functionally correct. It runs under the request's [`Budget`]; an
/// exhausted budget reports `OoT` like the paper.
#[derive(Debug, Clone, Default)]
pub struct SatAttack;

impl SatAttack {
    /// Creates the attack.
    pub fn new() -> Self {
        SatAttack
    }
}

impl Attack for SatAttack {
    fn name(&self) -> &'static str {
        "sat"
    }

    fn supports(&self, model: ThreatModel) -> bool {
        model == ThreatModel::OracleGuided
    }

    fn execute(&self, request: &AttackRequest<'_>) -> Result<AttackRun, AttackError> {
        exact_dip_attack(self.name(), request, 1)
    }
}

/// The exact DIP loop of the SAT attack and of Double DIP, run as
/// `attack` on `request`.
///
/// Each step finds a DIP, queries the oracle for it and constrains the
/// miter with the answer, so every DIP is searched under all earlier IO
/// constraints. An iteration groups up to `dips_per_iteration` steps. The
/// budget is checked before every search against the iterations completed
/// so far, and an iteration cut short after its first DIP still counts.
/// Once no DIP is left, the key is extracted. The steps are `encode`,
/// `dip-loop` and, with a recovered key, `key-extraction`.
pub(crate) fn exact_dip_attack(
    attack: &str,
    request: &AttackRequest<'_>,
    dips_per_iteration: usize,
) -> Result<AttackRun, AttackError> {
    let oracle = request.require_oracle(attack)?;
    let deadline = request.deadline();
    if deadline.expired() {
        return Ok(AttackRun::out_of_budget(attack, request.threat_model()));
    }
    let mut engine = DipEngine::new(request.locked, oracle, &request.budget, deadline.clone())?;
    let encode_time = deadline.elapsed();
    let mut dips = 0usize;
    let mut extraction_start = None;
    let outcome = loop {
        if engine.out_of_budget(dips / dips_per_iteration) {
            break AttackOutcome::OutOfBudget;
        }
        match engine.find_dip() {
            DipSearch::Found { dip, .. } => {
                let outputs = engine.query_oracle(&dip)?;
                engine.constrain(&dip, &outputs);
                dips += 1;
            }
            DipSearch::Budget => break AttackOutcome::OutOfBudget,
            DipSearch::Exhausted => {
                extraction_start = Some(deadline.elapsed());
                break engine.extract_key()?;
            }
        }
    };
    let mut run = engine.attack_run(attack, outcome, dips.div_ceil(dips_per_iteration));
    // Only a recovered key closes with a key-extraction step; a run out
    // of budget counts everything after encoding as its DIP loop.
    let extraction_start = extraction_start.filter(|_| run.exact_key().is_some());
    let loop_end = extraction_start.unwrap_or(run.runtime);
    run.steps = vec![
        StepTiming::new("encode", encode_time),
        StepTiming::new("dip-loop", loop_end.saturating_sub(encode_time)),
    ];
    if let Some(start) = extraction_start {
        run.steps
            .push(StepTiming::new("key-extraction", run.runtime - start));
    }
    Ok(run)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kratt_locking::{
        AntiSat, LockedCircuit, LockingTechnique, RandomXorLocking, SarLock, SecretKey,
    };
    use kratt_netlist::{GateType, NetId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    /// Runs the attack through [`Attack::execute`] under `budget`.
    pub(crate) fn run(
        locked: &Circuit,
        oracle: &Oracle,
        budget: Budget,
    ) -> Result<AttackRun, AttackError> {
        SatAttack::new().execute(&AttackRequest::oracle_guided(locked, oracle).with_budget(budget))
    }

    pub(crate) fn adder4() -> Circuit {
        let mut c = Circuit::new("adder4");
        let a: Vec<NetId> = (0..4)
            .map(|i| c.add_input(format!("a{i}")).unwrap())
            .collect();
        let b: Vec<NetId> = (0..4)
            .map(|i| c.add_input(format!("b{i}")).unwrap())
            .collect();
        let mut carry = c.add_input("cin").unwrap();
        for i in 0..4 {
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
    fn sat_attack_breaks_random_xor_locking() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b101101, 6);
        let locked = RandomXorLocking::new(6, 11)
            .lock(&original, &secret)
            .unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let run = run(&locked.circuit, &oracle, Budget::default()).unwrap();
        let key = run.outcome.exact_key().expect("RLL must be broken").clone();
        // The recovered key must be functionally correct (it may differ
        // bitwise if the instance has multiple correct keys).
        let unlocked = locked.apply_key(&key).unwrap();
        assert!(kratt_netlist::sim::exhaustively_equivalent(&original, &unlocked).unwrap());
        assert!(run.iterations <= 64, "RLL should fall within a few DIPs");
    }

    #[test]
    fn sat_attack_breaks_small_sarlock_eventually() {
        // With only 3 key bits the exponential DIP count is tiny, so even a
        // SAT-resilient scheme falls; this checks the full loop end to end.
        let original = adder4();
        let secret = SecretKey::from_u64(0b110, 3);
        let locked = SarLock::new(3).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        let run = run(&locked.circuit, &oracle, Budget::default()).unwrap();
        let key = run
            .outcome
            .exact_key()
            .expect("3-bit SARLock must be broken")
            .clone();
        let unlocked = locked.apply_key(&key).unwrap();
        assert!(kratt_netlist::sim::exhaustively_equivalent(&original, &unlocked).unwrap());
    }

    #[test]
    fn sat_attack_times_out_on_a_larger_point_function() {
        // 9 protected bits means up to ~2^9 DIPs; with a tiny iteration
        // budget the attack must report OoT, which is the Table III shape.
        let original = adder4();
        let secret = SecretKey::from_u64(0x1ab & 0x1ff, 9);
        let locked = SarLock::new(9).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original).unwrap();
        let budget = Budget {
            time_limit: Some(Duration::from_secs(2)),
            max_iterations: 5,
            ..Budget::default()
        };
        let run = run(&locked.circuit, &oracle, budget).unwrap();
        assert!(run.outcome.is_out_of_budget());
        assert!(run.iterations <= 5);
    }

    /// A random host over `i0..i{n}`: a seeded gate recipe, built with its
    /// inputs declared in order or in reverse, so two builds compute the
    /// same function over differently ordered interfaces.
    fn random_host(seed: u64, reversed: bool) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_inputs = rng.gen_range(4..7usize);
        let mut c = Circuit::new(format!("host{seed}"));
        let mut declared: Vec<(usize, NetId)> = (0..n_inputs)
            .map(|i| if reversed { n_inputs - 1 - i } else { i })
            .map(|i| (i, c.add_input(format!("i{i}")).unwrap()))
            .collect();
        declared.sort();
        let mut nets: Vec<NetId> = declared.into_iter().map(|(_, net)| net).collect();
        const TYPES: [GateType; 7] = [
            GateType::And,
            GateType::Or,
            GateType::Nand,
            GateType::Nor,
            GateType::Xor,
            GateType::Xnor,
            GateType::Not,
        ];
        for g in 0..rng.gen_range(8..16usize) {
            let ty = TYPES[rng.gen_range(0..TYPES.len())];
            let arity = if ty == GateType::Not { 1 } else { 2 };
            let ins: Vec<NetId> = (0..arity)
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            nets.push(c.add_gate(ty, format!("g{g}"), &ins).unwrap());
        }
        for _ in 0..rng.gen_range(1..4usize) {
            c.mark_output(nets[rng.gen_range(n_inputs..nets.len())]);
        }
        c
    }

    /// A random locked soup: `random_host(seed)` locked with RLL, SARLock
    /// or Anti-SAT (by `seed % 3`) under a key of 3 to 5 bits drawn from
    /// `rng`. Returns the host, the locked circuit and an oracle over the
    /// host built with its inputs declared in reverse, so a query pattern
    /// must go through positions, not through the locked order.
    pub(crate) fn random_locked_soup(
        seed: u64,
        rng: &mut StdRng,
    ) -> (Circuit, LockedCircuit, Oracle) {
        let host = random_host(seed, false);
        let n_data = host.num_inputs();
        let key_bits = match seed % 3 {
            0 => rng.gen_range(3..6usize),
            1 => rng.gen_range(3..6usize).min(n_data),
            _ => 4,
        };
        let secret = SecretKey::random(rng, key_bits);
        let locked = match seed % 3 {
            0 => RandomXorLocking::new(key_bits, seed).lock(&host, &secret),
            1 => SarLock::new(key_bits).lock(&host, &secret),
            _ => AntiSat::new(key_bits).lock(&host, &secret),
        }
        .unwrap();
        let oracle = Oracle::new(random_host(seed, true)).unwrap();
        (host, locked, oracle)
    }

    /// The locked circuit's outputs at data pattern `dip` under key `key`.
    fn locked_outputs(locked: &Circuit, dip: &[bool], key: &[bool]) -> Vec<bool> {
        let data = locked.data_inputs().into_iter().zip(dip.iter().copied());
        let keys = locked.key_inputs().into_iter().zip(key.iter().copied());
        let assignment: Vec<(NetId, bool)> = data.chain(keys).collect();
        Simulator::new(locked)
            .unwrap()
            .run_assignment(&assignment)
            .unwrap()
    }

    proptest::proptest! {
        /// One IO constraint admits exactly the keys under which the locked
        /// circuit reproduces the oracle's response at the DIP, in each key
        /// copy.
        #[test]
        fn prop_one_io_constraint_admits_exactly_the_consistent_keys(seed in 0u64..1024) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let (host, locked, oracle) = random_locked_soup(seed, &mut rng);
            let (secret, locked) = (locked.secret, locked.circuit);
            let key_bits = secret.bits().len();
            let dip: Vec<bool> = (0..host.num_inputs()).map(|_| rng.gen_bool(0.5)).collect();

            let budget = Budget::default();
            let mut engine = DipEngine::new(&locked, &oracle, &budget, budget.start()).unwrap();
            let outputs = engine.query_oracle(&dip).unwrap();
            proptest::prop_assert_eq!(&outputs, &locked_outputs(&locked, &dip, secret.bits()));
            engine.constrain(&dip, &outputs);

            let key_b: Vec<Var> = engine
                .key_names
                .iter()
                .map(|name| engine.key_copies[1][name])
                .collect();
            for copy in [engine.key_a.clone(), key_b] {
                for k in 0..1u64 << key_bits {
                    let key: Vec<bool> = (0..key_bits).map(|i| k >> i & 1 == 1).collect();
                    let mut assumptions = vec![Lit::negative(engine.miter_act)];
                    assumptions.extend(copy.iter().zip(&key).map(|(&v, &b)| Lit::with_polarity(v, b)));
                    let admitted = engine.solver.solve_with_assumptions(&assumptions).is_sat();
                    let consistent = locked_outputs(&locked, &dip, &key) == outputs;
                    proptest::prop_assert!(
                        admitted == consistent,
                        "key {:0w$b}: admitted {}, consistent {}",
                        k,
                        admitted,
                        consistent,
                        w = key_bits
                    );
                }
            }
        }
    }

    #[test]
    fn missing_key_inputs_is_an_error() {
        let original = adder4();
        let oracle = Oracle::new(original.clone()).unwrap();
        assert!(matches!(
            run(&original, &oracle, Budget::default()),
            Err(AttackError::NoKeyInputs)
        ));
    }

    #[test]
    fn interface_mismatch_is_detected() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b1, 1);
        let locked = RandomXorLocking::new(1, 1)
            .lock(&original, &secret)
            .unwrap();
        // Oracle over a circuit with differently named inputs.
        let mut other = Circuit::new("other");
        let x = other.add_input("weird").unwrap();
        let y = other.add_gate(GateType::Not, "y", &[x]).unwrap();
        other.mark_output(y);
        let oracle = Oracle::new(other).unwrap();
        assert!(matches!(
            run(&locked.circuit, &oracle, Budget::default()),
            Err(AttackError::InterfaceMismatch(_))
        ));
    }
}

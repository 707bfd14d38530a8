//! Steps 6–7 of the flow: structural analysis and oracle-guided exhaustive
//! search (the OG path for DFLTs).
//!
//! The functionality-stripped circuit embedded in the locked subcircuit
//! contains implicants built from the protected primary inputs (the paper's
//! Fig. 5(c)/(d)). The structural analysis therefore:
//!
//! 1. collects the logic cones of the locked subcircuit whose support is
//!    protected primary inputs only — one forward support pass over the
//!    subcircuit gives every net's PPI-support bitset;
//! 2. justifies each cone to 0 and to 1, recording the (partially
//!    specified) protected-input pattern of a witness: packed 64-lane
//!    simulation over fixed-seed random PPI words finds a witness for most
//!    (cone, polarity) pairs, and SAT settles only the pairs no lane hit;
//! 3. augments them with single-bit patterns, orders everything by the
//!    number of unspecified bits, and
//! 4. expands the unspecified bits, querying the oracle for each candidate
//!    pattern while the locked netlist is driven with the key tied to the
//!    candidate: when both produce the same outputs, the candidate is the
//!    protected pattern — i.e. (through the PPI↔key association) the secret
//!    key.

use crate::{KrattError, RemovalArtifacts};
use kratt_attacks::{KeyGuess, Oracle};
use kratt_dataflow::{CircuitAnalysis, SupportDomain};
use kratt_netlist::sim::Simulator;
use kratt_netlist::{Aig, Circuit, NetId};
use kratt_sat::{encode_aig, Deadline, SatResult, Solver};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

/// Cap on the number of candidate logic cones analysed.
const MAX_CONES: usize = 1024;

/// Patterns with more unspecified bits than this are not expanded
/// exhaustively (their completions are skipped); keeps the search bounded
/// on wide keys.
const MAX_EXPANSION_BITS: usize = 16;

/// Budgets of the structural-analysis search.
#[derive(Debug, Clone)]
pub struct StructuralAnalysisConfig {
    /// Overall cap on oracle queries.
    pub max_oracle_queries: u64,
    /// The deadline of the attack that runs the search (unlimited by
    /// default): checked at entry and before every oracle query, and handed
    /// to the cone-justifying SAT solver.
    pub deadline: Deadline,
}

impl Default for StructuralAnalysisConfig {
    fn default() -> Self {
        StructuralAnalysisConfig {
            max_oracle_queries: 2_000_000,
            deadline: Deadline::unlimited(),
        }
    }
}

/// Outcome of the structural analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructuralOutcome {
    /// The protected pattern (and hence the key) was found.
    Key {
        /// The recovered key bits by key-input name.
        guess: KeyGuess,
        /// The protected-input pattern, by protected-input name.
        protected_pattern: Vec<(String, bool)>,
    },
    /// The budget ran out before a matching pattern was found.
    OutOfTime,
}

/// A partially specified protected-input pattern (`None` = unspecified).
type PartialPattern = Vec<Option<bool>>;

/// Random 64-lane words per protected input in the justification sweep:
/// 1024 lanes hit every polarity whose on-set covers more than ~1/256 of
/// the cone's input space with probability above 98%, so only near-point
/// polarities (the comparator-like implicants) reach SAT.
const SIM_WORDS: usize = 16;

/// Seed of the justification sweep's word stream (fixed, so the promising
/// patterns — and with them the oracle queries — are reproducible).
const SIM_SEED: u64 = 0x6b72_6174_742d_6f67;

/// Runs the structural analysis and exhaustive search.
///
/// # Errors
///
/// Propagates netlist/simulation/oracle errors.
pub fn structural_analysis(
    artifacts: &RemovalArtifacts,
    subcircuit: &Circuit,
    locked: &Circuit,
    oracle: &Oracle,
    config: &StructuralAnalysisConfig,
) -> Result<StructuralOutcome, KrattError> {
    let ppi_names = subcircuit_ppis(artifacts, subcircuit);
    let locked_sim = Simulator::new(locked)?;
    let found = expand_candidates(subcircuit, &ppi_names, config, |candidate| {
        let matches = candidate_matches(
            artifacts,
            &ppi_names,
            candidate,
            locked,
            &locked_sim,
            oracle,
        )?;
        Ok(if matches {
            ControlFlow::Break(candidate.to_vec())
        } else {
            ControlFlow::Continue(())
        })
    })?;
    Ok(match found {
        Some(candidate) => StructuralOutcome::Key {
            guess: pattern_to_key_guess(artifacts, &ppi_names, &candidate),
            protected_pattern: named_pattern(&ppi_names, &candidate),
        },
        None => StructuralOutcome::OutOfTime,
    })
}

/// The paper's §V flow for locking schemes whose restore unit lives in
/// read-proof hardware (SFLL-Flex, row-activated LUTs): the key itself cannot
/// be recovered, but the *protected patterns* can — every candidate pattern
/// on which the functionality-stripped circuit (the unit-stripped circuit
/// with the critical signal and the dangling key inputs tied to 0) disagrees
/// with the oracle is a stripped pattern. The returned patterns are what
/// [`reconstruct_original_from_patterns`](crate::reconstruct::reconstruct_original_from_patterns)
/// needs to rebuild the original circuit.
///
/// Candidate generation and the budget knobs are shared with
/// [`structural_analysis`]; unlike it, this search does not stop at the first
/// hit — it keeps going until the candidate list or the budget is exhausted
/// and returns *all* protected patterns it found.
///
/// # Errors
///
/// Propagates netlist/simulation/oracle errors.
pub fn recover_protected_patterns(
    artifacts: &RemovalArtifacts,
    subcircuit: &Circuit,
    oracle: &Oracle,
    config: &StructuralAnalysisConfig,
) -> Result<Vec<Vec<(String, bool)>>, KrattError> {
    let ppi_names = subcircuit_ppis(artifacts, subcircuit);

    // Build the functionality-stripped circuit: USC with cs1 and the dangling
    // key inputs tied to 0.
    let usc = &artifacts.unit_stripped;
    let cs1 = usc.find_net(&artifacts.critical_signal).ok_or_else(|| {
        KrattError::Netlist(kratt_netlist::NetlistError::UnknownNet(
            artifacts.critical_signal.clone(),
        ))
    })?;
    let mut ties: Vec<(NetId, bool)> = vec![(cs1, false)];
    ties.extend(usc.key_inputs().into_iter().map(|k| (k, false)));
    let fsc = kratt_netlist::transform::set_inputs_constant(usc, &ties)?;
    let fsc_sim = Simulator::new(&fsc)?;

    let mut found: Vec<Vec<(String, bool)>> = Vec::new();
    expand_candidates(subcircuit, &ppi_names, config, |candidate| {
        // Oracle and FSC on the same input assignment (PPIs = candidate,
        // everything else 0).
        let assignment: Vec<(&str, bool)> = ppi_names
            .iter()
            .map(String::as_str)
            .zip(candidate.iter().copied())
            .collect();
        let oracle_out = oracle
            .query_by_name(&assignment)
            .map_err(KrattError::Netlist)?;
        let mut fsc_pattern = vec![false; fsc.num_inputs()];
        for (name, &value) in ppi_names.iter().zip(candidate) {
            if let Some(net) = fsc.find_net(name) {
                if let Some(position) = fsc.input_position(net) {
                    fsc_pattern[position] = value;
                }
            }
        }
        if fsc_sim.run(&fsc_pattern)? != oracle_out {
            found.push(named_pattern(&ppi_names, candidate));
        }
        Ok(ControlFlow::<()>::Continue(()))
    })?;
    Ok(found)
}

/// The protected primary inputs that are primary inputs of the subcircuit,
/// in association order — the bit positions of every pattern.
fn subcircuit_ppis(artifacts: &RemovalArtifacts, subcircuit: &Circuit) -> Vec<String> {
    artifacts
        .protected_inputs()
        .into_iter()
        .filter(|name| {
            subcircuit
                .find_net(name)
                .is_some_and(|n| subcircuit.is_input(n))
        })
        .collect()
}

/// Step 4, shared by both searches: expands the unspecified bits of every
/// promising pattern (most specific first) and hands each fresh, fully
/// specified candidate to `check` — one oracle query each — until `check`
/// breaks with a result, the candidates run out, or the deadline or the
/// query cap stops the search (both `None`).
fn expand_candidates<T>(
    subcircuit: &Circuit,
    ppi_names: &[String],
    config: &StructuralAnalysisConfig,
    mut check: impl FnMut(&[bool]) -> Result<ControlFlow<T>, KrattError>,
) -> Result<Option<T>, KrattError> {
    if ppi_names.is_empty() || config.deadline.expired() {
        return Ok(None);
    }
    let patterns = promising_patterns(subcircuit, ppi_names, config)?;
    let mut tried: HashSet<Vec<bool>> = HashSet::new();
    let mut queries = 0u64;
    for pattern in &patterns {
        let unspecified: Vec<usize> = (0..pattern.len())
            .filter(|&i| pattern[i].is_none())
            .collect();
        if unspecified.len() > MAX_EXPANSION_BITS {
            continue;
        }
        for completion in 0u64..(1u64 << unspecified.len()) {
            if config.deadline.expired() || queries >= config.max_oracle_queries {
                return Ok(None);
            }
            let mut candidate: Vec<bool> = pattern.iter().map(|b| b.unwrap_or(false)).collect();
            for (bit, &position) in unspecified.iter().enumerate() {
                candidate[position] = completion >> bit & 1 != 0;
            }
            if !tried.insert(candidate.clone()) {
                continue;
            }
            queries += 1;
            if let ControlFlow::Break(result) = check(&candidate)? {
                return Ok(Some(result));
            }
        }
    }
    Ok(None)
}

/// Steps 1–3 of the structural analysis: collect PPI-only logic cones,
/// justify each cone to 0 and 1 to obtain up to two partially specified
/// patterns per cone, augment them with single-bit patterns and order
/// everything by the number of unspecified bits (most specific first).
fn promising_patterns(
    subcircuit: &Circuit,
    ppi_names: &[String],
    config: &StructuralAnalysisConfig,
) -> Result<Vec<PartialPattern>, KrattError> {
    let ppi_positions: Vec<usize> = ppi_names
        .iter()
        .map(|name| {
            let net = subcircuit.find_net(name).expect("protected input exists");
            subcircuit.input_position(net).expect("PPIs are inputs")
        })
        .collect();

    // --- Step 1: candidate logic cones with PPI-only support. -------------
    let cones = ppi_only_cones(subcircuit, &ppi_positions, MAX_CONES)?;

    // --- Step 2: two promising patterns per cone (output = 0 and 1). ------
    let mut patterns: Vec<PartialPattern> =
        justify_cones(subcircuit, &ppi_positions, &cones, config)?
            .into_iter()
            .flatten()
            .flatten()
            .collect();

    // --- Step 3: augment with single-bit patterns and order by specificity.
    for index in 0..ppi_names.len() {
        for value in [false, true] {
            let mut pattern: PartialPattern = vec![None; ppi_names.len()];
            pattern[index] = Some(value);
            patterns.push(pattern);
        }
    }
    patterns.sort_by_key(|p| p.iter().filter(|b| b.is_none()).count());
    patterns.dedup();
    Ok(patterns)
}

/// A candidate logic cone: a gate output of the subcircuit whose support is
/// protected primary inputs only.
#[derive(Debug)]
struct Cone {
    /// The cone's root net.
    net: NetId,
    /// The cone's support as a bitset over the PPIs (bit *i* = the *i*-th
    /// protected input).
    support: Vec<u64>,
}

impl Cone {
    fn depends_on(&self, bit: usize) -> bool {
        self.support[bit / 64] >> (bit % 64) & 1 != 0
    }

    /// The partial pattern specifying exactly the cone's support bits, each
    /// read from `value_of`.
    fn pattern(&self, num_ppis: usize, value_of: impl Fn(usize) -> bool) -> PartialPattern {
        (0..num_ppis)
            .map(|bit| self.depends_on(bit).then(|| value_of(bit)))
            .collect()
    }
}

/// Sort key of a cone: frontier first, then wide support, then few gates,
/// then net id.
type ConeRank = (Reverse<bool>, Reverse<u32>, usize, NetId);

/// Collects (up to `max_cones`) nets of the subcircuit whose fan-in support
/// consists of protected primary inputs only — the paper's "logic cones of
/// the locked subcircuit whose inputs are the protected primary inputs".
/// Cones whose consumers also depend on non-protected signals come first
/// (they are the frontier of the embedded FSC implicants); ties are broken
/// towards wide support (more specified pattern bits) and then towards small
/// cones — the hard-wired implicants of the FSC are shallow comparator-like
/// structures, so "wide support carried by few gates" is exactly their
/// signature and puts them ahead of ordinary host logic.
///
/// Supports come from one forward [`SupportDomain`] pass seeded with the
/// PPIs' input positions; cone sizes (the gates of each cone's transitive
/// fan-in) from one epoch-stamped walk per cone.
fn ppi_only_cones(
    subcircuit: &Circuit,
    ppi_positions: &[usize],
    max_cones: usize,
) -> Result<Vec<Cone>, KrattError> {
    let domain = SupportDomain::for_positions(subcircuit.num_inputs(), ppi_positions);
    let mut deps = CircuitAnalysis::new(subcircuit)?.run(subcircuit, &domain, &[]);
    let ppi_only: Vec<bool> = subcircuit
        .nets()
        .map(|net| {
            let d = &deps[net.index()];
            subcircuit.driver(net).is_some() && !d.data && d.keys.iter().any(|&w| w != 0)
        })
        .collect();

    // A cone is on the frontier when some consumer is not PPI-only, or it
    // has no consumer at all.
    let mut consumed = vec![false; subcircuit.num_nets()];
    let mut feeds_mixed = vec![false; subcircuit.num_nets()];
    for (_, gate) in subcircuit.gates() {
        for input in &gate.inputs {
            consumed[input.index()] = true;
            feeds_mixed[input.index()] |= !ppi_only[gate.output.index()];
        }
    }

    let mut stamp = vec![0u32; subcircuit.num_nets()];
    let mut stack: Vec<NetId> = Vec::new();
    let mut ranked: Vec<(ConeRank, Cone)> = Vec::new();
    for (epoch, net) in (1u32..).zip(subcircuit.nets().filter(|n| ppi_only[n.index()])) {
        let mut cone_gates = 0usize;
        stamp[net.index()] = epoch;
        stack.push(net);
        while let Some(current) = stack.pop() {
            let Some(gid) = subcircuit.driver(current) else {
                continue;
            };
            cone_gates += 1;
            for &input in &subcircuit.gate(gid).inputs {
                if stamp[input.index()] != epoch {
                    stamp[input.index()] = epoch;
                    stack.push(input);
                }
            }
        }
        let support = std::mem::take(&mut deps[net.index()].keys);
        let width: u32 = support.iter().map(|w| w.count_ones()).sum();
        let frontier = !consumed[net.index()] || feeds_mixed[net.index()];
        let key = (Reverse(frontier), Reverse(width), cone_gates, net);
        ranked.push((key, Cone { net, support }));
    }
    ranked.sort_unstable_by_key(|(key, _)| *key);
    Ok(ranked
        .into_iter()
        .take(max_cones)
        .map(|(_, cone)| cone)
        .collect())
}

/// Step 2: one witness pattern per reachable (cone, polarity), indexed
/// `[cone][polarity]` (`None` where the polarity is unreachable or the
/// budget stopped SAT first). A packed simulation of the subcircuit over
/// [`SIM_WORDS`] random words per PPI (non-protected inputs held at 0, which
/// PPI-only cones ignore) justifies every pair some lane hits. The rest go
/// to SAT: the subcircuit is lowered into an AIG once, each missed pair's
/// root edge, in the pair's polarity, is registered as an output, and each
/// output is assumed in turn, bounded by the search's deadline.
fn justify_cones(
    subcircuit: &Circuit,
    ppi_positions: &[usize],
    cones: &[Cone],
    config: &StructuralAnalysisConfig,
) -> Result<Vec<[Option<PartialPattern>; 2]>, KrattError> {
    let num_ppis = ppi_positions.len();
    let mut witnesses: Vec<[Option<PartialPattern>; 2]> = vec![[None, None]; cones.len()];
    let mut pending: Vec<(usize, bool)> = (0..cones.len())
        .flat_map(|cone| [(cone, false), (cone, true)])
        .collect();

    let sim = Simulator::new(subcircuit)?;
    let mut inputs = vec![0u64; subcircuit.num_inputs()];
    let mut words = vec![0u64; num_ppis];
    let mut rng = SplitMix64(SIM_SEED);
    for _ in 0..SIM_WORDS {
        if pending.is_empty() {
            break;
        }
        for (word, &position) in words.iter_mut().zip(ppi_positions) {
            *word = rng.next_u64();
            inputs[position] = *word;
        }
        let values = sim.run_words_full(&inputs)?;
        pending.retain(|&(cone, target)| {
            let value = values[cones[cone].net.index()];
            let hits = if target { value } else { !value };
            if hits == 0 {
                return true;
            }
            let lane = hits.trailing_zeros();
            witnesses[cone][usize::from(target)] =
                Some(cones[cone].pattern(num_ppis, |bit| words[bit] >> lane & 1 != 0));
            false
        });
    }

    if !pending.is_empty() {
        let mut aig = Aig::new(subcircuit.name());
        let lits = aig.lower_circuit(subcircuit, &HashMap::new())?;
        for &(cone, target) in &pending {
            let net = cones[cone].net;
            aig.add_output(subcircuit.net_name(net), lits[net.index()].when(target));
        }
        let mut solver = Solver::with_config(kratt_sat::SolverConfig {
            deadline: config.deadline.clone(),
            ..Default::default()
        });
        // Inputs are declared in the subcircuit's order, so a PPI's input
        // position is its encoding position.
        let encoding = encode_aig(&mut solver, &aig, &HashMap::new());
        for (&(cone, target), &root) in pending.iter().zip(encoding.outputs()) {
            if let SatResult::Sat(model) = solver.solve_with_assumptions(&[root]) {
                witnesses[cone][usize::from(target)] = Some(cones[cone].pattern(num_ppis, |bit| {
                    model.value(encoding.inputs()[ppi_positions[bit]].1)
                }));
            }
        }
    }
    Ok(witnesses)
}

/// SplitMix64 (Steele, Lea & Flood): the word stream of the justification
/// sweep and of the classification's simulation stage.
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Tests one fully specified protected-input candidate: the oracle (original
/// IC) and the locked netlist with the key tied to the candidate must agree
/// on the outputs when all other primary inputs are 0.
fn candidate_matches(
    artifacts: &RemovalArtifacts,
    ppi_names: &[String],
    candidate: &[bool],
    locked: &Circuit,
    locked_sim: &Simulator<'_>,
    oracle: &Oracle,
) -> Result<bool, KrattError> {
    // Oracle query: protected inputs = candidate, everything else 0.
    let assignment: Vec<(&str, bool)> = ppi_names
        .iter()
        .map(String::as_str)
        .zip(candidate.iter().copied())
        .collect();
    let oracle_out = oracle
        .query_by_name(&assignment)
        .map_err(KrattError::Netlist)?;

    // Locked netlist: same primary inputs, key inputs tied through the
    // PPI ↔ key association.
    let mut pattern = vec![false; locked.num_inputs()];
    for (name, &value) in ppi_names.iter().zip(candidate) {
        if let Some(net) = locked.find_net(name) {
            if let Some(position) = locked.input_position(net) {
                pattern[position] = value;
            }
        }
    }
    for (ppi, keys) in &artifacts.associations {
        let Some(ppi_position) = ppi_names.iter().position(|n| n == ppi) else {
            continue;
        };
        for key in keys {
            if let Some(net) = locked.find_net(key) {
                if let Some(position) = locked.input_position(net) {
                    pattern[position] = candidate[ppi_position];
                }
            }
        }
    }
    let locked_out = locked_sim.run(&pattern)?;

    // Compare only the outputs the oracle also has (same names/order since
    // locking preserves the output list).
    Ok(locked_out == oracle_out)
}

/// A fully specified candidate by protected-input name.
fn named_pattern(ppi_names: &[String], candidate: &[bool]) -> Vec<(String, bool)> {
    ppi_names
        .iter()
        .cloned()
        .zip(candidate.iter().copied())
        .collect()
}

/// Maps a protected-input pattern to a key guess through the association.
fn pattern_to_key_guess(
    artifacts: &RemovalArtifacts,
    ppi_names: &[String],
    candidate: &[bool],
) -> KeyGuess {
    let mut guess = KeyGuess::new();
    for (ppi, keys) in &artifacts.associations {
        if let Some(position) = ppi_names.iter().position(|n| n == ppi) {
            for key in keys {
                guess.set(key.clone(), candidate[position]);
            }
        }
    }
    guess
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::extract_locked_subcircuit;
    use crate::removal::remove_locking_unit;
    use kratt_attacks::score_guess;
    use kratt_benchmarks::arith::ripple_carry_adder;
    use kratt_benchmarks::small::majority;
    use kratt_locking::{Cac, LockingTechnique, SecretKey, SfllHd, TtLock};
    use kratt_netlist::GateType;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_structural(
        locked: &kratt_locking::LockedCircuit,
        original: &Circuit,
    ) -> StructuralOutcome {
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        structural_analysis(
            &artifacts,
            &subcircuit,
            &locked.circuit,
            &oracle,
            &StructuralAnalysisConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn ttlock_secret_is_recovered_on_the_running_example() {
        let original = majority();
        let secret = SecretKey::from_u64(0b010, 3);
        let locked = TtLock::new(3).lock(&original, &secret).unwrap();
        match run_structural(&locked, &original) {
            StructuralOutcome::Key {
                guess,
                protected_pattern,
            } => {
                assert_eq!(score_guess(&locked, &guess), (3, 3));
                assert_eq!(protected_pattern.len(), 3);
            }
            other => panic!("expected the key, got {other:?}"),
        }
    }

    #[test]
    fn cac_secret_is_recovered() {
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b10110, 5);
        let locked = Cac::new(5).lock(&original, &secret).unwrap();
        match run_structural(&locked, &original) {
            StructuralOutcome::Key { guess, .. } => {
                assert_eq!(score_guess(&locked, &guess), (5, 5));
            }
            other => panic!("expected the key, got {other:?}"),
        }
    }

    #[test]
    fn sfll_hd0_secret_is_recovered() {
        // SFLL-HD with distance 0 protects a single pattern like TTLock but
        // builds its restore unit from a popcount comparator, so it exercises
        // a structurally different cone in the analysis. (Distance > 0
        // restore units are not key-equality comparators and are out of
        // KRATT's scope, per the paper's §V discussion.)
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b0111, 4);
        let locked = SfllHd::new(4, 0).lock(&original, &secret).unwrap();
        match run_structural(&locked, &original) {
            StructuralOutcome::Key { guess, .. } => {
                let key_names = locked.circuit.key_input_names();
                let key = guess.to_secret_key(&key_names);
                let unlocked = locked.apply_key(&key).unwrap();
                assert!(kratt_netlist::sim::exhaustively_equivalent(&original, &unlocked).unwrap());
            }
            other => panic!("expected a key, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_budget_reports_out_of_time() {
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b1100, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
        let oracle = Oracle::new(original).unwrap();
        let config = StructuralAnalysisConfig {
            max_oracle_queries: 0,
            ..Default::default()
        };
        assert_eq!(
            structural_analysis(&artifacts, &subcircuit, &locked.circuit, &oracle, &config)
                .unwrap(),
            StructuralOutcome::OutOfTime
        );
    }

    #[test]
    fn cancelled_deadline_stops_the_search_before_any_oracle_query() {
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b1100, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
        let oracle = Oracle::new(original).unwrap();
        let config = StructuralAnalysisConfig::default();
        config.deadline.cancel();
        assert_eq!(
            structural_analysis(&artifacts, &subcircuit, &locked.circuit, &oracle, &config)
                .unwrap(),
            StructuralOutcome::OutOfTime
        );
        assert_eq!(oracle.queries(), 0);
        let patterns = recover_protected_patterns(&artifacts, &subcircuit, &oracle, &config);
        assert!(patterns.unwrap().is_empty());
        assert_eq!(oracle.queries(), 0);
    }

    /// The per-gate reference scan: one `support()` and one
    /// `fanin_cone_gates` walk per gate, ranked frontier first, then wide
    /// support, then small cones, then net id. Returns each kept cone with
    /// its support.
    fn reference_cones(
        subcircuit: &Circuit,
        ppi_positions: &[usize],
        max_cones: usize,
    ) -> Vec<(NetId, Vec<NetId>)> {
        use crate::reference::fanout_map;
        use kratt_netlist::analysis::{fanin_cone_gates, support};
        let is_ppi: HashSet<NetId> = ppi_positions
            .iter()
            .map(|&position| subcircuit.inputs()[position])
            .collect();
        let mut supports: HashMap<NetId, Vec<NetId>> = HashMap::new();
        let mut cone_size: HashMap<NetId, usize> = HashMap::new();
        for (_, gate) in subcircuit.gates() {
            let sup = support(subcircuit, &[gate.output]);
            if !sup.is_empty() && sup.iter().all(|n| is_ppi.contains(n)) {
                let size = fanin_cone_gates(subcircuit, &[gate.output]).len();
                cone_size.insert(gate.output, size);
                supports.insert(gate.output, sup);
            }
        }
        let fanout = fanout_map(subcircuit);
        let is_frontier = |net: NetId| match fanout.get(&net) {
            None => true,
            Some(list) => list
                .iter()
                .any(|&gid| !supports.contains_key(&subcircuit.gate(gid).output)),
        };
        let mut cones: Vec<NetId> = supports.keys().copied().collect();
        cones.sort_by_key(|&net| {
            (
                Reverse(is_frontier(net)),
                Reverse(supports[&net].len()),
                cone_size[&net],
                net,
            )
        });
        cones.truncate(max_cones);
        cones
            .into_iter()
            .map(|net| (net, supports[&net].clone()))
            .collect()
    }

    /// Asserts that the one-pass scan keeps the reference's cones, in the
    /// reference's order, each with the reference's support.
    fn assert_scan_parity(
        subcircuit: &Circuit,
        ppi_positions: &[usize],
        max_cones: usize,
        what: &str,
    ) {
        let cones = ppi_only_cones(subcircuit, ppi_positions, max_cones).unwrap();
        let reference = reference_cones(subcircuit, ppi_positions, max_cones);
        let nets: Vec<NetId> = cones.iter().map(|c| c.net).collect();
        let reference_nets: Vec<NetId> = reference.iter().map(|(net, _)| *net).collect();
        assert_eq!(nets, reference_nets, "{what}: cone list differs");
        for (cone, (_, sup)) in cones.iter().zip(&reference) {
            let mut bits: Vec<usize> = (0..ppi_positions.len())
                .filter(|&bit| cone.depends_on(bit))
                .map(|bit| ppi_positions[bit])
                .collect();
            bits.sort_unstable();
            let expected: Vec<usize> = sup
                .iter()
                .map(|&net| subcircuit.input_position(net).unwrap())
                .collect();
            assert_eq!(bits, expected, "{what}: support of a cone differs");
        }
    }

    /// A random multi-level circuit: inputs `i*`, a few constants, and
    /// gates of every type with one to three fan-ins.
    fn random_circuit(rng: &mut StdRng, inputs: usize, gates: usize) -> Circuit {
        let mut c = Circuit::new("random");
        let mut nets: Vec<NetId> = (0..inputs)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        if rng.gen_bool(0.3) {
            nets.push(c.add_gate(GateType::Const0, "k0", &[]).unwrap());
            nets.push(c.add_gate(GateType::Const1, "k1", &[]).unwrap());
        }
        let types = [
            GateType::And,
            GateType::Nand,
            GateType::Or,
            GateType::Nor,
            GateType::Xor,
            GateType::Xnor,
            GateType::Not,
            GateType::Buf,
        ];
        for g in 0..gates {
            let ty = types[rng.gen_range(0..types.len())];
            let arity = match ty {
                GateType::Not | GateType::Buf => 1,
                _ => rng.gen_range(2..=3),
            };
            let fanins: Vec<NetId> = (0..arity)
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            nets.push(c.add_gate(ty, format!("g{g}"), &fanins).unwrap());
        }
        for &net in nets.iter().rev().take(3) {
            c.mark_output(net);
        }
        c
    }

    /// The input positions of a random nonempty subset of the circuit's
    /// inputs, in a random order.
    fn random_ppis(rng: &mut StdRng, circuit: &Circuit) -> Vec<usize> {
        let mut ppis: Vec<usize> = (0..circuit.num_inputs())
            .filter(|_| rng.gen_bool(0.6))
            .collect();
        if ppis.is_empty() {
            ppis.push(0);
        }
        for i in (1..ppis.len()).rev() {
            ppis.swap(i, rng.gen_range(0..=i));
        }
        ppis
    }

    #[test]
    fn cone_scan_matches_the_per_gate_reference_on_random_circuits() {
        let mut rng = StdRng::seed_from_u64(0x5ca7);
        for case in 0..200 {
            let inputs = rng.gen_range(2..10);
            let gates = rng.gen_range(5..60);
            let circuit = random_circuit(&mut rng, inputs, gates);
            let ppis = random_ppis(&mut rng, &circuit);
            let max_cones = rng.gen_range(1..40);
            assert_scan_parity(&circuit, &ppis, max_cones, &format!("random case {case}"));
        }
    }

    #[test]
    fn cone_scan_matches_the_per_gate_reference_on_locked_table1_hosts() {
        let mut rng = StdRng::seed_from_u64(0x7ab1);
        for row in kratt_benchmarks::table1_circuits(0.02) {
            let secret = SecretKey::random(&mut rng, row.key_bits);
            for locked in [
                TtLock::new(row.key_bits)
                    .lock(&row.circuit, &secret)
                    .unwrap(),
                Cac::new(row.key_bits).lock(&row.circuit, &secret).unwrap(),
            ] {
                let artifacts = remove_locking_unit(&locked.circuit).unwrap();
                let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
                let ppi_positions: Vec<usize> = subcircuit_ppis(&artifacts, &subcircuit)
                    .iter()
                    .map(|name| {
                        let net = subcircuit.find_net(name).unwrap();
                        subcircuit.input_position(net).unwrap()
                    })
                    .collect();
                assert_scan_parity(
                    &subcircuit,
                    &ppi_positions,
                    MAX_CONES,
                    &format!("{}/{}", row.name, locked.technique),
                );
            }
        }
    }

    /// Every witness pattern drives its cone to its target whatever the
    /// unspecified bits are, specifies exactly the cone's support, and
    /// exists exactly when some input assignment reaches the target.
    #[test]
    fn justified_patterns_drive_their_cones_to_the_target() {
        let mut rng = StdRng::seed_from_u64(0x7a11);
        let config = StructuralAnalysisConfig::default();
        for case in 0..120 {
            let inputs = rng.gen_range(2..9);
            let gates = rng.gen_range(5..50);
            let circuit = random_circuit(&mut rng, inputs, gates);
            let ppis = random_ppis(&mut rng, &circuit);
            let cones = ppi_only_cones(&circuit, &ppis, usize::MAX).unwrap();
            let witnesses = justify_cones(&circuit, &ppis, &cones, &config).unwrap();
            let sim = Simulator::new(&circuit).unwrap();
            // Which polarities each net reaches over all inputs (< 2^9).
            let mut reached = vec![[false; 2]; circuit.num_nets()];
            for base in (0..1u64 << inputs).step_by(64) {
                let words = kratt_netlist::sim::exhaustive_input_words(base, inputs);
                let lanes = (1u64 << inputs).min(64);
                let mask = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
                let values = sim.run_words_full(&words).unwrap();
                for (net, value) in values.iter().enumerate() {
                    reached[net][0] |= !value & mask != 0;
                    reached[net][1] |= value & mask != 0;
                }
            }
            for (cone, witness) in cones.iter().zip(&witnesses) {
                for target in [false, true] {
                    let reachable = reached[cone.net.index()][usize::from(target)];
                    let Some(pattern) = &witness[usize::from(target)] else {
                        assert!(
                            !reachable,
                            "case {case}: reachable polarity without pattern"
                        );
                        continue;
                    };
                    assert!(
                        reachable,
                        "case {case}: pattern for an unreachable polarity"
                    );
                    for (bit, value) in pattern.iter().enumerate() {
                        assert_eq!(value.is_some(), cone.depends_on(bit), "case {case}");
                    }
                    let mut words: Vec<u64> =
                        (0..circuit.num_inputs()).map(|_| rng.gen()).collect();
                    for (bit, value) in pattern.iter().enumerate() {
                        if let Some(value) = value {
                            words[ppis[bit]] = if *value { !0 } else { 0 };
                        }
                    }
                    let values = sim.run_words_full(&words).unwrap();
                    let expected = if target { !0 } else { 0 };
                    assert_eq!(values[cone.net.index()], expected, "case {case}");
                }
            }
        }
    }

    #[test]
    fn constant_cone_gets_no_pattern_for_the_polarity_it_cannot_reach() {
        // never = p AND NOT p is structurally PPI-only but stuck at 0;
        // always = p OR NOT p is stuck at 1.
        let mut c = Circuit::new("constant_cones");
        let p = c.add_input("p").unwrap();
        let q = c.add_input("q").unwrap();
        let not_p = c.add_gate(GateType::Not, "not_p", &[p]).unwrap();
        let never = c.add_gate(GateType::And, "never", &[p, not_p]).unwrap();
        let always = c.add_gate(GateType::Or, "always", &[p, not_p]).unwrap();
        let o = c.add_gate(GateType::Xor, "o", &[never, always, q]).unwrap();
        c.mark_output(o);
        let ppis = [c.input_position(p).unwrap()];
        let cones = ppi_only_cones(&c, &ppis, usize::MAX).unwrap();
        let witnesses =
            justify_cones(&c, &ppis, &cones, &StructuralAnalysisConfig::default()).unwrap();
        let of = |net: NetId| {
            let index = cones.iter().position(|cone| cone.net == net).unwrap();
            witnesses[index].clone()
        };
        let [zero, one] = of(never);
        assert!(zero.is_some() && one.is_none());
        let [zero, one] = of(always);
        assert!(zero.is_none() && one.is_some());
        let [zero, one] = of(not_p);
        assert_eq!(
            (zero, one),
            (Some(vec![Some(true)]), Some(vec![Some(false)]))
        );
    }
}

//! The FALL attack (functional analysis attacks on logic locking), the
//! baseline of Sirone & Subramanyan (DATE'19) that the paper runs against its
//! TTLock- and SFLL-locked circuits ("without success").
//!
//! FALL targets stripped-functionality locking. It works in three stages:
//!
//! 1. **Structural analysis** — locate the restore unit (to learn which
//!    primary inputs are protected and how they pair with key inputs) and
//!    collect candidate nodes of the functionality-stripped circuit whose
//!    fan-in support is exactly the protected inputs.
//! 2. **Functional analysis** — test each candidate node for unateness in
//!    every support variable. The perturb comparator of TTLock / SFLL-HD0 is
//!    a minterm of the protected pattern, so it is unate in every variable
//!    and its polarities spell out the secret: positive unate ⇒ key bit 1,
//!    negative unate ⇒ key bit 0.
//! 3. **Key confirmation** — check each candidate key against the oracle
//!    (when one is available) and report the first confirmed key.
//!
//! The attack inherits FALL's limitations, which is exactly what the paper
//! exploits: it only applies when a comparator-shaped, PPI-only cone survives
//! in the netlist, so resynthesis, non-zero Hamming distances or non-SFLL
//! techniques leave it with unconfirmed (or no) candidates.

use crate::engine::{Attack, AttackRequest, CostClass, Deadline, ThreatModel};
use crate::error::AttackError;
use crate::oracle::Oracle;
use crate::report::{key_input_names, AttackOutcome, AttackRun, KeyGuess, StepTiming};
use crate::structure::{associate_keys_with_inputs, find_critical_signal};
use kratt_locking::SecretKey;
use kratt_netlist::analysis::support;
use kratt_netlist::sim::Simulator;
use kratt_netlist::transform::extract_cone;
use kratt_netlist::{Aig, AigLit, Circuit, NetId};
use kratt_sat::{encode_aig, Solver, SolverConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

/// Protected primary inputs and, per input, its associated key input(s).
type ProtectedInputs = (Vec<String>, Vec<(String, Vec<String>)>);

/// Tuning knobs of the FALL attack.
#[derive(Debug, Clone)]
pub struct FallConfig {
    /// Maximum number of candidate nodes whose unateness is analysed.
    pub max_candidate_nodes: usize,
    /// Maximum number of candidate keys carried into key confirmation.
    pub max_candidate_keys: usize,
    /// Conflict budget per unateness SAT query.
    pub sat_conflict_limit: Option<u64>,
    /// Random input patterns used per key-confirmation check (the all-zero
    /// and all-one patterns are always included).
    pub confirmation_patterns: usize,
    /// Seed of the confirmation pattern generator.
    pub seed: u64,
}

impl Default for FallConfig {
    fn default() -> Self {
        FallConfig {
            max_candidate_nodes: 4096,
            max_candidate_keys: 64,
            sat_conflict_limit: Some(100_000),
            confirmation_patterns: 64,
            seed: 0xfa11,
        }
    }
}

/// What FALL's three stages found: the candidate list its unit tests
/// assert on, which [`Attack::execute`] reduces to one outcome.
#[derive(Debug)]
pub(crate) struct FallReport {
    /// Candidate keys produced by the functional analysis, most promising
    /// first (fewer non-unate rejections ⇒ earlier).
    pub candidates: Vec<KeyGuess>,
    /// The confirmed key, when an oracle was supplied and one candidate
    /// survived confirmation.
    pub key: Option<SecretKey>,
    /// Number of candidate nodes whose unateness was analysed.
    pub analyzed_nodes: usize,
}

/// Unateness of a node in one of its support variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unateness {
    Positive,
    Negative,
    Binate,
}

/// The FALL attack. See the module documentation.
#[derive(Debug, Clone, Default)]
pub struct FallAttack {
    config: FallConfig,
}

impl FallAttack {
    /// A FALL attack with default settings.
    pub fn new() -> Self {
        FallAttack::default()
    }

    /// A FALL attack with explicit settings.
    pub fn with_config(config: FallConfig) -> Self {
        FallAttack { config }
    }

    /// The full pipeline: structural analysis, unateness analysis, and —
    /// when an oracle is present — key confirmation. [`Attack::execute`]
    /// is the public entry point; a netlist FALL simply cannot handle (no
    /// critical signal, no comparator-shaped cones) produces an empty
    /// candidate list, not an error, matching how the original tool
    /// reports "no key found".
    fn run_inner(
        &self,
        locked: &Circuit,
        oracle: Option<&Oracle>,
        deadline: &Deadline,
    ) -> Result<FallReport, AttackError> {
        let key_inputs = locked.key_inputs();
        if key_inputs.is_empty() {
            return Err(AttackError::NoKeyInputs);
        }
        if let Some(oracle) = oracle {
            for &input in &locked.data_inputs() {
                let name = locked.net_name(input);
                if oracle.circuit().find_net(name).is_none() {
                    return Err(AttackError::InterfaceMismatch(name.to_string()));
                }
            }
        }
        let key_names = key_input_names(locked);

        // --- Stage 1: restore-unit structure and candidate FSC nodes. -----
        let Some((ppi_names, associations)) = self.protected_inputs(locked) else {
            return Ok(FallReport {
                candidates: Vec::new(),
                key: None,
                analyzed_nodes: 0,
            });
        };
        let ppi_set: BTreeSet<&str> = ppi_names.iter().map(String::as_str).collect();
        let mut candidate_nodes: Vec<NetId> = Vec::new();
        for (_, gate) in locked.gates() {
            if candidate_nodes.len() >= self.config.max_candidate_nodes {
                break;
            }
            let sup: BTreeSet<&str> = support(locked, &[gate.output])
                .into_iter()
                .map(|n| locked.net_name(n))
                .collect();
            if sup == ppi_set {
                candidate_nodes.push(gate.output);
            }
        }

        // --- Stage 2: unateness analysis. ----------------------------------
        // Each candidate keeps the protected-input pattern it came from, so
        // key confirmation can probe the oracle exactly where a wrong
        // stripped-functionality key would show (random patterns alone almost
        // never hit a point-function corruption).
        let mut candidates: Vec<(KeyGuess, Vec<(String, bool)>)> = Vec::new();
        let mut analyzed = 0usize;
        for &node in &candidate_nodes {
            if candidates.len() >= self.config.max_candidate_keys {
                break;
            }
            if deadline.expired() {
                break;
            }
            analyzed += 1;
            let Some(pattern) = self.unate_pattern(locked, node, &ppi_names, deadline)? else {
                continue;
            };
            // Map the protected pattern to key bits through the association.
            let mut guess = KeyGuess::new();
            for ((ppi, keys), value) in associations.iter().zip(&pattern) {
                debug_assert!(ppi_names.contains(ppi));
                for key in keys {
                    guess.set(key.clone(), *value);
                }
            }
            let ppi_pattern: Vec<(String, bool)> = ppi_names
                .iter()
                .cloned()
                .zip(pattern.iter().copied())
                .collect();
            if guess.deciphered() > 0 && candidates.iter().all(|(g, _)| g != &guess) {
                candidates.push((guess, ppi_pattern));
            }
        }

        // --- Stage 3: key confirmation against the oracle. ----------------
        let mut confirmed = None;
        if let Some(oracle) = oracle {
            let locked_sim = Simulator::new(locked)?;
            // The probe set covers the protected patterns implied by *every*
            // candidate: a wrong candidate corrupts its own pattern or leaves
            // another candidate's pattern stripped, and both show up here.
            let probes: Vec<Vec<(String, bool)>> = candidates
                .iter()
                .map(|(_, pattern)| pattern.clone())
                .collect();
            for (guess, _) in &candidates {
                if deadline.expired() {
                    break;
                }
                let key = guess.to_secret_key(&key_names);
                if self.confirm_key(locked, &locked_sim, oracle, &key_names, &key, &probes)? {
                    confirmed = Some(key);
                    break;
                }
            }
        }

        let candidates = candidates.into_iter().map(|(guess, _)| guess).collect();
        Ok(FallReport {
            candidates,
            key: confirmed,
            analyzed_nodes: analyzed,
        })
    }

    /// Stage 1 helper: the protected primary inputs and their key
    /// associations, read off the restore unit (the fan-in cone of the
    /// critical signal). `None` when the locked netlist has no single merge
    /// point or the unit pairs no inputs with keys.
    fn protected_inputs(&self, locked: &Circuit) -> Option<ProtectedInputs> {
        let cs1 = find_critical_signal(locked)?;
        let unit = extract_cone(locked, &[cs1], &[]).ok()?;
        let associations: Vec<(String, Vec<String>)> = associate_keys_with_inputs(&unit)
            .into_iter()
            .filter(|(_, keys)| !keys.is_empty())
            .collect();
        if associations.is_empty() {
            return None;
        }
        let ppi_names: Vec<String> = associations.iter().map(|(ppi, _)| ppi.clone()).collect();
        Some((ppi_names, associations))
    }

    /// Stage 2 helper: if `node` is unate in every protected input, the
    /// polarity vector (in `ppi_names` order); `None` if it is binate in any
    /// variable or a SAT budget ran out.
    fn unate_pattern(
        &self,
        locked: &Circuit,
        node: NetId,
        ppi_names: &[String],
        deadline: &Deadline,
    ) -> Result<Option<Vec<bool>>, AttackError> {
        let cone = extract_cone(locked, &[node], &[])?;
        let mut pattern = Vec::with_capacity(ppi_names.len());
        for name in ppi_names {
            match self.unateness_in(&cone, name, deadline)? {
                Unateness::Positive => pattern.push(true),
                Unateness::Negative => pattern.push(false),
                Unateness::Binate => return Ok(None),
            }
        }
        Ok(Some(pattern))
    }

    /// Determines the unateness of the cone's single output in the input
    /// named `variable` with two SAT queries on a doubled encoding.
    fn unateness_in(
        &self,
        cone: &Circuit,
        variable: &str,
        deadline: &Deadline,
    ) -> Result<Unateness, AttackError> {
        if !cone
            .inputs()
            .iter()
            .any(|&pi| cone.net_name(pi) == variable)
        {
            return Err(AttackError::InterfaceMismatch(variable.to_string()));
        }
        // Both cofactors in one AIG: `variable` bound to 0, then to 1, every
        // other input shared by name.
        let mut aig = Aig::new(cone.name());
        for value in [false, true] {
            let bound = HashMap::from([(variable.to_string(), AigLit::TRUE.when(value))]);
            let lits = aig.lower_circuit(cone, &bound)?;
            aig.add_output(
                format!("f{}", u8::from(value)),
                lits[cone.outputs()[0].index()],
            );
        }
        let mut solver = Solver::with_config(SolverConfig {
            conflict_limit: self.config.sat_conflict_limit,
            deadline: deadline.clone(),
        });
        let encoding = encode_aig(&mut solver, &aig, &HashMap::new());
        let (out_a, out_b) = (encoding.outputs()[0], encoding.outputs()[1]);

        // Positive unate ⇔ no assignment with f(x=0)=1 and f(x=1)=0.
        let violates_positive = solver.solve_with_assumptions(&[out_a, !out_b]);
        // Negative unate ⇔ no assignment with f(x=0)=0 and f(x=1)=1.
        let violates_negative = solver.solve_with_assumptions(&[!out_a, out_b]);
        Ok(
            match (violates_positive.is_unsat(), violates_negative.is_unsat()) {
                (true, _) => Unateness::Positive,
                (false, true) => Unateness::Negative,
                // Binate, or the budget ran out on both queries — either way the
                // candidate is dropped.
                (false, false) => Unateness::Binate,
            },
        )
    }

    /// Stage 3 helper: key confirmation against the oracle. The probe set
    /// combines every candidate's implied protected pattern (where
    /// stripped-functionality corruption is guaranteed to surface) with
    /// random patterns.
    fn confirm_key(
        &self,
        locked: &Circuit,
        locked_sim: &Simulator<'_>,
        oracle: &Oracle,
        key_names: &[String],
        key: &SecretKey,
        probes: &[Vec<(String, bool)>],
    ) -> Result<bool, AttackError> {
        let data_inputs = locked.data_inputs();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut patterns: Vec<Vec<bool>> = vec![
            vec![false; data_inputs.len()],
            vec![true; data_inputs.len()],
        ];
        for probe in probes {
            let mut pattern = vec![false; data_inputs.len()];
            for (name, value) in probe {
                if let Some(position) = data_inputs
                    .iter()
                    .position(|&net| locked.net_name(net) == name)
                {
                    pattern[position] = *value;
                }
            }
            patterns.push(pattern);
        }
        for _ in 0..self.config.confirmation_patterns {
            patterns.push((0..data_inputs.len()).map(|_| rng.gen_bool(0.5)).collect());
        }
        for pattern in patterns {
            let assignment: Vec<(&str, bool)> = data_inputs
                .iter()
                .zip(&pattern)
                .map(|(&net, &value)| (locked.net_name(net), value))
                .collect();
            let oracle_out = oracle.query_by_name(&assignment)?;

            let mut locked_pattern = vec![false; locked.num_inputs()];
            for (&net, &value) in data_inputs.iter().zip(&pattern) {
                if let Some(position) = locked.input_position(net) {
                    locked_pattern[position] = value;
                }
            }
            for (name, &bit) in key_names.iter().zip(key.bits()) {
                if let Some(net) = locked.find_net(name) {
                    if let Some(position) = locked.input_position(net) {
                        locked_pattern[position] = bit;
                    }
                }
            }
            if locked_sim.run(&locked_pattern)? != oracle_out {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl Attack for FallAttack {
    fn name(&self) -> &'static str {
        "fall"
    }

    /// FALL runs under both models: oracle-less it stops after the
    /// candidate analysis, oracle-guided it additionally confirms a key.
    fn supports(&self, _model: ThreatModel) -> bool {
        true
    }

    /// Cone extraction plus a handful of two-query unateness SAT calls —
    /// cheap next to a CEGAR loop, so it interleaves through the injector.
    fn cost_class(&self) -> CostClass {
        CostClass::Cheap
    }

    fn execute(&self, request: &AttackRequest<'_>) -> Result<AttackRun, AttackError> {
        let deadline = request.deadline();
        if deadline.expired() {
            return Ok(AttackRun::out_of_budget(
                self.name(),
                request.threat_model(),
            ));
        }
        let base_queries = request.oracle.map(|o| o.queries()).unwrap_or(0);
        let attack = FallAttack {
            config: FallConfig {
                // One analysed node is one iteration of FALL's loop.
                max_candidate_nodes: self
                    .config
                    .max_candidate_nodes
                    .min(request.budget.max_iterations),
                sat_conflict_limit: request
                    .budget
                    .sat_conflict_limit
                    .or(self.config.sat_conflict_limit),
                ..self.config.clone()
            },
        };
        let report = attack.run_inner(request.locked, request.oracle, &deadline)?;
        let runtime = deadline.elapsed();
        // A confirmed key beats everything; otherwise the strongest
        // unconfirmed candidate is the (partial) result, and an empty
        // candidate list is indistinguishable from running dry.
        let outcome = match (report.key, report.candidates.into_iter().next()) {
            (Some(key), _) => AttackOutcome::ExactKey(key),
            (None, Some(best)) => AttackOutcome::PartialGuess(best),
            (None, None) => AttackOutcome::OutOfBudget,
        };
        Ok(AttackRun {
            attack: self.name().to_string(),
            threat_model: request.threat_model(),
            outcome,
            runtime,
            iterations: report.analyzed_nodes,
            oracle_queries: request
                .oracle
                .map(|o| o.queries().saturating_sub(base_queries))
                .unwrap_or(0),
            steps: vec![StepTiming::new("structural+functional-analysis", runtime)],
            members: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Budget;
    use crate::report::score_guess;
    use kratt_locking::{Cac, LockingTechnique, SarLock, SfllHd, TtLock};
    use kratt_netlist::GateType;

    /// Drives the pipeline like `execute` under the default budget's
    /// deadline but returns the [`FallReport`] these assertions need
    /// (external callers go through [`Attack::execute`]).
    fn report_of(
        attack: &FallAttack,
        locked: &Circuit,
        oracle: Option<&Oracle>,
    ) -> Result<FallReport, AttackError> {
        attack.run_inner(locked, oracle, &Budget::default().start())
    }

    fn adder4() -> Circuit {
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
    fn fall_breaks_clean_ttlock_with_the_oracle() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b1010, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original).unwrap();
        let report = report_of(&FallAttack::new(), &locked.circuit, Some(&oracle)).unwrap();
        let key = report
            .key
            .expect("FALL should confirm the key on clean TTLock");
        assert_eq!(key.to_u64(), secret.to_u64());
        assert!(report.analyzed_nodes > 0);
    }

    #[test]
    fn fall_oracle_less_candidates_contain_the_secret_for_ttlock() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b0110, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let report = report_of(&FallAttack::new(), &locked.circuit, None).unwrap();
        assert!(!report.candidates.is_empty());
        assert!(
            report
                .candidates
                .iter()
                .any(|guess| score_guess(&locked, guess) == (4, 4)),
            "one candidate must equal the secret"
        );
        // Oracle-less runs never confirm a key.
        assert_eq!(report.key, None);
    }

    #[test]
    fn fall_also_handles_cac_whose_perturb_cone_is_identical() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b0011, 4);
        let locked = Cac::new(4).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original).unwrap();
        let report = report_of(&FallAttack::new(), &locked.circuit, Some(&oracle)).unwrap();
        assert_eq!(
            report.key.as_ref().map(SecretKey::to_u64),
            Some(secret.to_u64())
        );
    }

    #[test]
    fn fall_recovers_sfll_hd_keys_while_the_distance_cone_survives() {
        // On an unsynthesised SFLL-HD(1) netlist the monotone "Hamming
        // distance at least d" nodes of the perturb unit are unate with
        // polarities that spell out the secret (or its complement), so FALL
        // still confirms the key — consistent with the original FALL paper's
        // own results on SFLL-HD. The KRATT paper's "without success"
        // observation stems from commercial synthesis merging that cone into
        // the host logic, a transformation our functionality-preserving
        // resynthesis engine deliberately does not perform; EXPERIMENTS.md
        // records this as a known deviation.
        let original = adder4();
        let secret = SecretKey::from_u64(0b1001, 4);
        let locked = SfllHd::new(4, 1).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original).unwrap();
        let report = report_of(&FallAttack::new(), &locked.circuit, Some(&oracle)).unwrap();
        assert_eq!(
            report.key.as_ref().map(SecretKey::to_u64),
            Some(secret.to_u64())
        );
        // Both the secret and its complement show up as candidates; only the
        // secret survives confirmation.
        assert!(report.candidates.len() >= 2);
    }

    #[test]
    fn fall_does_not_confirm_a_key_on_sflts() {
        // SARLock's locking unit depends on the key inputs, so there is no
        // PPI-only comparator cone carrying the secret; FALL produces no
        // confirmed key (it targets SFLL-style techniques only).
        let original = adder4();
        let secret = SecretKey::from_u64(0b0101, 4);
        let locked = SarLock::new(4).lock(&original, &secret).unwrap();
        let oracle = Oracle::new(original).unwrap();
        let report = report_of(&FallAttack::new(), &locked.circuit, Some(&oracle)).unwrap();
        assert_eq!(report.key, None);
    }

    #[test]
    fn unlocked_circuit_is_an_error_and_mismatched_oracle_is_detected() {
        let original = adder4();
        assert!(matches!(
            report_of(&FallAttack::new(), &original, None),
            Err(AttackError::NoKeyInputs)
        ));

        let secret = SecretKey::from_u64(0b1100, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let mut different = Circuit::new("other");
        let z = different.add_input("completely_different").unwrap();
        let o = different.add_gate(GateType::Buf, "o", &[z]).unwrap();
        different.mark_output(o);
        let oracle = Oracle::new(different).unwrap();
        assert!(matches!(
            report_of(&FallAttack::new(), &locked.circuit, Some(&oracle)),
            Err(AttackError::InterfaceMismatch(_))
        ));
    }

    #[test]
    fn candidate_budget_is_respected() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b1010, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let config = FallConfig {
            max_candidate_nodes: 0,
            ..Default::default()
        };
        let report = report_of(&FallAttack::with_config(config), &locked.circuit, None).unwrap();
        assert_eq!(report.analyzed_nodes, 0);
        assert!(report.candidates.is_empty());
    }
}

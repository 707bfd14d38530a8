//! End-to-end integration tests: lock → resynthesise → attack, across crates.

use kratt::classify::{classify_unit, UnitClass};
use kratt::extraction::extract_locked_subcircuit;
use kratt::og::{structural_analysis, StructuralAnalysisConfig, StructuralOutcome};
use kratt::removal::remove_locking_unit;
use kratt::{KrattAttack, RemovalArtifacts, ThreatOutcome};
use kratt_attacks::{score_guess, Oracle};
use kratt_benchmarks::arith::{array_multiplier, ripple_carry_adder};
use kratt_benchmarks::{IscasCircuit, ItcCircuit};
use kratt_locking::{
    AntiSat, Cac, CasLock, GenAntiSat, LockingTechnique, SarLock, SecretKey, SfllHd, TtLock,
};
use kratt_netlist::{Circuit, GateType};
use kratt_synth::{check_equivalence, resynthesize, Effort, ResynthesisOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Locks, resynthesises, then verifies that the stored secret still unlocks
/// the resynthesised netlist (the pipeline the experiment harness relies on).
#[test]
fn resynthesised_locked_circuits_still_unlock_with_the_secret() {
    let original = ripple_carry_adder(5).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let techniques: Vec<Box<dyn LockingTechnique>> = vec![
        Box::new(SarLock::new(8)),
        Box::new(AntiSat::new(8)),
        Box::new(CasLock::new(8)),
        Box::new(GenAntiSat::new(8)),
        Box::new(TtLock::new(8)),
        Box::new(Cac::new(8)),
        Box::new(SfllHd::new(8, 0)),
    ];
    for technique in techniques {
        let secret = SecretKey::random(&mut rng, technique.key_bits());
        let locked = technique.lock(&original, &secret).unwrap();
        let variant = resynthesize(
            &locked.circuit,
            &ResynthesisOptions::with_seed(3).effort(Effort::Medium),
        )
        .unwrap();
        let unlocked = kratt_locking::common::apply_key(&variant, &secret).unwrap();
        assert!(
            check_equivalence(&original, &unlocked)
                .unwrap()
                .is_equivalent(),
            "{}: secret key no longer unlocks after resynthesis",
            technique.kind()
        );
    }
}

/// KRATT's oracle-less QBF path must survive resynthesis of the locked
/// netlist (the locking unit no longer has its textbook shape).
#[test]
fn kratt_ol_breaks_resynthesised_sflts() {
    let original = array_multiplier(5).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let techniques: Vec<Box<dyn LockingTechnique>> = vec![
        Box::new(SarLock::new(8)),
        Box::new(AntiSat::new(8)),
        Box::new(CasLock::new(8)),
    ];
    for technique in techniques {
        let secret = SecretKey::random(&mut rng, technique.key_bits());
        let locked = technique.lock(&original, &secret).unwrap();
        let variant = resynthesize(
            &locked.circuit,
            &ResynthesisOptions::with_seed(11).effort(Effort::High),
        )
        .unwrap();
        let report = KrattAttack::new().attack_oracle_less(&variant).unwrap();
        let key = report
            .outcome
            .exact_key()
            .unwrap_or_else(|| panic!("{}: expected an exact key", technique.kind()))
            .clone();
        let unlocked = kratt_locking::common::apply_key(&variant, &key).unwrap();
        assert!(
            check_equivalence(&original, &unlocked)
                .unwrap()
                .is_equivalent(),
            "{}: recovered key does not unlock the resynthesised netlist",
            technique.kind()
        );
    }
}

/// KRATT's oracle-guided structural analysis must recover the exact secret of
/// resynthesised DFLTs.
#[test]
fn kratt_og_breaks_resynthesised_dflts() {
    let original = ripple_carry_adder(5).unwrap();
    let oracle = Oracle::new(original.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    let techniques: Vec<Box<dyn LockingTechnique>> = vec![
        Box::new(TtLock::new(6)),
        Box::new(Cac::new(6)),
        Box::new(SfllHd::new(6, 0)),
    ];
    for technique in techniques {
        let secret = SecretKey::random(&mut rng, technique.key_bits());
        let locked = technique.lock(&original, &secret).unwrap();
        let variant = resynthesize(
            &locked.circuit,
            &ResynthesisOptions::with_seed(5).effort(Effort::Medium),
        )
        .unwrap();
        let report = KrattAttack::new()
            .attack_oracle_guided(&variant, &oracle)
            .unwrap();
        match &report.outcome {
            ThreatOutcome::ExactKey(key) => {
                assert_eq!(
                    key.to_u64(),
                    secret.to_u64(),
                    "{}: recovered key differs from the secret",
                    technique.kind()
                );
            }
            other => panic!("{}: expected an exact key, got {other:?}", technique.kind()),
        }
    }
}

/// The oracle-less DFLT path produces guesses and scores sensibly even after
/// resynthesis (the Table II shape: dk > 0, cdk <= dk).
#[test]
fn kratt_ol_dflt_guesses_score_sensibly() {
    let original = ripple_carry_adder(5).unwrap();
    let secret = SecretKey::from_u64(0b10110100, 8);
    let locked = TtLock::new(8).lock(&original, &secret).unwrap();
    let variant = resynthesize(&locked.circuit, &ResynthesisOptions::with_seed(13)).unwrap();
    let mut relocked = locked.clone();
    relocked.circuit = variant;
    let report = KrattAttack::new()
        .attack_oracle_less(&relocked.circuit)
        .unwrap();
    let key_names: Vec<String> = relocked
        .circuit
        .key_inputs()
        .iter()
        .map(|&n| relocked.circuit.net_name(n).to_string())
        .collect();
    let (cdk, dk) = score_guess(&relocked, &report.outcome.as_guess(&key_names));
    assert!(dk > 0, "expected some deciphered bits");
    assert!(cdk <= dk);
}

/// Writing a locked circuit to `.bench` text and parsing it back must not
/// change what any attack sees.
#[test]
fn bench_round_trip_preserves_attack_results() {
    let original = ripple_carry_adder(4).unwrap();
    let secret = SecretKey::from_u64(0b1100, 4);
    let locked = TtLock::new(4).lock(&original, &secret).unwrap();
    let text = kratt_netlist::bench::write(&locked.circuit).unwrap();
    let reparsed = kratt_netlist::bench::parse("reparsed", &text).unwrap();
    assert_eq!(reparsed.key_inputs().len(), 4);
    let oracle = Oracle::new(original).unwrap();
    let report = KrattAttack::new()
        .attack_oracle_guided(&reparsed, &oracle)
        .unwrap();
    assert_eq!(
        report.outcome.exact_key().unwrap().to_u64(),
        secret.to_u64()
    );
}

/// The c6288 DFLT cells of the campaign presets: lock the 16×16 multiplier
/// with TTLock and CAC at the Table-I width (k = 32), resynthesise at medium
/// effort seeded from the planted secret as the presets do, and require the
/// oracle-guided structural analysis to recover the planted secret with its
/// default configuration. Nearly every gate of this subcircuit has
/// PPI-only support, so the cone scan and justification see their widest
/// input.
#[test]
fn structural_analysis_recovers_resynthesised_c6288_dflt_secrets() {
    let host = kratt_benchmarks::IscasCircuit::C6288.generate_scaled(0.05);
    let oracle = Oracle::new(host.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(6288);
    let techniques: Vec<Box<dyn LockingTechnique>> =
        vec![Box::new(TtLock::new(32)), Box::new(Cac::new(32))];
    for technique in techniques {
        let secret = SecretKey::random(&mut rng, 32);
        let variant = preset_resynthesis(&technique.lock(&host, &secret).unwrap().circuit, &secret);
        let artifacts = remove_locking_unit(&variant).unwrap();
        let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
        let outcome = structural_analysis(
            &artifacts,
            &subcircuit,
            &variant,
            &oracle,
            &StructuralAnalysisConfig::default(),
        )
        .unwrap();
        let StructuralOutcome::Key { guess, .. } = outcome else {
            panic!("{}: structural analysis found no key", technique.kind());
        };
        assert_eq!(
            guess.to_secret_key(&variant.key_input_names()),
            secret,
            "{}: recovered key differs from the planted secret",
            technique.kind()
        );
    }
}

/// Resynthesises a locked netlist at medium effort, seeded from the planted
/// secret as the campaign presets do.
fn preset_resynthesis(locked: &Circuit, secret: &SecretKey) -> Circuit {
    let seed = secret
        .bits()
        .iter()
        .fold(0x5eedu64, |acc, &bit| acc << 1 ^ acc >> 61 ^ u64::from(bit));
    resynthesize(
        locked,
        &ResynthesisOptions::with_seed(seed).effort(Effort::Medium),
    )
    .unwrap()
}

/// The comparator `AND_i (p_i XNOR k_i)` over the unit's association (one
/// key per protected input), or its complement, built here rather than by
/// the classifier.
fn reference_comparator(artifacts: &RemovalArtifacts, complemented: bool) -> Circuit {
    let mut reference = Circuit::new("reference");
    let mut terms = Vec::new();
    for (ppi, keys) in &artifacts.associations {
        let p = reference.add_input(ppi.clone()).unwrap();
        let k = reference.add_input(keys[0].clone()).unwrap();
        terms.push(
            reference
                .add_gate_auto(GateType::Xnor, "eq", &[p, k])
                .unwrap(),
        );
    }
    let gate = if complemented {
        GateType::Nand
    } else {
        GateType::And
    };
    let output = reference.add_gate_auto(gate, "match", &terms).unwrap();
    reference.mark_output(output);
    reference
}

/// Unit classification against the campaign's verification kernel: lock
/// scaled Table-I hosts at each key width (c6288 at 32, c2670 at 64, b14_C
/// at 128) with TTLock and CAC, plus SFLL-HD at k = 32 and h = 1, resynthesise
/// as the presets do, and require `classify_unit` to return `Comparator` or
/// `ComplementComparator` exactly when `check_equivalence` proves the unit
/// equal to the comparator or to its complement.
#[test]
fn unit_classification_matches_check_equivalence_on_resynthesised_hosts() {
    let hosts = [
        (IscasCircuit::C6288.generate_scaled(0.05), 32),
        (IscasCircuit::C2670.generate_scaled(0.05), 64),
        (ItcCircuit::B14C.generate_scaled(0.05), 128),
    ];
    let mut rng = StdRng::seed_from_u64(2311);
    let mut restore_units = 0;
    for (host, key_bits) in &hosts {
        let techniques: Vec<Box<dyn LockingTechnique>> = vec![
            Box::new(TtLock::new(*key_bits)),
            Box::new(Cac::new(*key_bits)),
            Box::new(SfllHd::new(32, 1)),
        ];
        for technique in techniques {
            let secret = SecretKey::random(&mut rng, technique.key_bits());
            let variant =
                preset_resynthesis(&technique.lock(host, &secret).unwrap().circuit, &secret);
            let artifacts = remove_locking_unit(&variant).unwrap();
            let proves = |complemented: bool| {
                check_equivalence(
                    &artifacts.unit,
                    &reference_comparator(&artifacts, complemented),
                )
                .unwrap()
                .is_equivalent()
            };
            let expected = if proves(false) {
                UnitClass::Comparator
            } else if proves(true) {
                UnitClass::ComplementComparator
            } else {
                UnitClass::Other
            };
            assert_eq!(
                classify_unit(&artifacts).unwrap(),
                expected,
                "{} on {}",
                technique.kind(),
                host.name()
            );
            restore_units += usize::from(expected.is_restore_unit());
        }
    }
    // The kernel finds the six TTLock/CAC restore units and rejects the
    // SFLL-HD ones, so the parity above covers both outcomes.
    assert_eq!(restore_units, 6);
}

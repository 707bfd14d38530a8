//! Cross-crate integration tests for the extension features: the §V locking
//! schemes and their reconstruction flow, the FALL baseline, the synthesis
//! passes (SAT sweeping, technology mapping), the interchange formats
//! (Verilog, DIMACS, QDIMACS) and the corruption metrics — each exercised on
//! top of the same lock → transform → attack pipeline as the paper's
//! experiments.

use kratt::extraction::extract_locked_subcircuit;
use kratt::og::{recover_protected_patterns, StructuralAnalysisConfig};
use kratt::reconstruct::reconstruct_original_from_patterns;
use kratt::removal::remove_locking_unit;
use kratt::KrattAttack;
use kratt_attacks::{score_guess, Attack, AttackOutcome, AttackRequest, FallAttack, Oracle};
use kratt_benchmarks::arith::{array_multiplier, ripple_carry_adder};
use kratt_benchmarks::small::majority;
use kratt_locking::metrics::{corruption_profile, exact_corrupted_patterns};
use kratt_locking::{LockingTechnique, LutLock, SarLock, SecretKey, SfllFlex, SfllHd, TtLock};
use kratt_netlist::sim::exhaustively_equivalent;
use kratt_netlist::{bench, verilog, Aig};
use kratt_qbf::ExistsForallSolver;
use kratt_sat::cnf::Cnf;
use kratt_sat::encode_aig;
use kratt_synth::passes::{map_to_cell_library, sat_sweep, CellLibrary, SatSweepOptions};
use kratt_synth::{check_equivalence, resynthesize, Effort, ResynthesisOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// The §V pipeline on SFLL-Flex: resynthesise the locked netlist (as the
/// paper does with Genus), recover every stripped pattern through the oracle,
/// and rebuild a circuit equivalent to the original.
#[test]
fn sfll_flex_reconstruction_survives_resynthesis() {
    let original = ripple_carry_adder(3).unwrap();
    let secret = SecretKey::from_bits(vec![true, true, false, false, false, true]);
    let locked = SfllFlex::new(3, 2).lock(&original, &secret).unwrap();
    let netlist = resynthesize(
        &locked.circuit,
        &ResynthesisOptions::with_seed(11).effort(Effort::Medium),
    )
    .unwrap();

    let artifacts = remove_locking_unit(&netlist).unwrap();
    let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
    let oracle = Oracle::new(original.clone()).unwrap();
    let patterns = recover_protected_patterns(
        &artifacts,
        &subcircuit,
        &oracle,
        &StructuralAnalysisConfig::default(),
    )
    .unwrap();
    // The AIG-based resynthesis can shift the critical-signal cut so the
    // stripped cone is larger than the restore unit alone; the recovery then
    // finds every pattern the larger FSC disagrees on (at least the two
    // ground-truth stripped patterns). What must hold exactly is the
    // reconstruction: patching all recovered patterns restores the original.
    assert!(
        patterns.len() >= 2,
        "both stripped patterns must be recovered, got {}",
        patterns.len()
    );
    let rebuilt = reconstruct_original_from_patterns(&artifacts, &patterns).unwrap();
    assert!(exhaustively_equivalent(&original, &rebuilt).unwrap());
}

/// The §V pipeline on LUT locking, with the locked netlist additionally
/// mapped onto a NAND2+INV cell library before the attack.
#[test]
fn lut_lock_reconstruction_survives_technology_mapping() {
    let original = ripple_carry_adder(3).unwrap();
    let secret = SecretKey::from_u64(0b0010_1000, 8);
    let locked = LutLock::new(3).lock(&original, &secret).unwrap();
    let mapped = map_to_cell_library(&locked.circuit, CellLibrary::Nand2Inv).unwrap();

    let artifacts = remove_locking_unit(&mapped).unwrap();
    let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
    let oracle = Oracle::new(original.clone()).unwrap();
    let patterns = recover_protected_patterns(
        &artifacts,
        &subcircuit,
        &oracle,
        &StructuralAnalysisConfig::default(),
    )
    .unwrap();
    assert_eq!(patterns.len(), 2);
    let rebuilt = reconstruct_original_from_patterns(&artifacts, &patterns).unwrap();
    assert!(exhaustively_equivalent(&original, &rebuilt).unwrap());
}

/// FALL and KRATT agree on TTLock, and KRATT still succeeds where FALL's
/// structural preconditions vanish (the locked subcircuit of an SFLT).
#[test]
fn fall_and_kratt_agree_on_ttlock() {
    let original = ripple_carry_adder(4).unwrap();
    let secret = SecretKey::from_u64(0xA5, 8);
    let locked = TtLock::new(8).lock(&original, &secret).unwrap();
    let oracle = Oracle::new(original.clone()).unwrap();

    let fall = FallAttack::new()
        .execute(&AttackRequest::oracle_guided(&locked.circuit, &oracle))
        .unwrap();
    assert_eq!(
        fall.outcome.exact_key().map(|k| k.to_u64()),
        Some(secret.to_u64())
    );

    let oracle = Oracle::new(original).unwrap();
    let kratt = KrattAttack::new()
        .attack_oracle_guided(&locked.circuit, &oracle)
        .unwrap();
    assert_eq!(
        kratt.outcome.exact_key().map(|k| k.to_u64()),
        Some(secret.to_u64())
    );
}

/// The full synthesis stack — resynthesis, SAT sweeping and technology
/// mapping — neither changes the function nor stops KRATT's QBF path from
/// recovering the SARLock key.
#[test]
fn kratt_breaks_sarlock_after_the_full_synthesis_stack() {
    let original = ripple_carry_adder(4).unwrap();
    let secret = SecretKey::from_u64(0x9C, 8);
    let locked = SarLock::new(8).lock(&original, &secret).unwrap();

    let resynthesised = resynthesize(
        &locked.circuit,
        &ResynthesisOptions::with_seed(23).effort(Effort::High),
    )
    .unwrap();
    let swept = sat_sweep(&resynthesised, &SatSweepOptions::default()).unwrap();
    let mapped = map_to_cell_library(&swept, CellLibrary::Nor2Inv).unwrap();
    assert!(check_equivalence(&locked.circuit, &mapped)
        .unwrap()
        .is_equivalent());

    let report = KrattAttack::new().attack_oracle_less(&mapped).unwrap();
    let key = report.outcome.exact_key().expect("QBF path recovers a key");
    let unlocked = kratt_locking::common::apply_key(&mapped, key).unwrap();
    assert!(check_equivalence(&original, &unlocked)
        .unwrap()
        .is_equivalent());
}

/// KRATT's QBF path on a resynthesised 16-bit SARLock mapped onto a
/// NAND2+INV cell library, where no gate of the locking unit keeps its
/// textbook type: the recovered key is still the planted secret.
#[test]
fn kratt_breaks_a_nand2_mapped_resynthesised_sarlock() {
    let original = array_multiplier(8).unwrap();
    let secret = SecretKey::from_u64(0xBEEF, 16);
    let locked = SarLock::new(16).lock(&original, &secret).unwrap();
    let resynthesised = resynthesize(
        &locked.circuit,
        &ResynthesisOptions::with_seed(5).effort(Effort::High),
    )
    .unwrap();
    let mapped = map_to_cell_library(&resynthesised, CellLibrary::Nand2Inv).unwrap();
    let report = KrattAttack::new().attack_oracle_less(&mapped).unwrap();
    assert_eq!(
        report.outcome.exact_key().map(|k| k.to_u64()),
        Some(secret.to_u64())
    );
}

/// A locked circuit survives the .bench → Verilog → .bench round trip and the
/// recovered netlist is still attackable.
#[test]
fn locked_netlists_round_trip_through_verilog_and_stay_attackable() {
    let original = majority();
    let secret = SecretKey::from_u64(0b110, 3);
    let locked = SarLock::new(3).lock(&original, &secret).unwrap();

    let verilog_text = verilog::write(&locked.circuit).unwrap();
    let from_verilog = verilog::parse(&verilog_text).unwrap();
    assert!(exhaustively_equivalent(&locked.circuit, &from_verilog).unwrap());
    let bench_text = bench::write(&from_verilog).unwrap();
    let from_bench = bench::parse("roundtrip", &bench_text).unwrap();
    assert!(exhaustively_equivalent(&locked.circuit, &from_bench).unwrap());
    assert_eq!(from_bench.key_inputs().len(), 3);

    let report = KrattAttack::new().attack_oracle_less(&from_bench).unwrap();
    assert_eq!(
        report.outcome.exact_key().map(|k| k.to_u64()),
        Some(secret.to_u64())
    );
}

/// The QDIMACS export and the in-tree 2QBF engine describe the same instance:
/// the engine's witness is the secret, and the exported prefix quantifies the
/// key variables existentially.
#[test]
fn qdimacs_export_matches_the_solved_instance() {
    let original = majority();
    let secret = SecretKey::from_u64(0b011, 3);
    let locked = SarLock::new(3).lock(&original, &secret).unwrap();
    let artifacts = remove_locking_unit(&locked.circuit).unwrap();
    let unit = &artifacts.unit;
    let solver = ExistsForallSolver::new(
        unit,
        &unit.key_inputs(),
        &unit.data_inputs(),
        unit.outputs()[0],
        false,
    );
    let text = solver.to_qdimacs();
    assert!(text.lines().any(|l| l.starts_with("p cnf")));
    assert!(
        text.lines()
            .filter(|l| l.starts_with("c exists keyinput"))
            .count()
            == 3
    );
    let witness = solver.solve();
    let witness = witness.witness().expect("SARLock unit is breakable");
    let recovered: u64 = (0..3)
        .map(|i| u64::from(witness[&format!("keyinput{i}")]) << i)
        .sum();
    assert_eq!(recovered, secret.to_u64());
}

/// The DIMACS bridge: the CNF image of a locked circuit's AIG solves
/// identically before and after a round trip through the text format.
#[test]
fn dimacs_round_trip_preserves_the_locked_instance() {
    let original = majority();
    let locked = SarLock::new(3)
        .lock(&original, &SecretKey::from_u64(0b001, 3))
        .unwrap();
    let mut cnf = Cnf::new();
    let aig = Aig::from_circuit(&locked.circuit).unwrap();
    let encoding = encode_aig(&mut cnf, &aig, &HashMap::new());
    let parsed = Cnf::from_dimacs(&cnf.to_dimacs()).unwrap();
    assert_eq!(parsed, cnf);
    assert!(parsed.num_vars() >= locked.circuit.num_inputs());
    assert_eq!(encoding.outputs().len(), locked.circuit.num_outputs());
    assert!(parsed.solve().is_sat());
}

/// Corruption metrics across families: point-function SFLTs corrupt exactly
/// one pattern per wrong key, TTLock two, SFLL-HD(h) a larger sphere — and
/// the secret key never corrupts anything, before or after resynthesis.
#[test]
fn corruption_metrics_reflect_the_point_function_hierarchy() {
    let original = ripple_carry_adder(3).unwrap();
    let mut rng = StdRng::seed_from_u64(5);

    // All seven inputs of the 3-bit adder are protected, so the paper's
    // Fig. 2 counts apply exactly: one corrupted pattern per wrong key for
    // the SFLT, two for TTLock.
    let sar = SarLock::new(7)
        .lock(&original, &SecretKey::from_u64(0b1101010, 7))
        .unwrap();
    let tt = TtLock::new(7)
        .lock(&original, &SecretKey::from_u64(0b0010101, 7))
        .unwrap();
    let hd = SfllHd::new(7, 2)
        .lock(&original, &SecretKey::from_u64(0b0110011, 7))
        .unwrap();

    let wrong = SecretKey::from_u64(0b1000111, 7);
    let sar_corrupted = exact_corrupted_patterns(&original, &sar.circuit, &wrong).unwrap();
    let tt_corrupted = exact_corrupted_patterns(&original, &tt.circuit, &wrong).unwrap();
    let hd_corrupted = exact_corrupted_patterns(&original, &hd.circuit, &wrong).unwrap();
    assert_eq!(sar_corrupted, 1);
    assert_eq!(tt_corrupted, 2);
    assert!(hd_corrupted > tt_corrupted);

    // Secret keys stay clean even after resynthesis.
    for locked in [&sar, &tt, &hd] {
        let variant = resynthesize(
            &locked.circuit,
            &ResynthesisOptions::with_seed(2).effort(Effort::Medium),
        )
        .unwrap();
        assert_eq!(
            exact_corrupted_patterns(&original, &variant, &locked.secret).unwrap(),
            0,
            "{}",
            locked.technique
        );
    }

    // The sampled profile agrees with the exact picture: SFLTs/DFLTs have
    // near-zero wrong-key corruption on this host.
    let profile = corruption_profile(&original, &sar, 6, 512, &mut rng).unwrap();
    assert!(profile.mean_error_rate() < 0.1);
    assert_eq!(profile.per_key[0].1, 0.0);
}

/// The paper's §V point: for locking schemes whose restore table is meant to
/// be hidden, KRATT cannot recover the secret key — the oracle-less flow
/// either returns a partial guess (SFLL-Flex, whose restore unit has no
/// stuck-at key) or a provably *wrong* "key" (LUT locking, where the all-zero
/// key does stuck the restore output at 0 but leaves the FSC corrupted).
/// Key recovery failing is exactly why the reconstruction flow exists.
#[test]
fn oracle_less_kratt_cannot_recover_hidden_restore_keys() {
    let original = ripple_carry_adder(4).unwrap();
    let mut rng = StdRng::seed_from_u64(9);

    // SFLL-Flex: the restore unit is an OR of comparators, so neither QBF
    // problem has a solution and the OL path falls back to a partial guess.
    let flex = SfllFlex::new(4, 2);
    let secret = SecretKey::random(&mut rng, flex.key_bits());
    let locked = flex.lock(&original, &secret).unwrap();
    let report = KrattAttack::new()
        .attack_oracle_less(&locked.circuit)
        .unwrap();
    match report.outcome {
        AttackOutcome::PartialGuess(ref guess) => {
            let (cdk, dk) = score_guess(&locked, guess);
            assert!(dk > 0, "SFLL-Flex: empty guess");
            assert!(cdk <= dk);
        }
        AttackOutcome::ExactKey(ref key) => {
            let unlocked = kratt_locking::common::apply_key(&locked.circuit, key).unwrap();
            assert!(
                !check_equivalence(&original, &unlocked)
                    .unwrap()
                    .is_equivalent(),
                "SFLL-Flex keys must not be recoverable oracle-less"
            );
        }
        ref other => assert!(
            other.is_out_of_budget(),
            "SFLL-Flex: unexpected {}",
            other.kind()
        ),
    }

    // LUT locking: the all-zero key makes the restore LUT constant 0, so the
    // QBF step reports it — but it does not unlock the FSC (unless the secret
    // itself is all-zero). This false positive is the §V out-of-scope case.
    let lut = LutLock::new(3);
    let secret = SecretKey::from_u64(0b0100_0010, lut.key_bits());
    let locked = lut.lock(&original, &secret).unwrap();
    let report = KrattAttack::new()
        .attack_oracle_less(&locked.circuit)
        .unwrap();
    if let AttackOutcome::ExactKey(ref key) = report.outcome {
        let unlocked = kratt_locking::common::apply_key(&locked.circuit, key).unwrap();
        assert!(
            !check_equivalence(&original, &unlocked)
                .unwrap()
                .is_equivalent(),
            "a reported LUT key must not unlock (the secret is non-trivial)"
        );
    }
}

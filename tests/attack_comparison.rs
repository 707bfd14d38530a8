//! Integration tests reproducing the comparative *shape* of the paper's
//! evaluation: the baselines struggle exactly where KRATT does not.

use kratt::KrattAttack;
use kratt_attacks::{
    score_guess, AppSatAttack, Attack, AttackRequest, Budget, DoubleDipAttack, Oracle, SatAttack,
    ScopeAttack,
};
use kratt_benchmarks::arith::ripple_carry_adder;
use kratt_locking::{LockingTechnique, RandomXorLocking, SarLock, SecretKey, TtLock};
use std::time::Duration;

fn short_budget() -> Budget {
    Budget {
        time_limit: Some(Duration::from_secs(2)),
        max_iterations: 12,
        ..Budget::default()
    }
}

/// Table III shape: the SAT-based family breaks traditional locking but runs
/// out of budget on a point-function SFLT, while KRATT recovers the key.
#[test]
fn sat_family_times_out_on_sarlock_but_kratt_does_not() {
    let original = ripple_carry_adder(5).unwrap();
    let secret = SecretKey::from_u64(0x2d5 & 0x7ff, 11);
    let locked = SarLock::new(11).lock(&original, &secret).unwrap();

    let oracle_sat = Oracle::new(original.clone()).unwrap();
    let oracle_ddip = Oracle::new(original.clone()).unwrap();
    for (name, run) in [
        (
            "SAT",
            SatAttack::new()
                .execute(
                    &AttackRequest::oracle_guided(&locked.circuit, &oracle_sat)
                        .with_budget(short_budget()),
                )
                .unwrap(),
        ),
        (
            "DDIP",
            DoubleDipAttack::new()
                .execute(
                    &AttackRequest::oracle_guided(&locked.circuit, &oracle_ddip)
                        .with_budget(short_budget()),
                )
                .unwrap(),
        ),
    ] {
        assert!(
            run.outcome.is_out_of_budget(),
            "{name} should run out of budget"
        );
    }

    // AppSAT settles on an approximately correct key instead (its design
    // goal), which still is not the secret.
    let oracle_appsat = Oracle::new(original.clone()).unwrap();
    let appsat = AppSatAttack::new()
        .execute(
            &AttackRequest::oracle_guided(&locked.circuit, &oracle_appsat)
                .with_budget(short_budget()),
        )
        .unwrap();
    if let Some(key) = appsat.outcome.exact_key() {
        assert_ne!(
            key.to_u64(),
            secret.to_u64(),
            "AppSAT finding the exact key is unexpected"
        );
    }

    // KRATT (oracle-less!) pins the exact key through the QBF formulation.
    let kratt = KrattAttack::new()
        .attack_oracle_less(&locked.circuit)
        .unwrap();
    assert_eq!(kratt.outcome.exact_key().unwrap().to_u64(), secret.to_u64());
}

/// Sanity check in the other direction: on non-resilient locking the SAT
/// attack succeeds quickly — the baselines are real attacks, not strawmen.
#[test]
fn sat_attack_is_effective_on_traditional_locking() {
    let original = ripple_carry_adder(5).unwrap();
    let secret = SecretKey::from_u64(0b1011_0101, 8);
    let locked = RandomXorLocking::new(8, 3)
        .lock(&original, &secret)
        .unwrap();
    let oracle = Oracle::new(original.clone()).unwrap();
    let report = SatAttack::new()
        .execute(&AttackRequest::oracle_guided(&locked.circuit, &oracle))
        .unwrap();
    let key = report
        .outcome
        .exact_key()
        .expect("RLL must fall to the SAT attack")
        .clone();
    let unlocked = locked.apply_key(&key).unwrap();
    assert!(
        kratt_synth::check_equivalence(&original, &unlocked)
            .unwrap()
            .is_equivalent(),
        "SAT attack returned a non-functional key"
    );
}

/// Table II shape on a DFLT: standalone SCOPE's guesses are no better than
/// KRATT's modified-subcircuit guesses.
#[test]
fn kratt_ol_guess_is_at_least_as_good_as_standalone_scope_on_ttlock() {
    let original = ripple_carry_adder(5).unwrap();
    let secret = SecretKey::from_u64(0b0110_1011, 8);
    let locked = TtLock::new(8).lock(&original, &secret).unwrap();

    let scope = ScopeAttack::new()
        .execute(&AttackRequest::oracle_less(&locked.circuit).with_budget(Budget::unlimited()))
        .unwrap();
    let scope_guess = scope.outcome.as_guess(&locked.circuit.key_input_names());
    let (scope_cdk, _) = score_guess(&locked, &scope_guess);

    let kratt = KrattAttack::new()
        .attack_oracle_less(&locked.circuit)
        .unwrap();
    let key_names: Vec<String> = locked
        .circuit
        .key_inputs()
        .iter()
        .map(|&n| locked.circuit.net_name(n).to_string())
        .collect();
    let (kratt_cdk, kratt_dk) = score_guess(&locked, &kratt.outcome.as_guess(&key_names));
    assert!(kratt_dk > 0);
    assert!(
        kratt_cdk + 2 >= scope_cdk,
        "KRATT-OL ({kratt_cdk}) should not be clearly worse than SCOPE ({scope_cdk})"
    );
}

/// KRATT under the OG model needs dramatically fewer oracle queries than the
/// SAT attack family spends before giving up.
#[test]
fn kratt_og_query_count_is_modest() {
    let original = ripple_carry_adder(5).unwrap();
    let secret = SecretKey::from_u64(0b110010, 6);
    let locked = TtLock::new(6).lock(&original, &secret).unwrap();
    let oracle = Oracle::new(original.clone()).unwrap();
    let report = KrattAttack::new()
        .attack_oracle_guided(&locked.circuit, &oracle)
        .unwrap();
    assert_eq!(
        report.outcome.exact_key().unwrap().to_u64(),
        secret.to_u64()
    );
    assert!(
        oracle.queries() <= 1 << 7,
        "expected a modest number of oracle queries, got {}",
        oracle.queries()
    );
}

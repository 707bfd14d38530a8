//! Conformance suite for the unified attack API: every attack in the full
//! registry is exercised through the same `Attack::execute` surface and must
//! (a) succeed on an appropriately locked small host within budget, (b)
//! return the out-of-budget outcome — not hang, not error — on an
//! already-exhausted budget or an already-cancelled request, and (c)
//! accept exactly the threat models its `supports` claims.

use kratt_attacks::{
    score_guess, AttackError, AttackRequest, AttackRun, Budget, Oracle, ThreatModel,
};
use kratt_benchmarks::arith::ripple_carry_adder;
use kratt_locking::{LockedCircuit, LockingTechnique, SarLock, SecretKey, TtLock};
use kratt_netlist::sim::exhaustively_equivalent;
use kratt_netlist::{Circuit, GateType};
use kratt_sat::CancelFlag;
use std::sync::atomic::AtomicBool;

/// The planted secrets of the two conformance hosts.
const SFLT_SECRET: u64 = 0b101;
const DFLT_SECRET: u64 = 0b0110;

/// A small SFLT instance (SARLock with 3 key bits): every oracle-guided
/// attack and the QBF path break it quickly.
fn sflt_host() -> (Circuit, LockedCircuit) {
    let original = ripple_carry_adder(4).unwrap();
    let locked = SarLock::new(3)
        .lock(&original, &SecretKey::from_u64(SFLT_SECRET, 3))
        .unwrap();
    (original, locked)
}

/// A small DFLT instance (TTLock with 4 key bits) for FALL, whose functional
/// analysis targets stripped-functionality locking specifically.
fn dflt_host() -> (Circuit, LockedCircuit) {
    let original = ripple_carry_adder(4).unwrap();
    let locked = TtLock::new(4)
        .lock(&original, &SecretKey::from_u64(DFLT_SECRET, 4))
        .unwrap();
    (original, locked)
}

/// The host each attack is expected to break (FALL needs the DFLT).
fn host_for(attack: &str) -> (Circuit, LockedCircuit) {
    if attack == "fall" {
        dflt_host()
    } else {
        sflt_host()
    }
}

/// Success criterion (a), per attack semantics: exact attacks must produce a
/// functionally correct key, SCOPE must fully decipher the SARLock key from
/// the mask asymmetry, the removal attack must recover the original circuit,
/// and AppSAT must at least settle on a key.
fn assert_success(
    attack: &str,
    run: &kratt_attacks::AttackRun,
    original: &Circuit,
    locked: &LockedCircuit,
) {
    match attack {
        "removal" => {
            let recovered = run
                .outcome
                .recovered_circuit()
                .unwrap_or_else(|| panic!("{attack}: expected a recovered circuit"));
            assert!(
                exhaustively_equivalent(original, recovered).unwrap(),
                "{attack}: recovered circuit differs from the original"
            );
        }
        "scope" => {
            let guess = run
                .outcome
                .as_guess(&kratt_attacks::key_input_names(&locked.circuit));
            let (cdk, dk) = score_guess(locked, &guess);
            assert_eq!(
                (cdk, dk),
                (3, 3),
                "{attack}: SARLock mask asymmetry must decide all bits"
            );
        }
        "appsat" => {
            // AppSAT's design goal is an *approximately* correct key; on a
            // point function the settled key may legitimately be wrong on
            // one protected pattern, so only require that it produced one.
            assert!(
                run.exact_key().is_some(),
                "{attack}: expected a settled key"
            );
        }
        _ => {
            let key = run
                .exact_key()
                .unwrap_or_else(|| panic!("{attack}: expected an exact key, got {:?}", run.outcome))
                .clone();
            let unlocked = locked.apply_key(&key).unwrap();
            assert!(
                exhaustively_equivalent(original, &unlocked).unwrap(),
                "{attack}: recovered key does not unlock the circuit"
            );
        }
    }
}

#[test]
fn every_registered_attack_is_constructible_and_named_consistently() {
    let registry = kratt::attack_registry();
    let names = registry.names();
    for expected in [
        "kratt",
        "sat",
        "double-dip",
        "appsat",
        "fall",
        "removal",
        "scope",
    ] {
        assert!(
            names.contains(&expected),
            "`{expected}` missing from the registry"
        );
    }
    for name in names {
        let attack = registry.build(name).unwrap();
        assert_eq!(
            attack.name(),
            name,
            "registry name and Attack::name must agree"
        );
        assert!(
            ThreatModel::ALL.iter().any(|&model| attack.supports(model)),
            "{name}: must support at least one threat model"
        );
    }
}

#[test]
fn every_attack_recovers_its_planted_target_within_budget() {
    let registry = kratt::attack_registry();
    for name in registry.names() {
        let attack = registry.build(name).unwrap();
        let (original, locked) = host_for(name);
        let oracle = Oracle::new(original.clone()).unwrap();
        let request = AttackRequest::oracle_guided(&locked.circuit, &oracle);
        let run = attack
            .execute(&request)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(run.attack, name);
        assert_eq!(run.threat_model, ThreatModel::OracleGuided);
        assert_success(name, &run, &original, &locked);
    }
}

#[test]
fn a_zero_budget_returns_out_of_budget_instead_of_hanging() {
    let registry = kratt::attack_registry();
    let (original, locked) = sflt_host();
    let oracle = Oracle::new(original).unwrap();
    for name in registry.names() {
        let attack = registry.build(name).unwrap();
        let request =
            AttackRequest::oracle_guided(&locked.circuit, &oracle).with_budget(Budget::zero());
        let run = attack
            .execute(&request)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            run.outcome.is_out_of_budget(),
            "{name}: zero budget must report out-of-budget, got {:?}",
            run.outcome
        );
    }
}

#[test]
fn a_cancelled_request_returns_out_of_budget_without_an_oracle_query() {
    let registry = kratt::attack_registry();
    let (original, locked) = sflt_host();
    let oracle = Oracle::new(original).unwrap();
    let cancel = CancelFlag::new(AtomicBool::new(true));
    for name in registry.names() {
        let attack = registry.build(name).unwrap();
        let request = AttackRequest::oracle_guided(&locked.circuit, &oracle)
            .with_budget(Budget::unlimited())
            .with_cancel(cancel.clone());
        let run = attack
            .execute(&request)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            run.outcome.is_out_of_budget(),
            "{name}: a cancelled request must report out-of-budget, got {:?}",
            run.outcome
        );
        assert_eq!(run.oracle_queries, 0, "{name}: queried a cancelled oracle");
    }
    assert_eq!(oracle.queries(), 0);
}

#[test]
fn supports_matches_what_execute_accepts() {
    let registry = kratt::attack_registry();
    let (original, locked) = sflt_host();
    let oracle = Oracle::new(original).unwrap();
    for name in registry.names() {
        let attack = registry.build(name).unwrap();
        for model in ThreatModel::ALL {
            let request = match model {
                ThreatModel::OracleLess => AttackRequest::oracle_less(&locked.circuit),
                ThreatModel::OracleGuided => AttackRequest::oracle_guided(&locked.circuit, &oracle),
            };
            let result = attack.execute(&request);
            if attack.supports(model) {
                assert!(
                    result.is_ok(),
                    "{name}: claims to support {model} but rejected the request: {:?}",
                    result.err()
                );
            } else {
                assert!(
                    matches!(result, Err(AttackError::Unsupported { .. })),
                    "{name}: must reject the unsupported {model} model with Unsupported"
                );
            }
        }
    }
}

/// The step names and outcome kind of one run.
fn steps_and_kind(run: &AttackRun) -> (Vec<&str>, &'static str) {
    let steps = run.steps.iter().map(|s| s.name.as_str()).collect();
    (steps, run.outcome.kind())
}

#[test]
fn runs_carry_telemetry_and_serialise_to_json() {
    let registry = kratt::attack_registry();
    let (original, locked) = sflt_host();
    let oracle = Oracle::new(original).unwrap();
    let request = AttackRequest::oracle_guided(&locked.circuit, &oracle);
    let run = registry.build("sat").unwrap().execute(&request).unwrap();
    assert!(
        run.oracle_queries > 0,
        "the SAT attack must spend oracle queries"
    );
    let json = run.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"attack\":\"sat\""));
    assert!(json.contains("\"threat_model\":\"oracle-guided\""));
    assert!(json.contains("\"kind\":\"exact-key\""));

    // Every registry attack names the steps it took; the traced benchmark
    // maps these names onto its layers, so they are pinned exactly.
    let (dflt_original, dflt) = dflt_host();
    let dflt_oracle = Oracle::new(dflt_original).unwrap();
    let dflt_request = AttackRequest::oracle_guided(&dflt.circuit, &dflt_oracle);
    let run_of = |name: &str, request: &AttackRequest<'_>| {
        registry
            .build(name)
            .unwrap()
            .execute(request)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let expected: [(&str, &AttackRequest<'_>, &[&str], &str); 8] = [
        (
            "sat",
            &request,
            &["encode", "dip-loop", "key-extraction"],
            "exact-key",
        ),
        ("double-dip", &request, &["double-dip-loop"], "exact-key"),
        ("appsat", &request, &["dip-sampling-loop"], "exact-key"),
        (
            "kratt",
            &AttackRequest::oracle_less(&locked.circuit),
            &["logic-removal", "qbf"],
            "exact-key",
        ),
        (
            "kratt",
            &AttackRequest::oracle_less(&dflt.circuit),
            &[
                "logic-removal",
                "qbf",
                "classification",
                "circuit-modification+scope",
            ],
            "partial-guess",
        ),
        (
            "kratt",
            &dflt_request,
            &[
                "logic-removal",
                "qbf",
                "classification",
                "extraction",
                "structural-analysis",
            ],
            "exact-key",
        ),
        ("scope", &request, &["per-bit-analysis"], "partial-guess"),
        (
            "fall",
            &dflt_request,
            &["structural+functional-analysis"],
            "exact-key",
        ),
    ];
    for (name, request, steps, kind) in expected {
        let run = run_of(name, request);
        assert_eq!(
            steps_and_kind(&run),
            (steps.to_vec(), kind),
            "{name} under the {} model",
            run.threat_model
        );
    }
    let removal = run_of("removal", &request);
    let (steps, kind) = steps_and_kind(&removal);
    assert_eq!(kind, "recovered-circuit");
    assert!(
        matches!(steps.as_slice(), [step] if step.starts_with("strip-")),
        "removal: {steps:?}"
    );

    // An exhausted iteration budget ends the SAT attack after its DIP loop.
    let capped = AttackRequest::oracle_guided(&locked.circuit, &oracle).with_budget(Budget {
        max_iterations: 1,
        ..Budget::default()
    });
    assert_eq!(
        steps_and_kind(&run_of("sat", &capped)),
        (vec!["encode", "dip-loop"], "out-of-budget")
    );
}

/// `y0 = x ⊕ keyinput0`, `y1 = x ⊙ keyinput0` against an oracle computing
/// `y0 = y1 = x`: key 0 reproduces `y0` only and key 1 reproduces `y1`
/// only, so no key is consistent with any oracle response.
fn inconsistent_lock() -> (Circuit, Circuit) {
    let mut locked = Circuit::new("xor_xnor");
    let x = locked.add_input("x").unwrap();
    let k = locked.add_input("keyinput0").unwrap();
    let y0 = locked.add_gate(GateType::Xor, "y0", &[x, k]).unwrap();
    let y1 = locked.add_gate(GateType::Xnor, "y1", &[x, k]).unwrap();
    locked.mark_output(y0);
    locked.mark_output(y1);
    let mut original = Circuit::new("copy");
    let x = original.add_input("x").unwrap();
    let y0 = original.add_gate(GateType::Buf, "y0", &[x]).unwrap();
    let y1 = original.add_gate(GateType::Buf, "y1", &[x]).unwrap();
    original.mark_output(y0);
    original.mark_output(y1);
    (locked, original)
}

#[test]
fn the_dip_family_reports_an_error_when_no_key_is_consistent() {
    let registry = kratt::attack_registry();
    let (locked, original) = inconsistent_lock();
    for name in ["sat", "double-dip", "appsat"] {
        let oracle = Oracle::new(original.clone()).unwrap();
        let result = registry
            .build(name)
            .unwrap()
            .execute(&AttackRequest::oracle_guided(&locked, &oracle));
        match result {
            Err(e) => assert_eq!(
                e.to_string(),
                "no key reproduces the oracle's responses",
                "{name}"
            ),
            Ok(run) => panic!(
                "{name}: claimed {} although no key is consistent",
                run.outcome.kind()
            ),
        }
    }
}

#[test]
fn the_matrix_harness_reproduces_the_comparative_shape() {
    // A miniature Table III: on a wider point function the SAT family runs
    // out of a tiny budget while KRATT's QBF path still pins the key —
    // reproduced here through a campaign on the parallel harness.
    use kratt_attacks::{Campaign, CampaignHost, CorpusCache, Verdict};
    use kratt_locking::scheme_registry;
    use std::time::Duration;

    let host = ripple_carry_adder(4).unwrap();
    let spec = "sarlock:k=9";
    let planted = scheme_registry()
        .lock(&spec.parse().unwrap(), &host)
        .unwrap()
        .secret;
    let campaign = Campaign::builder()
        .spec_strs([spec])
        .hosts([CampaignHost::new("adder", host, 9)])
        .attacks(["sat", "kratt"])
        .budget(Budget {
            time_limit: Some(Duration::from_secs(2)),
            max_iterations: 6,
            ..Budget::default()
        })
        .workers(2)
        .build()
        .unwrap();
    let report = campaign
        .run(
            &kratt::attack_registry(),
            &scheme_registry(),
            &CorpusCache::new(),
        )
        .unwrap();
    assert_eq!(report.cells.len(), 2);
    let (sat, kratt_cell) = (&report.cells[0], &report.cells[1]);
    assert_eq!(
        (sat.attack.as_str(), kratt_cell.attack.as_str()),
        ("sat", "kratt")
    );
    assert_eq!(
        sat.outcome,
        Some("out-of-budget"),
        "the SAT attack must run out of 6 iterations on a 9-bit point function"
    );
    assert_eq!(
        kratt_cell.outcome,
        Some("exact-key"),
        "KRATT's QBF path must still pin the key"
    );
    assert_eq!(
        kratt_cell.verdict,
        Verdict::Verified,
        "{:?}",
        kratt_cell.error
    );
    assert_eq!(kratt_cell.key, Some(planted.to_hex()));
}

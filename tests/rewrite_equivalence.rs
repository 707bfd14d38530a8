//! Integration tests of the cut/NPN rewriting pass and the AIG-native DIP
//! engine against the full scheme registry: `Aig::rewrite` must preserve the
//! function of every locked host (exhaustively packed-swept up to 12 inputs,
//! fraig-proved above), and the SAT attack's recovered key must unlock every
//! cell of the Table-I × scheme grid (checked by `check_equivalence`, and
//! against the planted secret where the correct key is unique).

use kratt_attacks::{Attack, AttackRequest, Budget, Oracle, SatAttack};
use kratt_benchmarks::arith::ripple_carry_adder;
use kratt_benchmarks::iscas::IscasCircuit;
use kratt_benchmarks::random_logic::RandomLogicSpec;
use kratt_locking::{scheme_registry, SchemeSpec};
use kratt_netlist::Aig;
use kratt_synth::{check_equivalence, resynthesize, Effort, ResynthesisOptions};
use proptest::prelude::*;
use std::time::Duration;

/// One spec per registered scheme, all at a 4-bit key so the SAT family
/// exhausts the key space in at most 16 DIPs.
const ALL_SCHEME_SPECS: [&str; 10] = [
    "sarlock:k=4",
    "antisat:k=4",
    "caslock:k=4",
    "genantisat:k=4",
    "ttlock:k=4",
    "cac:k=4",
    "sfll-hd:k=4",
    "sfll-flex:bits=2,patterns=2",
    "lutlock:addr=2",
    "rll:k=4,seed=2",
];

/// Schemes whose planted secret is the *unique* functionally correct key, so
/// the CEGAR loop must land on it exactly. The Anti-SAT family is excluded
/// because its correct-key set is larger than a point, and SFLL-Flex
/// because its cube *set* is order-insensitive (permuting the per-pattern
/// cubes of the key yields an equivalent key), so the loop may legitimately
/// pick another member.
const UNIQUE_KEY_SCHEMES: [&str; 6] = ["sarlock", "ttlock", "cac", "sfll-hd", "lutlock", "rll"];

/// Bit-parallel exhaustive equivalence over every input pattern; bounded to
/// 12 inputs (4096 patterns = 64 packed words).
fn exhaustively_equivalent_aigs(a: &Aig, b: &Aig) -> bool {
    assert_eq!(a.input_names(), b.input_names(), "interfaces must match");
    assert_eq!(a.output_names(), b.output_names(), "interfaces must match");
    let n = a.num_inputs();
    assert!(n <= 12, "exhaustive sweep is bounded to 12 inputs, got {n}");
    let patterns = 1u64 << n;
    let mut base = 0u64;
    while base < patterns {
        let lanes = (patterns - base).min(64) as usize;
        let words: Vec<u64> = (0..n)
            .map(|i| {
                let mut w = 0u64;
                for lane in 0..lanes {
                    w |= ((base + lane as u64) >> i & 1) << lane;
                }
                w
            })
            .collect();
        let mask = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        let va = a.eval_words(&words);
        let vb = b.eval_words(&words);
        for (oa, ob) in a.outputs().iter().zip(b.outputs()) {
            if (a.lit_word(&va, *oa) ^ b.lit_word(&vb, *ob)) & mask != 0 {
                return false;
            }
        }
        base += lanes as u64;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every registered scheme on random hosts: lowering the locked circuit
    /// and rewriting it must preserve the function on every (data, key)
    /// pattern and never grow the network.
    #[test]
    fn rewrite_preserves_every_scheme_locked_host(seed in 0u64..50, scheme in 0usize..10) {
        // 7 data inputs + the 4 key inputs keeps the locked circuit inside
        // the 12-input exhaustive-sweep bound.
        let host = RandomLogicSpec::new(format!("host{seed}"), 7, 3, 40, seed).generate();
        let spec: SchemeSpec = ALL_SCHEME_SPECS[scheme].parse().unwrap();
        let locked = scheme_registry().lock(&spec, &host).unwrap();
        let aig = Aig::from_circuit(&locked.circuit).unwrap();
        prop_assert!(aig.num_inputs() <= 12);
        let rewritten = aig.rewrite();
        prop_assert!(
            exhaustively_equivalent_aigs(&aig, &rewritten),
            "{} on seed {seed} changed function",
            ALL_SCHEME_SPECS[scheme]
        );
        prop_assert!(
            rewritten.num_ands() <= aig.stats().ands,
            "{} on seed {seed} grew: {} -> {}",
            ALL_SCHEME_SPECS[scheme],
            aig.stats().ands,
            rewritten.num_ands()
        );
        prop_assert!(rewritten.check_invariants().is_empty());
    }
}

/// Above the exhaustive bound the fraig pipeline carries the proof: high
/// effort resynthesis (whose scrambler is `Aig::rewrite`) of every scheme's
/// lock of a 17-input host must stay equivalent under `check_equivalence`.
#[test]
fn rewrite_is_fraig_equivalent_on_locked_hosts_above_the_sweep_bound() {
    let registry = scheme_registry();
    let host = ripple_carry_adder(8).unwrap();
    for spec_str in ALL_SCHEME_SPECS {
        let spec: SchemeSpec = spec_str.parse().unwrap();
        let locked = registry.lock(&spec, &host).unwrap();
        assert!(
            Aig::from_circuit(&locked.circuit).unwrap().num_inputs() > 12,
            "{spec_str}: host must exceed the exhaustive bound"
        );
        let variant = resynthesize(
            &locked.circuit,
            &ResynthesisOptions::with_seed(1).effort(Effort::High),
        )
        .unwrap();
        assert!(
            check_equivalence(&locked.circuit, &variant)
                .unwrap()
                .is_equivalent(),
            "{spec_str}: high-effort rewrite changed the locked function"
        );
    }
}

/// The Table-I × scheme grid: on every cell where the SAT attack finishes,
/// its key must unlock the host (and equal the planted secret on unique-key
/// schemes), and on the tractable hosts it must break every scheme.
/// c6288's multiplier array produces genuinely hard CEGAR instances, so
/// out-of-budget is tolerated there on up to half the schemes.
#[test]
fn sat_attack_unlocks_the_table1_scheme_grid() {
    let registry = scheme_registry();
    for circuit in IscasCircuit::ALL {
        let host = circuit.generate_scaled(0.02);
        let (hard_host, budget_secs) = match circuit {
            IscasCircuit::C6288 => (true, 4),
            _ => (false, 10),
        };
        let mut successes = 0usize;
        for spec_str in ALL_SCHEME_SPECS {
            let cell = format!("{}/{spec_str}", circuit.name());
            let spec: SchemeSpec = spec_str.parse().unwrap();
            let locked = registry.lock(&spec, &host).unwrap();
            let oracle = Oracle::new(host.clone()).unwrap();
            let budget = Budget {
                time_limit: Some(Duration::from_secs(budget_secs)),
                ..Budget::default()
            };
            let run = SatAttack::new()
                .execute(
                    &AttackRequest::oracle_guided(&locked.circuit, &oracle).with_budget(budget),
                )
                .unwrap();
            let Some(key) = run.outcome.exact_key() else {
                assert!(
                    hard_host,
                    "{cell}: expected an exact key, got {}",
                    run.outcome.kind()
                );
                continue;
            };
            let unlocked = locked.apply_key(key).unwrap();
            assert!(
                check_equivalence(&host, &unlocked).unwrap().is_equivalent(),
                "{cell}: recovered key does not unlock"
            );
            if UNIQUE_KEY_SCHEMES.contains(&spec.technique()) {
                assert_eq!(
                    key.to_u64(),
                    locked.secret.to_u64(),
                    "{cell}: unique-key scheme must yield the planted secret"
                );
            }
            successes += 1;
        }
        assert!(
            successes >= if hard_host { 5 } else { ALL_SCHEME_SPECS.len() },
            "{}: the SAT attack broke only {successes}/10 schemes",
            circuit.name()
        );
    }
}

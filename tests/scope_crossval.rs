//! Cross-validation of the dataflow-backed static analyses against their
//! ground-truth counterparts:
//!
//! * the AIG-side SCOPE kernel ([`ScopePlan`]) must produce bit-identical
//!   feature vectors to a full constant-propagation rebuild and stats pass
//!   (`stats(&set_inputs_constant(..))`), and SCOPE's key guess must be the
//!   one those rebuilt features imply, on every Table-I host × registry
//!   scheme combination;
//! * every warning-level verdict the new dataflow lint rules emit on the
//!   registry corpus must survive SAT/equivalence confirmation — zero
//!   false verdicts is the contract that keeps the lints usable as
//!   pre-attack triage.

use kratt_attacks::scope::ScopeFeatures;
use kratt_attacks::{Attack, AttackRequest, Budget, KeyGuess, ScopeAttack, ScopePlan};
use kratt_benchmarks::arith::ripple_carry_adder;
use kratt_benchmarks::table1_circuits;
use kratt_lint::lint_locked;
use kratt_locking::{scheme_registry, LockedCircuit, SchemeSpec};
use kratt_netlist::analysis::stats;
use kratt_netlist::transform::set_inputs_constant;
use kratt_netlist::{Aig, AigLit, Circuit, NetId};
use kratt_sat::{encode_aig, Solver};
use kratt_synth::check_equivalence;
use std::collections::HashMap;

/// The ten-scheme corpus at cross-validation key sizes.
const SPECS: [&str; 10] = [
    "sarlock:k=4",
    "antisat:k=4",
    "caslock:k=4",
    "genantisat:k=4",
    "ttlock:k=4",
    "cac:k=4",
    "sfll-hd:k=4,h=1",
    "sfll-flex:bits=3,patterns=2",
    "lutlock:addr=3",
    "rll:k=4",
];

fn lock(spec_text: &str, original: &Circuit) -> LockedCircuit {
    let spec: SchemeSpec = spec_text.parse().unwrap();
    scheme_registry()
        .lock(&spec, original)
        .unwrap_or_else(|e| panic!("{spec_text}: locking failed: {e}"))
}

/// SCOPE's margin-0 decision on one cofactor pair, restated from the paper:
/// no guess when the two rebuilt circuits look alike, otherwise the value
/// that keeps more gates, then more literals, then more depth.
fn scope_decision(features0: ScopeFeatures, features1: ScopeFeatures) -> Option<bool> {
    let key = |f: ScopeFeatures| (f.gates, f.literals, f.depth);
    match key(features1).cmp(&key(features0)) {
        std::cmp::Ordering::Greater => Some(true),
        std::cmp::Ordering::Less => Some(false),
        std::cmp::Ordering::Equal => None,
    }
}

/// The dataflow replay agrees feature-for-feature with a real
/// constant-propagation rebuild on every key-bit cofactor of every Table-I
/// host × scheme instance — and SCOPE guesses exactly what the rebuilt
/// features imply.
#[test]
fn scope_kernels_agree_on_every_table1_host_and_scheme() {
    for row in table1_circuits(0.05) {
        for spec in SPECS {
            let locked = lock(spec, &row.circuit);
            let mut plan = ScopePlan::new(&locked.circuit).unwrap();
            let mut expected = KeyGuess::new();
            for &key in &locked.circuit.key_inputs() {
                let [features0, features1] = [false, true].map(|value| {
                    let replayed = plan.features(&[(key, value)]);
                    let rebuilt = set_inputs_constant(&locked.circuit, &[(key, value)]).unwrap();
                    let resynthesised = ScopeFeatures::from(stats(&rebuilt).unwrap());
                    assert_eq!(
                        replayed,
                        resynthesised,
                        "{}/{spec}: kernels disagree on {}={}",
                        row.name,
                        locked.circuit.net_name(key),
                        u8::from(value)
                    );
                    resynthesised
                });
                if let Some(value) = scope_decision(features0, features1) {
                    expected.set(locked.circuit.net_name(key), value);
                }
            }
            let names = locked.circuit.key_input_names();
            let request =
                AttackRequest::oracle_less(&locked.circuit).with_budget(Budget::unlimited());
            let run = ScopeAttack::new().execute(&request).unwrap();
            assert_eq!(
                run.outcome.as_guess(&names),
                expected,
                "{}/{spec}: SCOPE guessed a key its features do not imply",
                row.name
            );
        }
    }
}

/// The output position of `oname` in a (simplified) circuit.
fn output_index(circuit: &Circuit, oname: &str) -> usize {
    circuit
        .outputs()
        .iter()
        .position(|&n| circuit.net_name(n) == oname)
        .unwrap_or_else(|| panic!("output `{oname}` survives the cofactor rebuild"))
}

/// The text between the first pair of backticks of a lint message.
fn backticked(message: &str) -> &str {
    let start = message.find('`').expect("the message names a net") + 1;
    let end = start + message[start..].find('`').expect("closing backtick");
    &message[start..end]
}

/// Lowers `circuit` into `aig` (inputs shared by name) and returns the edge
/// of its output `oname`.
fn output_edge(aig: &mut Aig, circuit: &Circuit, oname: &str) -> AigLit {
    let lits = aig.lower_circuit(circuit, &HashMap::new()).unwrap();
    lits[circuit.outputs()[output_index(circuit, oname)].index()]
}

/// Whether some input assignment makes `edge` of `aig` true.
fn satisfiable(mut aig: Aig, edge: AigLit) -> bool {
    aig.add_output("query", edge);
    let mut solver = Solver::new();
    let enc = encode_aig(&mut solver, &aig, &HashMap::new());
    solver.add_clause([enc.outputs()[0]]);
    solver.solve().is_sat()
}

/// Whether `output = target` is satisfiable in the circuit (some input
/// assignment produces the value).
fn output_can_be(circuit: &Circuit, oname: &str, target: bool) -> bool {
    let mut aig = Aig::new(circuit.name());
    let out = output_edge(&mut aig, circuit, oname);
    satisfiable(aig, out.when(target))
}

/// SAT-confirms one `key-unate-output` verdict: for a monotone
/// non-decreasing (non-increasing) output there is no input assignment
/// where the `key = 0` cofactor is 1 and the `key = 1` cofactor is 0
/// (respectively the transpose), so the miter must be UNSAT.
fn confirm_unate(locked: &Circuit, key: NetId, oname: &str, non_decreasing: bool) {
    let c0 = set_inputs_constant(locked, &[(key, false)]).unwrap();
    let c1 = set_inputs_constant(locked, &[(key, true)]).unwrap();
    let mut aig = Aig::new("cofactors");
    let out0 = output_edge(&mut aig, &c0, oname);
    let out1 = output_edge(&mut aig, &c1, oname);
    // Ask for the forbidden lane: a fall on a rising key bit (or a rise on
    // a falling one).
    let (high, low) = if non_decreasing {
        (out0, out1)
    } else {
        (out1, out0)
    };
    let forbidden = aig.and(high, low.complement());
    assert!(
        !satisfiable(aig, forbidden),
        "output `{oname}` is not monotone in `{}` — false unateness verdict",
        locked.net_name(key)
    );
}

/// SAT-confirms one `ternary-cofactor-constant` verdict: under
/// `key = pin` the output is `constant` for every input (the complement is
/// UNSAT), while the opposite cofactor still takes both values.
fn confirm_cofactor_constant(locked: &Circuit, key: NetId, oname: &str, constant: bool, pin: bool) {
    let pinned = set_inputs_constant(locked, &[(key, pin)]).unwrap();
    assert!(
        !output_can_be(&pinned, oname, !constant),
        "output `{oname}` is not constant {} under `{}` = {} — false verdict",
        u8::from(constant),
        locked.net_name(key),
        u8::from(pin)
    );
    let opposite = set_inputs_constant(locked, &[(key, !pin)]).unwrap();
    assert!(
        output_can_be(&opposite, oname, false) && output_can_be(&opposite, oname, true),
        "output `{oname}` is constant under both values of `{}` — the \
         data-dependence half of the verdict is false",
        locked.net_name(key)
    );
}

/// Equivalence-confirms one `odc-dead-key-gate` verdict: with the masking
/// bit pinned, the two cofactors of the masked key bit realise the same
/// function on every output.
fn confirm_odc(locked: &Circuit, masked: NetId, mask: NetId, value: bool) {
    let low = set_inputs_constant(locked, &[(mask, value), (masked, false)]).unwrap();
    let high = set_inputs_constant(locked, &[(mask, value), (masked, true)]).unwrap();
    assert!(
        check_equivalence(&low, &high).unwrap().is_equivalent(),
        "`{}` still matters under `{}` = {} — false ODC verdict",
        locked.net_name(masked),
        locked.net_name(mask),
        u8::from(value)
    );
}

/// Confirms every warning-level verdict of the new dataflow rules in one
/// report against the circuit it was issued on; returns the confirmation
/// count per rule id. The probability detector is informational (a
/// heuristic profile, not a claim about the function) and is validated by
/// the soundness property suite instead.
fn confirm_new_rule_verdicts(
    circuit: &Circuit,
    report: &kratt_lint::LintReport,
) -> HashMap<&'static str, usize> {
    let mut confirmed: HashMap<&'static str, usize> = HashMap::new();
    for d in &report.diagnostics {
        let location = d.location.as_deref();
        match d.rule {
            "key-unate-output" => {
                let key = circuit
                    .find_net(location.expect("unate verdicts carry the key"))
                    .unwrap();
                let oname = backticked(&d.message).to_string();
                let non_decreasing = d.message.contains("non-decreasing");
                assert!(
                    non_decreasing || d.message.contains("non-increasing"),
                    "unparsable direction in `{}`",
                    d.message
                );
                confirm_unate(circuit, key, &oname, non_decreasing);
                *confirmed.entry("key-unate-output").or_default() += 1;
            }
            "ternary-cofactor-constant" => {
                let key = circuit
                    .find_net(location.expect("cofactor verdicts carry the key"))
                    .unwrap();
                let oname = backticked(&d.message).to_string();
                let constant = d.message.contains("is constant 1");
                let pin = d.message.contains("this key bit is 1");
                confirm_cofactor_constant(circuit, key, &oname, constant, pin);
                *confirmed.entry("ternary-cofactor-constant").or_default() += 1;
            }
            "odc-dead-key-gate" => {
                let masked = circuit
                    .find_net(location.expect("ODC verdicts carry the masked key"))
                    .unwrap();
                let mask = circuit.find_net(backticked(&d.message)).unwrap();
                let value = d.message.contains("is 1:");
                confirm_odc(circuit, masked, mask, value);
                *confirmed.entry("odc-dead-key-gate").or_default() += 1;
            }
            _ => {}
        }
    }
    confirmed
}

/// Sweeps the registry corpus: whatever the new rules report must survive
/// confirmation — zero false verdicts. (The XOR-perturb/restore registry
/// schemes are binate in every key bit by construction, so silence is the
/// expected — and verified-correct — outcome on most of them.)
#[test]
fn registry_corpus_draws_no_false_dataflow_verdicts() {
    let mut original = ripple_carry_adder(4).unwrap();
    original.set_name("rca4");
    for spec in SPECS {
        let locked = lock(spec, &original);
        let report = lint_locked(&original, &locked.circuit);
        confirm_new_rule_verdicts(&locked.circuit, &report);
    }
}

/// Scheme-shaped fixtures where each new rule has something to find: a
/// MUX-style LUT lock (unate configuration bits), a key bit gating another
/// key's cone (ODC), and a key bit gating an output outright (cofactor
/// constant). Every verdict is SAT/equivalence-confirmed.
#[test]
fn new_lint_rule_verdicts_are_sat_confirmed_on_fixtures() {
    use kratt_netlist::GateType;

    // Classical MUX-LUT lock: out = (a AND k1) OR (NOT a AND k0) — the
    // configuration bits are positive unate.
    let mut lut = Circuit::new("mux_lut");
    let a = lut.add_input("a").unwrap();
    let k0 = lut.add_input("keyinput0").unwrap();
    let k1 = lut.add_input("keyinput1").unwrap();
    let na = lut.add_gate(GateType::Not, "na", &[a]).unwrap();
    let hi = lut.add_gate(GateType::And, "hi", &[a, k1]).unwrap();
    let lo = lut.add_gate(GateType::And, "lo", &[na, k0]).unwrap();
    let out = lut.add_gate(GateType::Or, "out", &[hi, lo]).unwrap();
    lut.mark_output(out);

    // One key gating another key's comparison into the output: under
    // keyinput0 = 0 the keyinput1 cone is an observability don't-care.
    let mut gatedkey = Circuit::new("key_gated_key");
    let x0 = gatedkey.add_input("x0").unwrap();
    let x1 = gatedkey.add_input("x1").unwrap();
    let g0 = gatedkey.add_input("keyinput0").unwrap();
    let g1 = gatedkey.add_input("keyinput1").unwrap();
    let func = gatedkey.add_gate(GateType::And, "func", &[x0, x1]).unwrap();
    let cmp = gatedkey.add_gate(GateType::Xor, "cmp", &[x1, g1]).unwrap();
    let gate = gatedkey
        .add_gate(GateType::And, "gate", &[g0, cmp])
        .unwrap();
    let out = gatedkey
        .add_gate(GateType::Or, "out", &[func, gate])
        .unwrap();
    gatedkey.mark_output(out);

    // A key bit that gates the output outright: constant 0 under one
    // cofactor, data-dependent under the other.
    let mut gatedout = Circuit::new("gated_output");
    let y0 = gatedout.add_input("x0").unwrap();
    let y1 = gatedout.add_input("x1").unwrap();
    let gk = gatedout.add_input("keyinput0").unwrap();
    let data = gatedout.add_gate(GateType::And, "data", &[y0, y1]).unwrap();
    let out = gatedout
        .add_gate(GateType::And, "out", &[data, gk])
        .unwrap();
    gatedout.mark_output(out);

    let mut totals: HashMap<&'static str, usize> = HashMap::new();
    for fixture in [&lut, &gatedkey, &gatedout] {
        let report = kratt_lint::lint_circuit(fixture);
        for (rule, count) in confirm_new_rule_verdicts(fixture, &report) {
            *totals.entry(rule).or_default() += count;
        }
    }
    for rule in [
        "key-unate-output",
        "odc-dead-key-gate",
        "ternary-cofactor-constant",
    ] {
        assert!(
            totals.get(rule).copied().unwrap_or(0) >= 1,
            "`{rule}` must fire (and confirm) on its fixture; got {totals:?}"
        );
    }
}

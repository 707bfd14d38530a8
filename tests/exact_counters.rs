//! Golden values of the suite's exact work counters: CNF miter sizes, fraig
//! SAT calls and merges, DIP miter sizes, rewrite node and level counts, and
//! KRATT's Table III outcomes with their oracle queries.
//!
//! Every recipe is seeded, so each counter is the same on any machine, and
//! each is checked with equality. A change that moves a counter on purpose
//! updates its table in the same diff: on a mismatch the test names every
//! counter that moved and prints the whole current table in this file's
//! syntax, ready to paste. Timings are perfbench's business, not this
//! file's.

use kratt_suite::attacks::{measure_dip_encoding, AttackRequest, Budget, DipEngineKind, Oracle};
use kratt_suite::benchmarks::{table1_circuits, IscasCircuit};
use kratt_suite::locking::{
    scheme_registry, LockingTechnique, RandomXorLocking, SchemeSpec, SecretKey,
};
use kratt_suite::netlist::aig::Aig;
use kratt_suite::netlist::Circuit;
use kratt_suite::sat::{encode_aig, ClauseSink, Cnf};
use kratt_suite::synth::{check_equivalence_with_stats, resynthesize, Effort, ResynthesisOptions};
use std::collections::HashMap;
use std::fmt::{Debug, Write as _};
use std::time::Duration;

/// `cnf`: the equivalence miter of each full-scale ISCAS host against its
/// seed-1 resynthesis, built in one AIG (`Aig::miter`), encoded with
/// `encode_aig` and asserted with a unit clause.
const CNF_COLUMNS: [&str; 3] = ["host", "AIG vars", "AIG clauses"];
const CNF: &[(&str, usize, usize)] = &[
    ("c2670", 1579, 5293),
    ("c5315", 3053, 10576),
    ("c6288", 33, 2),
];

/// `fraig`: `check_equivalence_with_stats` on quarter-scale hosts against
/// their seed-1 resynthesis; every check must prove equivalence.
const FRAIG_COLUMNS: [&str; 4] = ["host", "SAT calls", "proved merges", "hashed merges"];
const FRAIG: &[(&str, usize, usize, usize)] = &[("c2670", 58, 45, 115), ("c5315", 119, 107, 432)];

/// `dip_aig`: the SAT attack's CEGAR miter on quarter-scale hosts locked
/// with 16-bit random XOR locking, sized by `measure_dip_encoding`.
const DIP_COLUMNS: [&str; 3] = ["host", "miter vars", "miter clauses"];
const DIP: &[(&str, usize, usize)] = &[("c2670", 433, 930), ("c5315", 936, 2721)];

/// `rewrite`: `Aig::rewrite` on each full-scale ISCAS host.
const REWRITE_COLUMNS: [&str; 5] = [
    "host",
    "ANDs before",
    "ANDs after",
    "levels before",
    "levels after",
];
const REWRITE: &[(&str, usize, usize, usize, usize)] = &[
    ("c2670", 1488, 1324, 46, 42),
    ("c5315", 2836, 2786, 58, 58),
    ("c6288", 1872, 1872, 117, 117),
];

/// KRATT's Table III rows: every Table-I host at scale 0.05 locked with
/// each Table II/III scheme at its Table-I key width, resynthesised, and
/// attacked oracle-guided.
const KRATT_COLUMNS: [&str; 5] = ["host", "scheme", "outcome", "iterations", "oracle queries"];
const KRATT: &[(&str, &str, &str, usize, u64)] = &[
    ("c2670", "antisat", "exact-key", 0, 0),
    ("c2670", "sarlock", "exact-key", 0, 0),
    ("c2670", "cac", "exact-key", 0, 1),
    ("c2670", "ttlock", "exact-key", 0, 1),
    ("c5315", "antisat", "exact-key", 0, 0),
    ("c5315", "sarlock", "exact-key", 0, 0),
    ("c5315", "cac", "exact-key", 0, 2),
    ("c5315", "ttlock", "exact-key", 0, 2),
    ("c6288", "antisat", "exact-key", 0, 0),
    ("c6288", "sarlock", "exact-key", 0, 0),
    ("c6288", "cac", "exact-key", 0, 3),
    ("c6288", "ttlock", "exact-key", 0, 3),
    ("b14_C", "antisat", "exact-key", 0, 0),
    ("b14_C", "sarlock", "exact-key", 0, 0),
    ("b14_C", "cac", "exact-key", 0, 1),
    ("b14_C", "ttlock", "exact-key", 0, 1),
    ("b15_C", "antisat", "exact-key", 0, 0),
    ("b15_C", "sarlock", "exact-key", 0, 0),
    ("b15_C", "cac", "exact-key", 0, 2),
    ("b15_C", "ttlock", "exact-key", 0, 2),
    ("b20_C", "antisat", "exact-key", 0, 0),
    ("b20_C", "sarlock", "exact-key", 0, 0),
    ("b20_C", "cac", "exact-key", 0, 2),
    ("b20_C", "ttlock", "exact-key", 0, 2),
];

/// Fails unless `current` equals `golden`. The message names each counter
/// that moved, by its current row and column, and then prints the whole
/// current table.
fn assert_golden<T: Debug + PartialEq>(
    family: &str,
    columns: &[&str],
    golden: &[T],
    current: &[T],
) {
    if current == golden {
        return;
    }
    let mut report = format!("{family}: the exact counters moved\n");
    for (golden_row, current_row) in golden.iter().zip(current) {
        // Alternate Debug prints a tuple one element per line between its
        // parentheses, so line i + 1 holds column i.
        let (was, now) = (format!("{golden_row:#?}"), format!("{current_row:#?}"));
        let cell = |line: &str| line.trim().trim_end_matches(',').to_string();
        let cells = was.lines().zip(now.lines()).skip(1);
        for (column, (was, now)) in columns.iter().zip(cells) {
            let (was, now) = (cell(was), cell(now));
            if was != now {
                let _ = writeln!(
                    report,
                    "  {current_row:?} {column}: golden {was}, current {now}"
                );
            }
        }
    }
    if golden.len() != current.len() {
        let _ = writeln!(
            report,
            "  {} golden rows, {} current rows",
            golden.len(),
            current.len()
        );
    }
    report.push_str("current table:\n");
    for row in current {
        let _ = writeln!(report, "    {row:?},");
    }
    panic!("{report}");
}

/// A host and its resynthesised variant: structure scrambled, function kept.
fn miter_pair(original: Circuit) -> (Circuit, Circuit) {
    let variant = resynthesize(&original, &ResynthesisOptions::with_seed(1)).unwrap();
    (original, variant)
}

#[test]
fn cnf_miter_sizes() {
    let current: Vec<_> = IscasCircuit::ALL
        .iter()
        .map(|&host| {
            let (a, b) = miter_pair(host.generate());
            let mut aig = Aig::new(format!("{}_miter", host.name()));
            let lits_a = aig.lower_circuit(&a, &HashMap::new()).unwrap();
            let outs_a: Vec<_> = a.outputs().iter().map(|o| lits_a[o.index()]).collect();
            let lits_b = aig.lower_circuit(&b, &HashMap::new()).unwrap();
            let outs_b: Vec<_> = b.outputs().iter().map(|o| lits_b[o.index()]).collect();
            let diff = aig.miter(&outs_a, &outs_b);
            aig.add_output("diff", diff);
            let mut aig_cnf = Cnf::new();
            let enc = encode_aig(&mut aig_cnf, &aig, &HashMap::new());
            aig_cnf.add_clause([enc.outputs()[0]]);
            (host.name(), aig_cnf.num_vars(), aig_cnf.num_clauses())
        })
        .collect();
    assert_golden("cnf", &CNF_COLUMNS, CNF, &current);
}

#[test]
fn fraig_sat_calls_and_merges() {
    let current: Vec<_> = [IscasCircuit::C2670, IscasCircuit::C5315]
        .iter()
        .map(|&host| {
            let (a, b) = miter_pair(host.generate_scaled(0.25));
            let (result, stats) = check_equivalence_with_stats(&a, &b, None, None).unwrap();
            assert!(result.is_equivalent(), "{}: {result:?}", host.name());
            (
                host.name(),
                stats.sat_calls,
                stats.proved_merges,
                stats.hashed_merges,
            )
        })
        .collect();
    assert_golden("fraig", &FRAIG_COLUMNS, FRAIG, &current);
}

#[test]
fn dip_miter_sizes() {
    let current: Vec<_> = [IscasCircuit::C2670, IscasCircuit::C5315]
        .iter()
        .map(|&host| {
            let original = host.generate_scaled(0.25);
            let locked = RandomXorLocking::new(16, 0xd1f)
                .lock(&original, &SecretKey::from_u64(0xA55A, 16))
                .unwrap();
            let oracle = Oracle::new(original).unwrap();
            let size = measure_dip_encoding(&locked.circuit, &oracle, DipEngineKind::Aig).unwrap();
            (host.name(), size.vars, size.clauses)
        })
        .collect();
    assert_golden("dip_aig", &DIP_COLUMNS, DIP, &current);
}

#[test]
fn rewrite_node_and_level_counts() {
    let current: Vec<_> = IscasCircuit::ALL
        .iter()
        .map(|&host| {
            let aig = Aig::from_circuit(&host.generate()).unwrap();
            let (before, after) = (aig.stats(), aig.rewrite().stats());
            (
                host.name(),
                before.ands,
                after.ands,
                before.levels,
                after.levels,
            )
        })
        .collect();
    assert_golden("rewrite", &REWRITE_COLUMNS, REWRITE, &current);
}

#[test]
fn kratt_table3_outcomes_and_oracle_queries() {
    let kratt = kratt_suite::kratt::attack_registry()
        .build("kratt")
        .unwrap();
    // The wall limit turns a regression into a changed outcome rather than
    // a hung test; the slowest cell takes well under a second.
    let budget = Budget {
        time_limit: Some(Duration::from_secs(60)),
        max_iterations: 10_000,
        ..Budget::default()
    };
    let mut current = Vec::new();
    for row in table1_circuits(0.05) {
        for scheme in ["antisat", "sarlock", "cac", "ttlock"] {
            let spec = SchemeSpec::new(scheme)
                .unwrap()
                .with_param("k", row.key_bits as u64)
                .with_param("seed", 0x7ab1e4);
            let locked = scheme_registry().lock(&spec, &row.circuit).unwrap();
            let locked = resynthesize(
                &locked.circuit,
                &ResynthesisOptions::with_seed(spec.seed() ^ 0x5eed).effort(Effort::Medium),
            )
            .unwrap();
            let oracle = Oracle::new(row.circuit.clone()).unwrap();
            let request =
                AttackRequest::oracle_guided(&locked, &oracle).with_budget(budget.clone());
            let run = kratt.execute(&request).unwrap();
            current.push((
                row.name,
                scheme,
                run.outcome.kind(),
                run.iterations,
                run.oracle_queries,
            ));
        }
    }
    assert_golden("kratt", &KRATT_COLUMNS, KRATT, &current);
}

//! The workload seed fixes the corpus and the exact-count results; another
//! seed plants other secrets. Run with `cargo test --release`: the tests
//! lock, resynthesise and attack real corpora.

use kratt_attacks::campaign::circuit_fingerprint;
use kratt_perfbench::cells::serial_pass;
use kratt_perfbench::corpus::{build, grid, hosts, Corpus, Workload};
use std::collections::HashSet;

const SCORED: [Workload; 3] = [Workload::OlSweep, Workload::OgDflt, Workload::SatCampaign];

/// (spec, locked-netlist fingerprint, planted secret) of every instance.
fn identity(corpus: &Corpus) -> Vec<(String, u64, String)> {
    corpus
        .instances
        .iter()
        .map(|i| {
            (
                i.name(&corpus.hosts),
                circuit_fingerprint(&i.locked.circuit),
                i.locked.secret.to_hex(),
            )
        })
        .collect()
}

#[test]
fn the_same_seed_builds_the_same_corpus() {
    for workload in SCORED {
        let a = build(workload, 7, None).expect("corpus builds");
        let b = build(workload, 7, None).expect("corpus builds");
        assert_eq!(identity(&a), identity(&b), "{}", workload.name());
    }
}

#[test]
fn the_same_seed_repeats_every_exact_count() {
    let corpus = build(Workload::OgDflt, 7, None).expect("corpus builds");
    let first = serial_pass(&corpus).expect("attacks are registered");
    let again = serial_pass(&build(Workload::OgDflt, 7, None).expect("corpus builds"))
        .expect("attacks are registered");
    let exact = |pass: &[kratt_perfbench::cells::CellResult]| -> Vec<String> {
        pass.iter()
            .map(|c| format!("{} {:?} {}", c.name, c.signature(), c.key_bits))
            .collect()
    };
    assert_eq!(exact(&first), exact(&again));
    assert!(
        first.iter().all(|c| !c.failed()),
        "og-dflt has no failing cell"
    );
}

#[test]
fn another_seed_plants_other_secrets() {
    for workload in SCORED {
        let hosts = hosts(workload);
        let specs = |seed| -> HashSet<String> {
            grid(workload, seed, &hosts)
                .into_iter()
                .map(|(h, spec)| format!("{}/{spec}", hosts[h].name))
                .collect()
        };
        let (one, two) = (specs(1), specs(2));
        assert_eq!(one.len(), grid(workload, 1, &hosts).len(), "specs repeat");
        assert!(one.is_disjoint(&two), "{}", workload.name());
    }
    let secrets = |seed| -> HashSet<String> {
        identity(&build(Workload::OgDflt, seed, None).expect("corpus builds"))
            .into_iter()
            .map(|(_, _, secret)| secret)
            .collect()
    };
    assert!(secrets(1).is_disjoint(&secrets(2)));
}

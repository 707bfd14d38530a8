//! Criterion micro-benchmarks of the kernels behind every experiment:
//! the SAT and 2QBF engines, locking insertion, resynthesis, the SCOPE
//! analysis and the two KRATT paths. These are the per-operation timings
//! underlying the tables regenerated by the `table*`/`fig6` binaries.
//! Each body asserts its result (KRATT recovers the planted TTLock key,
//! the SAT attack breaks random XOR locking, ...), so
//! `CRITERION_SMOKE=1 cargo bench -p kratt-bench --bench kernels`, which
//! runs every body once, doubles as a smoke test.

use criterion::{criterion_group, criterion_main, Criterion};
use kratt::KrattAttack;
use kratt_attacks::{Attack, AttackRequest, Budget, Oracle, SatAttack, ScopeAttack};
use kratt_benchmarks::arith::array_multiplier;
use kratt_benchmarks::IscasCircuit;
use kratt_locking::{AntiSat, LockingTechnique, RandomXorLocking, SarLock, SecretKey, TtLock};
use kratt_netlist::sim::{pack_patterns, Simulator};
use kratt_qbf::{ExistsForallSolver, QbfConfig};
use kratt_sat::{Lit, Solver};
use kratt_synth::{resynthesize, ResynthesisOptions};
use std::time::Duration;

/// A hard-but-small UNSAT instance for the CDCL solver: pigeonhole PHP(7, 6).
fn bench_sat_solver(c: &mut Criterion) {
    c.bench_function("sat_solver_pigeonhole_7_6", |b| {
        b.iter(|| {
            let pigeons = 7usize;
            let holes = 6usize;
            let mut solver = Solver::new();
            let vars: Vec<_> = (0..pigeons * holes).map(|_| solver.new_var()).collect();
            for i in 0..pigeons {
                solver.add_clause((0..holes).map(|j| Lit::positive(vars[i * holes + j])));
            }
            for j in 0..holes {
                for i1 in 0..pigeons {
                    for i2 in (i1 + 1)..pigeons {
                        solver.add_clause([
                            Lit::negative(vars[i1 * holes + j]),
                            Lit::negative(vars[i2 * holes + j]),
                        ]);
                    }
                }
            }
            assert!(solver.solve().is_unsat());
        });
    });
}

/// The QBF formulation on a 32-bit SARLock locking unit (the Table II/III
/// kernel for SFLTs).
fn bench_qbf_on_sarlock_unit(c: &mut Criterion) {
    let original = array_multiplier(16).expect("valid width");
    let secret = SecretKey::from_u64(0xDEAD_BEEF, 32);
    let locked = SarLock::new(32).lock(&original, &secret).expect("lockable");
    let artifacts = kratt::removal::remove_locking_unit(&locked.circuit).expect("has unit");
    c.bench_function("qbf_sarlock_unit_32_keys", |b| {
        b.iter(|| {
            let unit = &artifacts.unit;
            let solver = ExistsForallSolver::new(
                unit,
                &unit.key_inputs(),
                &unit.data_inputs(),
                unit.outputs()[0],
                false,
            )
            .with_config(QbfConfig::default());
            assert!(solver.solve().is_sat());
        });
    });
}

/// Locking insertion (Anti-SAT, 32 keys) into the c6288-style multiplier.
fn bench_locking_insertion(c: &mut Criterion) {
    let original = array_multiplier(16).expect("valid width");
    let secret = SecretKey::from_u64(0x1234_5678, 32);
    c.bench_function("lock_anti_sat_32_keys_c6288", |b| {
        b.iter(|| {
            let locked = AntiSat::new(32).lock(&original, &secret).expect("lockable");
            assert!(locked.circuit.num_gates() > original.num_gates());
        });
    });
}

/// One resynthesis pass over the locked multiplier (the Fig. 6 kernel).
fn bench_resynthesis(c: &mut Criterion) {
    let original = array_multiplier(8).expect("valid width");
    let secret = SecretKey::from_u64(0xABCD, 16);
    let locked = TtLock::new(16).lock(&original, &secret).expect("lockable");
    let mut group = c.benchmark_group("resynthesis");
    group.sample_size(20);
    group.bench_function("resynthesize_locked_mul8", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let variant =
                resynthesize(&locked.circuit, &ResynthesisOptions::with_seed(seed)).unwrap();
            assert!(variant.num_gates() > 0);
        });
    });
    group.finish();
}

/// The standalone SCOPE attack on a locked multiplier (Table II baseline).
fn bench_scope(c: &mut Criterion) {
    let original = array_multiplier(8).expect("valid width");
    let secret = SecretKey::from_u64(0x5A5A, 16);
    let locked = SarLock::new(16).lock(&original, &secret).expect("lockable");
    let mut group = c.benchmark_group("scope");
    group.sample_size(10);
    let names = locked.circuit.key_input_names();
    group.bench_function("scope_sarlock_mul8_16_keys", |b| {
        b.iter(|| {
            let request =
                AttackRequest::oracle_less(&locked.circuit).with_budget(Budget::unlimited());
            let run = ScopeAttack::new().execute(&request).unwrap();
            assert!(run.outcome.as_guess(&names).deciphered() > 0);
        });
    });
    group.finish();
}

/// KRATT oracle-less (QBF path) on an Anti-SAT-locked multiplier
/// (the Table II kernel).
fn bench_kratt_oracle_less(c: &mut Criterion) {
    let original = array_multiplier(8).expect("valid width");
    let secret = SecretKey::from_u64(0x0F0F_F0F0, 32);
    let locked = AntiSat::new(32).lock(&original, &secret).expect("lockable");
    let mut group = c.benchmark_group("kratt_ol");
    group.sample_size(10);
    group.bench_function("kratt_ol_anti_sat_32_keys", |b| {
        b.iter(|| {
            let report = KrattAttack::new()
                .attack_oracle_less(&locked.circuit)
                .unwrap();
            assert!(report.outcome.exact_key().is_some());
        });
    });
    group.finish();
}

/// KRATT oracle-guided (structural analysis) on a TTLock-locked multiplier
/// (the Table III kernel for DFLTs).
fn bench_kratt_oracle_guided(c: &mut Criterion) {
    let original = array_multiplier(8).expect("valid width");
    let secret = SecretKey::from_u64(0xC3A5, 16);
    let locked = TtLock::new(16).lock(&original, &secret).expect("lockable");
    let mut group = c.benchmark_group("kratt_og");
    group.sample_size(10);
    group.bench_function("kratt_og_ttlock_16_keys", |b| {
        b.iter(|| {
            let oracle = Oracle::new(original.clone()).unwrap();
            let report = KrattAttack::new()
                .attack_oracle_guided(&locked.circuit, &oracle)
                .unwrap();
            assert_eq!(
                report.outcome.exact_key().unwrap().to_u64(),
                secret.to_u64()
            );
        });
    });
    group.finish();
}

/// The SAT-based attack breaking traditional random XOR locking (the sanity
/// baseline of Table III — it must succeed where locking is not resilient).
fn bench_sat_attack_on_rll(c: &mut Criterion) {
    let original = array_multiplier(6).expect("valid width");
    let secret = SecretKey::from_u64(0x2D, 8);
    let locked = RandomXorLocking::new(8, 9)
        .lock(&original, &secret)
        .expect("lockable");
    let mut group = c.benchmark_group("sat_attack");
    group.sample_size(10);
    group.bench_function("sat_attack_rll_8_keys", |b| {
        b.iter(|| {
            let oracle = Oracle::new(original.clone()).unwrap();
            let budget = Budget {
                time_limit: Some(Duration::from_secs(30)),
                max_iterations: 10_000,
                ..Budget::default()
            };
            let request =
                AttackRequest::oracle_guided(&locked.circuit, &oracle).with_budget(budget);
            let run = SatAttack::new().execute(&request).unwrap();
            assert!(run.outcome.exact_key().is_some());
        });
    });
    group.finish();
}

/// The packed 64-lane simulation sweep against 64 scalar evaluations on an
/// ISCAS host: the speedup the packed simulator buys, for `cargo bench`
/// eyeballs. Its correctness is `prop_packed_evaluation_matches_scalar`'s
/// business; its end-to-end effect shows in perfbench's `cells_per_s`.
fn bench_packed_simulation(c: &mut Criterion) {
    let host = IscasCircuit::C5315.generate();
    let sim = Simulator::new(&host).expect("ISCAS hosts are acyclic");
    let n = host.num_inputs();
    let patterns: Vec<Vec<bool>> = (0..64u64)
        .map(|p| (0..n).map(|i| (p * (i as u64 + 1)) & 1 != 0).collect())
        .collect();
    let words = pack_patterns(&patterns);
    let mut group = c.benchmark_group("sim_sweep64");
    group.bench_function("scalar_64x_c5315", |b| {
        b.iter(|| {
            for pattern in &patterns {
                std::hint::black_box(sim.run(pattern).unwrap());
            }
        });
    });
    group.bench_function("packed_1x_c5315", |b| {
        b.iter(|| std::hint::black_box(sim.run_words(&words).unwrap()));
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_packed_simulation,
    bench_sat_solver,
    bench_qbf_on_sarlock_unit,
    bench_locking_insertion,
    bench_resynthesis,
    bench_scope,
    bench_kratt_oracle_less,
    bench_kratt_oracle_guided,
    bench_sat_attack_on_rll
);
criterion_main!(kernels);

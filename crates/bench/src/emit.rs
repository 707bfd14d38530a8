//! The benchmark JSON emitter: measures the tracked kernels (bit-parallel
//! simulation sweeps) and the per-attack × per-host wall-clock / iteration /
//! oracle-query telemetry, and renders everything as `BENCH_results.json`.
//!
//! One emitter serves both workflows: locally via `KRATT_BENCH_OUT=path.json
//! cargo bench -p kratt-bench --bench kernels`, and in CI where the
//! `bench-regression` job uploads the file as an artifact and gates merges
//! with the `bench_check` binary against the committed `BENCH_baseline.json`.
//!
//! Cross-machine comparability: kernel records track the *speedup ratio* of
//! the packed 64-lane sweep over 64 scalar evaluations (a property of the
//! code, not of the host's absolute clock), so the regression gate holds on
//! any runner. Absolute wall-clock numbers are recorded for trend reading
//! but only compared when explicitly requested.

use crate::ExperimentOptions;
use kratt_attacks::{
    measure_dip_encoding, Attack, AttackRequest, Budget, DipEngineKind, Harness, Oracle,
    PortfolioAttack, SatAttack,
};
use kratt_benchmarks::IscasCircuit;
use kratt_locking::{LockingTechnique, RandomXorLocking, SchemeSpec, SecretKey};
use kratt_netlist::aig::Aig;
use kratt_netlist::sim::Simulator;
use kratt_netlist::Circuit;
use kratt_sat::{ClauseSink, Cnf, Encoder, Lit};
use kratt_synth::{resynthesize, ResynthesisOptions};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One tracked simulation kernel: 64 patterns through an ISCAS host, scalar
/// versus packed.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Kernel name (`"sim_sweep64_c5315"`, ...).
    pub name: String,
    /// Wall-clock of 64 scalar evaluations, in milliseconds.
    pub scalar_ms: f64,
    /// Wall-clock of one packed 64-lane sweep, in milliseconds.
    pub packed_ms: f64,
    /// `scalar_ms / packed_ms` — the machine-portable tracked metric.
    pub speedup: f64,
}

/// One tracked CNF-size kernel: the equivalence miter of an ISCAS host
/// against its seed-1 resynthesised variant, encoded once per gate
/// (`Encoder::encode` + `miter`) and once through the shared AIG
/// (`Encoder::encode_aig` of the one-output miter AIG). Counts are exact and
/// machine-independent, so the regression gate on them is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct CnfRecord {
    /// Kernel name (`"cnf_miter_c5315"`, ...).
    pub name: String,
    /// Variables of the per-gate miter encoding.
    pub gate_vars: u64,
    /// Clauses of the per-gate miter encoding.
    pub gate_clauses: u64,
    /// Variables of the AIG miter encoding.
    pub aig_vars: u64,
    /// Clauses of the AIG miter encoding.
    pub aig_clauses: u64,
    /// `1 - aig_vars / gate_vars` — the tracked variable reduction.
    pub var_reduction: f64,
    /// `1 - aig_clauses / gate_clauses` — the tracked clause reduction.
    pub clause_reduction: f64,
}

/// One tracked fraig-equivalence kernel: proving an ISCAS host equivalent to
/// its resynthesised variant through the fraig pipeline. The SAT-call and
/// merge counts are exact for the fixed seed, so they gate on any machine;
/// the wall-clock is printed for trend reading only.
#[derive(Debug, Clone, PartialEq)]
pub struct FraigRecord {
    /// Kernel name (`"fraig_eqv_c2670"`, ...).
    pub name: String,
    /// Wall-clock of the fraig pipeline, in milliseconds.
    pub fraig_ms: f64,
    /// SAT queries the fraig pipeline spent.
    pub sat_calls: u64,
    /// Node pairs the fraig sweep proved equal and merged.
    pub proved_merges: u64,
}

/// One tracked DIP-engine kernel: the CEGAR miter of a random-XOR-locked
/// ISCAS host, encoded through the shared structurally-hashed AIG. The
/// encode footprint is an exact count taken straight from the solver after
/// `DipEngine` construction, so its gate is deterministic on any machine;
/// the CEGAR iterations-per-second is wall-clock telemetry and gates only as
/// a same-OS ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct DipAigRecord {
    /// Kernel name (`"dip_aig_c2670"`, ...).
    pub name: String,
    /// Key bits of the locked instance.
    pub key_bits: u64,
    /// Solver variables after the miter encode.
    pub aig_vars: u64,
    /// Solver clauses after the miter encode.
    pub aig_clauses: u64,
    /// Full CEGAR loop throughput, iterations/s.
    pub aig_iters_per_sec: f64,
}

/// One tracked rewriting kernel: `Aig::rewrite` (4-input cut enumeration +
/// NPN-canonical optimal-subgraph replacement) on an ISCAS host. Node
/// counts are exact and machine-independent, so the reduction gate is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteRecord {
    /// Kernel name (`"rewrite_c2670"`, ...).
    pub name: String,
    /// Live AND nodes before rewriting.
    pub nodes_before: u64,
    /// Live AND nodes after rewriting.
    pub nodes_after: u64,
    /// Logic levels before rewriting.
    pub levels_before: u64,
    /// Logic levels after rewriting.
    pub levels_after: u64,
    /// `1 - nodes_after / nodes_before` — the tracked node reduction.
    pub node_reduction: f64,
}

/// One attack × host cell of the scaled-down bench matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackRecord {
    /// Registry name of the attack.
    pub attack: String,
    /// Case name (`"c2670/SARLock"`, ...).
    pub host: String,
    /// Outcome kind (`"exact-key"`, `"out-of-budget"`, `"error: ..."`).
    pub outcome: String,
    /// Wall-clock of the run, in milliseconds.
    pub wall_ms: f64,
    /// Attack iterations (DIPs, CEGAR rounds, ...).
    pub iterations: u64,
    /// Oracle queries spent.
    pub oracle_queries: u64,
}

/// One tracked portfolio-race kernel: the portfolio attack racing its
/// member engines on one locked scheme × host cell, against each member run
/// solo (as a single-member portfolio, so the solo wall includes the same
/// SAT verification of the claimed key the race pays for its winner). The
/// machine-portable tracked metric is the overhead ratio of the race over
/// its best solo member — all walls come from the same process on the same
/// machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioRecord {
    /// Kernel name (`"portfolio_c2670_sarlock"`, ...).
    pub name: String,
    /// Registry names of the raced member engines.
    pub members: Vec<String>,
    /// Registry name of the member that won the race.
    pub winner: String,
    /// Whether the race's winning key claim was SAT-verified exact.
    pub verified: bool,
    /// Wall-clock of the full portfolio race, in milliseconds.
    pub portfolio_ms: f64,
    /// Wall-clock of the fastest solo member that produced a verified
    /// exact key, in milliseconds.
    pub best_member_ms: f64,
    /// Wall-clock of the slowest verified solo member, in milliseconds.
    pub worst_member_ms: f64,
    /// `portfolio_ms / best_member_ms` — the tracked overhead ratio.
    pub overhead: f64,
}

/// One tracked parallel-fraig kernel: the fraig equivalence sweep of an
/// ISCAS host against its resynthesised variant, run with one worker and
/// with [`FRAIG_PAR_WORKERS`]. Both widths must return the same verdict and
/// the same proved-merge count (the sweep is worker-count-invariant by
/// construction — a mismatch is a correctness bug, not noise); the
/// machine-portable tracked metrics are the sweep-stage speedup ratio and
/// the two agreement flags.
#[derive(Debug, Clone, PartialEq)]
pub struct FraigParRecord {
    /// Kernel name (`"fraig_par_c5315"`, ...).
    pub name: String,
    /// Worker threads the parallel sweep ran with.
    pub workers: u64,
    /// Sweep-stage wall-clock of the 1-worker run, in milliseconds.
    pub seq_sweep_ms: f64,
    /// Sweep-stage wall-clock of the parallel run, in milliseconds.
    pub par_sweep_ms: f64,
    /// `seq_sweep_ms / par_sweep_ms` — the tracked ratio.
    pub speedup: f64,
    /// Whether both widths returned the same equivalence verdict.
    pub verdicts_match: bool,
    /// Whether both widths proved the same number of merges.
    pub merges_match: bool,
}

/// Everything `BENCH_results.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResults {
    /// Schema version of the file.
    pub schema: u64,
    /// `std::env::consts::OS` of the producing host.
    pub os: String,
    /// Available parallelism of the producing host.
    pub cpus: u64,
    /// `KRATT_SCALE` the attack matrix ran at.
    pub scale: f64,
    /// Per-attack budget (seconds) the matrix ran with.
    pub budget_secs: f64,
    /// The tracked simulation kernels.
    pub kernels: Vec<KernelRecord>,
    /// The tracked CNF-size kernels (per-gate vs AIG miter encodings).
    pub cnf: Vec<CnfRecord>,
    /// The tracked fraig-equivalence kernels.
    pub fraig: Vec<FraigRecord>,
    /// The tracked DIP-engine kernels (CEGAR miter size and throughput).
    pub dip_aig: Vec<DipAigRecord>,
    /// The tracked rewriting kernels (`Aig::rewrite` node reductions).
    pub rewrite: Vec<RewriteRecord>,
    /// The tracked portfolio-race kernels (race vs solo members).
    pub portfolio: Vec<PortfolioRecord>,
    /// The tracked parallel-fraig kernels (1-worker vs N-worker sweeps).
    pub fraig_par: Vec<FraigParRecord>,
    /// The attack × host telemetry.
    pub attacks: Vec<AttackRecord>,
}

/// Acceptance floor of the CNF kernels: the AIG miter encoding must cut at
/// least this fraction of both variables and clauses, summed over the
/// tracked miter set.
pub const CNF_REDUCTION_FLOOR: f64 = 0.25;

/// Acceptance floor of the rewriting kernels: `Aig::rewrite` must remove at
/// least this fraction of live AND nodes on every tracked host. Exact node
/// counts, deterministic on any machine.
pub const REWRITE_REDUCTION_FLOOR: f64 = 0.01;

/// Acceptance ceiling of the portfolio kernels: the race may cost at most
/// this factor over its best solo member (the whole point of racing is that
/// first-verified-result cancellation makes losers nearly free). Both walls
/// come from the same process, so the ratio is machine-portable; the gate
/// is skipped on single-CPU runners where the members can only timeslice.
pub const PORTFOLIO_OVERHEAD_CEIL: f64 = 1.25;

/// Acceptance floor of the parallel-fraig kernels: the
/// [`FRAIG_PAR_WORKERS`]-wide sweep must beat the 1-worker sweep by at
/// least this factor. The gate arms only on runners with at least
/// [`FRAIG_PAR_WORKERS`] CPUs (a narrower sweep cannot reach the floor and
/// is reported as a non-fatal note instead).
pub const FRAIG_PAR_SPEEDUP_FLOOR: f64 = 1.5;

/// Worker threads of the parallel fraig sweep kernels (capped by the
/// host's available parallelism at measurement time).
pub const FRAIG_PAR_WORKERS: usize = 4;

/// Times `f` adaptively and noise-robustly: sizes a batch so one batch
/// takes ≥10 ms of wall-clock, then returns the *best* per-call time over
/// several batches (minimum-of-N discards scheduler noise on shared CI
/// runners, which matters because the regression gate compares the
/// scalar/packed ratio across machines). The first (warm-up) call is
/// discarded.
fn time_ms_per_call<F: FnMut()>(mut f: F) -> f64 {
    f(); // warm-up: schedule compilation, caches
    let mut reps = 1u32;
    let reps = loop {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        if start.elapsed().as_millis() >= 10 || reps >= 4096 {
            break reps;
        }
        reps *= 4;
    };
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e3 / f64::from(reps));
    }
    best
}

/// Measures the tracked kernels: for each ISCAS host, 64 scalar evaluations
/// versus one packed 64-lane sweep over the same patterns.
pub fn measure_sim_kernels() -> Vec<KernelRecord> {
    IscasCircuit::ALL
        .iter()
        .map(|&host| {
            let circuit = host.generate();
            let sim = Simulator::new(&circuit).expect("ISCAS hosts are acyclic");
            let n = circuit.num_inputs();
            // A fixed, seed-free pattern set: pattern p sets input i to bit
            // (p * (i + 1)) of a fixed word, deterministic across hosts.
            let patterns: Vec<Vec<bool>> = (0..64u64)
                .map(|p| {
                    (0..n)
                        .map(|i| (p.wrapping_mul(i as u64 + 1) ^ p >> 3) & 1 != 0)
                        .collect()
                })
                .collect();
            let words = kratt_netlist::sim::pack_patterns(&patterns);
            let scalar_ms = time_ms_per_call(|| {
                for pattern in &patterns {
                    std::hint::black_box(sim.run(pattern).unwrap());
                }
            });
            let packed_ms = time_ms_per_call(|| {
                std::hint::black_box(sim.run_words(&words).unwrap());
            });
            KernelRecord {
                name: format!("sim_sweep64_{}", host.name()),
                scalar_ms,
                packed_ms,
                speedup: scalar_ms / packed_ms.max(f64::MIN_POSITIVE),
            }
        })
        .collect()
}

/// The deterministic miter pair of one CNF/fraig kernel: the ISCAS host and
/// its seed-1 default-effort resynthesised variant (the realistic
/// equivalence workload — structure scrambled, function preserved).
fn miter_pair(host: IscasCircuit) -> (Circuit, Circuit) {
    let original = host.generate();
    let variant = resynthesize(&original, &ResynthesisOptions::with_seed(1))
        .expect("ISCAS hosts resynthesise");
    (original, variant)
}

/// Measures the tracked CNF-size kernels: for each ISCAS host, the
/// equivalence miter against its resynthesised variant encoded per gate and
/// through the AIG. Pure counting — no solving.
pub fn measure_cnf_kernels() -> Vec<CnfRecord> {
    IscasCircuit::ALL
        .iter()
        .map(|&host| {
            let (a, b) = miter_pair(host);

            let mut gate_cnf = Cnf::new();
            let encoder = Encoder::new();
            let enc_a = encoder.encode(&mut gate_cnf, &a, &HashMap::new());
            let shared: HashMap<String, kratt_sat::Var> = enc_a.inputs().iter().cloned().collect();
            let enc_b = encoder.encode(&mut gate_cnf, &b, &shared);
            let miter = encoder.miter(&mut gate_cnf, &enc_a, &enc_b);
            gate_cnf.add_clause([Lit::positive(miter)]);

            let mut aig = Aig::new(format!("{}_miter", host.name()));
            let lits_a = aig
                .lower_circuit(&a, &HashMap::new())
                .expect("ISCAS hosts are acyclic");
            let outs_a: Vec<_> = a.outputs().iter().map(|o| lits_a[o.index()]).collect();
            let lits_b = aig
                .lower_circuit(&b, &HashMap::new())
                .expect("resynthesised variants are acyclic");
            let outs_b: Vec<_> = b.outputs().iter().map(|o| lits_b[o.index()]).collect();
            let diff = aig.miter(&outs_a, &outs_b);
            aig.add_output("diff", diff);
            let mut aig_cnf = Cnf::new();
            let enc = encoder.encode_aig(&mut aig_cnf, &aig, &HashMap::new());
            aig_cnf.add_clause([enc.outputs()[0]]);

            let (gate_vars, gate_clauses) =
                (gate_cnf.num_vars() as u64, gate_cnf.num_clauses() as u64);
            let (aig_vars, aig_clauses) = (aig_cnf.num_vars() as u64, aig_cnf.num_clauses() as u64);
            CnfRecord {
                name: format!("cnf_miter_{}", host.name()),
                gate_vars,
                gate_clauses,
                aig_vars,
                aig_clauses,
                var_reduction: 1.0 - aig_vars as f64 / gate_vars.max(1) as f64,
                clause_reduction: 1.0 - aig_clauses as f64 / gate_clauses.max(1) as f64,
            }
        })
        .collect()
}

/// Gate scale of the fraig kernels. The baseline's SAT-call and merge
/// counts were recorded at this scale; changing it needs a new baseline.
const FRAIG_KERNEL_SCALE: f64 = 0.25;

/// Measures the tracked fraig-equivalence kernels: proving each ISCAS host
/// (at [`FRAIG_KERNEL_SCALE`]) equivalent to its resynthesised variant,
/// best-of-3 on the wall-clock. The check must return `Equivalent` for the
/// record to count.
pub fn measure_fraig_kernels() -> Vec<FraigRecord> {
    [IscasCircuit::C2670, IscasCircuit::C5315]
        .iter()
        .filter_map(|&host| {
            // A dropped kernel fails the CI gate as "missing from current
            // results"; log the root cause here so that failure is
            // diagnosable from the job log alone.
            measure_fraig_kernel(host)
                .map_err(|why| eprintln!("fraig kernel {} dropped: {why}", host.name()))
                .ok()
        })
        .collect()
}

fn measure_fraig_kernel(host: IscasCircuit) -> Result<FraigRecord, String> {
    let a = host.generate_scaled(FRAIG_KERNEL_SCALE);
    let b = resynthesize(&a, &ResynthesisOptions::with_seed(1))
        .map_err(|e| format!("resynthesis failed: {e}"))?;
    // Best-of-3: the solver work is deterministic, so the minimum discards
    // scheduler noise (as with the sim kernels).
    let mut fraig_ms = f64::INFINITY;
    let mut stats = kratt_synth::FraigStats::default();
    let mut result = kratt_synth::EquivalenceResult::Unknown;
    for _ in 0..3 {
        let start = Instant::now();
        let (r, s) = kratt_synth::check_equivalence_with_stats(&a, &b, None, None)
            .map_err(|e| format!("fraig check failed: {e}"))?;
        fraig_ms = fraig_ms.min(start.elapsed().as_secs_f64() * 1e3);
        result = r;
        stats = s;
    }
    if !result.is_equivalent() {
        return Err(format!("did not prove equivalence ({result:?})"));
    }
    Ok(FraigRecord {
        name: format!("fraig_eqv_{}", host.name()),
        fraig_ms,
        sat_calls: stats.sat_calls as u64,
        proved_merges: stats.proved_merges as u64,
    })
}

/// Gate scale of the DIP-engine kernels, matching the fraig kernels: a
/// quarter-scale host keeps three full CEGAR runs in CI territory.
const DIP_KERNEL_SCALE: f64 = 0.25;

/// Key bits of the random-XOR-locked instance the DIP kernels attack.
const DIP_KERNEL_KEY_BITS: usize = 16;

/// Measures the tracked DIP-engine kernels: the CEGAR miter of a
/// random-XOR-locked ISCAS host (at [`DIP_KERNEL_SCALE`]) with its exact
/// solver footprint straight from `DipEngine` construction, plus the full
/// key-recovery loop timed best-of-3 for the iterations-per-second
/// telemetry.
pub fn measure_dip_kernels() -> Vec<DipAigRecord> {
    [IscasCircuit::C2670, IscasCircuit::C5315]
        .iter()
        .filter_map(|&host| {
            // As with the fraig kernels: a dropped record fails the CI gate
            // as "missing", so the root cause must reach the log.
            measure_dip_kernel(host)
                .map_err(|why| eprintln!("dip_aig kernel {} dropped: {why}", host.name()))
                .ok()
        })
        .collect()
}

fn measure_dip_kernel(host: IscasCircuit) -> Result<DipAigRecord, String> {
    let original = host.generate_scaled(DIP_KERNEL_SCALE);
    let secret = SecretKey::from_u64(0xA55A, DIP_KERNEL_KEY_BITS);
    let locked = RandomXorLocking::new(DIP_KERNEL_KEY_BITS, 0xd1f)
        .lock(&original, &secret)
        .map_err(|e| format!("locking failed: {e}"))?;
    let oracle = Oracle::new(original.clone()).map_err(|e| format!("oracle failed: {e}"))?;
    let aig = measure_dip_encoding(&locked.circuit, &oracle, DipEngineKind::Aig)
        .map_err(|e| format!("encode failed: {e}"))?;
    // Best-of-3 like the other timing kernels: the CEGAR loop is
    // deterministic, the maximum discards scheduler noise.
    let mut aig_iters_per_sec = 0.0f64;
    for _ in 0..3 {
        let request = AttackRequest::oracle_guided(&locked.circuit, &oracle);
        let run = SatAttack::new()
            .execute(&request)
            .map_err(|e| format!("CEGAR run failed: {e}"))?;
        if run.outcome.exact_key().is_none() {
            return Err(format!("no key recovered ({})", run.outcome.kind()));
        }
        let secs = run.runtime.as_secs_f64().max(f64::MIN_POSITIVE);
        aig_iters_per_sec = aig_iters_per_sec.max(run.iterations as f64 / secs);
    }
    Ok(DipAigRecord {
        name: format!("dip_aig_{}", host.name()),
        key_bits: DIP_KERNEL_KEY_BITS as u64,
        aig_vars: aig.vars as u64,
        aig_clauses: aig.clauses as u64,
        aig_iters_per_sec,
    })
}

/// Measures the tracked rewriting kernels: `Aig::rewrite` on every ISCAS
/// host, exact live-node counts before and after. Pure structure — no
/// timing, no solving.
pub fn measure_rewrite_kernels() -> Vec<RewriteRecord> {
    IscasCircuit::ALL
        .iter()
        .map(|&host| {
            let aig = Aig::from_circuit(&host.generate()).expect("ISCAS hosts are acyclic");
            let before = aig.stats();
            let after = aig.rewrite().stats();
            RewriteRecord {
                name: format!("rewrite_{}", host.name()),
                nodes_before: before.ands as u64,
                nodes_after: after.ands as u64,
                levels_before: before.levels as u64,
                levels_after: after.levels as u64,
                node_reduction: 1.0 - after.ands as f64 / before.ands.max(1) as f64,
            }
        })
        .collect()
}

/// Gate scale of the portfolio kernels, matching the fraig/DIP kernels: a
/// quarter-scale host keeps several full attack runs per cell in CI
/// territory while preserving the engine asymmetry being raced.
const PORTFOLIO_KERNEL_SCALE: f64 = 0.25;

/// Wall-clock safety cap per attack run of the portfolio kernels. The
/// tracked cells finish in seconds; the cap only turns a hung engine into
/// a dropped (and logged) record instead of a stalled CI job.
const PORTFOLIO_KERNEL_BUDGET: Duration = Duration::from_secs(60);

/// Measures the tracked portfolio-race kernels: on each tracked scheme ×
/// host cell, the default-member portfolio race against each member run
/// solo. Solo members run as single-member portfolios so their wall
/// includes the identical SAT verification of the claimed key — the
/// overhead ratio compares like against like.
pub fn measure_portfolio_kernels() -> Vec<PortfolioRecord> {
    [
        (IscasCircuit::C2670, "sarlock", 8u64),
        (IscasCircuit::C2670, "rll", 16u64),
    ]
    .iter()
    .filter_map(|&(host, scheme, key_bits)| {
        // As with the fraig kernels: a dropped record fails the CI gate as
        // "missing", so the root cause must reach the job log.
        measure_portfolio_kernel(host, scheme, key_bits)
            .map_err(|why| eprintln!("portfolio kernel {}_{scheme} dropped: {why}", host.name()))
            .ok()
    })
    .collect()
}

/// One timed portfolio execution: the race wall plus whether the winning
/// claim was verified and who won. Best-of-2 — the runs are seconds-long
/// attacks, not micro-kernels, so two samples bound scheduler noise
/// without tripling the suite's wall-clock.
fn time_portfolio(
    portfolio: &PortfolioAttack,
    request: &AttackRequest,
) -> Result<(f64, bool, String), String> {
    let mut best_ms = f64::INFINITY;
    let mut verified = false;
    let mut winner = String::new();
    for _ in 0..2 {
        let run = portfolio
            .execute(request)
            .map_err(|e| format!("portfolio run failed: {e}"))?;
        let member = run
            .winning_member()
            .ok_or("race finished without a winning member")?;
        let ms = run.runtime.as_secs_f64() * 1e3;
        if ms < best_ms {
            best_ms = ms;
            verified = member.verified;
            winner = member.name.clone();
        }
    }
    Ok((best_ms, verified, winner))
}

fn measure_portfolio_kernel(
    host: IscasCircuit,
    scheme: &str,
    key_bits: u64,
) -> Result<PortfolioRecord, String> {
    let original = host.generate_scaled(PORTFOLIO_KERNEL_SCALE);
    let spec = SchemeSpec::new(scheme)
        .map_err(|e| format!("{scheme} is not registered: {e}"))?
        .with_param("k", key_bits)
        .with_param("seed", 0x90f7);
    let locked = kratt_locking::scheme_registry()
        .lock(&spec, &original)
        .map_err(|e| format!("locking failed: {e}"))?;
    let oracle = Oracle::new(original.clone()).map_err(|e| format!("oracle failed: {e}"))?;
    let request = AttackRequest::oracle_guided(&locked.circuit, &oracle)
        .with_budget(Budget::with_time_limit(PORTFOLIO_KERNEL_BUDGET));

    let registry = kratt::attack_registry();
    let members: Vec<String> = kratt_attacks::portfolio::DEFAULT_MEMBERS
        .iter()
        .map(|name| name.to_string())
        .collect();
    let race = PortfolioAttack::from_registry(&registry, &members)
        .map_err(|e| format!("portfolio setup failed: {e}"))?;
    let (portfolio_ms, verified, winner) = time_portfolio(&race, &request)?;
    if !verified {
        return Err(format!(
            "the race's winning claim (member {winner}) was not verified"
        ));
    }

    // Best and worst are taken over the solo members that produced a
    // *verified* exact key: a member that settles for an approximate guess
    // (AppSAT's contract) finishes early but has not solved the cell, so
    // its wall is not a meaningful baseline for the race. A solo that
    // errors outright (KRATT's structural pipeline refusing random XOR
    // locking, say) is skipped the same way the race absorbs it.
    let mut best_member_ms = f64::INFINITY;
    let mut worst_member_ms: f64 = 0.0;
    for member in &members {
        let solo = PortfolioAttack::from_registry(&registry, std::slice::from_ref(member))
            .map_err(|e| format!("solo {member} setup failed: {e}"))?;
        let Ok((solo_ms, solo_verified, _)) = time_portfolio(&solo, &request) else {
            continue;
        };
        if solo_verified {
            best_member_ms = best_member_ms.min(solo_ms);
            worst_member_ms = worst_member_ms.max(solo_ms);
        }
    }
    if !best_member_ms.is_finite() {
        return Err("no solo member produced a verified exact key".to_string());
    }
    Ok(PortfolioRecord {
        name: format!("portfolio_{}_{scheme}", host.name()),
        members,
        winner,
        verified,
        portfolio_ms,
        best_member_ms,
        worst_member_ms,
        overhead: portfolio_ms / best_member_ms.max(f64::MIN_POSITIVE),
    })
}

/// Measures the tracked parallel-fraig kernels: the fraig sweep of each
/// full-scale ISCAS host against its resynthesised variant, 1 worker versus
/// [`FRAIG_PAR_WORKERS`] (capped by the host's parallelism), best-of-3 on
/// the sweep-stage wall alone. Both widths must agree on the verdict and on
/// the proved-merge count for the record to count.
pub fn measure_fraig_par_kernels() -> Vec<FraigParRecord> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(FRAIG_PAR_WORKERS);
    if workers <= 1 {
        eprintln!(
            "fraig_par kernels: only 1 CPU available — the sweep cannot be widened, \
             the >= {FRAIG_PAR_SPEEDUP_FLOOR}x gate will be skipped"
        );
    }
    [IscasCircuit::C2670, IscasCircuit::C5315]
        .iter()
        .filter_map(|&host| {
            measure_fraig_par_kernel(host, workers)
                .map_err(|why| eprintln!("fraig_par kernel {} dropped: {why}", host.name()))
                .ok()
        })
        .collect()
}

fn measure_fraig_par_kernel(host: IscasCircuit, workers: usize) -> Result<FraigParRecord, String> {
    // Full scale, unlike the fraig kernels: the sweep needs enough
    // candidate classes for the partition to mean anything.
    let (a, b) = miter_pair(host);
    let sweep = |width: usize| -> Result<(f64, bool, u64), String> {
        let mut best_ms = f64::INFINITY;
        let mut equivalent = false;
        let mut merges = 0u64;
        for _ in 0..3 {
            let (result, stats) =
                kratt_synth::check_equivalence_with_stats_workers(&a, &b, None, None, width)
                    .map_err(|e| format!("{width}-worker sweep failed: {e}"))?;
            best_ms = best_ms.min(stats.sweep_time.as_secs_f64() * 1e3);
            equivalent = result.is_equivalent();
            merges = stats.proved_merges as u64;
        }
        Ok((best_ms, equivalent, merges))
    };
    let (seq_sweep_ms, seq_equivalent, seq_merges) = sweep(1)?;
    let (par_sweep_ms, par_equivalent, par_merges) = sweep(workers)?;
    if !seq_equivalent {
        return Err("the sequential sweep did not prove equivalence".to_string());
    }
    Ok(FraigParRecord {
        name: format!("fraig_par_{}", host.name()),
        workers: workers as u64,
        seq_sweep_ms,
        par_sweep_ms,
        speedup: seq_sweep_ms / par_sweep_ms.max(f64::MIN_POSITIVE),
        verdicts_match: seq_equivalent == par_equivalent,
        merges_match: seq_merges == par_merges,
    })
}

/// Builds the named attacks from the registry, or reports the first
/// unknown name together with the valid ones. Called *before* any
/// expensive measurement so a `KRATT_ATTACKS` typo fails fast.
fn build_attacks(attack_names: &[String]) -> Result<Vec<Box<dyn kratt_attacks::Attack>>, String> {
    let registry = kratt::attack_registry();
    attack_names
        .iter()
        .map(|name| {
            registry
                .build(name)
                .map_err(|e| format!("{e} (known attacks: {})", registry.names().join(", ")))
        })
        .collect()
}

/// Runs the scaled-down attack matrix (the same cases as the `matrix`
/// binary) and flattens the rows into [`AttackRecord`]s.
///
/// # Errors
///
/// Returns an error naming the offending entry if an attack name is not
/// registered.
pub fn measure_attack_matrix(
    attack_names: &[String],
    options: &ExperimentOptions,
) -> Result<Vec<AttackRecord>, String> {
    let attacks = build_attacks(attack_names)?;
    let harness = Harness::new();
    let (_cases, rows) = crate::run_attack_matrix(&harness, &attacks, options);
    Ok(rows
        .into_iter()
        .map(|row| match row.result {
            Ok(run) => AttackRecord {
                attack: row.attack,
                host: row.case,
                outcome: run.outcome.kind().to_string(),
                wall_ms: run.runtime.as_secs_f64() * 1e3,
                iterations: run.iterations as u64,
                oracle_queries: run.oracle_queries,
            },
            Err(e) => AttackRecord {
                attack: row.attack,
                host: row.case,
                outcome: format!("error: {e}"),
                wall_ms: 0.0,
                iterations: 0,
                oracle_queries: 0,
            },
        })
        .collect())
}

/// Runs the full suite: tracked kernels plus the attack matrix for the
/// given registry names, under the scale/budget read from the environment
/// by [`crate::options_from_env`]. Attack names are validated *before* the
/// kernel measurements so a `KRATT_ATTACKS` typo fails in milliseconds.
///
/// # Errors
///
/// Returns an error naming the offending entry if an attack name is not
/// registered.
pub fn run_bench_suite(
    attack_names: &[String],
    options: &ExperimentOptions,
) -> Result<BenchResults, String> {
    build_attacks(attack_names)?;
    Ok(BenchResults {
        schema: 7,
        os: std::env::consts::OS.to_string(),
        cpus: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
        scale: options.scale,
        budget_secs: options.baseline_budget.as_secs_f64(),
        kernels: measure_sim_kernels(),
        cnf: measure_cnf_kernels(),
        fraig: measure_fraig_kernels(),
        dip_aig: measure_dip_kernels(),
        rewrite: measure_rewrite_kernels(),
        portfolio: measure_portfolio_kernels(),
        fraig_par: measure_fraig_par_kernels(),
        attacks: measure_attack_matrix(attack_names, options)?,
    })
}

/// Checks that every name resolves in the attack registry without running
/// anything — callers invoke this before long measurements.
///
/// # Errors
///
/// Returns an error naming the offending entry and the valid names.
pub fn validate_attacks(attack_names: &[String]) -> Result<(), String> {
    build_attacks(attack_names).map(|_| ())
}

/// The attack names of the tracked matrix: `KRATT_ATTACKS` (comma-separated
/// registry names) with the bench default of `kratt,sat`.
pub fn tracked_attacks_from_env() -> Vec<String> {
    std::env::var("KRATT_ATTACKS")
        .unwrap_or_else(|_| "kratt,sat".to_string())
        .split(',')
        .map(|name| name.trim().to_string())
        .filter(|name| !name.is_empty())
        .collect()
}

impl BenchResults {
    /// Renders the results as pretty-printed JSON. Hand-rolled because the
    /// workspace is offline (no serde); [`BenchResults::from_json`] parses
    /// exactly this shape back.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"os\": {},", json_string(&self.os));
        let _ = writeln!(out, "  \"cpus\": {},", self.cpus);
        let _ = writeln!(out, "  \"scale\": {},", json_number(self.scale));
        let _ = writeln!(out, "  \"budget_secs\": {},", json_number(self.budget_secs));
        out.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"scalar_ms\": {}, \"packed_ms\": {}, \"speedup\": {}}}",
                json_string(&k.name),
                json_number(k.scalar_ms),
                json_number(k.packed_ms),
                json_number(k.speedup)
            );
            out.push_str(if i + 1 < self.kernels.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"cnf\": [\n");
        for (i, k) in self.cnf.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"gate_vars\": {}, \"gate_clauses\": {}, \"aig_vars\": {}, \
                 \"aig_clauses\": {}, \"var_reduction\": {}, \"clause_reduction\": {}}}",
                json_string(&k.name),
                k.gate_vars,
                k.gate_clauses,
                k.aig_vars,
                k.aig_clauses,
                json_number(k.var_reduction),
                json_number(k.clause_reduction)
            );
            out.push_str(if i + 1 < self.cnf.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"fraig\": [\n");
        for (i, k) in self.fraig.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"fraig_ms\": {}, \"sat_calls\": {}, \"proved_merges\": {}}}",
                json_string(&k.name),
                json_number(k.fraig_ms),
                k.sat_calls,
                k.proved_merges
            );
            out.push_str(if i + 1 < self.fraig.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"dip_aig\": [\n");
        for (i, k) in self.dip_aig.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"key_bits\": {}, \"aig_vars\": {}, \"aig_clauses\": {}, \
                 \"aig_iters_per_sec\": {}}}",
                json_string(&k.name),
                k.key_bits,
                k.aig_vars,
                k.aig_clauses,
                json_number(k.aig_iters_per_sec)
            );
            out.push_str(if i + 1 < self.dip_aig.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"rewrite\": [\n");
        for (i, k) in self.rewrite.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"nodes_before\": {}, \"nodes_after\": {}, \
                 \"levels_before\": {}, \"levels_after\": {}, \"node_reduction\": {}}}",
                json_string(&k.name),
                k.nodes_before,
                k.nodes_after,
                k.levels_before,
                k.levels_after,
                json_number(k.node_reduction)
            );
            out.push_str(if i + 1 < self.rewrite.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"portfolio\": [\n");
        for (i, k) in self.portfolio.iter().enumerate() {
            let members = k
                .members
                .iter()
                .map(|m| json_string(m))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                "    {{\"name\": {}, \"members\": [{members}], \"winner\": {}, \
                 \"verified\": {}, \"portfolio_ms\": {}, \"best_member_ms\": {}, \
                 \"worst_member_ms\": {}, \"overhead\": {}}}",
                json_string(&k.name),
                json_string(&k.winner),
                k.verified,
                json_number(k.portfolio_ms),
                json_number(k.best_member_ms),
                json_number(k.worst_member_ms),
                json_number(k.overhead)
            );
            out.push_str(if i + 1 < self.portfolio.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"fraig_par\": [\n");
        for (i, k) in self.fraig_par.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"workers\": {}, \"seq_sweep_ms\": {}, \
                 \"par_sweep_ms\": {}, \"speedup\": {}, \"verdicts_match\": {}, \
                 \"merges_match\": {}}}",
                json_string(&k.name),
                k.workers,
                json_number(k.seq_sweep_ms),
                json_number(k.par_sweep_ms),
                json_number(k.speedup),
                k.verdicts_match,
                k.merges_match
            );
            out.push_str(if i + 1 < self.fraig_par.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"attacks\": [\n");
        for (i, a) in self.attacks.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"attack\": {}, \"host\": {}, \"outcome\": {}, \"wall_ms\": {}, \
                 \"iterations\": {}, \"oracle_queries\": {}}}",
                json_string(&a.attack),
                json_string(&a.host),
                json_string(&a.outcome),
                json_number(a.wall_ms),
                a.iterations,
                a.oracle_queries
            );
            out.push_str(if i + 1 < self.attacks.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON rendering to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Parses a `BENCH_*.json` file produced by [`BenchResults::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = json::parse(text)?;
        let top = value.as_object()?;
        let kernels = top
            .get("kernels")
            .ok_or("missing `kernels`")?
            .as_array()?
            .iter()
            .map(|k| {
                let k = k.as_object()?;
                Ok(KernelRecord {
                    name: k.get("name").ok_or("missing kernel `name`")?.as_str()?,
                    scalar_ms: k
                        .get("scalar_ms")
                        .ok_or("missing `scalar_ms`")?
                        .as_number()?,
                    packed_ms: k
                        .get("packed_ms")
                        .ok_or("missing `packed_ms`")?
                        .as_number()?,
                    speedup: k.get("speedup").ok_or("missing `speedup`")?.as_number()?,
                })
            })
            .collect::<Result<_, String>>()?;
        let cnf = match top.get("cnf") {
            // Absent in schema-1 files; an empty set simply tracks nothing.
            None => Vec::new(),
            Some(value) => value
                .as_array()?
                .iter()
                .map(|k| {
                    let k = k.as_object()?;
                    let number = |field: &str| -> Result<f64, String> {
                        k.get(field)
                            .ok_or(format!("missing `{field}`"))?
                            .as_number()
                    };
                    Ok(CnfRecord {
                        name: k.get("name").ok_or("missing cnf `name`")?.as_str()?,
                        gate_vars: number("gate_vars")? as u64,
                        gate_clauses: number("gate_clauses")? as u64,
                        aig_vars: number("aig_vars")? as u64,
                        aig_clauses: number("aig_clauses")? as u64,
                        var_reduction: number("var_reduction")?,
                        clause_reduction: number("clause_reduction")?,
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        let fraig = match top.get("fraig") {
            None => Vec::new(),
            Some(value) => value
                .as_array()?
                .iter()
                .map(|k| {
                    let k = k.as_object()?;
                    let number = |field: &str| -> Result<f64, String> {
                        k.get(field)
                            .ok_or(format!("missing `{field}`"))?
                            .as_number()
                    };
                    Ok(FraigRecord {
                        name: k.get("name").ok_or("missing fraig `name`")?.as_str()?,
                        fraig_ms: number("fraig_ms")?,
                        sat_calls: number("sat_calls")? as u64,
                        proved_merges: number("proved_merges")? as u64,
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        let dip_aig = match top.get("dip_aig") {
            // Absent in schema-4 files; an empty set simply tracks nothing.
            None => Vec::new(),
            Some(value) => value
                .as_array()?
                .iter()
                .map(|k| {
                    let k = k.as_object()?;
                    let number = |field: &str| -> Result<f64, String> {
                        k.get(field)
                            .ok_or(format!("missing `{field}`"))?
                            .as_number()
                    };
                    Ok(DipAigRecord {
                        name: k.get("name").ok_or("missing dip_aig `name`")?.as_str()?,
                        key_bits: number("key_bits")? as u64,
                        aig_vars: number("aig_vars")? as u64,
                        aig_clauses: number("aig_clauses")? as u64,
                        aig_iters_per_sec: number("aig_iters_per_sec")?,
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        let rewrite = match top.get("rewrite") {
            // Absent in schema-4 files; an empty set simply tracks nothing.
            None => Vec::new(),
            Some(value) => value
                .as_array()?
                .iter()
                .map(|k| {
                    let k = k.as_object()?;
                    let number = |field: &str| -> Result<f64, String> {
                        k.get(field)
                            .ok_or(format!("missing `{field}`"))?
                            .as_number()
                    };
                    Ok(RewriteRecord {
                        name: k.get("name").ok_or("missing rewrite `name`")?.as_str()?,
                        nodes_before: number("nodes_before")? as u64,
                        nodes_after: number("nodes_after")? as u64,
                        levels_before: number("levels_before")? as u64,
                        levels_after: number("levels_after")? as u64,
                        node_reduction: number("node_reduction")?,
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        let portfolio = match top.get("portfolio") {
            // Absent in schema-5 files; an empty set simply tracks nothing.
            None => Vec::new(),
            Some(value) => value
                .as_array()?
                .iter()
                .map(|k| {
                    let k = k.as_object()?;
                    let number = |field: &str| -> Result<f64, String> {
                        k.get(field)
                            .ok_or(format!("missing `{field}`"))?
                            .as_number()
                    };
                    Ok(PortfolioRecord {
                        name: k.get("name").ok_or("missing portfolio `name`")?.as_str()?,
                        members: k
                            .get("members")
                            .ok_or("missing `members`")?
                            .as_array()?
                            .iter()
                            .map(|m| m.as_str())
                            .collect::<Result<_, String>>()?,
                        winner: k.get("winner").ok_or("missing `winner`")?.as_str()?,
                        verified: k.get("verified").ok_or("missing `verified`")?.as_bool()?,
                        portfolio_ms: number("portfolio_ms")?,
                        best_member_ms: number("best_member_ms")?,
                        worst_member_ms: number("worst_member_ms")?,
                        overhead: number("overhead")?,
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        let fraig_par = match top.get("fraig_par") {
            // Absent in schema-5 files; an empty set simply tracks nothing.
            None => Vec::new(),
            Some(value) => value
                .as_array()?
                .iter()
                .map(|k| {
                    let k = k.as_object()?;
                    let number = |field: &str| -> Result<f64, String> {
                        k.get(field)
                            .ok_or(format!("missing `{field}`"))?
                            .as_number()
                    };
                    Ok(FraigParRecord {
                        name: k.get("name").ok_or("missing fraig_par `name`")?.as_str()?,
                        workers: number("workers")? as u64,
                        seq_sweep_ms: number("seq_sweep_ms")?,
                        par_sweep_ms: number("par_sweep_ms")?,
                        speedup: number("speedup")?,
                        verdicts_match: k
                            .get("verdicts_match")
                            .ok_or("missing `verdicts_match`")?
                            .as_bool()?,
                        merges_match: k
                            .get("merges_match")
                            .ok_or("missing `merges_match`")?
                            .as_bool()?,
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        let attacks = top
            .get("attacks")
            .ok_or("missing `attacks`")?
            .as_array()?
            .iter()
            .map(|a| {
                let a = a.as_object()?;
                Ok(AttackRecord {
                    attack: a.get("attack").ok_or("missing `attack`")?.as_str()?,
                    host: a.get("host").ok_or("missing `host`")?.as_str()?,
                    outcome: a.get("outcome").ok_or("missing `outcome`")?.as_str()?,
                    wall_ms: a.get("wall_ms").ok_or("missing `wall_ms`")?.as_number()?,
                    iterations: a
                        .get("iterations")
                        .ok_or("missing `iterations`")?
                        .as_number()? as u64,
                    oracle_queries: a
                        .get("oracle_queries")
                        .ok_or("missing `oracle_queries`")?
                        .as_number()? as u64,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(BenchResults {
            schema: top.get("schema").ok_or("missing `schema`")?.as_number()? as u64,
            os: top.get("os").ok_or("missing `os`")?.as_str()?,
            cpus: top.get("cpus").ok_or("missing `cpus`")?.as_number()? as u64,
            scale: top.get("scale").ok_or("missing `scale`")?.as_number()?,
            budget_secs: top
                .get("budget_secs")
                .ok_or("missing `budget_secs`")?
                .as_number()?,
            kernels,
            cnf,
            fraig,
            dip_aig,
            rewrite,
            portfolio,
            fraig_par,
            attacks,
        })
    }
}

/// One regression found by [`compare`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// What regressed (`"kernel sim_sweep64_c6288"`, ...).
    pub subject: String,
    /// Human-readable description with both numbers.
    pub detail: String,
    /// Whether the gate must fail on this entry (kernels) or the entry is
    /// informational drift (attack telemetry on a differently-loaded host).
    pub fatal: bool,
}

/// Compares `current` against `baseline` with a relative `tolerance`
/// (0.25 = 25%). Tracked kernels gate on the packed-over-scalar speedup
/// ratio and on the `min_speedup` floor. The kernel measurement is
/// single-threaded, so the ratio is comparable across machines of the same
/// `os`; only a cross-OS comparison downgrades a ratio miss to non-fatal
/// drift (regenerate the baseline on the runner's OS to re-arm it), while
/// the absolute `min_speedup` floor stays fatal everywhere. Attack rows
/// gate fatally on outcome flips of non-budget-bound baseline rows (an
/// `exact-key` row turning into an error or out-of-budget is a code
/// regression); their numeric telemetry (iterations / oracle queries) is
/// reported as non-fatal drift unless `strict_attacks` is set.
pub fn compare(
    baseline: &BenchResults,
    current: &BenchResults,
    tolerance: f64,
    min_speedup: f64,
    strict_attacks: bool,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    let comparable_host = baseline.os == current.os;
    for base in &baseline.kernels {
        let subject = format!("kernel {}", base.name);
        match current.kernels.iter().find(|k| k.name == base.name) {
            None => regressions.push(Regression {
                subject,
                detail: "tracked kernel missing from current results".to_string(),
                fatal: true,
            }),
            Some(cur) => {
                let floor = base.speedup / (1.0 + tolerance);
                if cur.speedup < floor {
                    regressions.push(Regression {
                        subject: subject.clone(),
                        detail: format!(
                            "packed speedup fell {:.1}x -> {:.1}x (floor {:.1}x at {:.0}% tolerance{})",
                            base.speedup,
                            cur.speedup,
                            floor,
                            tolerance * 100.0,
                            if comparable_host {
                                ""
                            } else {
                                "; host differs from baseline — regenerate the baseline on this runner class to re-arm the ratio gate"
                            }
                        ),
                        fatal: comparable_host,
                    });
                }
                if cur.speedup < min_speedup {
                    regressions.push(Regression {
                        subject,
                        detail: format!(
                            "packed speedup {:.1}x is below the {min_speedup:.0}x acceptance floor",
                            cur.speedup
                        ),
                        fatal: true,
                    });
                }
            }
        }
    }
    // CNF-size kernels: exact counts, so the gate is deterministic on any
    // machine. Each record must not regress its reductions beyond the
    // tolerance, and the *aggregate* reduction across the tracked miter set
    // must stay above the acceptance floor.
    for base in &baseline.cnf {
        let subject = format!("cnf {}", base.name);
        match current.cnf.iter().find(|k| k.name == base.name) {
            None => regressions.push(Regression {
                subject,
                detail: "tracked CNF kernel missing from current results".to_string(),
                fatal: true,
            }),
            Some(cur) => {
                for (metric, base_r, cur_r) in [
                    ("variable", base.var_reduction, cur.var_reduction),
                    ("clause", base.clause_reduction, cur.clause_reduction),
                ] {
                    // A near-total baseline reduction means the miter folded
                    // structurally (the two halves hashed to one graph — the
                    // c6288 case): the record measures structural identity,
                    // not encoder quality, and a *better* resynthesis
                    // scrambler would legitimately lower it. Such records
                    // gate only on the absolute acceptance floor.
                    let floor = if base_r > 0.95 {
                        CNF_REDUCTION_FLOOR
                    } else {
                        base_r * (1.0 - tolerance)
                    };
                    if cur_r < floor {
                        regressions.push(Regression {
                            subject: subject.clone(),
                            detail: format!(
                                "{metric} reduction fell {:.1}% -> {:.1}% (floor {:.1}%)",
                                base_r * 100.0,
                                cur_r * 100.0,
                                floor * 100.0
                            ),
                            fatal: true,
                        });
                    }
                }
            }
        }
    }
    if !baseline.cnf.is_empty() && !current.cnf.is_empty() {
        let sum = |records: &[CnfRecord], f: fn(&CnfRecord) -> u64| -> f64 {
            records.iter().map(f).sum::<u64>() as f64
        };
        for (metric, gate, aig) in [
            (
                "variable",
                sum(&current.cnf, |k| k.gate_vars),
                sum(&current.cnf, |k| k.aig_vars),
            ),
            (
                "clause",
                sum(&current.cnf, |k| k.gate_clauses),
                sum(&current.cnf, |k| k.aig_clauses),
            ),
        ] {
            let reduction = 1.0 - aig / gate.max(1.0);
            if reduction < CNF_REDUCTION_FLOOR {
                regressions.push(Regression {
                    subject: "cnf aggregate".to_string(),
                    detail: format!(
                        "aggregate {metric} reduction {:.1}% is below the {:.0}% acceptance floor",
                        reduction * 100.0,
                        CNF_REDUCTION_FLOOR * 100.0
                    ),
                    fatal: true,
                });
            }
        }
    }
    // Fraig-equivalence kernels: the SAT-call and merge counts are exact for
    // the fixed seed, so both gate fatally on any machine. The wall-clock is
    // printed, not gated.
    for base in &baseline.fraig {
        let subject = format!("fraig {}", base.name);
        let Some(cur) = current.fraig.iter().find(|k| k.name == base.name) else {
            regressions.push(Regression {
                subject,
                detail: "tracked fraig kernel missing from current results".to_string(),
                fatal: true,
            });
            continue;
        };
        regressions.extend(
            [
                ("SAT calls", base.sat_calls, cur.sat_calls, Better::Lower),
                (
                    "proved merges",
                    base.proved_merges,
                    cur.proved_merges,
                    Better::Higher,
                ),
            ]
            .into_iter()
            .filter_map(|(metric, base_n, cur_n, better)| {
                counter_gate(&subject, metric, base_n, cur_n, tolerance, better)
            }),
        );
    }
    // DIP-engine kernels: the miter's encode footprint is an exact count and
    // gates fatally on any machine; the CEGAR throughput gates as a same-OS
    // ratio like the other timing kernels.
    for base in &baseline.dip_aig {
        let subject = format!("dip_aig {}", base.name);
        let Some(cur) = current.dip_aig.iter().find(|k| k.name == base.name) else {
            regressions.push(Regression {
                subject,
                detail: "tracked DIP-engine kernel missing from current results".to_string(),
                fatal: true,
            });
            continue;
        };
        regressions.extend(
            [
                ("DIP miter variables", base.aig_vars, cur.aig_vars),
                ("DIP miter clauses", base.aig_clauses, cur.aig_clauses),
            ]
            .into_iter()
            .filter_map(|(metric, base_n, cur_n)| {
                counter_gate(&subject, metric, base_n, cur_n, tolerance, Better::Lower)
            }),
        );
        let floor = base.aig_iters_per_sec / (1.0 + tolerance);
        if cur.aig_iters_per_sec < floor {
            regressions.push(Regression {
                subject,
                detail: format!(
                    "AIG-engine CEGAR throughput fell {:.1} -> {:.1} iters/s \
                     (floor {:.1} at {:.0}% tolerance{})",
                    base.aig_iters_per_sec,
                    cur.aig_iters_per_sec,
                    floor,
                    tolerance * 100.0,
                    if comparable_host {
                        ""
                    } else {
                        "; host differs from baseline"
                    }
                ),
                fatal: comparable_host,
            });
        }
    }
    // Rewriting kernels: exact node counts, so both the baseline-relative
    // gate and the absolute floor are deterministic and fatal everywhere.
    for base in &baseline.rewrite {
        let subject = format!("rewrite {}", base.name);
        match current.rewrite.iter().find(|k| k.name == base.name) {
            None => regressions.push(Regression {
                subject,
                detail: "tracked rewriting kernel missing from current results".to_string(),
                fatal: true,
            }),
            Some(cur) => {
                // The absolute floor only arms on hosts whose baseline clears
                // it: c6288's multiplier array has no profitable 4-cuts, and a
                // legitimately-zero baseline must not fail its own self-compare.
                let floor = if base.node_reduction >= REWRITE_REDUCTION_FLOOR {
                    (base.node_reduction * (1.0 - tolerance)).max(REWRITE_REDUCTION_FLOOR)
                } else {
                    base.node_reduction * (1.0 - tolerance)
                };
                if cur.node_reduction < floor {
                    regressions.push(Regression {
                        subject,
                        detail: format!(
                            "rewrite node reduction fell {:.1}% -> {:.1}% (floor {:.1}%; \
                             {} -> {} nodes)",
                            base.node_reduction * 100.0,
                            cur.node_reduction * 100.0,
                            floor * 100.0,
                            cur.nodes_before,
                            cur.nodes_after
                        ),
                        fatal: true,
                    });
                }
            }
        }
    }
    // Portfolio-race kernels: the race losing its verified winner is a
    // correctness regression (fatal anywhere); the overhead ceiling over
    // the best solo member is machine-portable (both walls come from the
    // same process) but meaningless on a single-CPU runner where the
    // members can only timeslice — skip it there, like the scheduler gate.
    for base in &baseline.portfolio {
        let subject = format!("portfolio {}", base.name);
        match current.portfolio.iter().find(|k| k.name == base.name) {
            None => regressions.push(Regression {
                subject,
                detail: "tracked portfolio kernel missing from current results".to_string(),
                fatal: true,
            }),
            Some(cur) => {
                if base.verified && !cur.verified {
                    regressions.push(Regression {
                        subject: subject.clone(),
                        detail: format!(
                            "the race no longer produces a SAT-verified exact key \
                             (winner `{}`)",
                            cur.winner
                        ),
                        fatal: true,
                    });
                }
                if current.cpus <= 1 {
                    regressions.push(Regression {
                        subject,
                        detail: format!(
                            "ran on a single worker (1 CPU) — the {PORTFOLIO_OVERHEAD_CEIL:.2}x \
                             overhead gate is skipped: racing members can only timeslice \
                             without parallelism"
                        ),
                        fatal: false,
                    });
                    continue;
                }
                if cur.overhead > PORTFOLIO_OVERHEAD_CEIL {
                    regressions.push(Regression {
                        subject: subject.clone(),
                        detail: format!(
                            "race wall {:.0} ms is {:.2}x its best solo member {:.0} ms \
                             (ceiling {PORTFOLIO_OVERHEAD_CEIL:.2}x)",
                            cur.portfolio_ms, cur.overhead, cur.best_member_ms
                        ),
                        fatal: true,
                    });
                }
                // Losing outright to the *worst* member means cancellation
                // stopped paying at all; with the overhead ceiling already
                // gating fatally, this reads as a diagnosis aid, not a
                // second trip wire (best == worst makes it vacuous anyway).
                if cur.portfolio_ms > cur.worst_member_ms
                    && cur.worst_member_ms > cur.best_member_ms
                {
                    regressions.push(Regression {
                        subject,
                        detail: format!(
                            "race wall {:.0} ms lost to its worst solo member {:.0} ms",
                            cur.portfolio_ms, cur.worst_member_ms
                        ),
                        fatal: false,
                    });
                }
            }
        }
    }
    // Parallel-fraig kernels: verdict/merge agreement between the widths is
    // a correctness property (fatal anywhere); the sweep speedup gates on
    // the absolute floor only when the record ran at full width — a
    // narrower sweep (CPU-starved runner) cannot reach it and is noted.
    for base in &baseline.fraig_par {
        let subject = format!("fraig_par {}", base.name);
        match current.fraig_par.iter().find(|k| k.name == base.name) {
            None => regressions.push(Regression {
                subject,
                detail: "tracked parallel-fraig kernel missing from current results".to_string(),
                fatal: true,
            }),
            Some(cur) => {
                if !cur.verdicts_match || !cur.merges_match {
                    regressions.push(Regression {
                        subject,
                        detail: format!(
                            "parallel and sequential sweeps disagree (verdicts match: {}, \
                             merge counts match: {})",
                            cur.verdicts_match, cur.merges_match
                        ),
                        fatal: true,
                    });
                } else if cur.workers <= 1 {
                    regressions.push(Regression {
                        subject,
                        detail: format!(
                            "ran on a single worker (1 CPU) — the \
                             {FRAIG_PAR_SPEEDUP_FLOOR:.1}x gate is skipped: the sweep \
                             cannot be widened without parallelism"
                        ),
                        fatal: false,
                    });
                } else if cur.speedup < FRAIG_PAR_SPEEDUP_FLOOR {
                    regressions.push(Regression {
                        subject,
                        detail: format!(
                            "{}-worker sweep speedup {:.2}x is below the \
                             {FRAIG_PAR_SPEEDUP_FLOOR:.1}x acceptance floor{}",
                            cur.workers,
                            cur.speedup,
                            if (cur.workers as usize) < FRAIG_PAR_WORKERS {
                                " (narrow runner: fewer CPUs than the tracked width)"
                            } else {
                                ""
                            }
                        ),
                        fatal: cur.workers as usize >= FRAIG_PAR_WORKERS,
                    });
                }
            }
        }
    }
    for base in &baseline.attacks {
        let subject = format!("attack {} on {}", base.attack, base.host);
        let Some(cur) = current
            .attacks
            .iter()
            .find(|a| a.attack == base.attack && a.host == base.host)
        else {
            regressions.push(Regression {
                subject,
                detail: "tracked attack row missing from current results".to_string(),
                fatal: true,
            });
            continue;
        };
        // Budget-bound baseline rows spent however many iterations the
        // host's clock allowed — not comparable across machines (and a row
        // that *used* to time out succeeding now is an improvement).
        if base.outcome == "out-of-budget" {
            continue;
        }
        // A non-budget-bound baseline outcome flipping (exact-key -> error
        // or out-of-budget) is a code regression, not noise: the succeeding
        // rows finish with >10x headroom against the budget.
        if cur.outcome != base.outcome {
            regressions.push(Regression {
                subject: subject.clone(),
                detail: format!("outcome flipped `{}` -> `{}`", base.outcome, cur.outcome),
                fatal: true,
            });
            continue;
        }
        for (metric, base_n, cur_n) in [
            ("iterations", base.iterations, cur.iterations),
            ("oracle queries", base.oracle_queries, cur.oracle_queries),
        ] {
            let ceiling = (base_n as f64 * (1.0 + tolerance)).ceil() as u64 + 2;
            if cur_n > ceiling {
                regressions.push(Regression {
                    subject: subject.clone(),
                    detail: format!("{metric} grew {base_n} -> {cur_n} (ceiling {ceiling})"),
                    fatal: strict_attacks,
                });
            }
        }
    }
    regressions
}

/// Which direction of an exact work counter is an improvement.
#[derive(Clone, Copy)]
enum Better {
    Lower,
    Higher,
}

/// The fatal gate of one exact work counter: a lower-is-better counter may
/// exceed its baseline by at most `tolerance`, a higher-is-better one may
/// fall short of it by at most `tolerance`.
fn counter_gate(
    subject: &str,
    metric: &str,
    base: u64,
    cur: u64,
    tolerance: f64,
    better: Better,
) -> Option<Regression> {
    let (bound, regressed, kind) = match better {
        Better::Lower => {
            let ceiling = (base as f64 * (1.0 + tolerance)).floor() as u64;
            (ceiling, cur > ceiling, "ceiling")
        }
        Better::Higher => {
            let floor = (base as f64 * (1.0 - tolerance)).ceil() as u64;
            (floor, cur < floor, "floor")
        }
    };
    regressed.then(|| Regression {
        subject: subject.to_string(),
        detail: format!(
            "{metric} moved {base} -> {cur} ({kind} {bound} at {:.0}% tolerance)",
            tolerance * 100.0
        ),
        fatal: true,
    })
}

fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "0.0".to_string()
    }
}

/// A minimal JSON reader for the subset [`BenchResults::to_json`] emits
/// (objects, arrays, strings with basic escapes, numbers and booleans — no
/// nulls).
mod json {
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    pub enum Value {
        Object(HashMap<String, Value>),
        Array(Vec<Value>),
        String(String),
        Number(f64),
        Bool(bool),
    }

    impl Value {
        pub fn as_object(&self) -> Result<&HashMap<String, Value>, String> {
            match self {
                Value::Object(map) => Ok(map),
                other => Err(format!("expected an object, found {other:?}")),
            }
        }

        pub fn as_array(&self) -> Result<&Vec<Value>, String> {
            match self {
                Value::Array(items) => Ok(items),
                other => Err(format!("expected an array, found {other:?}")),
            }
        }

        pub fn as_str(&self) -> Result<String, String> {
            match self {
                Value::String(s) => Ok(s.clone()),
                other => Err(format!("expected a string, found {other:?}")),
            }
        }

        pub fn as_number(&self) -> Result<f64, String> {
            match self {
                Value::Number(n) => Ok(*n),
                other => Err(format!("expected a number, found {other:?}")),
            }
        }

        pub fn as_bool(&self) -> Result<bool, String> {
            match self {
                Value::Bool(b) => Ok(*b),
                other => Err(format!("expected a boolean, found {other:?}")),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut position = 0usize;
        let value = parse_value(bytes, &mut position)?;
        skip_whitespace(bytes, &mut position);
        if position != bytes.len() {
            return Err(format!("trailing data at byte {position}"));
        }
        Ok(value)
    }

    fn skip_whitespace(bytes: &[u8], position: &mut usize) {
        while *position < bytes.len() && bytes[*position].is_ascii_whitespace() {
            *position += 1;
        }
    }

    fn expect(bytes: &[u8], position: &mut usize, byte: u8) -> Result<(), String> {
        skip_whitespace(bytes, position);
        if bytes.get(*position) == Some(&byte) {
            *position += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {position}",
                char::from(byte)
            ))
        }
    }

    fn parse_value(bytes: &[u8], position: &mut usize) -> Result<Value, String> {
        skip_whitespace(bytes, position);
        match bytes.get(*position) {
            Some(b'{') => parse_object(bytes, position),
            Some(b'[') => parse_array(bytes, position),
            Some(b'"') => Ok(Value::String(parse_string(bytes, position)?)),
            Some(b't') | Some(b'f') => parse_bool(bytes, position),
            Some(_) => parse_number(bytes, position),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_bool(bytes: &[u8], position: &mut usize) -> Result<Value, String> {
        for (literal, value) in [("true", true), ("false", false)] {
            if bytes[*position..].starts_with(literal.as_bytes()) {
                *position += literal.len();
                return Ok(Value::Bool(value));
            }
        }
        Err(format!("expected `true` or `false` at byte {position}"))
    }

    fn parse_object(bytes: &[u8], position: &mut usize) -> Result<Value, String> {
        expect(bytes, position, b'{')?;
        let mut map = HashMap::new();
        skip_whitespace(bytes, position);
        if bytes.get(*position) == Some(&b'}') {
            *position += 1;
            return Ok(Value::Object(map));
        }
        loop {
            skip_whitespace(bytes, position);
            let key = parse_string(bytes, position)?;
            expect(bytes, position, b':')?;
            let value = parse_value(bytes, position)?;
            map.insert(key, value);
            skip_whitespace(bytes, position);
            match bytes.get(*position) {
                Some(b',') => *position += 1,
                Some(b'}') => {
                    *position += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {position}")),
            }
        }
    }

    fn parse_array(bytes: &[u8], position: &mut usize) -> Result<Value, String> {
        expect(bytes, position, b'[')?;
        let mut items = Vec::new();
        skip_whitespace(bytes, position);
        if bytes.get(*position) == Some(&b']') {
            *position += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, position)?);
            skip_whitespace(bytes, position);
            match bytes.get(*position) {
                Some(b',') => *position += 1,
                Some(b']') => {
                    *position += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {position}")),
            }
        }
    }

    fn parse_string(bytes: &[u8], position: &mut usize) -> Result<String, String> {
        expect(bytes, position, b'"')?;
        // Accumulate raw bytes; multi-byte UTF-8 sequences pass through
        // verbatim and are validated once at the end.
        let mut out: Vec<u8> = Vec::new();
        while let Some(&byte) = bytes.get(*position) {
            *position += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let escape = bytes.get(*position).ok_or("unterminated escape sequence")?;
                    *position += 1;
                    match escape {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = bytes
                                .get(*position..*position + 4)
                                .ok_or("truncated \\u escape")?;
                            *position += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            let mut buffer = [0u8; 4];
                            out.extend_from_slice(
                                char::from_u32(code)
                                    .unwrap_or('\u{fffd}')
                                    .encode_utf8(&mut buffer)
                                    .as_bytes(),
                            );
                        }
                        other => return Err(format!("unknown escape `\\{}`", char::from(*other))),
                    }
                }
                byte => out.push(byte),
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_number(bytes: &[u8], position: &mut usize) -> Result<Value, String> {
        let start = *position;
        while let Some(&byte) = bytes.get(*position) {
            if byte.is_ascii_digit() || matches!(byte, b'-' | b'+' | b'.' | b'e' | b'E') {
                *position += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&bytes[start..*position])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_results() -> BenchResults {
        BenchResults {
            schema: 7,
            os: "linux".to_string(),
            cpus: 8,
            scale: 0.05,
            budget_secs: 2.0,
            kernels: vec![KernelRecord {
                name: "sim_sweep64_c6288".to_string(),
                scalar_ms: 3.2,
                packed_ms: 0.1,
                speedup: 32.0,
            }],
            cnf: vec![CnfRecord {
                name: "cnf_miter_c6288".to_string(),
                gate_vars: 10_000,
                gate_clauses: 30_000,
                aig_vars: 5_000,
                aig_clauses: 18_000,
                var_reduction: 0.5,
                clause_reduction: 0.4,
            }],
            fraig: vec![FraigRecord {
                name: "fraig_eqv_c6288".to_string(),
                fraig_ms: 300.0,
                sat_calls: 120,
                proved_merges: 80,
            }],
            dip_aig: vec![DipAigRecord {
                name: "dip_aig_c2670".to_string(),
                key_bits: 16,
                aig_vars: 1_500,
                aig_clauses: 6_000,
                aig_iters_per_sec: 100.0,
            }],
            rewrite: vec![RewriteRecord {
                name: "rewrite_c2670".to_string(),
                nodes_before: 1_000,
                nodes_after: 900,
                levels_before: 30,
                levels_after: 28,
                node_reduction: 0.1,
            }],
            portfolio: vec![PortfolioRecord {
                name: "portfolio_c2670_sarlock".to_string(),
                members: vec!["kratt".to_string(), "sat".to_string(), "appsat".to_string()],
                winner: "kratt".to_string(),
                verified: true,
                portfolio_ms: 220.0,
                best_member_ms: 200.0,
                worst_member_ms: 1800.0,
                overhead: 1.1,
            }],
            fraig_par: vec![FraigParRecord {
                name: "fraig_par_c5315".to_string(),
                workers: 4,
                seq_sweep_ms: 400.0,
                par_sweep_ms: 160.0,
                speedup: 2.5,
                verdicts_match: true,
                merges_match: true,
            }],
            attacks: vec![AttackRecord {
                attack: "sat".to_string(),
                host: "c2670/RLL \"quoted\"".to_string(),
                outcome: "exact-key".to_string(),
                wall_ms: 41.5,
                iterations: 12,
                oracle_queries: 12,
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let results = sample_results();
        let parsed = BenchResults::from_json(&results.to_json()).unwrap();
        assert_eq!(parsed.schema, 7);
        assert_eq!(parsed.cpus, 8);
        assert_eq!(parsed.kernels, results.kernels);
        assert_eq!(parsed.cnf, results.cnf);
        assert_eq!(parsed.fraig, results.fraig);
        assert_eq!(parsed.dip_aig, results.dip_aig);
        assert_eq!(parsed.rewrite, results.rewrite);
        assert_eq!(parsed.portfolio, results.portfolio);
        assert_eq!(parsed.fraig_par, results.fraig_par);
        assert_eq!(parsed.attacks, results.attacks);
    }

    #[test]
    fn schema_one_files_without_cnf_sections_still_parse() {
        let legacy = r#"{
  "schema": 1,
  "os": "linux",
  "cpus": 1,
  "scale": 0.05,
  "budget_secs": 2.0,
  "kernels": [],
  "attacks": []
}"#;
        let parsed = BenchResults::from_json(legacy).unwrap();
        assert!(parsed.cnf.is_empty());
        assert!(parsed.fraig.is_empty());
        assert!(parsed.dip_aig.is_empty());
        assert!(parsed.rewrite.is_empty());
        assert!(parsed.portfolio.is_empty());
        assert!(parsed.fraig_par.is_empty());
    }

    #[test]
    fn compare_gates_the_portfolio_race_overhead_and_verification() {
        let baseline = sample_results();
        // Losing the verified winner is a correctness regression — fatal
        // even on a single-CPU runner where the overhead gate is skipped.
        let mut current = sample_results();
        current.portfolio[0].verified = false;
        current.cpus = 1;
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| r.fatal && r.detail.contains("SAT-verified exact key")));

        // Overhead above the ceiling is fatal on a parallel runner.
        let mut current = sample_results();
        current.portfolio[0].overhead = 1.4;
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].fatal && regressions[0].detail.contains("ceiling"));

        // A 1-CPU runner cannot race: the overhead miss becomes a non-fatal
        // note explaining the skip.
        current.cpus = 1;
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(!regressions[0].fatal && regressions[0].detail.contains("single worker"));

        // Losing to the worst member warns (the ceiling gate already fired
        // fatally when that can matter).
        let mut current = sample_results();
        current.portfolio[0].portfolio_ms = 2000.0;
        current.portfolio[0].overhead = 10.0;
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| !r.fatal && r.detail.contains("worst solo member")));

        // Missing record is fatal; a clean record passes.
        let mut current = sample_results();
        current.portfolio.clear();
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| r.fatal && r.detail.contains("portfolio kernel missing")));
        let current = sample_results();
        assert!(compare(&baseline, &current, 0.25, 8.0, false).is_empty());
    }

    #[test]
    fn compare_gates_the_parallel_fraig_sweep() {
        let baseline = sample_results();
        // The widths disagreeing is a correctness regression anywhere.
        let mut current = sample_results();
        current.fraig_par[0].merges_match = false;
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| r.fatal && r.detail.contains("disagree")));

        // Below the floor at full width is fatal.
        let mut current = sample_results();
        current.fraig_par[0].speedup = 1.2;
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].fatal && regressions[0].detail.contains("acceptance floor"));

        // Below the floor on a narrow (2-worker) runner is a note, and a
        // single worker skips the gate entirely.
        current.fraig_par[0].workers = 2;
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(!regressions[0].fatal && regressions[0].detail.contains("narrow runner"));
        current.fraig_par[0].workers = 1;
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(!regressions[0].fatal && regressions[0].detail.contains("single worker"));

        // Missing record is fatal; a clean record passes.
        let mut current = sample_results();
        current.fraig_par.clear();
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| r.fatal && r.detail.contains("parallel-fraig kernel missing")));
        let current = sample_results();
        assert!(compare(&baseline, &current, 0.25, 8.0, false).is_empty());
    }

    #[test]
    fn compare_gates_dip_encode_reductions_and_throughput() {
        let baseline = sample_results();
        // The encode footprint growing beyond tolerance is fatal regardless
        // of host (the counts are exact).
        let mut current = sample_results();
        current.dip_aig[0].aig_vars = 1_900; // > 25% above 1500
        current.os = "macos".to_string();
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].fatal && regressions[0].detail.contains("variables"));
        let mut current = sample_results();
        current.dip_aig[0].aig_clauses = 7_600; // > 25% above 6000
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| r.fatal && r.subject.contains("dip_aig") && r.detail.contains("clauses")));

        // CEGAR throughput gates as a same-OS ratio like the other timing
        // kernels: fatal at home, drift across OSes.
        let mut current = sample_results();
        current.dip_aig[0].aig_iters_per_sec = 50.0; // > 25% below 100
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].fatal && regressions[0].detail.contains("throughput"));
        current.os = "macos".to_string();
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .all(|r| !r.fatal));

        // A missing record is fatal; within tolerance (or smaller) is clean.
        let mut current = sample_results();
        current.dip_aig.clear();
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| r.fatal && r.detail.contains("DIP-engine kernel missing")));
        let mut current = sample_results();
        current.dip_aig[0].aig_iters_per_sec = 90.0;
        current.dip_aig[0].aig_vars = 1_875;
        current.dip_aig[0].aig_clauses = 3_000;
        assert!(compare(&baseline, &current, 0.25, 8.0, false).is_empty());
    }

    #[test]
    fn compare_gates_rewrite_node_reductions() {
        let baseline = sample_results();
        // Falling beyond tolerance is fatal anywhere — the counts are exact.
        let mut current = sample_results();
        current.rewrite[0].node_reduction = 0.05; // > 25% below 0.1
        current.os = "macos".to_string();
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].fatal && regressions[0].subject.contains("rewrite"));

        // The absolute floor catches a rewrite that stops shrinking even
        // when the baseline reduction was already tiny.
        let mut baseline = sample_results();
        baseline.rewrite[0].node_reduction = 0.012;
        let mut current = sample_results();
        current.rewrite[0].node_reduction = 0.0;
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| r.fatal && r.subject.contains("rewrite")));

        // A missing record is fatal; within tolerance is clean.
        let baseline = sample_results();
        let mut current = sample_results();
        current.rewrite.clear();
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| r.fatal && r.detail.contains("rewriting kernel missing")));
        let mut current = sample_results();
        current.rewrite[0].node_reduction = 0.09;
        assert!(compare(&baseline, &current, 0.25, 8.0, false).is_empty());

        // A host whose baseline legitimately rewrites to zero gain (c6288's
        // multiplier array has no profitable 4-cuts) must pass self-compare:
        // the absolute floor only arms when the baseline itself clears it.
        let mut baseline = sample_results();
        baseline.rewrite[0].nodes_after = baseline.rewrite[0].nodes_before;
        baseline.rewrite[0].node_reduction = 0.0;
        let current = baseline.clone();
        assert!(compare(&baseline, &current, 0.25, 8.0, false).is_empty());
    }

    #[test]
    fn compare_gates_cnf_reductions() {
        let baseline = sample_results();
        let mut current = sample_results();
        // A reduction collapse is fatal regardless of host.
        current.cnf[0].var_reduction = 0.2;
        current.os = "macos".to_string();
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert!(regressions
            .iter()
            .any(|r| r.fatal && r.subject.contains("cnf") && r.detail.contains("variable")));

        // Aggregate floor: both metrics must clear 25% across the set.
        let mut current = sample_results();
        current.cnf[0].aig_clauses = 29_000;
        current.cnf[0].clause_reduction = 1.0 - 29_000.0 / 30_000.0;
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert!(regressions
            .iter()
            .any(|r| r.fatal && r.subject == "cnf aggregate"));

        // Missing CNF kernel is fatal.
        let mut current = sample_results();
        current.cnf.clear();
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| r.fatal && r.detail.contains("CNF kernel missing")));

        // A near-degenerate baseline (the miter folded structurally) gates
        // only on the absolute floor: a drop to 60% is fine, below 25% not.
        let mut baseline = sample_results();
        baseline.cnf[0].var_reduction = 0.995;
        let mut current = sample_results();
        current.cnf[0].var_reduction = 0.6;
        assert!(compare(&baseline, &current, 0.25, 8.0, false).is_empty());
        current.cnf[0].var_reduction = 0.2;
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| r.fatal && r.subject.contains("cnf")));
    }

    #[test]
    fn compare_gates_fraig_counters() {
        let baseline = sample_results();
        // More SAT calls beyond tolerance is fatal on any host: the counts
        // are exact for the fixed seed.
        let mut current = sample_results();
        current.fraig[0].sat_calls = 151; // ceiling 150 at 25% over 120
        current.os = "macos".to_string();
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].fatal && regressions[0].detail.contains("SAT calls"));
        // So is losing proved merges beyond tolerance.
        let mut current = sample_results();
        current.fraig[0].proved_merges = 59; // floor 60 at 25% under 80
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].fatal && regressions[0].detail.contains("proved merges"));
        // The wall-clock is not gated; counters at the bounds, or better,
        // are clean.
        let mut current = sample_results();
        current.fraig[0].fraig_ms = 10_000.0;
        current.fraig[0].sat_calls = 150;
        current.fraig[0].proved_merges = 60;
        assert!(compare(&baseline, &current, 0.25, 8.0, false).is_empty());
        current.fraig[0].sat_calls = 10;
        current.fraig[0].proved_merges = 500;
        assert!(compare(&baseline, &current, 0.25, 8.0, false).is_empty());
        // A missing record is fatal.
        current.fraig.clear();
        assert!(compare(&baseline, &current, 0.25, 8.0, false)
            .iter()
            .any(|r| r.fatal && r.detail.contains("fraig kernel missing")));
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(BenchResults::from_json("{").is_err());
        assert!(BenchResults::from_json("{}").is_err());
        assert!(BenchResults::from_json("[1, 2]").is_err());
    }

    #[test]
    fn compare_flags_kernel_speedup_regressions() {
        let baseline = sample_results();
        let mut current = sample_results();
        current.kernels[0].speedup = 20.0; // > 25% below 32x
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].fatal);
        assert!(regressions[0].subject.contains("sim_sweep64_c6288"));

        // Within tolerance: clean.
        current.kernels[0].speedup = 30.0;
        assert!(compare(&baseline, &current, 0.25, 8.0, false).is_empty());
    }

    #[test]
    fn ratio_misses_on_a_different_os_are_non_fatal() {
        let baseline = sample_results();
        let mut current = sample_results();
        current.os = "macos".to_string();
        current.kernels[0].speedup = 20.0; // ratio miss, above the 8x floor
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(!regressions[0].fatal, "cross-OS ratio drift must warn");
        assert!(regressions[0].detail.contains("host differs"));

        // The absolute floor stays fatal even across OSes.
        current.kernels[0].speedup = 5.0;
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert!(regressions
            .iter()
            .any(|r| r.fatal && r.detail.contains("acceptance floor")));

        // A different CPU count alone does not disarm the ratio gate (the
        // kernel measurement is single-threaded).
        let mut current = sample_results();
        current.cpus = 4;
        current.kernels[0].speedup = 20.0;
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].fatal);
    }

    #[test]
    fn outcome_flips_of_succeeding_rows_are_fatal() {
        let baseline = sample_results();
        let mut current = sample_results();
        current.attacks[0].outcome = "error: no key inputs".to_string();
        current.attacks[0].iterations = 0;
        current.attacks[0].oracle_queries = 0;
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].fatal);
        assert!(regressions[0].detail.contains("outcome flipped"));

        // Success degrading to out-of-budget is also a flip.
        current.attacks[0].outcome = "out-of-budget".to_string();
        assert!(compare(&baseline, &current, 0.25, 8.0, false)[0].fatal);
    }

    #[test]
    fn compare_enforces_the_acceptance_floor() {
        let mut baseline = sample_results();
        baseline.kernels[0].speedup = 6.0;
        let current = baseline.clone();
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].detail.contains("acceptance floor"));
    }

    #[test]
    fn compare_ignores_budget_bound_rows_and_reports_drift() {
        let baseline = sample_results();
        let mut current = sample_results();
        current.attacks[0].iterations = 100;
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(
            !regressions[0].fatal,
            "attack drift is non-fatal by default"
        );
        assert!(compare(&baseline, &current, 0.25, 8.0, true)[0].fatal);

        // Budget-bound *baseline* rows are never compared: their telemetry
        // is whatever the baseline host's clock allowed, and a current run
        // that now succeeds is an improvement.
        let mut baseline = sample_results();
        baseline.attacks[0].outcome = "out-of-budget".to_string();
        let current = sample_results();
        assert!(compare(&baseline, &current, 0.25, 8.0, true).is_empty());
    }

    #[test]
    fn missing_entries_are_fatal() {
        let baseline = sample_results();
        let mut current = sample_results();
        current.kernels.clear();
        current.attacks.clear();
        let regressions = compare(&baseline, &current, 0.25, 8.0, false);
        assert_eq!(regressions.len(), 2);
        assert!(regressions.iter().all(|r| r.fatal));
    }
}

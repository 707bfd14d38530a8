//! The benchmark's workloads and their seeded, locked corpora.
//!
//! A workload names a grid of (host, scheme) pairs, the attack(s) run on
//! every locked instance and the per-cell budget. [`build`] turns a workload
//! and the benchmark's `--seed` into a corpus: the six Table-I hosts at
//! scale 0.05, every instance locked from a spec whose `seed` parameter
//! derives from the workload seed, resynthesised as the campaign presets do,
//! and (for oracle-guided work) one oracle per host. The attacked program
//! only ever sees the generated netlists and oracles.

use crate::trace::{spanned, Recorder};
use kratt_attacks::{AttackError, Budget, CampaignHost, CorpusCache, Oracle, PrepareHook};
use kratt_benchmarks::table1_circuits;
use kratt_locking::{scheme_registry, LockedCircuit, SchemeRegistry, SchemeSpec};
use kratt_synth::{resynthesize, Effort, ResynthesisOptions};
use std::sync::Arc;
use std::time::Duration;

/// Gate-count scale of the Table-I hosts (interface widths stay at paper
/// scale).
const SCALE: f64 = 0.05;

/// The host every SAT-family workload leaves out: the array multiplier gets
/// through only a handful of DIPs per second.
const MULTIPLIER_HOST: &str = "c6288";

/// Locked instances per scheme on the campaign's scheme axis (a campaign's
/// axes are shared by every host).
const CAMPAIGN_REPLICAS: usize = 4;

/// How a scheme's key width is picked on a host.
#[derive(Debug, Clone, Copy)]
enum Width {
    /// The host's Table-I key width.
    TableI,
    /// A fixed width on every host.
    Fixed(usize),
}

/// How a workload's cells are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// KRATT without an oracle, one cell at a time.
    OracleLess,
    /// KRATT with an oracle, one cell at a time.
    OracleGuided,
    /// SAT-family attacks through `Campaign::run_observed` on every CPU.
    Campaign,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Oracle-less KRATT over SFLTs and DFLTs.
    OlSweep,
    /// Oracle-guided KRATT over TTLock and CAC.
    OgDflt,
    /// `sat` and `double-dip` campaign at 8-bit keys.
    SatCampaign,
    /// Oracle-guided KRATT over SFLL-HD: the cells whose exact claims the
    /// verification kernel refutes at seed. Not a scored workload; run by
    /// hand to watch the known failure.
    OgSfll,
}

impl Workload {
    /// Every workload the runner accepts.
    pub const ALL: [Workload; 4] = [
        Workload::OlSweep,
        Workload::OgDflt,
        Workload::SatCampaign,
        Workload::OgSfll,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlSweep => "ol-sweep",
            Workload::OgDflt => "og-dflt",
            Workload::SatCampaign => "sat-campaign",
            Workload::OgSfll => "og-sfll",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How the workload's cells are driven.
    pub fn mode(self) -> Mode {
        match self {
            Workload::OlSweep => Mode::OracleLess,
            Workload::OgDflt | Workload::OgSfll => Mode::OracleGuided,
            Workload::SatCampaign => Mode::Campaign,
        }
    }

    /// Registry names of the attacks run on every locked instance.
    pub fn attacks(self) -> &'static [&'static str] {
        match self.mode() {
            Mode::Campaign => &["sat", "double-dip"],
            _ => &["kratt"],
        }
    }

    /// The per-cell budget.
    pub fn budget(self) -> Budget {
        let limit = match self {
            // Far above the slowest cell (~0.2 s), so no cell races it.
            Workload::OlSweep => 30,
            // The ROADMAP's oracle-guided budget; c6288 exceeds it.
            Workload::OgDflt | Workload::OgSfll => 2,
            // Far above the slowest cell (b20_C SARLock under double-dip,
            // ~1.2 s with both workers busy).
            Workload::SatCampaign => 30,
        };
        Budget {
            time_limit: Some(Duration::from_secs(limit)),
            max_iterations: 10_000,
            ..Budget::default()
        }
    }

    /// Locked instances per (host, scheme) pair, each from its own seed.
    /// The oracle-guided c6288 cells all run into their budget, so one
    /// instance per scheme keeps them from filling most of a pass. The
    /// counts are the fewest with which the seed moves the median latency by
    /// no more than about 5%, so a run still holds several passes.
    pub fn replicas(self, host: &str) -> usize {
        match self {
            Workload::OlSweep => 2,
            Workload::OgDflt if host == MULTIPLIER_HOST => 1,
            Workload::OgDflt => 6,
            Workload::SatCampaign => CAMPAIGN_REPLICAS,
            Workload::OgSfll => 2,
        }
    }

    /// Whether the cells on `host` are meant to run out of budget.
    pub fn expects_out_of_budget(self, host: &str) -> bool {
        self.mode() == Mode::OracleGuided && host == MULTIPLIER_HOST
    }

    /// The scheme axis: technique plus how its key width is picked.
    fn schemes(self) -> &'static [(&'static str, Width)] {
        match self {
            Workload::OlSweep => &[
                ("sarlock", Width::TableI),
                ("antisat", Width::TableI),
                ("genantisat", Width::TableI),
                ("ttlock", Width::TableI),
                ("cac", Width::TableI),
                ("caslock", Width::Fixed(32)),
                ("sfll-hd", Width::Fixed(32)),
            ],
            Workload::OgDflt => &[("ttlock", Width::TableI), ("cac", Width::TableI)],
            // TTLock and CAC are left out: their DIP counts, and with them
            // their cells' cost (10 ms to 1 s), depend on the planted secret
            // and moved the median latency by a quarter from seed to seed.
            Workload::SatCampaign => &[
                ("sarlock", Width::Fixed(8)),
                ("antisat", Width::Fixed(8)),
                ("rll", Width::Fixed(8)),
            ],
            Workload::OgSfll => &[("sfll-hd", Width::Fixed(32))],
        }
    }

    /// Whether the workload locks `host`.
    fn uses_host(self, host: &str) -> bool {
        self.mode() != Mode::Campaign || host != MULTIPLIER_HOST
    }
}

/// The `seed` parameter of one locked instance: a SplitMix64 mix of the
/// workload seed, a salt naming the grid slot and the replica index.
fn spec_seed(workload_seed: u64, salt: u64, replica: usize) -> u64 {
    let mut z = workload_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(replica as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    // Kept below 2^32 so specs stay short to read.
    (z ^ (z >> 31)) & 0xffff_ffff
}

/// The spec of `technique` at `width` key bits and `seed`.
fn spec(technique: &str, width: usize, seed: u64) -> SchemeSpec {
    SchemeSpec::new(technique)
        .expect("workload techniques are registered")
        .with_param("k", width as u64)
        .with_param("seed", seed)
}

/// The workload's hosts: the Table-I circuits it locks.
pub fn hosts(workload: Workload) -> Vec<CampaignHost> {
    table1_circuits(SCALE)
        .into_iter()
        .filter(|row| workload.uses_host(row.name))
        .map(|row| CampaignHost::new(row.name, row.circuit, row.key_bits))
        .collect()
}

/// The campaign's scheme axis (shared by every host, as a campaign's axes
/// are): one spec per technique and replica.
pub(crate) fn campaign_specs(workload: Workload, seed: u64) -> Vec<SchemeSpec> {
    workload
        .schemes()
        .iter()
        .enumerate()
        .flat_map(|(salt, &(technique, width))| {
            let Width::Fixed(width) = width else {
                unreachable!("campaign schemes pin their key width")
            };
            (0..CAMPAIGN_REPLICAS)
                .map(move |replica| spec(technique, width, spec_seed(seed, salt as u64, replica)))
        })
        .collect()
}

/// The workload's locked instances as (host index, spec), in cell order:
/// host-major, then scheme, then replica. Campaign workloads use the
/// campaign's own job order (host-major, then spec).
pub fn grid(workload: Workload, seed: u64, hosts: &[CampaignHost]) -> Vec<(usize, SchemeSpec)> {
    if workload.mode() == Mode::Campaign {
        let specs = campaign_specs(workload, seed);
        return (0..hosts.len())
            .flat_map(|h| specs.iter().map(move |s| (h, s.clone())))
            .collect();
    }
    let schemes = workload.schemes();
    let mut cells = Vec::new();
    for (h, host) in hosts.iter().enumerate() {
        for (s, &(technique, width)) in schemes.iter().enumerate() {
            let width = match width {
                Width::TableI => host.default_key_bits,
                Width::Fixed(k) => k,
            };
            for replica in 0..workload.replicas(&host.name) {
                let salt = (h * schemes.len() + s) as u64;
                let seed = spec_seed(seed, salt, replica);
                cells.push((h, spec(technique, width, seed)));
            }
        }
    }
    cells
}

/// Resynthesises a locked instance the way the campaign presets do: medium
/// effort, seeded from the planted secret so distinct instances take
/// distinct shapes.
fn resynthesize_locked(mut locked: LockedCircuit) -> Result<LockedCircuit, AttackError> {
    let seed = locked
        .secret
        .bits()
        .iter()
        .fold(0x5eedu64, |acc, &bit| acc << 1 ^ acc >> 61 ^ u64::from(bit));
    locked.circuit = resynthesize(
        &locked.circuit,
        &ResynthesisOptions::with_seed(seed).effort(Effort::Medium),
    )
    .map_err(|e| AttackError::Other(format!("resynthesis failed: {e}")))?;
    Ok(locked)
}

/// The resynthesis step as a campaign prepare hook.
pub(crate) fn resynthesis_prepare() -> (String, PrepareHook) {
    (
        "resynth-medium".to_string(),
        Arc::new(resynthesize_locked) as PrepareHook,
    )
}

/// One locked instance of a corpus.
#[derive(Debug)]
pub struct Instance {
    /// Index into [`Corpus::hosts`].
    pub host: usize,
    /// The spec the instance was locked from (key width resolved).
    pub spec: SchemeSpec,
    /// The resynthesised locked netlist and its planted secret.
    pub locked: LockedCircuit,
}

impl Instance {
    /// `host/spec`, the cell name the output reports.
    pub fn name(&self, hosts: &[CampaignHost]) -> String {
        format!("{}/{}", hosts[self.host].name, self.spec)
    }
}

/// A prepared corpus: what the timed phase attacks.
pub struct Corpus {
    /// The workload the corpus was built for.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The hosts.
    pub hosts: Vec<CampaignHost>,
    /// The locked instances, in cell (or campaign job) order.
    pub instances: Vec<Instance>,
    /// One oracle per host (oracle-guided and campaign workloads).
    pub oracles: Vec<Oracle>,
    /// The campaign's corpus cache, pre-filled (campaign workloads).
    pub cache: Option<CorpusCache>,
}

/// Builds the workload's corpus from its seed. With a recorder, every call
/// into a set-up layer is recorded as a span.
///
/// # Errors
///
/// Reports the first instance that fails to lock or resynthesise.
pub fn build(workload: Workload, seed: u64, recorder: Option<&Recorder>) -> Result<Corpus, String> {
    let registry = scheme_registry();
    let hosts = spanned(recorder, "setup.gen", || hosts(workload));
    let grid = grid(workload, seed, &hosts);
    // Locks and resynthesises one instance, each step its own span.
    let prepare = |h: usize, spec: &SchemeSpec| -> Result<LockedCircuit, String> {
        let name = || format!("{}/{spec}", hosts[h].name);
        let locked = spanned(recorder, "setup.lock", || {
            registry.lock(spec, &hosts[h].circuit)
        })
        .map_err(|e| format!("{}: {e}", name()))?;
        spanned(recorder, "setup.resynth", || resynthesize_locked(locked))
            .map_err(|e| format!("{}: {e}", name()))
    };

    let (instances, cache) = if workload.mode() == Mode::Campaign {
        if recorder.is_some() {
            // The cache locks, resynthesises and lints inside one call; the
            // traced run makes the same three calls one by one to time them.
            for (h, spec) in &grid {
                let locked = prepare(*h, spec)?;
                spanned(recorder, "setup.lint", || {
                    kratt_lint::lint_locked(&hosts[*h].circuit, &locked.circuit)
                });
            }
        }
        prefill_cache(&registry, &hosts, &grid)?
    } else {
        let instances = grid
            .into_iter()
            .map(|(host, spec)| {
                let locked = prepare(host, &spec)?;
                Ok(Instance { host, spec, locked })
            })
            .collect::<Result<_, String>>()?;
        (instances, None)
    };

    let oracles = if workload.mode() == Mode::OracleLess {
        Vec::new()
    } else {
        spanned(recorder, "setup.oracle", || {
            hosts
                .iter()
                .map(|host| Oracle::new((*host.circuit).clone()).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()
        })?
    };
    Ok(Corpus {
        workload,
        seed,
        hosts,
        instances,
        oracles,
        cache,
    })
}

/// Pre-fills a campaign's corpus cache (lock, resynthesise, lint stamp) so
/// the timed campaign only ever hits it.
fn prefill_cache(
    registry: &SchemeRegistry,
    hosts: &[CampaignHost],
    grid: &[(usize, SchemeSpec)],
) -> Result<(Vec<Instance>, Option<CorpusCache>), String> {
    let cache = CorpusCache::new();
    let prepare = resynthesis_prepare();
    let mut instances = Vec::with_capacity(grid.len());
    for (h, spec) in grid {
        let entry = cache
            .get_or_lock(registry, &hosts[*h], spec, Some(&prepare))
            .map_err(|e| format!("{}/{spec}: {e}", hosts[*h].name))?;
        instances.push(Instance {
            host: *h,
            spec: spec.clone(),
            locked: entry.locked.clone(),
        });
    }
    Ok((instances, Some(cache)))
}

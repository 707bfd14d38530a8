//! The campaign front end over the paper's benchmark hosts: the glue between
//! the generic lock → attack → verify pipeline in `kratt_attacks::campaign`
//! and the Table-I circuits, the paper's resynthesis step and the
//! experiment environment knobs.
//!
//! The `campaign` binary is the one campaign front end, and this module is
//! what it resolves a campaign value with: the presets
//! ([`build_campaign`]), the spec-file grammar ([`CampaignSpecFile`]), the
//! preset-or-file lookup ([`resolve_campaign`]) and the streaming runner
//! ([`run_campaign_with_output`]). `run_table3` renders the `table3`
//! preset, and the CI `campaign` job gates on the `smoke` preset's
//! verification verdicts.
//!
//! # Spec-file grammar
//!
//! Line-based, one directive per line, `#` starts a comment:
//!
//! ```text
//! # attacks × schemes over two Table-I hosts, resumable
//! scheme      sarlock
//! scheme      ttlock:k=16
//! host        c1355
//! host        c1908
//! attack      sat
//! attack      kratt
//! budget-secs 10          # per-cell wall-clock limit
//! workers     4           # optional; defaults to all CPUs
//! journal     run.jsonl   # optional; enables crash-resume
//! ```
//!
//! `scheme`, `host` and `attack` repeat; the other directives appear at most
//! once. Host names are resolved against the Table-I hosts (scaled by
//! `KRATT_SCALE`). A spec file runs under the presets' [`campaign_budget`],
//! `budget-secs` replacing only its wall-clock limit, and skips the
//! resynthesis step.

use crate::ExperimentOptions;
use kratt_attacks::{
    AttackError, Budget, Campaign, CampaignBuilder, CampaignHost, CampaignReport, CorpusCache,
};
use kratt_benchmarks::table1_circuits;
use kratt_locking::{scheme_registry, LockedCircuit};
use kratt_synth::{resynthesize, Effort, ResynthesisOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The campaign presets the suite ships.
pub const CAMPAIGN_PRESETS: [&str; 2] = ["table3", "smoke"];

/// The Table-I hosts as campaign hosts (name, circuit, Table-I key width).
pub fn campaign_hosts(options: &ExperimentOptions) -> Vec<CampaignHost> {
    table1_circuits(options.scale)
        .into_iter()
        .map(|row| CampaignHost::new(row.name, row.circuit, row.key_bits))
        .collect()
}

/// The paper's post-lock resynthesis step (Cadence Genus in the original,
/// `kratt-synth` here) as a campaign prepare hook. The tag keys the corpus
/// cache so raw and resynthesised instances never collide.
pub fn resynthesis_prepare() -> (String, kratt_attacks::PrepareHook) {
    let hook = Arc::new(|mut locked: LockedCircuit| {
        // Seed the resynthesis from the planted secret so distinct instances
        // take distinct netlist shapes, deterministically.
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
    });
    ("resynth-medium".to_string(), hook)
}

/// The per-cell budget of every campaign the front end runs: the
/// experiment budget (`KRATT_BUDGET_SECS`) as the wall clock, and at most
/// 10,000 iterations.
pub fn campaign_budget(options: &ExperimentOptions) -> Budget {
    Budget {
        time_limit: Some(options.baseline_budget),
        max_iterations: 10_000,
        ..Budget::default()
    }
}

/// Configures a named preset campaign over the experiment options: its
/// grid, its budget ([`campaign_budget`]) and the paper's resynthesis of
/// every locked instance ([`resynthesis_prepare`]).
///
/// * `table3` — the four table techniques × all six Table-I hosts × the
///   SAT/DDIP/AppSAT/KRATT attacks (what [`crate::run_table3`] renders).
/// * `smoke` — SARLock and TTLock × the SAT and KRATT attacks on the first
///   two Table-I hosts, at 16-bit keys so a tight budget still finishes:
///   the CI gate.
///
/// # Errors
///
/// Returns [`AttackError::Other`] naming the known presets for an unknown
/// name.
pub fn build_campaign(
    preset: &str,
    options: &ExperimentOptions,
) -> Result<CampaignBuilder, AttackError> {
    let hosts = || campaign_hosts(options);
    let builder = match preset {
        "table3" => Campaign::builder()
            .spec_strs(["antisat", "sarlock", "cac", "ttlock"])
            .hosts(hosts())
            .attacks(["sat", "double-dip", "appsat", "kratt"]),
        "smoke" => Campaign::builder()
            .spec_strs(["sarlock", "ttlock"])
            .hosts(hosts().into_iter().take(2).map(|host| CampaignHost {
                default_key_bits: 16,
                ..host
            }))
            .attacks(["sat", "kratt"]),
        other => {
            return Err(AttackError::Other(format!(
                "no campaign preset named `{other}` (known: {})",
                CAMPAIGN_PRESETS.join(", ")
            )))
        }
    };
    let (tag, hook) = resynthesis_prepare();
    Ok(builder.budget(campaign_budget(options)).prepare(tag, hook))
}

/// Builds and runs a preset campaign through the full registries.
///
/// # Errors
///
/// Propagates unknown presets and unknown attack names.
pub fn run_campaign_preset(
    preset: &str,
    options: &ExperimentOptions,
) -> Result<CampaignReport, AttackError> {
    build_campaign(preset, options)?.build()?.run(
        &kratt::attack_registry(),
        &scheme_registry(),
        &CorpusCache::new(),
    )
}

/// A parsed campaign spec file. See the module docs for the grammar.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignSpecFile {
    /// Scheme specs, verbatim (`sarlock`, `ttlock:k=16`, ...).
    pub schemes: Vec<String>,
    /// Host names, resolved against the host pool at build time.
    pub hosts: Vec<String>,
    /// Attack registry names.
    pub attacks: Vec<String>,
    /// Per-cell wall-clock limit in seconds (the default budget's when
    /// absent).
    pub budget_secs: Option<u64>,
    /// Worker-thread count (all CPUs when absent).
    pub workers: Option<usize>,
    /// Journal path; present enables crash-resume.
    pub journal: Option<PathBuf>,
}

impl CampaignSpecFile {
    /// Parses the spec-file text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for unknown directives,
    /// missing values and repeated singleton directives.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut spec = CampaignSpecFile::default();
        for (index, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = index + 1;
            let (directive, value) = line
                .split_once(char::is_whitespace)
                .map(|(d, v)| (d, v.trim()))
                .ok_or_else(|| {
                    format!("line {lineno}: expected `<directive> <value>`, got `{line}`")
                })?;
            let singleton_once = |slot_taken: bool| -> Result<(), String> {
                if slot_taken {
                    Err(format!("line {lineno}: `{directive}` may appear only once"))
                } else {
                    Ok(())
                }
            };
            match directive {
                "scheme" => spec.schemes.push(value.to_string()),
                "host" => spec.hosts.push(value.to_string()),
                "attack" => spec.attacks.push(value.to_string()),
                "budget-secs" => {
                    singleton_once(spec.budget_secs.is_some())?;
                    spec.budget_secs = Some(value.parse().map_err(|_| {
                        format!("line {lineno}: `budget-secs` expects seconds, got `{value}`")
                    })?);
                }
                "workers" => {
                    singleton_once(spec.workers.is_some())?;
                    spec.workers = Some(value.parse().map_err(|_| {
                        format!("line {lineno}: `workers` expects a thread count, got `{value}`")
                    })?);
                }
                "journal" => {
                    singleton_once(spec.journal.is_some())?;
                    spec.journal = Some(PathBuf::from(value));
                }
                other => {
                    return Err(format!(
                        "line {lineno}: unknown directive `{other}` (expected scheme, host, \
                         attack, budget-secs, workers or journal)"
                    ));
                }
            }
        }
        Ok(spec)
    }

    /// Configures the spec's campaign, resolving host names against
    /// `host_pool`. `budget-secs` replaces only the wall-clock limit of
    /// `budget`; its other caps stay.
    ///
    /// # Errors
    ///
    /// Unknown host names (listing the pool).
    pub fn into_builder(
        self,
        host_pool: &[CampaignHost],
        mut budget: Budget,
    ) -> Result<CampaignBuilder, String> {
        let mut hosts = Vec::new();
        for name in &self.hosts {
            let host = host_pool
                .iter()
                .find(|host| &host.name == name)
                .cloned()
                .ok_or_else(|| {
                    let known: Vec<&str> =
                        host_pool.iter().map(|host| host.name.as_str()).collect();
                    format!("unknown host `{name}` (available: {})", known.join(", "))
                })?;
            hosts.push(host);
        }
        if let Some(seconds) = self.budget_secs {
            budget.time_limit = Some(Duration::from_secs(seconds));
        }
        let mut builder = Campaign::builder()
            .spec_strs(self.schemes.iter().map(String::as_str))
            .hosts(hosts)
            .attacks(self.attacks)
            .budget(budget);
        if let Some(workers) = self.workers {
            builder = builder.workers(workers);
        }
        if let Some(journal) = self.journal {
            builder = builder.journal(journal);
        }
        Ok(builder)
    }
}

/// Resolves a campaign value: a path to an existing file is parsed as a
/// campaign spec file over the Table-I hosts, anything else is looked up as
/// a preset ([`build_campaign`]).
///
/// # Errors
///
/// Unreadable/invalid spec files (prefixed with the path) and unknown
/// presets.
pub fn resolve_campaign(
    value: &str,
    options: &ExperimentOptions,
) -> Result<CampaignBuilder, String> {
    if Path::new(value).is_file() {
        let text = std::fs::read_to_string(value)
            .map_err(|e| format!("cannot read campaign spec `{value}`: {e}"))?;
        CampaignSpecFile::parse(&text)
            .and_then(|spec| spec.into_builder(&campaign_hosts(options), campaign_budget(options)))
            .map_err(|e| format!("{value}: {e}"))
    } else {
        build_campaign(value, options).map_err(|e| format!("{e}; or pass a spec-file path"))
    }
}

/// Runs a campaign through the full registries: with `stream`, every
/// verdict cell prints to stdout as a JSON line the moment it commits
/// (journal replays first, then fresh cells in completion order), closed by
/// one `{"type":"summary",...}` record. The full report is returned either
/// way for the non-streaming renders and the exit-code policy.
///
/// # Errors
///
/// Stringifies every [`AttackError`] the run raises (unknown attack names,
/// stale journals, ...).
pub fn run_campaign_with_output(
    campaign: &Campaign,
    stream: bool,
) -> Result<CampaignReport, String> {
    let corpus = CorpusCache::new();
    let attack_registry = kratt::attack_registry();
    let scheme_registry = scheme_registry();
    let report = if stream {
        campaign.run_observed(&attack_registry, &scheme_registry, &corpus, &|cell| {
            println!("{}", cell.to_json_line());
        })
    } else {
        campaign.run(&attack_registry, &scheme_registry, &corpus)
    }
    .map_err(|e| e.to_string())?;
    if stream {
        println!("{}", report.summary_json());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::{Circuit, GateType};

    fn tiny_options() -> ExperimentOptions {
        ExperimentOptions {
            scale: 0.02,
            baseline_budget: Duration::from_millis(300),
            fig6_variants: 2,
        }
    }

    fn pool() -> Vec<CampaignHost> {
        let mut c = Circuit::new("tiny");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_gate(GateType::And, "g", &[a, b]).unwrap();
        c.mark_output(g);
        vec![
            CampaignHost::new("tiny", c.clone(), 4),
            CampaignHost::new("tiny2", c, 4),
        ]
    }

    #[test]
    fn presets_expand_to_the_documented_grids() {
        let options = tiny_options();
        let table3 = build_campaign("table3", &options).unwrap().build().unwrap();
        assert_eq!(table3.schemes.len(), 4);
        assert_eq!(table3.hosts.len(), 6);
        assert_eq!(table3.attacks.len(), 4);
        assert!(table3.prepare.is_some());
        let smoke = build_campaign("smoke", &options).unwrap().build().unwrap();
        assert_eq!(smoke.num_cells(), 2 * 2 * 2);
        assert!(build_campaign("frobnicate", &options).is_err());
    }

    #[test]
    fn smoke_preset_host_policy_is_owned_by_the_preset() {
        // The first two Table-I hosts at 16-bit keys, whatever width Table I
        // gives them.
        let options = tiny_options();
        let smoke = build_campaign("smoke", &options).unwrap().build().unwrap();
        let table1: Vec<String> = campaign_hosts(&options)
            .into_iter()
            .map(|host| host.name)
            .collect();
        let hosts: Vec<&str> = smoke.hosts.iter().map(|host| host.name.as_str()).collect();
        assert_eq!(hosts, table1[..2]);
        assert!(smoke.hosts.iter().all(|host| host.default_key_bits == 16));
        assert_eq!(smoke.attacks, ["sat", "kratt"]);
    }

    #[test]
    fn report_json_and_presets_are_well_formed() {
        // Every preset runs under the one campaign budget and resynthesises
        // its instances; an unknown name lists the presets.
        let options = tiny_options();
        for preset in CAMPAIGN_PRESETS {
            let campaign = build_campaign(preset, &options).unwrap().build().unwrap();
            assert_eq!(campaign.budget.time_limit, Some(options.baseline_budget));
            assert_eq!(campaign.budget.max_iterations, 10_000);
            let tag = campaign.prepare.as_ref().map(|(tag, _)| tag.as_str());
            assert_eq!(tag, Some("resynth-medium"), "{preset}");
        }
        let e = build_campaign("nope", &options).err().unwrap().to_string();
        assert!(e.contains("known: table3, smoke"), "{e}");
    }

    #[test]
    fn smoke_campaign_runs_and_all_exact_claims_verify() {
        let report = run_campaign_preset("smoke", &tiny_options()).unwrap();
        assert_eq!(report.cells.len(), 8);
        // Locking happened once per (host, scheme) pair despite two attacks.
        assert_eq!(report.locked_instances, 4);
        assert_eq!(
            report.unverified_exact_claims(),
            0,
            "every claimed key must verify against the planted secret:\n{}",
            report.render()
        );
    }

    #[test]
    fn spec_file_grammar_round_trips() {
        let spec = CampaignSpecFile::parse(
            "# demo\n\
             scheme sarlock\n\
             scheme ttlock:k=8   # inline comment\n\
             host tiny\n\
             attack sat\n\
             attack kratt\n\
             budget-secs 7\n\
             workers 3\n\
             journal run.jsonl\n",
        )
        .unwrap();
        assert_eq!(spec.schemes, ["sarlock", "ttlock:k=8"]);
        assert_eq!(spec.hosts, ["tiny"]);
        assert_eq!(spec.attacks, ["sat", "kratt"]);
        assert_eq!(spec.budget_secs, Some(7));
        assert_eq!(spec.workers, Some(3));
        assert_eq!(spec.journal.as_deref(), Some(Path::new("run.jsonl")));

        let campaign = spec
            .into_builder(&pool(), Budget::default())
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(campaign.num_cells(), 4); // 2 schemes x 1 host x 2 attacks
        assert_eq!(campaign.workers, Some(3));
        assert_eq!(campaign.journal.as_deref(), Some(Path::new("run.jsonl")));
    }

    #[test]
    fn budget_secs_keeps_the_default_iteration_cap() {
        let spec =
            CampaignSpecFile::parse("scheme sarlock\nhost tiny\nattack sat\nbudget-secs 7\n")
                .unwrap();
        let default = campaign_budget(&tiny_options());
        let campaign = spec
            .into_builder(&pool(), default.clone())
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(campaign.budget.time_limit, Some(Duration::from_secs(7)));
        assert_eq!(campaign.budget.max_iterations, default.max_iterations);
        assert_eq!(
            campaign.budget.max_oracle_queries,
            default.max_oracle_queries
        );
    }

    #[test]
    fn spec_file_errors_name_the_line() {
        let e = CampaignSpecFile::parse("scheme sarlock\nfrobnicate yes\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        assert!(e.contains("frobnicate"), "{e}");
        let e = CampaignSpecFile::parse("budget-secs 1\nbudget-secs 2\n").unwrap_err();
        assert!(e.contains("only once"), "{e}");
        let e = CampaignSpecFile::parse("scheme\n").unwrap_err();
        assert!(e.contains("<directive> <value>"), "{e}");
    }

    #[test]
    fn unknown_hosts_and_presets_are_reported() {
        let spec = CampaignSpecFile::parse("scheme sarlock\nhost nope\nattack sat\n").unwrap();
        let e = spec.into_builder(&pool(), Budget::default()).err().unwrap();
        assert!(e.contains("unknown host `nope`"), "{e}");
        assert!(e.contains("tiny, tiny2"), "{e}");

        let e = resolve_campaign("no-such-preset", &tiny_options())
            .err()
            .unwrap();
        assert!(e.contains("no-such-preset"), "{e}");
    }
}

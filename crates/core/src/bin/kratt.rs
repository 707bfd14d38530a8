//! Command-line front end for the attack suite, mirroring how the original
//! tool is driven: point it at a locked netlist (and optionally an oracle
//! netlist), pick an attack by registry name, get the recovered key.
//!
//! ```text
//! kratt --locked locked.bench                        # oracle-less KRATT attack
//! kratt --locked locked.v --oracle original.bench    # oracle-guided KRATT attack
//! kratt --locked locked.bench --oracle orig.bench --attack sat --json
//! kratt --locked locked.bench --qdimacs unit.qdimacs # also dump the QBF instance
//! kratt --locked locked.bench --oracle orig.bench \
//!       --reconstruct rebuilt.bench                  # §V original-circuit reconstruction
//! kratt --locked original.bench --scheme antisat:k=16,seed=7
//!                                                    # lock on the fly, attack, verify
//! kratt --list-attacks / --list-schemes              # enumerate both registries
//! kratt --locked locked.bench --lint                 # static lint instead of an attack
//! kratt --locked locked.bench --analyze unateness    # dump per-output dataflow facts
//! ```
//!
//! Netlist formats are chosen by file extension: `.v`/`.verilog` is parsed as
//! structural Verilog, everything else as ISCAS `.bench`. Campaigns (lock →
//! attack → verify matrices) run through the `kratt-bench` `campaign` binary.

use kratt::og::{recover_protected_patterns, StructuralAnalysisConfig};
use kratt::reconstruct::reconstruct_original_from_patterns;
use kratt::removal::remove_locking_unit;
use kratt_attacks::campaign::equivalent_to;
use kratt_attacks::portfolio::parse_member_spec;
use kratt_attacks::{
    Attack, AttackError, AttackOutcome, AttackRequest, Budget, Oracle, PortfolioAttack,
};
use kratt_dataflow::ternary::cofactors;
use kratt_dataflow::{
    lit_value, propagate, KeySupport, ObservabilityAnalysis, ProbabilityAnalysis, Ternary,
    Unateness, UnatenessAnalysis,
};
use kratt_locking::{scheme_registry, SchemeSpec};
use kratt_netlist::{bench, verilog, Aig, AigLit, Circuit};
use kratt_qbf::qdimacs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
struct CliOptions {
    locked: Option<PathBuf>,
    oracle: Option<PathBuf>,
    attack: String,
    portfolio_members: Option<Vec<String>>,
    scheme: Option<String>,
    list_attacks: bool,
    list_schemes: bool,
    qdimacs: Option<PathBuf>,
    reconstruct: Option<PathBuf>,
    time_limit: Option<u64>,
    lint: bool,
    analyze: Option<String>,
    list_domains: bool,
    json: bool,
    help: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            locked: None,
            oracle: None,
            attack: "kratt".to_string(),
            portfolio_members: None,
            scheme: None,
            list_attacks: false,
            list_schemes: false,
            qdimacs: None,
            reconstruct: None,
            time_limit: None,
            lint: false,
            analyze: None,
            list_domains: false,
            json: false,
            help: false,
        }
    }
}

impl CliOptions {
    /// Whether the invocation runs without a `--locked` netlist.
    fn is_standalone(&self) -> bool {
        self.help || self.list_attacks || self.list_schemes || self.list_domains
    }
}

const USAGE: &str = "\
KRATT — QBF-assisted removal and structural analysis attack against logic locking

USAGE:
    kratt --locked <NETLIST> [OPTIONS]
    kratt --list-attacks | --list-schemes | --list-domains

OPTIONS:
    --locked <PATH>        locked netlist (.bench, or .v for structural Verilog); with
                           --scheme, the *original* netlist to lock on the fly  [required]
    --oracle <PATH>        original netlist used as the functional-IC oracle (enables the
                           oracle-guided threat model)
    --attack <NAME>        attack to run, resolved through the registry: kratt (default),
                           sat, double-dip, appsat, fall, removal, scope, portfolio
                           (race several engines, first SAT-verified exact key wins)
    --portfolio-members <LIST>
                           comma-separated member engines of --attack portfolio
                           (default kratt,sat,appsat)
    --scheme <SPEC>        lock the input with a scheme spec (e.g. antisat:k=16,seed=7),
                           attack the planted instance oracle-guided, and verify any
                           claimed key against the planted secret
    --list-attacks         print the attack registry and exit
    --list-schemes         print the scheme registry (with spec grammar) and exit
    --json                 print the attack run as a machine-readable JSON report
    --qdimacs <PATH>       write the extracted locking unit's \u{2203}K \u{2200}PPI instance in QDIMACS
    --reconstruct <PATH>   recover the protected patterns with the oracle and write the
                           reconstructed original circuit as .bench (requires --oracle;
                           the recovery runs on a --time-limit clock of its own, and
                           when it recovers no pattern nothing is written and the exit
                           code is 1)
    --lint                 run the kratt-lint static rule catalogue on the netlist instead
                           of an attack and exit nonzero on error-level findings; with
                           --oracle, also check interface drift against that original
    --analyze <DOMAIN>     dump per-output facts from one kratt-dataflow abstract domain
                           instead of running an attack: ternary, support, unateness,
                           probability, odc
    --list-domains         print the analysis domains and exit
    --time-limit <SECS>    shared wall-clock budget of the whole attack (default 60)
    --help                 print this message
";

/// Parses the argument list (everything after the program name).
fn parse_args<I, S>(args: I) -> Result<CliOptions, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut options = CliOptions::default();
    let mut iter = args.into_iter().map(Into::into);
    while let Some(flag) = iter.next() {
        let mut path_value = |name: &str| -> Result<PathBuf, String> {
            iter.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--locked" => options.locked = Some(path_value("--locked")?),
            "--oracle" => options.oracle = Some(path_value("--oracle")?),
            "--attack" => {
                options.attack = iter
                    .next()
                    .ok_or("--attack expects a registry name".to_string())?;
            }
            "--portfolio-members" => {
                let value = iter
                    .next()
                    .ok_or("--portfolio-members expects a comma-separated list".to_string())?;
                options.portfolio_members = Some(parse_member_spec(&value));
            }
            "--scheme" => {
                options.scheme = Some(iter.next().ok_or(
                    "--scheme expects a spec like technique:k=<bits>,seed=<n>".to_string(),
                )?);
            }
            "--list-attacks" => options.list_attacks = true,
            "--list-schemes" => options.list_schemes = true,
            "--qdimacs" => options.qdimacs = Some(path_value("--qdimacs")?),
            "--reconstruct" => options.reconstruct = Some(path_value("--reconstruct")?),
            "--time-limit" => {
                let value = iter.next().ok_or("--time-limit expects a value")?;
                let seconds: u64 = value.parse().map_err(|_| {
                    format!("--time-limit expects a number of seconds, got `{value}`")
                })?;
                options.time_limit = Some(seconds);
            }
            "--lint" => options.lint = true,
            "--analyze" => {
                options.analyze =
                    Some(iter.next().ok_or(
                        "--analyze expects a domain name (see --list-domains)".to_string(),
                    )?);
            }
            "--list-domains" => options.list_domains = true,
            "--json" => options.json = true,
            "--help" | "-h" => options.help = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if !options.is_standalone() && options.locked.is_none() {
        return Err("--locked <NETLIST> is required".to_string());
    }
    if options.scheme.is_some() && options.locked.is_none() {
        return Err("--scheme needs --locked <NETLIST> (the original design to lock)".to_string());
    }
    if options.scheme.is_some() && options.oracle.is_some() {
        return Err(
            "--scheme locks the --locked netlist itself; it already serves as the oracle"
                .to_string(),
        );
    }
    if options.portfolio_members.is_some() && options.attack != "portfolio" {
        return Err(
            "--portfolio-members names the members of --attack portfolio; it requires it"
                .to_string(),
        );
    }
    if options.reconstruct.is_some() && options.oracle.is_none() {
        return Err(
            "--reconstruct requires --oracle (the patterns are recovered with it)".to_string(),
        );
    }
    if options.lint
        && (options.scheme.is_some() || options.qdimacs.is_some() || options.reconstruct.is_some())
    {
        return Err("--lint runs no attack; it combines only with --oracle and --json".to_string());
    }
    if options.analyze.is_some()
        && (options.lint
            || options.oracle.is_some()
            || options.scheme.is_some()
            || options.qdimacs.is_some()
            || options.reconstruct.is_some())
    {
        return Err("--analyze runs no attack; it combines only with --json".to_string());
    }
    Ok(options)
}

/// Reads a netlist, dispatching on the file extension.
fn read_netlist(path: &Path) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let is_verilog = path
        .extension()
        .and_then(|e| e.to_str())
        .map(|e| e.eq_ignore_ascii_case("v") || e.eq_ignore_ascii_case("verilog"))
        .unwrap_or(false);
    if is_verilog {
        verilog::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    } else {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("locked");
        bench::parse(name, &text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The shared budget of the run: `--time-limit` replaces the default
/// one-minute wall clock, everything else stays at the defaults.
fn budget(time_limit: Option<u64>) -> Budget {
    match time_limit {
        Some(seconds) => Budget::with_time_limit(Duration::from_secs(seconds)),
        None => Budget::default(),
    }
}

/// The abstract domains `--analyze` can dump, with the one-line summaries
/// `--list-domains` prints.
const ANALYZE_DOMAINS: [(&str, &str); 5] = [
    (
        "ternary",
        "0/1/X constant propagation under each key-bit cofactor",
    ),
    (
        "support",
        "key-bit support and data dependence of every output",
    ),
    (
        "unateness",
        "structural polarity of every output in every key bit",
    ),
    (
        "probability",
        "signal probability of every output under uniform inputs",
    ),
    (
        "odc",
        "key logic made unobservable by each key-bit cofactor",
    ),
];

/// Prints the registries (`--list-attacks` / `--list-schemes` /
/// `--list-domains`).
fn list_registries(options: &CliOptions) {
    if options.list_attacks {
        println!("attacks (--attack <NAME>):");
        for name in kratt::attack_registry().names() {
            println!("    {name}");
        }
    }
    if options.list_schemes {
        let registry = scheme_registry();
        println!("schemes (--scheme <SPEC>, spec grammar: technique[:name=value,...]):");
        for name in registry.names() {
            println!(
                "    {name:<12} {}",
                registry.summary(name).unwrap_or_default()
            );
        }
        println!("    every technique also takes seed=<n> (secret-key derivation, default 0)");
    }
    if options.list_domains {
        println!("analysis domains (--analyze <DOMAIN>):");
        for (name, summary) in ANALYZE_DOMAINS {
            println!("    {name:<12} {summary}");
        }
    }
}

/// The attack to run: `--attack` resolved through the registry, or, with
/// `--portfolio-members`, a portfolio racing exactly those members.
///
/// # Errors
///
/// An unknown `--attack` name, or a member list the portfolio rejects
/// (empty, an unknown or duplicate name, or `portfolio` itself).
fn build_attack(options: &CliOptions) -> Result<Box<dyn Attack>, AttackError> {
    let registry = kratt::attack_registry();
    match &options.portfolio_members {
        Some(members) => Ok(Box::new(PortfolioAttack::from_registry(
            &registry, members,
        )?)),
        None => registry.build(&options.attack),
    }
}

/// Runs the static linter on the input netlist instead of an attack
/// (`--lint`). With `--oracle` the oracle netlist is treated as the
/// pre-locking original, which arms the interface-drift comparison and
/// the key-reachability rules against the right baseline. Error-level
/// findings make the run fail so scripts and CI can gate on them.
fn run_lint(options: &CliOptions) -> Result<(), String> {
    let path = options.locked.as_ref().expect("validated by parse_args");
    let circuit = read_netlist(path)?;
    let report = match &options.oracle {
        Some(oracle_path) => {
            let original = read_netlist(oracle_path)?;
            kratt_lint::lint_locked(&original, &circuit)
        }
        None => kratt_lint::lint_circuit(&circuit),
    };
    if options.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.has_errors() {
        return Err(format!(
            "lint found {} error-level diagnostic(s) in `{}`",
            report.count(kratt_lint::Severity::Error),
            report.subject
        ));
    }
    Ok(())
}

/// A JSON string literal with the two-character escapes and control-character
/// escapes applied (net names never need more).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The display glyph of a ternary value.
fn ternary_glyph(value: Ternary) -> &'static str {
    match value {
        Ternary::Zero => "0",
        Ternary::One => "1",
        Ternary::X => "X",
    }
}

/// The display name of a unateness class.
fn unateness_name(class: Unateness) -> &'static str {
    match class {
        Unateness::Independent => "independent",
        Unateness::Positive => "positive",
        Unateness::Negative => "negative",
        Unateness::Binate => "binate",
    }
}

/// Runs one abstract domain over the input netlist and dumps the per-output
/// facts (`--analyze <DOMAIN>`), as text or as one JSON object with
/// `--json`. Key inputs are recognised by the `keyinput*` convention, like
/// everywhere else in the suite.
fn run_analyze(options: &CliOptions, domain: &str) -> Result<(), String> {
    if !ANALYZE_DOMAINS.iter().any(|(name, _)| *name == domain) {
        return Err(format!(
            "unknown analysis domain `{domain}` (known domains: {})",
            ANALYZE_DOMAINS.map(|(name, _)| name).join(", ")
        ));
    }
    let path = options.locked.as_ref().expect("validated by parse_args");
    let circuit = read_netlist(path)?;
    let aig = Aig::from_circuit(&circuit).map_err(|e| e.to_string())?;
    let support = KeySupport::compute(&aig);
    let keys: Vec<(u32, String)> = support
        .keys()
        .map(|(node, name)| (node, name.to_string()))
        .collect();
    let outs: Vec<(&String, AigLit)> = aig
        .output_names()
        .iter()
        .zip(aig.outputs().iter().copied())
        .collect();
    let stats = aig.stats();
    if !options.json {
        println!("domain         : {domain}");
        println!("netlist        : {circuit}");
        println!(
            "aig            : {} inputs, {} outputs, {} ands, {} levels, max fanout {}",
            stats.inputs, stats.outputs, stats.ands, stats.levels, stats.max_fanout
        );
    }
    let mut rows: Vec<String> = Vec::new();
    match domain {
        "ternary" => {
            // One pair of cofactor runs per key bit, shared by every output.
            let runs: Vec<(Vec<Ternary>, Vec<Ternary>)> = keys
                .iter()
                .map(|&(node, _)| cofactors(&aig, node))
                .collect();
            let unpinned = propagate(&aig, &[]);
            for (oname, olit) in &outs {
                let free = lit_value(&unpinned, *olit);
                if options.json {
                    let pairs: Vec<String> = keys
                        .iter()
                        .zip(&runs)
                        .map(|((_, kname), (zero, one))| {
                            format!(
                                "{{\"key\":{},\"zero\":\"{}\",\"one\":\"{}\"}}",
                                json_string(kname),
                                ternary_glyph(lit_value(zero, *olit)),
                                ternary_glyph(lit_value(one, *olit))
                            )
                        })
                        .collect();
                    rows.push(format!(
                        "{{\"output\":{},\"unpinned\":\"{}\",\"cofactors\":[{}]}}",
                        json_string(oname),
                        ternary_glyph(free),
                        pairs.join(",")
                    ));
                } else {
                    println!(
                        "output `{oname}` = {} with every input X",
                        ternary_glyph(free)
                    );
                    for ((_, kname), (zero, one)) in keys.iter().zip(&runs) {
                        let v0 = lit_value(zero, *olit);
                        let v1 = lit_value(one, *olit);
                        // Only the constant-bearing cofactors are facts worth
                        // a line; the JSON form carries the full table.
                        if v0.is_constant() || v1.is_constant() {
                            println!(
                                "    {kname}=0 -> {}, {kname}=1 -> {}",
                                ternary_glyph(v0),
                                ternary_glyph(v1)
                            );
                        }
                    }
                }
            }
        }
        "support" => {
            for (oname, olit) in &outs {
                let deps = support.deps(olit.node());
                let names: Vec<&str> = keys
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| support.depends_on(olit.node(), k))
                    .map(|(_, (_, name))| name.as_str())
                    .collect();
                if options.json {
                    let list: Vec<String> = names.iter().map(|n| json_string(n)).collect();
                    rows.push(format!(
                        "{{\"output\":{},\"keys\":[{}],\"data\":{}}}",
                        json_string(oname),
                        list.join(","),
                        deps.data
                    ));
                } else {
                    let kind = if deps.data {
                        "data-dependent"
                    } else if names.is_empty() {
                        "constant (no input reaches it)"
                    } else {
                        "key-only"
                    };
                    println!(
                        "output `{oname}`: {} of {} key bits [{}], {kind}",
                        names.len(),
                        keys.len(),
                        names.join(", ")
                    );
                }
            }
        }
        "unateness" => {
            let unate = UnatenessAnalysis::compute(&aig);
            for (oname, olit) in &outs {
                let classes: Vec<(&str, Unateness)> = keys
                    .iter()
                    .enumerate()
                    .map(|(k, (_, name))| (name.as_str(), unate.of_lit(*olit, k)))
                    .collect();
                if options.json {
                    let list: Vec<String> = classes
                        .iter()
                        .map(|(name, class)| {
                            format!(
                                "{{\"key\":{},\"class\":\"{}\"}}",
                                json_string(name),
                                unateness_name(*class)
                            )
                        })
                        .collect();
                    rows.push(format!(
                        "{{\"output\":{},\"unateness\":[{}]}}",
                        json_string(oname),
                        list.join(",")
                    ));
                } else {
                    let list: Vec<String> = classes
                        .iter()
                        .map(|(name, class)| format!("{name}={}", unateness_name(*class)))
                        .collect();
                    println!("output `{oname}`: {}", list.join(", "));
                }
            }
        }
        "probability" => {
            let p = ProbabilityAnalysis::compute(&aig);
            for (oname, olit) in &outs {
                let value = p.of_lit(*olit);
                if options.json {
                    rows.push(format!(
                        "{{\"output\":{},\"probability\":{value:e}}}",
                        json_string(oname)
                    ));
                } else {
                    println!("output `{oname}`: p(1) = {value:.3e} under uniform inputs");
                }
            }
        }
        "odc" => {
            // Per key-bit cofactor: which *other* key inputs no output can
            // observe any more — removal-attack material when a bit masks
            // them under both polarities.
            for (k, (node, kname)) in keys.iter().enumerate() {
                for value in [false, true] {
                    let analysis = ObservabilityAnalysis::compute(&aig, &[(*node, value)]);
                    let masked: Vec<&str> = keys
                        .iter()
                        .enumerate()
                        .filter(|&(j, (other, _))| j != k && !analysis.is_observable(*other))
                        .map(|(_, (_, name))| name.as_str())
                        .collect();
                    if options.json {
                        let list: Vec<String> = masked.iter().map(|n| json_string(n)).collect();
                        rows.push(format!(
                            "{{\"key\":{},\"value\":{},\"masked\":[{}]}}",
                            json_string(kname),
                            u8::from(value),
                            list.join(",")
                        ));
                    } else if masked.is_empty() {
                        println!("{kname}={} masks no other key input", u8::from(value));
                    } else {
                        println!("{kname}={} masks [{}]", u8::from(value), masked.join(", "));
                    }
                }
            }
        }
        _ => unreachable!("domain validated above"),
    }
    if options.json {
        let field = if domain == "odc" {
            "cofactors"
        } else {
            "outputs"
        };
        println!(
            "{{\"domain\":\"{domain}\",\"subject\":{},\"keys\":{},\"aig\":{{\"inputs\":{},\
             \"outputs\":{},\"ands\":{},\"levels\":{},\"max_fanout\":{}}},\"{field}\":[{}]}}",
            json_string(circuit.name()),
            keys.len(),
            stats.inputs,
            stats.outputs,
            stats.ands,
            stats.levels,
            stats.max_fanout,
            rows.join(",")
        );
    }
    Ok(())
}

fn run(options: &CliOptions, attack: &dyn Attack) -> Result<(), String> {
    let locked_path = options.locked.as_ref().expect("validated by parse_args");
    let input = read_netlist(locked_path)?;
    let quiet = options.json;

    // --scheme: the input is the original design; lock it on the fly from
    // the spec, keep the planted ground truth for post-attack verification
    // and use the original itself as the oracle.
    let planted = match &options.scheme {
        Some(text) => {
            let spec: SchemeSpec = text.parse().map_err(|e| format!("--scheme: {e}"))?;
            let locked = scheme_registry()
                .lock(&spec, &input)
                .map_err(|e| format!("--scheme {spec}: {e}"))?;
            Some((spec, locked))
        }
        None => None,
    };
    let locked = match &planted {
        Some((spec, locked)) => {
            if !quiet {
                println!("scheme         : {spec}");
                println!("planted secret : {}", locked.secret.to_hex());
            }
            locked.circuit.clone()
        }
        None => input.clone(),
    };
    if !quiet {
        println!("locked netlist : {locked}");
    }
    let key_names = kratt_attacks::key_input_names(&locked);
    if key_names.is_empty() {
        return Err("the locked netlist has no `keyinput*` primary inputs".to_string());
    }

    if let Some(path) = &options.qdimacs {
        let artifacts = remove_locking_unit(&locked).map_err(|e| e.to_string())?;
        let unit = &artifacts.unit;
        let text = qdimacs::export(
            unit,
            &unit.key_inputs(),
            &unit.data_inputs(),
            unit.outputs()[0],
            false,
        );
        std::fs::write(path, text)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        if !quiet {
            println!("qbf instance   : written to {}", path.display());
        }
    }

    let oracle = match (&options.oracle, &planted) {
        // --scheme runs oracle-guided against the design it just locked.
        (None, Some(_)) => Some(Oracle::new(input.clone()).map_err(|e| e.to_string())?),
        (None, None) => None,
        (Some(oracle_path), _) => {
            let original = read_netlist(oracle_path)?;
            Some(Oracle::new(original).map_err(|e| e.to_string())?)
        }
    };
    let request = AttackRequest {
        locked: &locked,
        oracle: oracle.as_ref(),
        budget: budget(options.time_limit),
        cancel: None,
    };
    let report = attack.execute(&request).map_err(|e| e.to_string())?;

    // Close the loop: any exact key claimed against a planted instance is
    // verified against the ground truth before it is reported.
    let verdict = planted
        .as_ref()
        .map(|(_, locked_instance)| match report.outcome.exact_key() {
            Some(key) => match locked_instance.apply_key(key) {
                Ok(unlocked) => match equivalent_to(&input, &unlocked) {
                    Ok(true) => "verified",
                    Ok(false) => "REFUTED",
                    // Inconclusive is never a confirmation — but it is not
                    // a refutation either.
                    Err(_) => "UNVERIFIED",
                },
                Err(_) => "REFUTED",
            },
            None => "no exact claim",
        });

    if options.json {
        match verdict {
            Some(verdict) => {
                let (spec, locked_instance) = planted.as_ref().expect("verdict implies planted");
                println!(
                    "{{\"scheme\":\"{spec}\",\"planted_key\":\"{}\",\"verdict\":\"{verdict}\",\"run\":{}}}",
                    locked_instance.secret.to_hex(),
                    report.to_json()
                );
            }
            None => println!("{}", report.to_json()),
        }
    } else {
        println!("attack         : {}", report.attack);
        println!("threat model   : {}", report.threat_model);
        println!("runtime        : {:.3} s", report.runtime.as_secs_f64());
        if let Some(oracle) = &oracle {
            println!("oracle queries : {}", oracle.queries());
        }
        for step in &report.steps {
            println!(
                "    step {:<32} {:.3} s",
                step.name,
                step.duration.as_secs_f64()
            );
        }
        match &report.outcome {
            AttackOutcome::ExactKey(key) => {
                println!(
                    "secret key     : {}  (bits {key}, msb = {}, lsb = {})",
                    key.to_hex(),
                    key_names.last().unwrap(),
                    key_names[0]
                );
            }
            AttackOutcome::PartialGuess(guess) => {
                println!(
                    "partial guess  : {} of {} key bits deciphered",
                    guess.deciphered(),
                    key_names.len()
                );
                let mut names: Vec<&String> = guess.bits.keys().collect();
                names.sort();
                for name in names {
                    println!("    {name} = {}", u8::from(guess.bits[name]));
                }
            }
            AttackOutcome::RecoveredCircuit(circuit) => {
                println!("recovered      : {circuit} (key-less removal)");
            }
            AttackOutcome::OutOfBudget => println!("outcome        : budget exhausted (OoT)"),
        }
        if let Some(verdict) = verdict {
            println!("verdict        : {verdict} (claim checked against the planted secret)");
        }
    }

    if let Some(path) = &options.reconstruct {
        let original = read_netlist(options.oracle.as_ref().expect("validated"))?;
        let oracle = Oracle::new(original).map_err(|e| e.to_string())?;
        let artifacts = remove_locking_unit(&locked).map_err(|e| e.to_string())?;
        let subcircuit =
            kratt::extraction::extract_locked_subcircuit(&artifacts).map_err(|e| e.to_string())?;
        // The recovery gets a `--time-limit` clock of its own, started now.
        let config = StructuralAnalysisConfig {
            deadline: budget(options.time_limit).start(),
            ..Default::default()
        };
        let patterns = recover_protected_patterns(&artifacts, &subcircuit, &oracle, &config)
            .map_err(|e| e.to_string())?;
        if !quiet {
            println!("protected pats : {} recovered", patterns.len());
        }
        // Without a pattern the rebuild is the functionality-stripped
        // circuit, which is not the original.
        if patterns.is_empty() {
            return Err("no protected pattern recovered; nothing written".to_string());
        }
        let rebuilt =
            reconstruct_original_from_patterns(&artifacts, &patterns).map_err(|e| e.to_string())?;
        let text = bench::write(&rebuilt).map_err(|e| e.to_string())?;
        std::fs::write(path, text)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        if !quiet {
            println!("reconstruction : written to {}", path.display());
        }
    }
    // The --scheme contract matches the campaign paths: an exact claim that
    // did not verify against the planted secret is a failing exit, so
    // scripts and CI can gate on it. (Printed output above still carries
    // the full report.)
    match verdict {
        Some("REFUTED") => Err("the claimed key was refuted against the planted secret".into()),
        Some("UNVERIFIED") => {
            Err("the claimed key could not be verified against the planted secret".into())
        }
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if options.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if options.list_attacks || options.list_schemes || options.list_domains {
        list_registries(&options);
        return ExitCode::SUCCESS;
    }
    let result = if options.lint {
        run_lint(&options)
    } else if let Some(domain) = &options.analyze {
        run_analyze(&options, domain)
    } else {
        match build_attack(&options) {
            Ok(attack) => run(&options, attack.as_ref()),
            // A member list the portfolio rejects is a usage error.
            Err(e) if options.portfolio_members.is_some() => {
                eprintln!("error: --portfolio-members: {e}\n\n{USAGE}");
                return ExitCode::from(2);
            }
            Err(e) => Err(format!(
                "{e} (known attacks: {})",
                kratt::attack_registry().names().join(", ")
            )),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_command_line() {
        let options = parse_args([
            "--locked",
            "locked.bench",
            "--oracle",
            "orig.v",
            "--attack",
            "sat",
            "--json",
            "--qdimacs",
            "unit.qdimacs",
            "--reconstruct",
            "rebuilt.bench",
            "--time-limit",
            "30",
        ])
        .unwrap();
        assert_eq!(options.locked, Some(PathBuf::from("locked.bench")));
        assert_eq!(options.oracle, Some(PathBuf::from("orig.v")));
        assert_eq!(options.attack, "sat");
        assert!(options.json);
        assert_eq!(options.qdimacs, Some(PathBuf::from("unit.qdimacs")));
        assert_eq!(options.reconstruct, Some(PathBuf::from("rebuilt.bench")));
        assert_eq!(options.time_limit, Some(30));
        assert!(!options.help);
    }

    #[test]
    fn attack_defaults_to_kratt() {
        let options = parse_args(["--locked", "l.bench"]).unwrap();
        assert_eq!(options.attack, "kratt");
        assert!(!options.json);
    }

    #[test]
    fn missing_locked_netlist_is_rejected() {
        assert!(parse_args(["--oracle", "orig.bench"]).is_err());
        assert!(parse_args(Vec::<String>::new()).is_err());
    }

    #[test]
    fn reconstruct_requires_an_oracle() {
        let result = parse_args(["--locked", "l.bench", "--reconstruct", "out.bench"]);
        assert!(result.unwrap_err().contains("--oracle"));
    }

    #[test]
    fn reconstruct_without_a_recovered_pattern_fails_and_writes_nothing() {
        // A zero time limit leaves pattern recovery no time to find one.
        let dir = std::env::temp_dir().join("kratt_cli_reconstruct_test");
        std::fs::create_dir_all(&dir).unwrap();
        let original_path = dir.join("original.bench");
        let original = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
                        ab = AND(a, b)\ncd = OR(c, d)\ny = XOR(ab, cd)\nz = NAND(a, d)\n";
        std::fs::write(&original_path, original).unwrap();
        let spec: SchemeSpec = "ttlock:k=4,seed=3".parse().unwrap();
        let locked = scheme_registry()
            .lock(&spec, &bench::parse("original", original).unwrap())
            .unwrap();
        let locked_path = dir.join("locked.bench");
        std::fs::write(&locked_path, bench::write(&locked.circuit).unwrap()).unwrap();
        let out = dir.join("rebuilt.bench");
        let _ = std::fs::remove_file(&out);
        let options = parse_args([
            "--locked",
            locked_path.to_str().unwrap(),
            "--oracle",
            original_path.to_str().unwrap(),
            "--reconstruct",
            out.to_str().unwrap(),
            "--time-limit",
            "0",
            "--json",
        ])
        .unwrap();
        let attack = build_attack(&options).unwrap();
        let message = run(&options, attack.as_ref()).unwrap_err();
        assert!(
            message.contains("no protected pattern recovered"),
            "{message}"
        );
        assert!(!out.exists(), "nothing may be written");
    }

    #[test]
    fn unknown_flags_and_bad_numbers_are_rejected() {
        assert!(parse_args(["--locked", "l.bench", "--frobnicate"]).is_err());
        assert!(parse_args(["--locked", "l.bench", "--engine", "aig"]).is_err());
        assert!(parse_args(["--locked", "l.bench", "--time-limit", "soon"]).is_err());
        assert!(parse_args(["--locked", "l.bench", "--attack"]).is_err());
        assert!(parse_args(["--locked"]).is_err());
    }

    #[test]
    fn help_short_circuits_validation() {
        let options = parse_args(["--help"]).unwrap();
        assert!(options.help);
    }

    #[test]
    fn scheme_campaign_and_list_flags_parse() {
        let options = parse_args(["--locked", "orig.bench", "--scheme", "antisat:k=16"]).unwrap();
        assert_eq!(options.scheme.as_deref(), Some("antisat:k=16"));

        // Campaigns run through the kratt-bench `campaign` binary, so
        // `--campaign` and `--stream` are unknown options here.
        for args in [
            &["--campaign", "smoke"][..],
            &["--locked", "l.bench", "--stream"],
        ] {
            let message = parse_args(args.iter().copied()).unwrap_err();
            assert!(message.contains("unknown option"), "{message}");
        }
        // The standalone modes need no --locked netlist.
        let options = parse_args(["--list-attacks"]).unwrap();
        assert!(options.list_attacks && options.is_standalone());
        assert!(parse_args(["--list-schemes"]).unwrap().list_schemes);

        // --scheme still needs an input design and supplies its own oracle.
        assert!(parse_args(["--scheme", "antisat:k=16"]).is_err());
        assert!(parse_args([
            "--locked",
            "orig.bench",
            "--scheme",
            "antisat:k=16",
            "--oracle",
            "orig.bench"
        ])
        .is_err());
    }

    #[test]
    fn usage_documents_every_scheme_in_the_registry() {
        let registry = scheme_registry();
        for name in ["antisat", "sarlock", "ttlock"] {
            assert!(registry.contains(name), "`{name}` must be registered");
        }
        for flag in ["--scheme", "--list-attacks", "--list-schemes", "--lint"] {
            assert!(USAGE.contains(flag), "usage text must document `{flag}`");
        }
    }

    #[test]
    fn scheme_mode_locks_attacks_and_verifies_end_to_end() {
        // Drive run() itself: write an original netlist, lock it on the fly
        // with a seeded SARLock spec, let the QBF path recover the key and
        // check the verdict machinery accepts it.
        let dir = std::env::temp_dir().join("kratt_cli_scheme_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("majority.bench");
        std::fs::write(
            &path,
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nab = AND(a, b)\nac = AND(a, c)\nbc = AND(b, c)\ny = OR(ab, ac, bc)\n",
        )
        .unwrap();
        let options = parse_args([
            "--locked",
            path.to_str().unwrap(),
            "--scheme",
            "sarlock:k=3,seed=9",
            "--json",
        ])
        .unwrap();
        let attack = build_attack(&options).unwrap();
        run(&options, attack.as_ref()).unwrap();
        // A malformed spec surfaces as a structured error.
        let options = parse_args([
            "--locked",
            path.to_str().unwrap(),
            "--scheme",
            "sarlock:k=99",
        ])
        .unwrap();
        let message = run(&options, attack.as_ref()).unwrap_err();
        assert!(message.contains("data inputs"), "{message}");
    }

    #[test]
    fn lint_mode_parses_and_rejects_attack_only_flags() {
        let options = parse_args(["--locked", "l.bench", "--lint", "--json"]).unwrap();
        assert!(options.lint);
        assert!(options.json);
        // Lint still needs an input netlist and pairs only with --oracle/--json.
        assert!(parse_args(["--lint"]).is_err());
        let message =
            parse_args(["--locked", "l.bench", "--lint", "--scheme", "sarlock:k=4"]).unwrap_err();
        assert!(message.contains("--lint"), "{message}");
        assert!(parse_args(["--locked", "l.bench", "--lint", "--qdimacs", "u.qdimacs"]).is_err());
    }

    #[test]
    fn lint_mode_passes_clean_netlists_and_fails_on_errors() {
        let dir = std::env::temp_dir().join("kratt_cli_lint_test");
        std::fs::create_dir_all(&dir).unwrap();

        // A well-formed majority gate sails through.
        let clean = dir.join("majority.bench");
        std::fs::write(
            &clean,
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nab = AND(a, b)\nac = AND(a, c)\nbc = AND(b, c)\ny = OR(ab, ac, bc)\n",
        )
        .unwrap();
        let options =
            parse_args(["--locked", clean.to_str().unwrap(), "--lint", "--json"]).unwrap();
        run_lint(&options).unwrap();

        // A key input that never reaches an output is an error-level finding
        // (a broken lock) and a failing exit. The bench parser itself rejects
        // cycles and undriven nets, so this is the structural error that can
        // reach the linter through a parsed file.
        let broken = dir.join("broken_lock.bench");
        std::fs::write(
            &broken,
            "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = BUF(a)\ndangling = AND(keyinput0, a)\n",
        )
        .unwrap();
        let options = parse_args(["--locked", broken.to_str().unwrap(), "--lint"]).unwrap();
        let message = run_lint(&options).unwrap_err();
        assert!(message.contains("error-level"), "{message}");

        // With --oracle as the original, a dropped output is interface drift.
        let original = dir.join("two_outputs.bench");
        std::fs::write(
            &original,
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(a, b)\n",
        )
        .unwrap();
        let narrowed = dir.join("one_output.bench");
        std::fs::write(&narrowed, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let options = parse_args([
            "--locked",
            narrowed.to_str().unwrap(),
            "--oracle",
            original.to_str().unwrap(),
            "--lint",
        ])
        .unwrap();
        assert!(run_lint(&options).is_err());
    }

    #[test]
    fn analyze_mode_parses_and_rejects_attack_only_flags() {
        let options =
            parse_args(["--locked", "l.bench", "--analyze", "ternary", "--json"]).unwrap();
        assert_eq!(options.analyze.as_deref(), Some("ternary"));
        assert!(options.json);
        // --list-domains is a standalone mode; --analyze itself still needs
        // an input netlist and a domain name.
        assert!(parse_args(["--list-domains"]).unwrap().list_domains);
        assert!(parse_args(["--locked", "l.bench", "--analyze"]).is_err());
        assert!(parse_args(["--analyze", "ternary"]).is_err());
        let message =
            parse_args(["--locked", "l.bench", "--analyze", "odc", "--lint"]).unwrap_err();
        assert!(message.contains("--analyze"), "{message}");
        assert!(parse_args([
            "--locked",
            "l.bench",
            "--analyze",
            "odc",
            "--oracle",
            "o.bench"
        ])
        .is_err());
        assert!(parse_args([
            "--locked",
            "l.bench",
            "--analyze",
            "odc",
            "--scheme",
            "sarlock:k=4"
        ])
        .is_err());
    }

    #[test]
    fn usage_documents_every_analysis_domain() {
        for flag in ["--analyze", "--list-domains"] {
            assert!(USAGE.contains(flag), "usage text must document `{flag}`");
        }
        for (name, _) in ANALYZE_DOMAINS {
            assert!(USAGE.contains(name), "usage text must document `{name}`");
        }
    }

    #[test]
    fn analyze_mode_dumps_every_domain_text_and_json() {
        // y = (a AND keyinput0) AND XNOR(b, keyinput1): keyinput0=0 forces
        // y to 0 and masks keyinput1 — every domain has something to say.
        let dir = std::env::temp_dir().join("kratt_cli_analyze_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gated.bench");
        std::fs::write(
            &path,
            "INPUT(a)\nINPUT(b)\nINPUT(keyinput0)\nINPUT(keyinput1)\nOUTPUT(y)\n\
             g = XNOR(b, keyinput1)\nt = AND(a, keyinput0)\ny = AND(t, g)\n",
        )
        .unwrap();
        for (domain, _) in ANALYZE_DOMAINS {
            let options =
                parse_args(["--locked", path.to_str().unwrap(), "--analyze", domain]).unwrap();
            run_analyze(&options, domain).unwrap();
            let options = parse_args([
                "--locked",
                path.to_str().unwrap(),
                "--analyze",
                domain,
                "--json",
            ])
            .unwrap();
            run_analyze(&options, domain).unwrap();
        }
        // An unknown domain is a structured error naming the known ones.
        let options =
            parse_args(["--locked", path.to_str().unwrap(), "--analyze", "taint"]).unwrap();
        let message = run_analyze(&options, "taint").unwrap_err();
        assert!(message.contains("known domains"), "{message}");
        assert!(message.contains("unateness"), "{message}");
    }

    #[test]
    fn every_usage_attack_name_resolves_through_the_registry() {
        let registry = kratt::attack_registry();
        for name in [
            "kratt",
            "sat",
            "double-dip",
            "appsat",
            "fall",
            "removal",
            "scope",
            "portfolio",
        ] {
            assert!(USAGE.contains(name), "usage text must document `{name}`");
            assert!(registry.contains(name), "`{name}` must be registered");
        }
    }

    #[test]
    fn portfolio_members_flag_parses_and_rejects_empty_lists() {
        let options = parse_args([
            "--locked",
            "l.bench",
            "--attack",
            "portfolio",
            "--portfolio-members",
            "kratt,sat",
        ])
        .unwrap();
        assert_eq!(
            options.portfolio_members,
            Some(vec!["kratt".to_string(), "sat".to_string()])
        );
        assert_eq!(
            build_attack(&options).unwrap().name(),
            "portfolio",
            "the flag builds the portfolio attack"
        );
        assert!(USAGE.contains("--portfolio-members"));
        // Member lists the portfolio rejects are errors of `build_attack`
        // (a usage exit in `main`), not a late panic.
        for members in [" , ,", "kratt,nope", "sat,sat", "kratt,portfolio"] {
            let options = parse_args([
                "--locked",
                "l.bench",
                "--attack",
                "portfolio",
                "--portfolio-members",
                members,
            ])
            .unwrap();
            assert!(
                build_attack(&options).is_err(),
                "`{members}` must be rejected"
            );
        }
        // The flag only configures --attack portfolio.
        let message =
            parse_args(["--locked", "l.bench", "--portfolio-members", "kratt,sat"]).unwrap_err();
        assert!(message.contains("--attack portfolio"), "{message}");
        assert!(parse_args(["--locked", "l.bench", "--portfolio-members"]).is_err());
    }

    #[test]
    fn time_limit_flag_sets_the_shared_budget() {
        let with_flag = budget(Some(7));
        assert_eq!(with_flag.time_limit, Some(Duration::from_secs(7)));
        let without = budget(None);
        assert_eq!(without.time_limit, Budget::default().time_limit);
    }

    #[test]
    fn netlist_reader_dispatches_on_extension_and_reports_missing_files() {
        let dir = std::env::temp_dir().join("kratt_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bench_path = dir.join("tiny.bench");
        std::fs::write(&bench_path, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let circuit = read_netlist(&bench_path).unwrap();
        assert_eq!(circuit.num_gates(), 1);

        let verilog_path = dir.join("tiny.v");
        std::fs::write(
            &verilog_path,
            "module t (a, y);\n input a;\n output y;\n not g0 (y, a);\nendmodule\n",
        )
        .unwrap();
        let circuit = read_netlist(&verilog_path).unwrap();
        assert_eq!(circuit.name(), "t");

        let missing = dir.join("does_not_exist.bench");
        assert!(read_netlist(&missing).unwrap_err().contains("cannot read"));
    }
}

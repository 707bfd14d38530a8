//! Attack outcomes, key guesses and scoring helpers shared by all attacks.
//!
//! The unified [`AttackRun`] report (outcome + telemetry) is the one result
//! every engine builds and returns through
//! [`Attack::execute`](crate::engine::Attack).
//!
//! This module also owns the hand-rolled JSON plumbing (the workspace is
//! offline and carries no serde): the escape/emit helpers the campaign
//! report and the journal share, and a minimal flat-object parser the
//! append-only campaign journal replays its records through.

use crate::engine::ThreatModel;
use crate::error::AttackError;
use kratt_locking::{LockedCircuit, SecretKey};
use kratt_netlist::Circuit;
use std::collections::HashMap;
use std::time::Duration;

/// The key-input names of a locked netlist, in `keyinput` order — the name
/// list every `KeyGuess` ↔ `SecretKey` conversion is defined over. Thin
/// alias of [`Circuit::key_input_names`], kept for the many existing
/// call sites.
pub fn key_input_names(circuit: &Circuit) -> Vec<String> {
    circuit.key_input_names()
}

/// A (possibly partial) key guess: one value per deciphered key input, keyed
/// by the key-input net name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyGuess {
    /// Deciphered key bits by key-input name; undeciphered bits are absent.
    pub bits: HashMap<String, bool>,
}

impl KeyGuess {
    /// An empty guess (nothing deciphered).
    pub fn new() -> Self {
        KeyGuess::default()
    }

    /// Inserts one deciphered bit.
    pub fn set(&mut self, name: impl Into<String>, value: bool) {
        self.bits.insert(name.into(), value);
    }

    /// Number of deciphered key bits.
    pub fn deciphered(&self) -> usize {
        self.bits.len()
    }

    /// Converts the guess into a full [`SecretKey`] over the given key-input
    /// names, filling undeciphered bits with `false`. For the strict
    /// conversion that rejects partial guesses, use
    /// `SecretKey::try_from(NamedGuess { .. })`.
    pub fn to_secret_key(&self, key_names: &[String]) -> SecretKey {
        SecretKey::from_bits(
            key_names
                .iter()
                .map(|n| self.bits.get(n).copied().unwrap_or(false))
                .collect(),
        )
    }
}

impl FromIterator<(String, bool)> for KeyGuess {
    fn from_iter<T: IntoIterator<Item = (String, bool)>>(iter: T) -> Self {
        KeyGuess {
            bits: iter.into_iter().collect(),
        }
    }
}

/// An exact key spelled out as a full guess over the given key-input names —
/// the `SecretKey` → `KeyGuess` direction of the conversion pair.
impl From<(&SecretKey, &[String])> for KeyGuess {
    fn from((key, key_names): (&SecretKey, &[String])) -> Self {
        key_names
            .iter()
            .cloned()
            .zip(key.bits().iter().copied())
            .collect()
    }
}

/// A [`KeyGuess`] paired with the full key-input name list: the carrier of
/// the strict `KeyGuess` → `SecretKey` conversion.
#[derive(Debug, Clone, Copy)]
pub struct NamedGuess<'a> {
    /// The (possibly partial) guess.
    pub guess: &'a KeyGuess,
    /// All key-input names of the locked netlist, in `keyinput` order.
    pub key_names: &'a [String],
}

/// The strict conversion: fails with [`AttackError::PartialKey`] unless the
/// guess deciphers *every* key input. The lenient fill-with-zero variant is
/// [`KeyGuess::to_secret_key`].
impl TryFrom<NamedGuess<'_>> for SecretKey {
    type Error = AttackError;

    fn try_from(named: NamedGuess<'_>) -> Result<Self, Self::Error> {
        let missing = named
            .key_names
            .iter()
            .filter(|n| !named.guess.bits.contains_key(*n))
            .count();
        if missing > 0 {
            return Err(AttackError::PartialKey {
                missing,
                total: named.key_names.len(),
            });
        }
        Ok(named.guess.to_secret_key(named.key_names))
    }
}

/// The unified outcome of an [`AttackRun`], covering what every attack in
/// the suite can produce.
#[derive(Debug, Clone)]
pub enum AttackOutcome {
    /// A complete key (the QBF / structural-analysis / DIP-loop successes).
    ExactKey(SecretKey),
    /// A partial, per-bit guess (SCOPE-style oracle-less attacks, FALL
    /// candidates that were not confirmed).
    PartialGuess(KeyGuess),
    /// The original circuit recovered *without* the key (the removal
    /// attack's key-less success — the limitation that motivates KRATT's
    /// QBF formulation).
    RecoveredCircuit(Circuit),
    /// Budgets were exhausted before a result was obtained (the paper's
    /// "OoT" cells).
    OutOfBudget,
}

impl AttackOutcome {
    /// The exact key, if one was recovered.
    pub fn exact_key(&self) -> Option<&SecretKey> {
        match self {
            AttackOutcome::ExactKey(key) => Some(key),
            _ => None,
        }
    }

    /// The recovered circuit, if the attack produced one.
    pub fn recovered_circuit(&self) -> Option<&Circuit> {
        match self {
            AttackOutcome::RecoveredCircuit(c) => Some(c),
            _ => None,
        }
    }

    /// Whether the run ended by exhausting its budget.
    pub fn is_out_of_budget(&self) -> bool {
        matches!(self, AttackOutcome::OutOfBudget)
    }

    /// The outcome as a per-bit guess over the given key-input names (exact
    /// keys expand to a full guess; circuit recovery and out-of-budget give
    /// an empty guess).
    pub fn as_guess(&self, key_names: &[String]) -> KeyGuess {
        match self {
            AttackOutcome::ExactKey(key) => KeyGuess::from((key, key_names)),
            AttackOutcome::PartialGuess(guess) => guess.clone(),
            AttackOutcome::RecoveredCircuit(_) | AttackOutcome::OutOfBudget => KeyGuess::new(),
        }
    }

    /// Short machine-readable kind tag (used by the JSON report).
    pub fn kind(&self) -> &'static str {
        match self {
            AttackOutcome::ExactKey(_) => "exact-key",
            AttackOutcome::PartialGuess(_) => "partial-guess",
            AttackOutcome::RecoveredCircuit(_) => "recovered-circuit",
            AttackOutcome::OutOfBudget => "out-of-budget",
        }
    }
}

/// Wall-clock duration of one named pipeline step of an attack run.
#[derive(Debug, Clone)]
pub struct StepTiming {
    /// Step name (`"qbf"`, `"dip-loop"`, ...).
    pub name: String,
    /// Time spent in the step.
    pub duration: Duration,
}

impl StepTiming {
    /// A step timing.
    pub fn new(name: impl Into<String>, duration: Duration) -> Self {
        StepTiming {
            name: name.into(),
            duration,
        }
    }
}

/// Outcome and timing of one member engine inside a portfolio race.
#[derive(Debug, Clone)]
pub struct MemberRun {
    /// Registry name of the member engine.
    pub name: String,
    /// The member's outcome kind (`"exact-key"`, `"out-of-budget"`,
    /// `"cancelled"`, `"error: ..."`).
    pub outcome: String,
    /// Wall-clock time from race start to this member's finish.
    pub wall: Duration,
    /// Whether the member's exact-key claim was independently verified.
    pub verified: bool,
    /// Whether this member won the race.
    pub winner: bool,
}

/// The unified report of one [`Attack::execute`](crate::engine::Attack)
/// call: the outcome plus the telemetry every attack family shares
/// (runtime, iteration and oracle-query counters, per-step durations).
#[derive(Debug, Clone)]
pub struct AttackRun {
    /// Registry name of the attack that produced this run.
    pub attack: String,
    /// Threat model the run executed under.
    pub threat_model: ThreatModel,
    /// The outcome.
    pub outcome: AttackOutcome,
    /// Wall-clock runtime of the whole run.
    pub runtime: Duration,
    /// Attack iterations performed (DIPs, analysed bits/nodes, ...).
    pub iterations: usize,
    /// Oracle queries spent (0 under the oracle-less model).
    pub oracle_queries: u64,
    /// Per-step durations.
    pub steps: Vec<StepTiming>,
    /// Per-member outcomes of a portfolio race (empty for single engines).
    pub members: Vec<MemberRun>,
}

impl AttackRun {
    /// An out-of-budget run (the shape every attack returns when its budget
    /// is exhausted before any work happened).
    pub fn out_of_budget(attack: &str, model: ThreatModel) -> Self {
        AttackRun {
            attack: attack.to_string(),
            threat_model: model,
            outcome: AttackOutcome::OutOfBudget,
            runtime: Duration::ZERO,
            iterations: 0,
            oracle_queries: 0,
            steps: Vec::new(),
            members: Vec::new(),
        }
    }

    /// The member row of the engine that won a portfolio race, if this run
    /// came from one.
    pub fn winning_member(&self) -> Option<&MemberRun> {
        self.members.iter().find(|m| m.winner)
    }

    /// The exact key, if one was recovered.
    pub fn exact_key(&self) -> Option<&SecretKey> {
        self.outcome.exact_key()
    }

    /// Renders the run as a machine-readable JSON object (the CLI's
    /// `--json` output). Written by hand because the workspace is offline
    /// and carries no serde.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        json_str(&mut out, "attack", &self.attack);
        out.push(',');
        json_str(&mut out, "threat_model", &self.threat_model.to_string());
        out.push_str(",\"outcome\":{");
        json_str(&mut out, "kind", self.outcome.kind());
        match &self.outcome {
            AttackOutcome::ExactKey(key) => {
                out.push(',');
                // Width-preserving hex, not the old bit-vector dump: a
                // 128-bit key renders as `128'h...`, and
                // `SecretKey::from_hex` round-trips it.
                json_str(&mut out, "key", &key.to_hex());
                out.push_str(&format!(",\"width\":{}", key.bits().len()));
            }
            AttackOutcome::PartialGuess(guess) => {
                out.push_str(",\"bits\":{");
                let mut names: Vec<&String> = guess.bits.keys().collect();
                names.sort();
                for (i, name) in names.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json_key(&mut out, name);
                    out.push_str(if guess.bits[*name] { "true" } else { "false" });
                }
                out.push('}');
            }
            AttackOutcome::RecoveredCircuit(circuit) => {
                out.push_str(&format!(
                    ",\"gates\":{},\"inputs\":{},\"outputs\":{}",
                    circuit.num_gates(),
                    circuit.num_inputs(),
                    circuit.num_outputs()
                ));
            }
            AttackOutcome::OutOfBudget => {}
        }
        out.push_str(&format!(
            "}},\"runtime_secs\":{:.6},\"iterations\":{},\"oracle_queries\":{},\"steps\":[",
            self.runtime.as_secs_f64(),
            self.iterations,
            self.oracle_queries
        ));
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_str(&mut out, "name", &step.name);
            out.push_str(&format!(",\"secs\":{:.6}}}", step.duration.as_secs_f64()));
        }
        out.push(']');
        // Only portfolio runs carry member rows; single-engine output is
        // byte-identical to what it was before portfolios existed.
        if !self.members.is_empty() {
            out.push_str(",\"members\":[");
            for (i, member) in self.members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('{');
                json_str(&mut out, "name", &member.name);
                out.push(',');
                json_str(&mut out, "outcome", &member.outcome);
                out.push_str(&format!(
                    ",\"wall_secs\":{:.6},\"verified\":{},\"winner\":{}}}",
                    member.wall.as_secs_f64(),
                    member.verified,
                    member.winner
                ));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Appends `"key":"escaped value"`. Shared with the campaign report.
pub(crate) fn json_str(out: &mut String, key: &str, value: &str) {
    json_key(out, key);
    out.push('"');
    json_escape(out, value);
    out.push('"');
}

/// Appends `"escaped key":`. Shared with the campaign report and journal.
pub(crate) fn json_key(out: &mut String, key: &str) {
    out.push('"');
    json_escape(out, key);
    out.push_str("\":");
}

fn json_escape(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// A scalar value of a flat JSON object — all the journal and stream
/// records need (records are deliberately one level deep so a torn line
/// is trivially detectable).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JsonScalar {
    /// A JSON string.
    Str(String),
    /// Any JSON number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonScalar {
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            JsonScalar::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            JsonScalar::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one flat JSON object line (`{"k":"v","n":1.5,"b":true}`) into its
/// key/value pairs. Returns `None` on any syntax error — the journal treats
/// a malformed line (e.g. a torn final write after a crash) as absent.
pub(crate) fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonScalar)>> {
    let mut chars = line.trim().chars().peekable();
    if chars.next()? != '{' {
        return None;
    }
    let mut pairs = Vec::new();
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_json_string(&mut chars)?;
            skip_ws(&mut chars);
            if chars.next()? != ':' {
                return None;
            }
            skip_ws(&mut chars);
            let value = parse_json_scalar(&mut chars)?;
            pairs.push((key, value));
            skip_ws(&mut chars);
            match chars.next()? {
                ',' => continue,
                '}' => break,
                _ => return None,
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return None;
    }
    Some(pairs)
}

type CharStream<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn skip_ws(chars: &mut CharStream<'_>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_json_string(chars: &mut CharStream<'_>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let code: String = (0..4).filter_map(|_| chars.next()).collect();
                    let value = u32::from_str_radix(&code, 16).ok()?;
                    out.push(char::from_u32(value)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

fn parse_json_scalar(chars: &mut CharStream<'_>) -> Option<JsonScalar> {
    match chars.peek()? {
        '"' => parse_json_string(chars).map(JsonScalar::Str),
        't' | 'f' | 'n' => {
            let mut word = String::new();
            while chars.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
                word.push(chars.next()?);
            }
            match word.as_str() {
                "true" => Some(JsonScalar::Bool(true)),
                "false" => Some(JsonScalar::Bool(false)),
                "null" => Some(JsonScalar::Null),
                _ => None,
            }
        }
        _ => {
            let mut literal = String::new();
            while chars
                .peek()
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
            {
                literal.push(chars.next()?);
            }
            literal.parse::<f64>().ok().map(JsonScalar::Num)
        }
    }
}

/// Scores a guess against the ground-truth secret of a locked circuit:
/// returns `(cdk, dk)` — correctly deciphered and deciphered key bits — the
/// two numbers reported per cell in the paper's Table II/IV/V.
pub fn score_guess(locked: &LockedCircuit, guess: &KeyGuess) -> (usize, usize) {
    let key_names = key_input_names(&locked.circuit);
    let mut correct = 0;
    let mut deciphered = 0;
    for (index, name) in key_names.iter().enumerate() {
        if let Some(&value) = guess.bits.get(name) {
            deciphered += 1;
            if locked.secret.bits().get(index).copied() == Some(value) {
                correct += 1;
            }
        }
    }
    (correct, deciphered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_locking::{LockingTechnique, SarLock};
    use kratt_netlist::GateType;
    use std::time::Duration;

    fn locked_toy() -> LockedCircuit {
        let mut c = Circuit::new("toy");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let x = c.add_input("x").unwrap();
        let ab = c.add_gate(GateType::And, "ab", &[a, b]).unwrap();
        let o = c.add_gate(GateType::Or, "o", &[ab, x]).unwrap();
        c.mark_output(o);
        SarLock::new(3)
            .lock(&c, &SecretKey::from_u64(0b101, 3))
            .unwrap()
    }

    #[test]
    fn guess_scoring_counts_correct_and_deciphered() {
        let locked = locked_toy();
        let mut guess = KeyGuess::new();
        guess.set("keyinput0", true); // correct (bit 0 of 0b101)
        guess.set("keyinput1", true); // wrong (bit 1 is 0)
                                      // keyinput2 left undeciphered.
        assert_eq!(score_guess(&locked, &guess), (1, 2));
        assert_eq!(guess.deciphered(), 2);
    }

    #[test]
    fn guess_converts_to_secret_key_with_default_false() {
        let mut guess = KeyGuess::new();
        guess.set("keyinput2", true);
        let names: Vec<String> = (0..3).map(|i| format!("keyinput{i}")).collect();
        let key = guess.to_secret_key(&names);
        assert_eq!(key.to_u64(), 0b100);
    }

    #[test]
    fn strict_conversion_rejects_partial_guesses() {
        let names: Vec<String> = (0..3).map(|i| format!("keyinput{i}")).collect();
        let mut guess = KeyGuess::new();
        guess.set("keyinput0", true);
        assert!(matches!(
            SecretKey::try_from(NamedGuess {
                guess: &guess,
                key_names: &names
            }),
            Err(AttackError::PartialKey {
                missing: 2,
                total: 3
            })
        ));
        guess.set("keyinput1", false);
        guess.set("keyinput2", true);
        let key = SecretKey::try_from(NamedGuess {
            guess: &guess,
            key_names: &names,
        })
        .unwrap();
        assert_eq!(key.to_u64(), 0b101);
    }

    #[test]
    fn exact_key_round_trips_through_a_full_guess() {
        let names: Vec<String> = (0..4).map(|i| format!("keyinput{i}")).collect();
        let key = SecretKey::from_u64(0b1010, 4);
        let guess = KeyGuess::from((&key, names.as_slice()));
        assert_eq!(guess.deciphered(), 4);
        let back = SecretKey::try_from(NamedGuess {
            guess: &guess,
            key_names: &names,
        })
        .unwrap();
        assert_eq!(back.to_u64(), key.to_u64());
    }

    #[test]
    fn outcome_key_accessor() {
        let exact = AttackOutcome::ExactKey(SecretKey::from_u64(3, 2));
        assert_eq!(exact.exact_key().map(SecretKey::to_u64), Some(3));
        assert!(!exact.is_out_of_budget());
        assert!(AttackOutcome::OutOfBudget.exact_key().is_none());
        assert!(AttackOutcome::OutOfBudget.is_out_of_budget());
        assert!(AttackOutcome::PartialGuess(KeyGuess::new())
            .exact_key()
            .is_none());
    }

    #[test]
    fn attack_run_json_is_well_formed() {
        let mut run = AttackRun::out_of_budget("sat", ThreatModel::OracleGuided);
        let json = run.to_json();
        assert!(json.contains("\"attack\":\"sat\""));
        assert!(json.contains("\"kind\":\"out-of-budget\""));

        run.outcome = AttackOutcome::ExactKey(SecretKey::from_u64(0b10, 2));
        run.steps
            .push(StepTiming::new("dip-loop", Duration::from_millis(1500)));
        let json = run.to_json();
        assert!(json.contains("\"kind\":\"exact-key\""));
        assert!(json.contains("\"key\":\"2'h2\""), "keys render as hex");
        assert!(json.contains("\"width\":2"));
        assert!(json.contains("\"name\":\"dip-loop\""));
        assert!(json.contains("\"secs\":1.500000"));

        let mut guess = KeyGuess::new();
        guess.set("key\"input0", true);
        run.outcome = AttackOutcome::PartialGuess(guess);
        assert!(run.to_json().contains("\"key\\\"input0\":true"));
    }

    #[test]
    fn flat_object_parser_handles_records_and_rejects_torn_lines() {
        let pairs = parse_flat_object(
            r#"{"type":"cell","fp":"00ff","cdk":3,"secs":1.5,"ok":true,"err":null,"esc":"a\"b\\c\nd"}"#,
        )
        .expect("well-formed record");
        assert_eq!(pairs[0], ("type".into(), JsonScalar::Str("cell".into())));
        assert_eq!(pairs[1].1.as_str(), Some("00ff"));
        assert_eq!(pairs[2].1.as_f64(), Some(3.0));
        assert_eq!(pairs[3].1, JsonScalar::Num(1.5));
        assert_eq!(pairs[4].1, JsonScalar::Bool(true));
        assert_eq!(pairs[5].1, JsonScalar::Null);
        assert_eq!(pairs[6].1.as_str(), Some("a\"b\\c\nd"));
        assert_eq!(parse_flat_object("{}"), Some(Vec::new()));
        // Torn / malformed lines (crash mid-append) parse to None.
        assert!(parse_flat_object(r#"{"type":"cell","fp":"00"#).is_none());
        assert!(parse_flat_object(r#"{"a":1} trailing"#).is_none());
        assert!(parse_flat_object(r#"{"a":{"nested":1}}"#).is_none());
        assert!(parse_flat_object("").is_none());
    }

    #[test]
    fn outcome_as_guess_covers_every_variant() {
        let names: Vec<String> = (0..2).map(|i| format!("keyinput{i}")).collect();
        let exact = AttackOutcome::ExactKey(SecretKey::from_u64(0b01, 2));
        assert_eq!(exact.as_guess(&names).deciphered(), 2);
        assert!(exact.as_guess(&names).bits["keyinput0"]);
        assert_eq!(AttackOutcome::OutOfBudget.as_guess(&names).deciphered(), 0);
        assert_eq!(AttackOutcome::OutOfBudget.kind(), "out-of-budget");
    }
}

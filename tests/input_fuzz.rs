//! Seeded mutation fuzzing of the parsers that read input from outside the
//! program: `.bench` and Verilog netlists and scheme specs. Each case draws
//! a `u64` seed, picks a valid sample and edits its tokens (deletes one,
//! inserts one from the sample or from a list of awkward tokens, swaps two,
//! or cuts the tail off); every mutant must parse to `Ok` or to a typed
//! error, never panic. The `.bench` samples include the shapes the Anti-SAT
//! scripts of the literature write: `KEYINPUT<i>` key names, `LOCK_ENABLE
//! = NOT(...)` and an output gated by AND instead of XOR.

use kratt_locking::SchemeSpec;
use kratt_netlist::analysis::topological_order;
use kratt_netlist::{bench, verilog, NetlistError};
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const BENCH_SAMPLES: [&str; 3] = [
    "# c17 from ISCAS'85
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
",
    // Anti-SAT, type 0: Y = g(X ⊕ K1) ∧ g(X ⊕ K2), LOCK_ENABLE = NOT(Y),
    // OUT = AND(LOCK_ENABLE, OUT_enc).
    "INPUT(G1)
INPUT(G2)
INPUT(KEYINPUT0)
INPUT(KEYINPUT1)
INPUT(KEYINPUT2)
INPUT(KEYINPUT3)
OUTPUT(G5)
G5_enc = NAND(G1, G2)
X1_0 = XNOR(G1, KEYINPUT0)
X1_1 = XNOR(G2, KEYINPUT1)
X2_0 = XNOR(G1, KEYINPUT2)
X2_1 = XNOR(G2, KEYINPUT3)
G1_L0_0 = AND(X1_0, X1_1)
G2_L0_0 = NAND(X2_0, X2_1)
ANTISAT_AND = AND(G1_L0_0, G2_L0_0)
LOCK_ENABLE = NOT(ANTISAT_AND)
G5 = AND(LOCK_ENABLE, G5_enc)
",
    // Forward references, constants, a buffer, a duplicate output and
    // trailing comments.
    "INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
OUTPUT(y)
OUTPUT(z)
y = XOR(n$1, keyinput0) # forward reference
n$1 = BUFF(t)
t = OR(a, one)
one = VDD()
z = NOT(a)
",
];

const BENCH_TOKENS: [&str; 18] = [
    "INPUT",
    "OUTPUT",
    "(",
    ")",
    "=",
    ",",
    "#",
    "\n",
    "DFF",
    "NOT",
    "AND",
    "XOR",
    "CONST0",
    "KEYINPUT9",
    "LOCK_ENABLE",
    "é",
    "\t",
    "G22",
];

const VERILOG_SAMPLES: [&str; 2] = [
    "// a half adder
module half_adder (a, b, sum, carry);
  input a, b;
  output sum, carry;
  wire unused;
  xor g0 (sum, a, b);
  and g1 (carry, a, b);
endmodule
",
    "module locked (\\3weird , keyinput0, y, z);
  input \\3weird , keyinput0;
  output y, z;
  wire n1, n2, one;
  /* the key gate */
  xnor k0 (n1, \\3weird , keyinput0);
  assign one = 1'b1;
  nand g1 (n2, n1, one);
  assign y = ~n2;
  assign z = n1;
endmodule
",
];

const VERILOG_TOKENS: [&str; 22] = [
    "module",
    "endmodule",
    "input",
    "output",
    "wire",
    "assign",
    ";",
    "(",
    ")",
    ",",
    "=",
    "~",
    "&",
    "^",
    "/*",
    "*/",
    "//",
    "\\",
    "1'b0",
    "[3:0]",
    "é",
    "\n",
];

const SPEC_SAMPLES: [&str; 5] = [
    "sarlock:k=16",
    "ttlock:k=32,seed=7",
    "sfll-hd:k=32,h=4,seed=0",
    "anti_sat",
    "rll:k=8,seed=18446744073709551615",
];

const SPEC_TOKENS: [&str; 12] = [
    ":",
    ",",
    "=",
    "k",
    "seed",
    "-",
    " ",
    "0",
    "99999999999999999999999",
    "é",
    "h",
    "cac",
];

/// Splits `text` into tokens: runs of alphanumeric or `_` characters, runs
/// of whitespace, and every other character on its own.
fn tokens(text: &str) -> Vec<&str> {
    let class = |c: char| {
        if c.is_alphanumeric() || c == '_' {
            0
        } else if c.is_whitespace() {
            1
        } else {
            2
        }
    };
    let mut tokens = Vec::new();
    let mut start = 0;
    let mut previous: Option<u8> = None;
    for (index, c) in text.char_indices() {
        let kind = class(c);
        if previous.is_some_and(|p| p != kind || kind == 2) {
            tokens.push(&text[start..index]);
            start = index;
        }
        previous = Some(kind);
    }
    if start < text.len() {
        tokens.push(&text[start..]);
    }
    tokens
}

/// One of `samples`, with one to four token edits drawn from `seed`.
fn mutate(samples: &[&str], extra: &[&str], seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut toks: Vec<String> = tokens(samples[rng.gen_range(0..samples.len())])
        .into_iter()
        .map(String::from)
        .collect();
    for _ in 0..rng.gen_range(1..5) {
        match rng.gen_range(0..4) {
            0 if !toks.is_empty() => {
                toks.remove(rng.gen_range(0..toks.len()));
            }
            1 => {
                let token = if rng.gen_bool(0.5) && !toks.is_empty() {
                    toks[rng.gen_range(0..toks.len())].clone()
                } else {
                    extra[rng.gen_range(0..extra.len())].to_string()
                };
                toks.insert(rng.gen_range(0..=toks.len()), token);
            }
            2 if toks.len() > 1 => {
                let (a, b) = (rng.gen_range(0..toks.len()), rng.gen_range(0..toks.len()));
                toks.swap(a, b);
            }
            3 => toks.truncate(rng.gen_range(0..=toks.len())),
            _ => {}
        }
    }
    toks.concat()
}

/// Runs `parse` on `text`; a panic becomes a failure naming the input.
fn no_panic<T>(text: &str, parse: impl FnOnce(&str) -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(|| parse(text)))
        .map_err(|_| TestCaseError::fail(format!("panicked on {text:?}")))
}

/// A parsed netlist must also sort, or report its cycle as a typed error.
fn sorts(parsed: Result<kratt_netlist::Circuit, NetlistError>) -> bool {
    parsed.map_or(true, |circuit| match topological_order(&circuit) {
        Ok(_) | Err(NetlistError::CombinationalCycle(_)) => true,
        Err(_) => false,
    })
}

#[test]
fn every_sample_parses() {
    for sample in BENCH_SAMPLES {
        bench::parse("sample", sample).unwrap();
    }
    for sample in VERILOG_SAMPLES {
        verilog::parse(sample).unwrap();
    }
    for sample in SPEC_SAMPLES {
        sample.parse::<SchemeSpec>().unwrap();
    }
    assert_eq!(
        tokens("G5 = AND(LOCK_ENABLE, é1)"),
        vec![
            "G5",
            " ",
            "=",
            " ",
            "AND",
            "(",
            "LOCK_ENABLE",
            ",",
            " ",
            "é1",
            ")"
        ]
    );
}

proptest::proptest! {
    #[test]
    fn prop_mutated_bench_never_panics(seed in 0u64..=u64::MAX) {
        let text = mutate(&BENCH_SAMPLES, &BENCH_TOKENS, seed);
        let parsed = no_panic(&text, |text| bench::parse("fuzz", text))?;
        proptest::prop_assert!(sorts(parsed), "{:?}", text);
    }

    #[test]
    fn prop_mutated_verilog_never_panics(seed in 0u64..=u64::MAX) {
        let text = mutate(&VERILOG_SAMPLES, &VERILOG_TOKENS, seed);
        let parsed = no_panic(&text, verilog::parse)?;
        proptest::prop_assert!(sorts(parsed), "{:?}", text);
    }

    #[test]
    fn prop_mutated_scheme_specs_never_panic(seed in 0u64..=u64::MAX) {
        let text = mutate(&SPEC_SAMPLES, &SPEC_TOKENS, seed);
        let _typed_or_ok = no_panic(&text, |text| text.parse::<SchemeSpec>())?;
    }
}

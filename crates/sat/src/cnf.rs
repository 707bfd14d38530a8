//! Standalone CNF formulas, the [`ClauseSink`] abstraction and DIMACS I/O.
//!
//! The original KRATT tool hands its CNF and QBF instances to external
//! solvers (CryptoMiniSat and DepQBF) through the DIMACS / QDIMACS exchange
//! formats. The in-tree CDCL solver makes that unnecessary for the
//! reproduction, but the interchange path is still valuable: it lets a user
//! dump exactly the instances KRATT generates and feed them to any external
//! solver for cross-checking. [`Cnf`] is the in-memory representation of such
//! an instance, and [`ClauseSink`] lets [`encode_aig`](crate::encode_aig)
//! target either a live [`Solver`] or a [`Cnf`] to be serialised.
//!
//! ```
//! use kratt_sat::cnf::{ClauseSink, Cnf};
//! use kratt_sat::Lit;
//!
//! let mut cnf = Cnf::new();
//! let a = cnf.new_var();
//! let b = cnf.new_var();
//! cnf.add_clause([Lit::positive(a), Lit::positive(b)]);
//! cnf.add_clause([Lit::negative(a)]);
//! let text = cnf.to_dimacs();
//! assert!(text.contains("p cnf 2 2"));
//! let parsed = Cnf::from_dimacs(&text).unwrap();
//! assert_eq!(parsed.num_clauses(), 2);
//! ```

use crate::lit::{Lit, Var};
use crate::solver::{SatResult, Solver};
use std::fmt;
use std::fmt::Write as _;

/// A destination clauses can be added to: either a live [`Solver`] or an
/// in-memory [`Cnf`] formula headed for DIMACS serialisation.
///
/// [`encode_aig`](crate::encode_aig) is generic over this trait, so the same
/// circuit-to-CNF translation drives both solving and exporting.
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Adds a clause. Returns `false` if the sink can already tell the
    /// formula became unsatisfiable (solvers do; plain formulas always
    /// return `true`).
    fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>;

    /// Number of variables allocated so far.
    fn num_vars(&self) -> usize;
}

impl ClauseSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        Solver::add_clause(self, lits)
    }

    fn num_vars(&self) -> usize {
        Solver::num_vars(self)
    }
}

/// Error produced when DIMACS text cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Explanation of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dimacs parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseDimacsError {}

/// A propositional formula in conjunctive normal form.
///
/// Unlike [`Solver`], a `Cnf` performs no propagation or simplification — it
/// is a faithful container for the clauses handed to it, which is exactly
/// what serialisation needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Creates an empty formula with no variables.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Number of variables allocated (or implied by parsed clauses).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses, in insertion order.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Ensures at least `count` variables exist.
    pub fn reserve_vars(&mut self, count: usize) {
        self.num_vars = self.num_vars.max(count);
    }

    /// Loads every clause into a fresh [`Solver`] and returns it. Variable
    /// indices are preserved, so [`Var::from_index`] addresses the same
    /// variable in both representations.
    pub fn to_solver(&self) -> Solver {
        let mut solver = Solver::new();
        while solver.num_vars() < self.num_vars {
            solver.new_var();
        }
        for clause in &self.clauses {
            solver.add_clause(clause.iter().copied());
        }
        solver
    }

    /// Solves the formula with a fresh [`Solver`].
    pub fn solve(&self) -> SatResult {
        self.to_solver().solve()
    }

    /// Serialises the formula in DIMACS CNF format.
    pub fn to_dimacs(&self) -> String {
        self.to_dimacs_with_comments(&[])
    }

    /// Serialises the formula in DIMACS CNF format, preceded by `c` comment
    /// lines (one per entry, newlines not allowed inside an entry).
    pub fn to_dimacs_with_comments(&self, comments: &[&str]) -> String {
        let mut out = String::new();
        for comment in comments {
            let _ = writeln!(out, "c {comment}");
        }
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.clauses.len());
        for clause in &self.clauses {
            let _ = writeln!(out, "{}", clause_to_dimacs(clause));
        }
        out
    }

    /// Parses DIMACS CNF text.
    ///
    /// The parser accepts the common liberties external tools take: comment
    /// lines anywhere, clauses spanning several lines, several clauses per
    /// line, and more variables appearing in clauses than the header claims
    /// (the variable count grows to match).
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] for a missing or malformed `p cnf`
    /// header, non-integer tokens, a literal mentioning variable 0, or an
    /// unterminated final clause.
    pub fn from_dimacs(text: &str) -> Result<Self, ParseDimacsError> {
        let mut header: Option<(usize, usize)> = None;
        let mut cnf = Cnf::new();
        let mut current: Vec<Lit> = Vec::new();
        let mut last_line = 1usize;
        for (idx, raw_line) in text.lines().enumerate() {
            let line_no = idx + 1;
            last_line = line_no;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
                continue;
            }
            if line.starts_with('p') {
                if header.is_some() {
                    return Err(ParseDimacsError {
                        line: line_no,
                        message: "duplicate `p cnf` header".into(),
                    });
                }
                let mut parts = line.split_whitespace();
                let _p = parts.next();
                if parts.next() != Some("cnf") {
                    return Err(ParseDimacsError {
                        line: line_no,
                        message: "expected `p cnf <vars> <clauses>`".into(),
                    });
                }
                let vars = parse_count(parts.next(), line_no, "variable count")?;
                let clauses = parse_count(parts.next(), line_no, "clause count")?;
                header = Some((vars, clauses));
                cnf.reserve_vars(vars);
                continue;
            }
            if header.is_none() {
                return Err(ParseDimacsError {
                    line: line_no,
                    message: "clause before the `p cnf` header".into(),
                });
            }
            for token in line.split_whitespace() {
                let value: i64 = token.parse().map_err(|_| ParseDimacsError {
                    line: line_no,
                    message: format!("`{token}` is not an integer literal"),
                })?;
                if value == 0 {
                    cnf.add_clause(current.drain(..));
                } else {
                    let index = value.unsigned_abs() as usize - 1;
                    cnf.reserve_vars(index + 1);
                    current.push(Lit::with_polarity(Var::from_index(index), value > 0));
                }
            }
        }
        if !current.is_empty() {
            return Err(ParseDimacsError {
                line: last_line,
                message: "last clause is not terminated by 0".into(),
            });
        }
        if header.is_none() {
            return Err(ParseDimacsError {
                line: last_line,
                message: "missing `p cnf` header".into(),
            });
        }
        Ok(cnf)
    }
}

impl ClauseSink for Cnf {
    fn new_var(&mut self) -> Var {
        let var = Var::from_index(self.num_vars);
        self.num_vars += 1;
        var
    }

    fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        let clause: Vec<Lit> = lits.into_iter().collect();
        for lit in &clause {
            self.reserve_vars(lit.var().index() + 1);
        }
        self.clauses.push(clause);
        true
    }

    fn num_vars(&self) -> usize {
        self.num_vars
    }
}

/// Renders one clause as DIMACS integers terminated by 0 (the clause-line
/// syntax is shared by DIMACS CNF and QDIMACS).
pub fn clause_to_dimacs(clause: &[Lit]) -> String {
    let mut out = String::new();
    for lit in clause {
        let value = lit.var().index() as i64 + 1;
        let value = if lit.is_negative() { -value } else { value };
        let _ = write!(out, "{value} ");
    }
    out.push('0');
    out
}

fn parse_count(token: Option<&str>, line: usize, what: &str) -> Result<usize, ParseDimacsError> {
    token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseDimacsError {
            line,
            message: format!("missing or malformed {what}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_aig;
    use kratt_netlist::{Aig, Circuit, GateType};
    use std::collections::HashMap;

    #[test]
    fn round_trip_preserves_clauses() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        let c = cnf.new_var();
        cnf.add_clause([Lit::positive(a), Lit::negative(b)]);
        cnf.add_clause([Lit::positive(c)]);
        cnf.add_clause([] as [Lit; 0]);
        let text = cnf.to_dimacs();
        let parsed = Cnf::from_dimacs(&text).unwrap();
        assert_eq!(parsed, cnf);
    }

    #[test]
    fn header_counts_match_content() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        cnf.add_clause([Lit::positive(a)]);
        let text = cnf.to_dimacs_with_comments(&["generated by kratt"]);
        assert!(text.starts_with("c generated by kratt\np cnf 1 1\n"));
        assert!(text.contains("\n1 0\n"));
    }

    #[test]
    fn parser_accepts_common_liberties() {
        let text = "c comment\np cnf 3 3\n1 -2 0 2 3 0\n-1\n-3 0\n% trailing\n";
        let cnf = Cnf::from_dimacs(text).unwrap();
        assert_eq!(cnf.num_clauses(), 3);
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(
            cnf.clauses()[0],
            vec![
                Lit::positive(Var::from_index(0)),
                Lit::negative(Var::from_index(1))
            ]
        );
        assert_eq!(cnf.clauses()[2].len(), 2);
    }

    #[test]
    fn variable_count_grows_past_the_header() {
        let text = "p cnf 1 1\n1 -5 0\n";
        let cnf = Cnf::from_dimacs(text).unwrap();
        assert_eq!(cnf.num_vars(), 5);
    }

    #[test]
    fn malformed_inputs_are_rejected_with_line_numbers() {
        let missing_header = "1 2 0\n";
        match Cnf::from_dimacs(missing_header) {
            Err(e) => assert!(e.to_string().contains("header")),
            Ok(_) => panic!("expected an error"),
        }

        let bad_token = "p cnf 2 1\n1 x 0\n";
        match Cnf::from_dimacs(bad_token) {
            Err(e) => {
                assert_eq!(e.line, 2);
                assert!(e.to_string().contains('x'));
            }
            Ok(_) => panic!("expected an error"),
        }

        let unterminated = "p cnf 2 1\n1 2\n";
        assert!(Cnf::from_dimacs(unterminated).is_err());

        let double_header = "p cnf 1 0\np cnf 1 0\n";
        assert!(Cnf::from_dimacs(double_header).is_err());

        let bad_header = "p sat 3 1\n";
        assert!(Cnf::from_dimacs(bad_header).is_err());

        let empty = "";
        assert!(Cnf::from_dimacs(empty).is_err());
    }

    #[test]
    fn solving_a_parsed_formula_matches_expectations() {
        // (a | b) & (!a) & (!b) is UNSAT; dropping the last clause is SAT.
        let unsat = "p cnf 2 3\n1 2 0\n-1 0\n-2 0\n";
        assert!(Cnf::from_dimacs(unsat).unwrap().solve().is_unsat());
        let sat = "p cnf 2 2\n1 2 0\n-1 0\n";
        let cnf = Cnf::from_dimacs(sat).unwrap();
        match cnf.solve() {
            SatResult::Sat(model) => {
                assert!(!model.value(Var::from_index(0)));
                assert!(model.value(Var::from_index(1)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn encoder_targets_a_cnf_sink() {
        // Encode a full adder into a Cnf, export it, re-import it, and check
        // that solving under pinned inputs reproduces the simulator outputs.
        let mut circuit = Circuit::new("fa");
        let a = circuit.add_input("a").unwrap();
        let b = circuit.add_input("b").unwrap();
        let cin = circuit.add_input("cin").unwrap();
        let s1 = circuit.add_gate(GateType::Xor, "s1", &[a, b]).unwrap();
        let sum = circuit.add_gate(GateType::Xor, "sum", &[s1, cin]).unwrap();
        let c1 = circuit.add_gate(GateType::And, "c1", &[a, b]).unwrap();
        let c2 = circuit.add_gate(GateType::And, "c2", &[s1, cin]).unwrap();
        let cout = circuit.add_gate(GateType::Or, "cout", &[c1, c2]).unwrap();
        circuit.mark_output(sum);
        circuit.mark_output(cout);

        let mut cnf = Cnf::new();
        let aig = Aig::from_circuit(&circuit).unwrap();
        let encoding = encode_aig(&mut cnf, &aig, &HashMap::new());
        let round_tripped = Cnf::from_dimacs(&cnf.to_dimacs()).unwrap();

        let sim = kratt_netlist::sim::Simulator::new(&circuit).unwrap();
        for pattern in 0u64..8 {
            let bits: Vec<bool> = (0..3).map(|i| pattern >> i & 1 != 0).collect();
            let expected = sim.run(&bits).unwrap();
            let mut solver = round_tripped.to_solver();
            let assumptions: Vec<Lit> = encoding
                .inputs()
                .iter()
                .zip(&bits)
                .map(|(&(_, var), &value)| Lit::with_polarity(var, value))
                .collect();
            match solver.solve_with_assumptions(&assumptions) {
                SatResult::Sat(model) => {
                    assert_eq!(model.lit_is_true(encoding.outputs()[0]), expected[0]);
                    assert_eq!(model.lit_is_true(encoding.outputs()[1]), expected[1]);
                }
                other => panic!("expected SAT, got {other:?}"),
            }
        }
    }

    proptest::proptest! {
        /// Random CNF formulas survive a DIMACS round trip unchanged, and the
        /// solver's verdict is identical before and after.
        #[test]
        fn prop_dimacs_round_trip(seed in 0u64..50) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cnf = Cnf::new();
            let vars: Vec<Var> = (0..rng.gen_range(2..8usize)).map(|_| cnf.new_var()).collect();
            for _ in 0..rng.gen_range(1..20usize) {
                let width = rng.gen_range(1..4usize);
                let clause: Vec<Lit> = (0..width)
                    .map(|_| {
                        let var = vars[rng.gen_range(0..vars.len())];
                        Lit::with_polarity(var, rng.gen_bool(0.5))
                    })
                    .collect();
                cnf.add_clause(clause);
            }
            let text = cnf.to_dimacs();
            let parsed = Cnf::from_dimacs(&text).unwrap();
            proptest::prop_assert_eq!(&parsed, &cnf);
            proptest::prop_assert_eq!(parsed.solve().is_sat(), cnf.solve().is_sat());
        }
    }
}

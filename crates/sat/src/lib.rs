//! A from-scratch CDCL SAT solver plus circuit-to-CNF encoding.
//!
//! The KRATT paper drives two reasoning engines: the CryptoMiniSat SAT solver
//! and the DepQBF QBF solver. This crate is the reproduction's replacement for
//! the former (and the foundation the 2QBF engine in `kratt-qbf` is built on):
//!
//! * [`Lit`], [`Var`] — literal/variable types.
//! * [`Solver`] — a conflict-driven clause-learning solver with two-watched
//!   literals, 1-UIP learning, VSIDS + phase saving, Luby restarts and
//!   LBD-based learnt-clause reduction. It supports incremental solving under
//!   assumptions, a per-call conflict budget and a wall-clock [`Deadline`]
//!   (so the oracle-guided baseline attacks can "time out" exactly as in
//!   the paper's Table III).
//! * [`Deadline`] — the one stop condition of the whole suite: an absolute
//!   wall-clock limit plus a shared [`CancelFlag`]. An attack starts one
//!   per request, and the SAT solver, the QBF CEGAR loop of `kratt-qbf`,
//!   the FRAIG of `kratt-synth` and KRATT's structural analysis all stop
//!   on a clone of it.
//! * [`encode_aig`] — the one circuit-to-CNF translation: a
//!   [`kratt_netlist::Circuit`] is lowered into an [`kratt_netlist::Aig`]
//!   and its compact Tseitin image emitted into a solver, with input
//!   variables shared across encodings by name (the building block for
//!   miters, the SAT attack, the QBF loop and every other SAT query).
//! * [`cnf`] — standalone [`Cnf`] formulas, the [`ClauseSink`] abstraction
//!   [`encode_aig`] targets, and DIMACS reading/writing so instances can be
//!   exchanged with external solvers such as CryptoMiniSat, exactly as the
//!   original tool does.
//!
//! # Example
//!
//! ```
//! use kratt_sat::{Solver, Lit, SatResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! // (a OR b) AND (NOT a OR b) forces b = true.
//! solver.add_clause([Lit::positive(a), Lit::positive(b)]);
//! solver.add_clause([Lit::negative(a), Lit::positive(b)]);
//! match solver.solve() {
//!     kratt_sat::SatResult::Sat(model) => assert!(model.value(b)),
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! ```

pub mod cnf;
pub mod deadline;
pub mod encode;
mod heap;
pub mod lit;
pub mod solver;

pub use cnf::{ClauseSink, Cnf, ParseDimacsError};
pub use deadline::{CancelFlag, Deadline};
pub use encode::{encode_aig, AigEncoding};
pub use lit::{Lit, Var};
pub use solver::{Model, SatResult, Solver, SolverConfig, SolverStats};

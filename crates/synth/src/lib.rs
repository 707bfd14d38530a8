//! Logic-synthesis substrate: functionality-preserving resynthesis and
//! SAT-based equivalence checking.
//!
//! The paper uses Cadence Genus for two things: (1) synthesising the locked
//! RTL so the regular structure of the locking unit is broken before the
//! attacks run, and (2) producing 50 functionally-equivalent but structurally
//! different variants of the locked c6288 circuit for the resynthesis study
//! of Fig. 6. This crate is the reproduction's stand-in, built on the AIG
//! core IR ([`aig`], re-exporting [`kratt_netlist::aig`] plus the seeded
//! rewrite passes): a seeded, effort-controlled pipeline — lower,
//! shuffle-balance, styled raising — that preserves the circuit function
//! while scrambling its structure, plus a FRAIG equivalence checker
//! ([`equivalence`]: shared-AIG hashing, packed-simulation candidate
//! classes, a substitution sweep that rebuilds the AIG onto proven
//! representatives with SAT on a lazily loaded CNF, per-output queries)
//! used to validate every transformation. The [`passes`] module adds the two
//! remaining things a commercial flow does to a netlist — SAT sweeping
//! (merging provably equivalent logic) and technology mapping onto a small
//! standard-cell library.
//!
//! # Example
//!
//! ```
//! use kratt_netlist::{Circuit, GateType};
//! use kratt_synth::{resynthesize, ResynthesisOptions, check_equivalence, EquivalenceResult};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut c = Circuit::new("toy");
//! let a = c.add_input("a")?;
//! let b = c.add_input("b")?;
//! let x = c.add_gate(GateType::Nand, "x", &[a, b])?;
//! let y = c.add_gate(GateType::Xor, "y", &[x, a])?;
//! c.mark_output(y);
//!
//! let variant = resynthesize(&c, &ResynthesisOptions::with_seed(7))?;
//! assert!(matches!(check_equivalence(&c, &variant)?, EquivalenceResult::Equivalent));
//! # Ok(())
//! # }
//! ```

pub mod aig;
pub mod equivalence;
pub mod error;
pub mod passes;
pub mod resynth;

pub use aig::{Aig, AigLit};
pub use equivalence::{
    check_equivalence, check_equivalence_with_budget, check_equivalence_with_stats,
    EquivalenceResult, FraigStats,
};
pub use error::SynthError;
pub use passes::{map_to_cell_library, sat_sweep, CellLibrary, SatSweepOptions};
pub use resynth::{resynthesize, Effort, ResynthesisOptions};

//! Gate-level combinational netlist infrastructure for the KRATT reproduction.
//!
//! This crate is the substrate every other crate builds on. It provides:
//!
//! * [`Circuit`] — a gate-level combinational netlist with named nets, primary
//!   inputs/outputs and a key-input naming convention (`keyinput*`), mirroring
//!   how locked ISCAS'85 / ITC'99 benchmarks are distributed.
//! * [`GateType`] — the Boolean gate library used by the ISCAS `.bench` format.
//! * `.bench` parsing and writing ([`bench`](mod@bench)) and structural
//!   gate-level Verilog parsing and writing ([`verilog`]).
//! * Single-pattern and 64-way bit-parallel simulation ([`sim`]).
//! * The structurally-hashed And-Inverter-Graph core IR ([`aig`]):
//!   complemented edges, constant folding, `Circuit ↔ Aig` lowering/raising
//!   that preserves the primary interface, packed node simulation and
//!   AIG-side miters — the shared substrate of resynthesis, CNF encoding
//!   and fraig-style equivalence checking.
//! * Structural analysis: topological ordering, fan-in/fan-out cones, logic
//!   levels, and circuit statistics ([`analysis`]).
//! * Functionality-preserving and key-aware transformations: constant
//!   propagation, cone extraction, input substitution and cone removal
//!   ([`transform`]) — the building blocks of KRATT's *logic removal* and
//!   *circuit modification* steps as well as of the resynthesis engine.
//!
//! # Example
//!
//! ```
//! use kratt_netlist::{Circuit, GateType};
//!
//! # fn main() -> Result<(), kratt_netlist::NetlistError> {
//! // Build a 3-input majority gate: maj = ab + ax + bx.
//! let mut c = Circuit::new("majority");
//! let a = c.add_input("a")?;
//! let b = c.add_input("b")?;
//! let x = c.add_input("x")?;
//! let ab = c.add_gate(GateType::And, "ab", &[a, b])?;
//! let ax = c.add_gate(GateType::And, "ax", &[a, x])?;
//! let bx = c.add_gate(GateType::And, "bx", &[b, x])?;
//! let maj = c.add_gate(GateType::Or, "maj", &[ab, ax, bx])?;
//! c.mark_output(maj);
//! assert_eq!(c.simulate(&[true, true, false])?, vec![true]);
//! assert_eq!(c.simulate(&[true, false, false])?, vec![false]);
//! # Ok(())
//! # }
//! ```

pub mod aig;
pub mod analysis;
pub mod bench;
pub mod circuit;
pub mod error;
pub mod gate;
pub mod rewrite;
mod rewrite_table;
pub mod sim;
pub mod transform;
pub mod verilog;

// The test references name this crate `kratt_netlist`, as the other crates
// that include them do.
#[cfg(test)]
extern crate self as kratt_netlist;
#[cfg(test)]
#[allow(dead_code)] // The critical-signal reference is for the attack crates.
mod reference;

pub use aig::{Aig, AigLit, AigStats, AigViolation};
pub use circuit::{Circuit, GateId, NetId};
pub use error::NetlistError;
pub use gate::GateType;

/// Default prefix used to recognise key inputs among the primary inputs of a
/// locked netlist (`keyinput0`, `keyinput1`, ...). This follows the naming
/// convention of the public locked ISCAS/ITC benchmark suites used in the
/// paper's evaluation.
pub const KEY_INPUT_PREFIX: &str = "keyinput";

//! KRATT: a QBF-assisted removal and structural analysis attack against
//! logic locking (Aksoy, Yasin & Pagliarini, DATE 2024).
//!
//! KRATT attacks state-of-the-art SAT-resilient locking techniques — single
//! flip locking techniques (SFLTs: SARLock, Anti-SAT, CAS-Lock, Gen-Anti-SAT)
//! and double flip locking techniques (DFLTs: TTLock, CAC, SFLL-HD) — under
//! both the oracle-less (OL) and oracle-guided (OG) threat models. Its flow
//! (the paper's Fig. 4) is implemented module by module:
//!
//! 1. [`removal`] — *logic removal*: identify the critical signal `cs1`,
//!    extract the locking/restore unit, build the unit-stripped circuit and
//!    associate every protected primary input with its key input(s).
//! 2. [`qbf_attack`] — *QBF*: solve `∃K ∀PPI unit(PPI, K) = const` with the
//!    CEGAR 2QBF engine; a witness is the secret key of an SFLT.
//! 3. [`classify`] — decide whether the unit is a (complemented) PPI↔key
//!    comparator, i.e. the restore unit of a DFLT: packed simulation
//!    refutes, a BDD comparison decides, and SAT runs only past the BDD's
//!    node budget.
//! 4. [`extraction`] — *logic extraction*: the locked subcircuit spanned by
//!    the primary outputs the critical signal reaches.
//! 5. [`ol`] — OL path: *circuit modification* plus the SCOPE attack on the
//!    modified unit/subcircuit.
//! 6. [`og`] — OG path: *structural analysis* of the PPI-only logic cones
//!    and oracle-driven exhaustive search over the promising patterns.
//! 7. [`reconstruct`] — the paper's §V discussion: rebuild the original
//!    circuit from the FSC once the protected pattern is known.
//!
//! The [`KrattAttack`] orchestrator strings these together exactly as the
//! flow chart does: steps 1–3 run once, and the threat model picks the
//! branch after classification.
//!
//! # Example
//!
//! ```
//! use kratt::KrattAttack;
//! use kratt_attacks::AttackOutcome;
//! use kratt_locking::{LockingTechnique, SarLock, SecretKey};
//! use kratt_netlist::{Circuit, GateType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's running example: a majority circuit locked by SARLock.
//! let mut c = Circuit::new("majority");
//! let x1 = c.add_input("x1")?;
//! let x2 = c.add_input("x2")?;
//! let x3 = c.add_input("x3")?;
//! let a = c.add_gate(GateType::And, "a", &[x1, x2])?;
//! let b = c.add_gate(GateType::And, "b", &[x1, x3])?;
//! let d = c.add_gate(GateType::And, "d", &[x2, x3])?;
//! let f = c.add_gate(GateType::Or, "f", &[a, b, d])?;
//! c.mark_output(f);
//!
//! let secret = SecretKey::from_u64(0b100, 3);
//! let locked = SarLock::new(3).lock(&c, &secret)?;
//!
//! let report = KrattAttack::new().attack_oracle_less(&locked.circuit)?;
//! match report.outcome {
//!     AttackOutcome::ExactKey(key) => assert_eq!(key.to_u64(), 0b100),
//!     other => panic!("QBF should pin the SARLock key, got {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

pub mod attack;
pub mod classify;
pub mod error;
pub mod extraction;
pub mod og;
pub mod ol;
pub mod qbf_attack;
pub mod reconstruct;
pub mod removal;

// The logic-removal references of kratt-netlist's tests, one copy for
// every crate that checks against them.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../netlist/src/reference.rs"]
mod reference;

pub use attack::{attack_registry, KrattAttack, KrattConfig, KrattPath, KrattReport};
pub use classify::UnitClass;
pub use error::KrattError;
pub use removal::RemovalArtifacts;

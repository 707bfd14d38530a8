//! Abstract interpretation over the AIG (and, through a thin adapter, over
//! gate-level circuits): one reusable analysis substrate for the static
//! questions every KRATT consumer keeps re-deriving — "which outputs can
//! this key bit reach, with what polarity, under what constants?".
//!
//! The crate is organised around the [`Domain`] trait family:
//!
//! * [`Domain`] — the lattice core: a value type with `bottom`/`top`,
//!   `join` and a widening hook.
//! * [`ForwardDomain`] — the transfer functions of a forward analysis over
//!   the AIG's two primitives: AND nodes and complemented edges.
//! * [`BackwardDomain`] — the transfer function of a backward analysis,
//!   distributing a node's value to its fanins.
//!
//! The engines are one-pass: AIG nodes are topologically ordered by
//! construction, so [`forward`] (and [`backward`] in reverse) reach the
//! fixed point of a combinational netlist in a single sweep. The `widen`
//! hook exists for future sequential/unrolled analyses.
//!
//! Five domains ship with the crate:
//!
//! * [`ternary`] — 0/1/X constant propagation, cofactor-aware: analyse
//!   under each `key[i] = 0/1` restriction via [`ternary::propagate`] and
//!   [`ternary::cofactors`]. Powers the `key-forced-bit` lint and the
//!   AIG-side SCOPE signatures.
//! * [`support`] — per-node key-input support bitsets plus data-dependence
//!   tracking ([`support::KeySupport`]); [`SupportDomain::for_positions`]
//!   seeds the same domain with any input class by position (the OG
//!   structural analysis tracks the protected primary inputs with it).
//! * [`unateness`] — per key input, the structural polarity (positive /
//!   negative / binate) a node depends on it with.
//! * [`probability`] — signal-probability lanes under the independence
//!   heuristic; exact at 0.0/1.0, a comparator-tree detector in between.
//! * [`observability`] — a backward pass computing which nodes can still
//!   influence an output under a ternary restriction (observability
//!   don't-cares).
//!
//! To add a domain: pick a `Value`, implement [`Domain`] plus
//! [`ForwardDomain`] (or [`BackwardDomain`]), and run it with [`forward`] /
//! [`backward`] — or over a gate-level netlist with
//! [`circuit::CircuitAnalysis`], which lowers each gate onto the same two
//! primitives on the fly.

pub mod circuit;
pub mod domain;
pub(crate) mod keys;
pub mod observability;
pub mod probability;
pub mod support;
pub mod ternary;
pub mod unateness;

pub use circuit::CircuitAnalysis;
pub use domain::{
    backward, edge_value, forward, forward_pinned, BackwardDomain, Domain, ForwardDomain,
};
pub use observability::ObservabilityAnalysis;
pub use probability::{ProbabilityAnalysis, ProbabilityDomain};
pub use support::{KeySupport, SupportDomain};
pub use ternary::{lit_value, propagate, Ternary, TernaryDomain};
pub use unateness::{Unateness, UnatenessAnalysis, UnatenessDomain};

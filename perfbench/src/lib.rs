//! The KRATT suite's benchmark: seeded lock → attack → verify workloads
//! driven through the public attack and campaign APIs, reported as
//! end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
//! See `README.md` beside this crate for the workloads and metrics.

pub mod bench;
pub mod cells;
pub mod corpus;
pub mod stats;
pub mod trace;
pub mod traced;

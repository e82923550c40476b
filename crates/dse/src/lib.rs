//! Fleet-scale design-space exploration for the DATE-19 co-design.
//!
//! The paper picks *one* point (L3 tail, 30 MB SRAM, 128 MB STT-MRAM)
//! out of a large joint hardware/algorithm space. This crate sweeps that
//! space — SRAM capacity × MRAM capacity × memory technology
//! ([`TechKind`](mramrl_mem::TechKind)) × training topology × batch size
//! × scenario mix — scoring every configuration with `mramrl_accel`'s
//! analytic cost model and `mramrl_mem`'s endurance accounting, and
//! reduces the result to a **4-axis Pareto frontier**:
//!
//! * inference throughput (fps, maximise),
//! * energy per frame (mJ, minimise),
//! * online-training latency per image (ms, minimise),
//! * modeled NVM endurance lifetime (years, maximise — write-free
//!   designs are unbounded).
//!
//! The sweep fans out over the deterministic `mramrl_nn::pool` in fixed
//! chunks ([`sweep`]): every point is a pure function of its
//! [`DseConfig`], each output slot is written by exactly one task, and
//! the chunk size is independent of the pool width — so the full result
//! vector, and therefore the rendered report, is **byte-identical at any
//! pool size and on every bitwise GEMM backend** (the `dse-determinism`
//! CI gate pins this; see `docs/design_space.md` for the argument).
//!
//! # Examples
//!
//! ```
//! use mramrl_dse::{pareto_frontier, DesignSpace};
//!
//! let space = DesignSpace::tiny();
//! let results = mramrl_dse::sweep(&space);
//! assert_eq!(results.len(), space.len());
//! let frontier = pareto_frontier(&results);
//! assert!(!frontier.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;
mod pareto;
pub mod report;
mod space;

pub use eval::{evaluate, sweep, sweep_serial, DseResult};
pub use pareto::{dominates, pareto_frontier};
pub use report::{render_csv, render_json};
pub use space::{tech_params, DesignSpace, DseConfig, ScenarioMix};

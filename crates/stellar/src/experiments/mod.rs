//! Experiment drivers — one per paper figure/table.
//!
//! Every driver takes a `scale` factor applied to workload sizes: `1.0`
//! reproduces the paper-scale runs (used by the bench binaries), smaller
//! values keep the integration tests fast. Scaling shrinks byte/file counts,
//! never the structure, so the qualitative shape is preserved.

pub mod casestudy;
pub mod cost;
pub mod figures;
pub mod iterations;
pub mod scaling;

pub use casestudy::case_study;
pub use cost::{cost_table, CostRow};
pub use figures::{
    fig2, fig5, fig6, fig7, fig8, fig9, params_table, Fig5Row, Fig8Row, Fig9Row, IterSeries,
};
pub use iterations::{iteration_cost, IterationRow};
pub use scaling::{scaling_experiment, ScaleRow};

use workloads::{Workload, WorkloadKind};

/// Instantiate a workload at the given scale.
pub(crate) fn scaled(kind: WorkloadKind, scale: f64) -> Box<dyn Workload> {
    kind.spec_at(scale)
}

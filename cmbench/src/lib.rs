//! Helpers of the clockmark paper-scale benchmark: order statistics, the
//! benchmark's own span recorder, seeded synthetic inputs and the result
//! format. The workloads themselves live in the `cmbench` binary.

pub mod report;
pub mod stats;
pub mod synth;
pub mod tracer;

//! A Target's storage stack: NVMe queueing discipline ([`nvme_queues`])
//! feeding the SSD model ([`ssd_sim`]), and the one device-level event
//! loop that runs it with no network in the way.
//!
//! This is the harness behind the paper's device-level experiments:
//! Fig. 5's weight-ratio sweeps, and the training-sample generation for
//! the throughput prediction model (Tables I and III). The same runner
//! hosts in-the-loop controllers ([`NodeControl`]), which is how the
//! reactive-vs-TPM ablation steers the weights. The full
//! disaggregated system (initiators, RDMA network, DCQCN, SRC) lives in
//! the `system-sim` crate and reuses [`StorageNode`] as the per-target
//! storage stack.
//!
//! # Example
//!
//! ```
//! use storage_node::{run_trace, DisciplineKind, NodeConfig};
//! use workload::micro::{generate_micro, MicroConfig};
//!
//! let trace = generate_micro(&MicroConfig { read_count: 200, write_count: 200,
//!     ..MicroConfig::default() }, 1);
//! let cfg = NodeConfig { discipline: DisciplineKind::Ssq { weight: 2 },
//!     ..NodeConfig::default() };
//! let report = run_trace(&cfg, &trace);
//! assert_eq!(report.reads_completed + report.writes_completed, 400);
//! ```

pub mod node;
pub mod report;
pub mod runner;
pub mod sweep;

pub use node::{DisciplineKind, NodeConfig, StorageNode};
pub use report::NodeReport;
pub use runner::{
    run_trace, run_trace_windowed, run_trace_windowed_in, run_trace_windowed_with_control,
    run_trace_windowed_with_schedule, run_trace_with_schedule, NodeControl,
};
pub use sweep::{weight_sweep, weight_sweep_source, SweepPoint};

//! An MQSim-like NVMe SSD simulator (the paper's storage substrate,
//! ref \[22\]).
//!
//! The model captures the internals that make the paper's storage-side
//! rate control work:
//!
//! * **Internal parallelism** — a grid of flash channels × chips; page
//!   reads/programs occupy a chip for the cell latency and the shared
//!   channel bus for the transfer time, so reads and writes *interfere*
//!   while sharing backend resources (the effect Fig. 5 sweeps).
//! * **Write cache** — writes complete into a byte-bounded cache and are
//!   destaged to flash in the background; when the cache fills, writes
//!   become flash-bound (paper: "workloads with high write contention can
//!   easily saturate I/O bandwidth").
//! * **Cached mapping table (CMT)** — an LRU translation cache; a miss
//!   costs an extra mapping-page read on the target chip.
//! * **Greedy garbage collection** — when free pages run low, GC copies
//!   valid pages (read + program per copy), stealing chip time.
//!
//! The simulator is caller-driven: [`Ssd::submit`] and [`Ssd::handle`]
//! return newly scheduled `(SimTime, SsdEvent)` pairs and completions;
//! the owner (the storage-node loop) owns the event queue. Configurations
//! for the paper's SSD-A/B/C (Table II) are in [`config`].
//!
//! # Example
//!
//! ```
//! use ssd_sim::{Ssd, SsdCommand, SsdConfig};
//! use sim_engine::{EventQueue, SimTime};
//! use workload::IoType;
//!
//! let mut ssd = Ssd::new(SsdConfig::ssd_b());
//! let mut q = EventQueue::new();
//! let step = ssd.submit(SsdCommand { id: 1, op: IoType::Read,
//!     lba: 0, size: 16 * 1024 }, SimTime::ZERO);
//! for (t, e) in step.schedule { q.schedule(t, e); }
//! let mut done = 0;
//! while let Some((t, e)) = q.pop() {
//!     let s = ssd.handle(e, t);
//!     done += s.completions.len();
//!     for (t2, e2) in s.schedule { q.schedule(t2, e2); }
//! }
//! assert_eq!(done, 1);
//! ```

pub mod cache;
pub mod cmt;
pub mod config;
pub mod ftl;
pub mod ssd;

pub use config::SsdConfig;
pub use ssd::{CommandCompletion, CommandRelease, Ssd, SsdCommand, SsdEvent, SsdStep};

//! A packet-level RDMA/RoCE network simulator — the NS3-RDMA \[24\]
//! substitute in this reproduction (see DESIGN.md).
//!
//! Pieces:
//!
//! * [`topology`] — hosts/switches/links, BFS shortest-path routing with
//!   flow-hashed ECMP, and builders for the paper's Clos fabric
//!   (Sec. IV-A: 4 pods × (2 leaf + 4 ToR) × 64 hosts, 40 Gbps, 1 µs)
//!   and a single-switch star for the incast scenarios.
//! * [`dcqcn`] — the DCQCN NP/RP state machines (SIGCOMM'15 \[4\]).
//! * [`network`] — the simulator: host NICs with per-flow token-bucket
//!   shaping at the DCQCN rate, output-queued switches with RED-style
//!   ECN marking between Kmin/Kmax, PFC XOFF/XON pause frames with
//!   per-ingress accounting, store-and-forward links.
//!
//! The driver (fabric/system-sim) calls [`Network::send`] /
//! [`Network::handle`] and owns the event queue, exactly like the SSD
//! model. [`network::NetStep::rate_changes`] is the signal SRC's
//! controller subscribes to ("a required data sending rate calculated by
//! RDMA Driver", Sec. III).
//!
//! # Example
//!
//! ```
//! use net_sim::{build_star, DcqcnParams, Network, PfcParams, DEFAULT_MTU};
//! use sim_engine::{EventQueue, Rate, SimDuration, SimTime};
//!
//! let clos = build_star(2, Rate::from_gbps(40), SimDuration::from_us(1));
//! let hosts = clos.hosts.clone();
//! let mut net = Network::new(clos.topology, DcqcnParams::default(),
//!     PfcParams::default(), DEFAULT_MTU);
//! let flow = net.add_flow(hosts[0], hosts[1]);
//! let mut q = EventQueue::new();
//! for (t, e) in net.send(flow, 64 * 1024, 7, SimTime::ZERO).schedule {
//!     q.schedule(t, e);
//! }
//! let mut delivered = 0;
//! while let Some((now, ev)) = q.pop() {
//!     let step = net.handle(ev, now);
//!     delivered += step.deliveries.iter().map(|d| d.bytes).sum::<u64>();
//!     for (t, e) in step.schedule { q.schedule(t, e); }
//! }
//! assert_eq!(delivered, 64 * 1024);
//! ```

pub mod dcqcn;
pub mod network;
pub mod timely;
pub mod topology;

pub use dcqcn::{DcqcnParams, NpState, RpStage, RpState};
pub use network::{CcMode, Delivery, FlowId, NetEvent, NetStep, Network, PfcParams};
pub use timely::{TimelyParams, TimelyState};
pub use topology::{build_clos, build_star, Clos, ClosConfig, NodeId, NodeKind, Topology};

/// Default RoCE MTU used by the simulators (4096-byte frames keep event
/// counts tractable while staying a realistic RoCE MTU).
pub const DEFAULT_MTU: u64 = 4096;

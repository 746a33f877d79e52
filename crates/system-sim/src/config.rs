//! System configuration and workload assignment.

use crate::error::SimError;
use net_sim::{ClosConfig, DcqcnParams, PfcParams};
use serde::{Deserialize, Serialize};
use sim_engine::{FaultPlan, Rate, SimDuration, SimTime};
use src_core::SrcConfig;
use ssd_sim::SsdConfig;
use workload::micro::MicroConfig;
use workload::source::{WorkloadSource, WorkloadSpec};
use workload::{Request, Trace};

/// Which fabric shape to build.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum TopologyKind {
    /// All hosts on one ToR switch (the incast scenarios).
    Star {
        /// Link rate.
        rate: Rate,
        /// Link propagation delay.
        delay: SimDuration,
    },
    /// The paper's multi-pod Clos (Sec. IV-A).
    Clos(ClosConfig),
}

impl Default for TopologyKind {
    fn default() -> Self {
        TopologyKind::Star {
            rate: Rate::from_gbps(40),
            delay: SimDuration::from_us(1),
        }
    }
}

/// Which network congestion-control scheme runs on the fabric.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CcChoice {
    /// DCQCN (the paper's choice).
    Dcqcn,
    /// TIMELY (RTT-gradient; demonstrates SRC is CC-agnostic).
    Timely,
}

/// Baseline or SRC-assisted congestion control.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// DCQCN only; Targets run the default FIFO NVMe queues.
    DcqcnOnly,
    /// DCQCN plus SRC: Targets run SSQ and the SRC controller adjusts
    /// the weights on congestion notifications.
    DcqcnSrc,
}

/// Background traffic crossing the measured Initiator's downlink.
///
/// The paper's testbed is a 256-host Clos whose fabric is shared by many
/// tenants; congestion on the measured flows comes from that sharing. We
/// make the congestion source explicit and controllable: `n_sources`
/// extra hosts each blast `bytes_per_burst` at Initiator 0 every
/// `burst_interval` during `[start, stop)`. The background flows are
/// ordinary DCQCN flows — they get throttled too, sustaining exactly the
/// kind of persistent, partially-controlled congestion the paper's
/// Figs. 7–8 show (heavy at the start, relieved later).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BackgroundTraffic {
    /// Number of background sender hosts.
    pub n_sources: usize,
    /// Fixed (non-adaptive) sending rate per source. Background flows do
    /// not participate in DCQCN — they model competing tenants whose
    /// traffic the measured flows cannot negotiate with.
    pub rate_per_source: Rate,
    /// Bytes sent per burst per source.
    pub bytes_per_burst: u64,
    /// Interval between bursts.
    pub burst_interval: SimDuration,
    /// First burst time.
    pub start: SimTime,
    /// No bursts at or after this time.
    pub stop: SimTime,
}

/// How Initiators choose the Target for each request.
///
/// `Static` follows the assignment list (data lives on exactly one
/// Target). `LeastLoaded` is the extension the paper's Sec. IV-F
/// proposes for the large-in-cast regime (citing replica-placement work
/// \[29\]): data is replicated across Targets and each request goes to the
/// currently least-loaded one, re-concentrating per-Target queues so the
/// weighted round-robin keeps its authority.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetSelection {
    /// Use the per-request assignment as given.
    Static,
    /// Route each request to the Target with the fewest outstanding
    /// commands (requires replicated data).
    LeastLoaded,
    /// Consolidate: fill the first Target up to `cap` outstanding
    /// commands before spilling to the next. Deepens per-Target queues
    /// so the weighted round-robin keeps its authority at large in-cast
    /// ratios — the distribution direction the paper's Sec. IV-F
    /// remedy needs.
    Pack {
        /// Outstanding-command threshold before spilling over.
        cap: usize,
    },
}

/// Full system configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Fabric shape.
    pub topology: TopologyKind,
    /// Number of Initiator hosts.
    pub n_initiators: usize,
    /// Number of Target hosts.
    pub n_targets: usize,
    /// SSD model per Target. A single-element vector is the homogeneous
    /// shorthand: that one device model applies to every Target. A
    /// longer vector must have exactly `n_targets` entries, giving each
    /// Target its own device (heterogeneous fleets; see DESIGN.md
    /// "Heterogeneous fleets").
    pub ssds: Vec<SsdConfig>,
    /// Workload source per Target, mirroring the `ssds` shape: a
    /// single-element vector is the homogeneous shorthand (one spec
    /// drives the whole system through [`spread_source`]), while an
    /// `n_targets`-length vector gives each Target its own source
    /// (resolved through [`per_target_sources`], each Target seeded
    /// with `seed + t`). See [`SystemConfig::assignments`].
    pub workloads: Vec<WorkloadSpec>,
    /// Baseline vs SRC.
    pub mode: Mode,
    /// DCQCN parameters (also carries the switch ECN thresholds).
    pub dcqcn: DcqcnParams,
    /// PFC thresholds.
    pub pfc: PfcParams,
    /// RoCE MTU.
    pub mtu: u64,
    /// Target TXQ watermarks `(high, low)` gating the SSD fetch.
    pub txq_watermarks: (u64, u64),
    /// SRC controller configuration (used in `DcqcnSrc` mode).
    pub src: SrcConfig,
    /// Optional background congestion (see [`BackgroundTraffic`]).
    pub background: Option<BackgroundTraffic>,
    /// Target-selection policy (see [`TargetSelection`]).
    pub target_selection: TargetSelection,
    /// Network congestion-control scheme.
    pub cc: CcChoice,
    /// Scheduled fault injection (see [`FaultPlan`]). The default empty
    /// plan schedules nothing and reproduces fault-free runs
    /// bit-identically; [`crate::RunOptions::faults`] can override it
    /// per run.
    pub faults: FaultPlan,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            topology: TopologyKind::default(),
            n_initiators: 1,
            n_targets: 2,
            ssds: vec![SsdConfig::ssd_a()],
            workloads: vec![WorkloadSpec::Micro(MicroConfig::default())],
            mode: Mode::DcqcnOnly,
            dcqcn: DcqcnParams::default(),
            pfc: PfcParams::default(),
            mtu: net_sim::DEFAULT_MTU,
            txq_watermarks: (256 * 1024, 128 * 1024),
            src: SrcConfig::default(),
            background: None,
            target_selection: TargetSelection::Static,
            cc: CcChoice::Dcqcn,
            faults: FaultPlan::default(),
        }
    }
}

impl SystemConfig {
    /// Builder starting from [`SystemConfig::default`].
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: SystemConfig::default(),
            fleet_explicit: false,
            workloads_explicit: false,
        }
    }

    /// Builder starting from this configuration — the idiom for mode
    /// variants of a shared base (`base.to_builder().mode(…).build()`).
    pub fn to_builder(&self) -> SystemConfigBuilder {
        SystemConfigBuilder {
            fleet_explicit: self.ssds.len() > 1,
            workloads_explicit: self.workloads.len() > 1,
            cfg: self.clone(),
        }
    }

    /// The device model serving Target `t` — `ssds[t]`, or the single
    /// shared entry under the homogeneous shorthand.
    ///
    /// # Panics
    /// Panics when `t >= n_targets` or the fleet shape is invalid (see
    /// [`SystemConfig::validate_fleet`]).
    pub fn ssd_for(&self, t: usize) -> &SsdConfig {
        assert!(t < self.n_targets, "target {t} out of {}", self.n_targets);
        self.validate_fleet();
        if self.ssds.len() == 1 {
            &self.ssds[0]
        } else {
            &self.ssds[t]
        }
    }

    /// Check the fleet shape: `ssds` must hold either one entry (the
    /// homogeneous shorthand) or exactly one entry per Target.
    ///
    /// # Panics
    /// Panics on any other length.
    pub fn validate_fleet(&self) {
        assert!(
            self.ssds.len() == 1 || self.ssds.len() == self.n_targets,
            "ssds holds {} device configs for {} targets (expected 1 or {})",
            self.ssds.len(),
            self.n_targets,
            self.n_targets
        );
        assert!(!self.ssds.is_empty(), "ssds must not be empty");
    }

    /// True when the Targets do not all run the same device model.
    pub fn is_heterogeneous(&self) -> bool {
        self.ssds.len() > 1 && self.ssds.iter().any(|s| *s != self.ssds[0])
    }

    /// The workload source driving Target `t` — `workloads[t]`, or the
    /// single shared entry under the homogeneous shorthand.
    ///
    /// # Panics
    /// Panics when `t >= n_targets` or the workloads shape is invalid
    /// (see [`SystemConfig::validate_workloads`]).
    pub fn workload_for(&self, t: usize) -> &WorkloadSpec {
        assert!(t < self.n_targets, "target {t} out of {}", self.n_targets);
        self.validate_workloads();
        if self.workloads.len() == 1 {
            &self.workloads[0]
        } else {
            &self.workloads[t]
        }
    }

    /// Check the workloads shape: `workloads` must hold either one entry
    /// (the homogeneous shorthand) or exactly one entry per Target.
    ///
    /// # Panics
    /// Panics on any other length.
    pub fn validate_workloads(&self) {
        assert!(
            self.workloads.len() == 1 || self.workloads.len() == self.n_targets,
            "workloads holds {} specs for {} targets (expected 1 or {})",
            self.workloads.len(),
            self.n_targets,
            self.n_targets
        );
        assert!(!self.workloads.is_empty(), "workloads must not be empty");
    }

    /// Resolve the configured workload sources into the assignment list
    /// for one simulation, deterministically from `seed`.
    ///
    /// * Homogeneous shorthand (one spec): the spec generates a single
    ///   trace with `seed` and [`spread_source`] fans it out across all
    ///   initiators and targets — exactly the legacy
    ///   `generate(cfg, seed)` + [`spread_trace`] call sequence.
    /// * Per-Target specs: each Target `t` generates its own trace with
    ///   seed `seed + t` and [`per_target_sources`] interleaves them —
    ///   exactly the legacy per-target `generate(cfg, seed + t)` +
    ///   [`per_target_traces`] sequence.
    pub fn assignments(&self, seed: u64) -> Vec<Assignment> {
        self.validate_workloads();
        if self.workloads.len() == 1 {
            spread_source(&self.workloads[0], seed, self.n_initiators, self.n_targets)
        } else {
            per_target_sources(&self.workloads, seed, self.n_initiators)
        }
    }
}

/// Fluent builder for [`SystemConfig`]; every setter has the field's
/// name and the field's documentation applies.
///
/// ```
/// use system_sim::{Mode, SystemConfig};
///
/// let base = SystemConfig::builder().n_targets(4).build();
/// let src = base.to_builder().mode(Mode::DcqcnSrc).build();
/// assert_eq!(src.n_targets, 4);
/// ```
#[derive(Clone, Debug)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
    /// Set once the fleet is given explicitly (`ssds` /
    /// `ssd_for_target`), after which [`SystemConfigBuilder::build`]
    /// demands exactly `n_targets` entries. The `ssd` shorthand keeps a
    /// single broadcast entry instead.
    fleet_explicit: bool,
    /// Same latch for the workloads vector (`workloads` /
    /// `workload_for_target` vs the `workload` broadcast shorthand).
    workloads_explicit: bool,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $field(mut self, $field: $ty) -> Self {
                self.cfg.$field = $field;
                self
            }
        )+
    };
}

impl SystemConfigBuilder {
    builder_setters! {
        /// Fabric shape.
        topology: TopologyKind,
        /// Number of Initiator hosts.
        n_initiators: usize,
        /// Number of Target hosts.
        n_targets: usize,
        /// Baseline vs SRC.
        mode: Mode,
        /// DCQCN parameters (also carries the switch ECN thresholds).
        dcqcn: DcqcnParams,
        /// PFC thresholds.
        pfc: PfcParams,
        /// RoCE MTU.
        mtu: u64,
        /// Target TXQ watermarks `(high, low)` gating the SSD fetch.
        txq_watermarks: (u64, u64),
        /// SRC controller configuration (used in `DcqcnSrc` mode).
        src: SrcConfig,
        /// Optional background congestion (see [`BackgroundTraffic`]).
        background: Option<BackgroundTraffic>,
        /// Target-selection policy (see [`TargetSelection`]).
        target_selection: TargetSelection,
        /// Network congestion-control scheme.
        cc: CcChoice,
        /// Scheduled fault injection (see [`FaultPlan`]).
        faults: FaultPlan,
    }

    /// SSD model on every Target (the homogeneous shorthand: one entry
    /// broadcast across the fleet, whatever `n_targets` ends up being).
    pub fn ssd(mut self, ssd: SsdConfig) -> Self {
        self.cfg.ssds = vec![ssd];
        self.fleet_explicit = false;
        self
    }

    /// Explicit per-Target device fleet. [`SystemConfigBuilder::build`]
    /// rejects the configuration unless `ssds.len() == n_targets`.
    pub fn ssds(mut self, ssds: Vec<SsdConfig>) -> Self {
        self.cfg.ssds = ssds;
        self.fleet_explicit = true;
        self
    }

    /// Override the device on Target `t` only. Set `n_targets` first:
    /// the current fleet (or homogeneous shorthand) is materialized to
    /// `n_targets` entries before the override lands.
    ///
    /// # Panics
    /// Panics when `t >= n_targets`, or when an explicit fleet of the
    /// wrong length was set earlier.
    pub fn ssd_for_target(mut self, t: usize, ssd: SsdConfig) -> Self {
        let n = self.cfg.n_targets;
        assert!(t < n, "target {t} out of {n} (set n_targets first)");
        if self.cfg.ssds.len() != n {
            assert!(
                !self.fleet_explicit && self.cfg.ssds.len() == 1,
                "explicit fleet has {} entries for {n} targets",
                self.cfg.ssds.len()
            );
            self.cfg.ssds = vec![self.cfg.ssds[0].clone(); n];
        }
        self.cfg.ssds[t] = ssd;
        self.fleet_explicit = true;
        self
    }

    /// Workload source on every Target (the homogeneous shorthand: one
    /// spec broadcast across the system, whatever `n_targets` ends up
    /// being).
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.cfg.workloads = vec![spec];
        self.workloads_explicit = false;
        self
    }

    /// Explicit per-Target workload sources.
    /// [`SystemConfigBuilder::build`] rejects the configuration unless
    /// `workloads.len() == n_targets`.
    pub fn workloads(mut self, specs: Vec<WorkloadSpec>) -> Self {
        self.cfg.workloads = specs;
        self.workloads_explicit = true;
        self
    }

    /// Override the workload on Target `t` only. Set `n_targets` first:
    /// the current specs (or homogeneous shorthand) are materialized to
    /// `n_targets` entries before the override lands.
    ///
    /// # Panics
    /// Panics when `t >= n_targets`, or when an explicit workloads
    /// vector of the wrong length was set earlier.
    pub fn workload_for_target(mut self, t: usize, spec: WorkloadSpec) -> Self {
        let n = self.cfg.n_targets;
        assert!(t < n, "target {t} out of {n} (set n_targets first)");
        if self.cfg.workloads.len() != n {
            assert!(
                !self.workloads_explicit && self.cfg.workloads.len() == 1,
                "explicit workloads vector has {} entries for {n} targets",
                self.cfg.workloads.len()
            );
            self.cfg.workloads = vec![self.cfg.workloads[0].clone(); n];
        }
        self.cfg.workloads[t] = spec;
        self.workloads_explicit = true;
        self
    }

    /// Finish, yielding the configuration.
    ///
    /// # Panics
    /// Panics on any validation failure
    /// (see [`SystemConfigBuilder::try_build`]).
    pub fn build(self) -> SystemConfig {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Finish, yielding the configuration or a [`SimError::Config`]
    /// when an explicit fleet (`ssds` / `ssd_for_target`) or workloads
    /// vector (`workloads` / `workload_for_target`) does not hold
    /// exactly `n_targets` entries, the shapes are otherwise invalid,
    /// or the fault plan fails [`FaultPlan::validate`].
    pub fn try_build(self) -> Result<SystemConfig, SimError> {
        if self.fleet_explicit && self.cfg.ssds.len() != self.cfg.n_targets {
            return Err(SimError::Config(format!(
                "ssds holds {} device configs for {} targets",
                self.cfg.ssds.len(),
                self.cfg.n_targets
            )));
        }
        if self.workloads_explicit && self.cfg.workloads.len() != self.cfg.n_targets {
            return Err(SimError::Config(format!(
                "workloads holds {} specs for {} targets",
                self.cfg.workloads.len(),
                self.cfg.n_targets
            )));
        }
        if self.cfg.ssds.is_empty() {
            return Err(SimError::Config("ssds must not be empty".into()));
        }
        if !(self.cfg.ssds.len() == 1 || self.cfg.ssds.len() == self.cfg.n_targets) {
            return Err(SimError::Config(format!(
                "ssds holds {} device configs for {} targets (expected 1 or {})",
                self.cfg.ssds.len(),
                self.cfg.n_targets,
                self.cfg.n_targets
            )));
        }
        if self.cfg.workloads.is_empty() {
            return Err(SimError::Config("workloads must not be empty".into()));
        }
        if !(self.cfg.workloads.len() == 1 || self.cfg.workloads.len() == self.cfg.n_targets) {
            return Err(SimError::Config(format!(
                "workloads holds {} specs for {} targets (expected 1 or {})",
                self.cfg.workloads.len(),
                self.cfg.n_targets,
                self.cfg.n_targets
            )));
        }
        self.cfg
            .faults
            .validate()
            .map_err(|e| SimError::Config(format!("invalid fault plan: {e}")))?;
        Ok(self.cfg)
    }
}

/// One request bound to an (initiator, target) pair.
#[derive(Clone, Copy, Debug)]
pub struct Assignment {
    /// Initiator index (0-based).
    pub initiator: usize,
    /// Target index (0-based).
    pub target: usize,
    /// The request (globally unique id).
    pub request: Request,
}

/// Spread a trace over initiators and targets: requests go round-robin
/// to initiators and, independently, round-robin to targets, preserving
/// arrival order and reassigning globally unique ids.
pub fn spread_trace(trace: &Trace, n_initiators: usize, n_targets: usize) -> Vec<Assignment> {
    assert!(n_initiators > 0 && n_targets > 0);
    trace
        .requests()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut request = *r;
            request.id = i as u64;
            Assignment {
                initiator: i % n_initiators,
                target: (i / n_initiators) % n_targets,
                request,
            }
        })
        .collect()
}

/// Resolve one workload source into a system-wide assignment list: the
/// source generates a single trace with `seed` and [`spread_trace`] fans
/// it out. This is the source-consuming form of the legacy
/// `generate(cfg, seed)` + `spread_trace(..)` call sequence and produces
/// bit-identical assignments to it.
pub fn spread_source<S: WorkloadSource + ?Sized>(
    source: &S,
    seed: u64,
    n_initiators: usize,
    n_targets: usize,
) -> Vec<Assignment> {
    spread_trace(&source.generate(seed), n_initiators, n_targets)
}

/// Resolve per-Target workload sources into an assignment list: Target
/// `t` generates its own trace with seed `seed + t` (the workspace's
/// per-target seeding convention) and [`per_target_traces`] interleaves
/// them. Bit-identical to the legacy per-target
/// `generate(cfg, seed.wrapping_add(t))` + `per_target_traces(..)`
/// sequence.
pub fn per_target_sources<S: WorkloadSource>(
    sources: &[S],
    seed: u64,
    n_initiators: usize,
) -> Vec<Assignment> {
    let traces: Vec<Trace> = sources
        .iter()
        .enumerate()
        .map(|(t, s)| s.generate(seed.wrapping_add(t as u64)))
        .collect();
    per_target_traces(&traces, n_initiators)
}

/// Build one trace per target (each target gets its own workload, as in
/// Sec. IV-D: "each Target processes 5,000 read and 5,000 write
/// requests") and interleave them into a single assignment list with
/// globally unique ids; all requests issue from initiators round-robin.
pub fn per_target_traces(traces: &[Trace], n_initiators: usize) -> Vec<Assignment> {
    assert!(n_initiators > 0 && !traces.is_empty());
    let mut all: Vec<Assignment> = Vec::new();
    for (t_idx, trace) in traces.iter().enumerate() {
        for r in trace.requests() {
            all.push(Assignment {
                initiator: 0, // fixed up below once globally sorted
                target: t_idx,
                request: *r,
            });
        }
    }
    all.sort_by_key(|a| (a.request.arrival, a.target, a.request.id));
    for (i, a) in all.iter_mut().enumerate() {
        a.request.id = i as u64;
        a.initiator = i % n_initiators;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::micro::generate_micro;
    use workload::synthetic::{generate_synthetic, SyntheticConfig};

    #[test]
    fn spread_covers_all_pairs() {
        let t = generate_micro(
            &MicroConfig {
                read_count: 50,
                write_count: 50,
                ..MicroConfig::default()
            },
            1,
        );
        let a = spread_trace(&t, 2, 3);
        assert_eq!(a.len(), 100);
        // Unique ids.
        let mut ids: Vec<u64> = a.iter().map(|x| x.request.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 100);
        // Every initiator and target used.
        for i in 0..2 {
            assert!(a.iter().any(|x| x.initiator == i));
        }
        for t in 0..3 {
            assert!(a.iter().any(|x| x.target == t));
        }
        // Arrival order preserved.
        assert!(a
            .windows(2)
            .all(|w| w[0].request.arrival <= w[1].request.arrival));
    }

    #[test]
    fn per_target_merging() {
        let mk = |seed| {
            generate_micro(
                &MicroConfig {
                    read_count: 20,
                    write_count: 20,
                    ..MicroConfig::default()
                },
                seed,
            )
        };
        let a = per_target_traces(&[mk(1), mk(2)], 1);
        assert_eq!(a.len(), 80);
        assert!(a.iter().all(|x| x.initiator == 0));
        assert_eq!(a.iter().filter(|x| x.target == 0).count(), 40);
        assert_eq!(a.iter().filter(|x| x.target == 1).count(), 40);
        let mut ids: Vec<u64> = a.iter().map(|x| x.request.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 80);
        assert!(a
            .windows(2)
            .all(|w| w[0].request.arrival <= w[1].request.arrival));
    }

    fn same_assignments(a: &[Assignment], b: &[Assignment]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                (x.initiator, x.target, x.request) == (y.initiator, y.target, y.request)
            })
    }

    /// The source-consuming helpers and `SystemConfig::assignments` must
    /// reproduce the legacy generate-then-assign call sequences
    /// bit-for-bit — the whole refactor rests on this equivalence.
    #[test]
    fn assignments_match_legacy_call_sequences() {
        let mc = MicroConfig {
            read_count: 40,
            write_count: 40,
            ..MicroConfig::default()
        };
        // Homogeneous shorthand == generate + spread_trace.
        let cfg = SystemConfig::builder()
            .n_initiators(2)
            .n_targets(3)
            .workload(WorkloadSpec::Micro(mc.clone()))
            .build();
        let legacy = spread_trace(&generate_micro(&mc, 9), 2, 3);
        assert!(same_assignments(&cfg.assignments(9), &legacy));
        assert!(same_assignments(&spread_source(&mc, 9, 2, 3), &legacy));

        // Per-target specs == per-target generate(seed + t) +
        // per_target_traces (the fig7/fig10 convention).
        let sc = SyntheticConfig::vdi(30, 30);
        let cfg = SystemConfig::builder()
            .n_initiators(1)
            .n_targets(2)
            .workloads(vec![
                WorkloadSpec::Synthetic(sc.clone()),
                WorkloadSpec::Synthetic(sc.clone()),
            ])
            .build();
        let traces: Vec<Trace> = (0..2u64)
            .map(|t| generate_synthetic(&sc, 7u64.wrapping_add(t)))
            .collect();
        let legacy = per_target_traces(&traces, 1);
        assert!(same_assignments(&cfg.assignments(7), &legacy));
    }

    #[test]
    fn workload_builder_shapes() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let micro = WorkloadSpec::Micro(MicroConfig::default());
        let synth = WorkloadSpec::Synthetic(SyntheticConfig::vdi(5, 5));

        // Broadcast shorthand applies to every target.
        let cfg = SystemConfig::builder()
            .n_targets(4)
            .workload(synth.clone())
            .build();
        assert!(matches!(cfg.workload_for(3), WorkloadSpec::Synthetic(_)));

        // Per-target override materializes the vector.
        let cfg = SystemConfig::builder()
            .n_targets(3)
            .workload(micro.clone())
            .workload_for_target(1, synth.clone())
            .build();
        assert!(matches!(cfg.workload_for(0), WorkloadSpec::Micro(_)));
        assert!(matches!(cfg.workload_for(1), WorkloadSpec::Synthetic(_)));
        assert!(matches!(cfg.workload_for(2), WorkloadSpec::Micro(_)));

        // Length mismatches fail at build(), in either setter order.
        let too_short = catch_unwind(AssertUnwindSafe(|| {
            SystemConfig::builder()
                .n_targets(3)
                .workloads(vec![micro.clone(), synth.clone()])
                .build()
        }));
        assert!(too_short.is_err(), "2 specs for 3 targets must panic");
        let too_long = catch_unwind(AssertUnwindSafe(|| {
            SystemConfig::builder()
                .workloads(vec![micro.clone(), synth.clone(), micro.clone()])
                .n_targets(2)
                .build()
        }));
        assert!(too_long.is_err(), "3 specs for 2 targets must panic");
        let empty = catch_unwind(AssertUnwindSafe(|| {
            SystemConfig::builder().workloads(Vec::new()).build()
        }));
        assert!(empty.is_err(), "empty workloads must panic");

        // to_builder round-trips the explicit flag.
        let cfg = SystemConfig::builder()
            .n_targets(2)
            .workloads(vec![micro.clone(), synth.clone()])
            .build();
        let grown = catch_unwind(AssertUnwindSafe(|| cfg.to_builder().n_targets(3).build()));
        assert!(
            grown.is_err(),
            "stale 2-spec vector for 3 targets must panic"
        );
    }
}

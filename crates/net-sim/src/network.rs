//! The packet-level network simulator: host NICs with per-flow DCQCN
//! rate shaping, output-queued switches with ECN marking and PFC
//! pause/resume, store-and-forward links.
//!
//! Caller-driven like the SSD model: [`Network::send`] and
//! [`Network::handle`] return a [`NetStep`] with deliveries, DCQCN rate
//! changes (the hook SRC listens to), received pauses (Fig. 8's metric)
//! and events to schedule.

use crate::dcqcn::{DcqcnParams, NpState, RpState};
use crate::timely::{TimelyParams, TimelyState};
use crate::topology::{NodeId, NodeKind, Topology};
use sim_engine::{FaultRng, ProbeBuffer, Rate, SimDuration, SimTime, TokenBucket, TraceSink};
use std::collections::VecDeque;

/// Identifier of a unidirectional RDMA flow (queue pair).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub usize);

/// Packet kinds. PFC pause/resume are modeled as link-level control
/// signals (events), not packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PacketKind {
    /// RDMA payload.
    Data,
    /// DCQCN congestion notification packet (tiny, unshaped, never
    /// paused — CNPs ride the highest priority class).
    Cnp,
    /// TIMELY acknowledgment echoing the data packet's NIC timestamp
    /// (same priority treatment as CNPs).
    Ack,
}

#[derive(Clone, Copy, Debug)]
struct Packet {
    flow: FlowId,
    dst: NodeId,
    size: u64,
    kind: PacketKind,
    ecn: bool,
    tag: u64,
    last_of_msg: bool,
    /// NIC egress timestamp (stamped when serialization starts at the
    /// source host); echoed back by TIMELY acks.
    sent_at: SimTime,
}

/// Payload bytes arriving at a flow's destination host.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    /// The flow the bytes belong to.
    pub flow: FlowId,
    /// Application tag passed to [`Network::send`].
    pub tag: u64,
    /// Payload bytes in this packet.
    pub bytes: u64,
    /// True on the final packet of the tagged message.
    pub last: bool,
}

/// `Delivery` is copied into every network step's delivery list on the
/// hot path; keep it within half a cache line.
const _: () = assert!(std::mem::size_of::<Delivery>() <= 32);

/// Events the network schedules for itself.
#[derive(Clone, Copy, Debug)]
pub enum NetEvent {
    /// A link finished serializing a packet at its `from` side.
    TxDone {
        /// Directed link index.
        link: usize,
    },
    /// The head in-flight packet of a link reached its `to` side.
    Arrive {
        /// Directed link index.
        link: usize,
    },
    /// Re-check a host NIC whose flows were waiting for shaper tokens.
    NicWakeup {
        /// Host node index.
        host: usize,
    },
    /// DCQCN alpha-decay timer.
    AlphaTimer {
        /// Flow index.
        flow: usize,
        /// Generation stamp (stale timers are ignored).
        gen: u64,
    },
    /// DCQCN rate-increase timer.
    RateTimer {
        /// Flow index.
        flow: usize,
        /// Generation stamp.
        gen: u64,
    },
    /// PFC pause (`paused = true`) or resume arriving at the transmitter
    /// of `link`.
    PauseSet {
        /// Directed link whose transmitter is being paused/resumed.
        link: usize,
        /// New pause state.
        paused: bool,
    },
    /// Flush `link`'s deferred-arrival train (packet-burst coalescing):
    /// deliver every deferred packet whose arrival time has been
    /// reached, expanding the per-packet timestamps arithmetically from
    /// the port's ledger instead of one `Arrive` event each.
    BurstArrive {
        /// Directed link index.
        link: usize,
    },
}

/// Output of one network step.
#[derive(Debug, Default)]
pub struct NetStep {
    /// Payload deliveries at destination hosts.
    pub deliveries: Vec<Delivery>,
    /// DCQCN rate updates at sender NICs `(flow, new rate)` — both cuts
    /// (CNP) and recoveries. SRC subscribes to these.
    pub rate_changes: Vec<(FlowId, Rate)>,
    /// Hosts that received a PFC pause frame (one entry per frame).
    pub pauses_received: Vec<NodeId>,
    /// Events to schedule.
    pub schedule: Vec<(SimTime, NetEvent)>,
}

impl NetStep {
    /// Append the outputs of another step.
    pub fn merge(&mut self, o: NetStep) {
        self.deliveries.extend(o.deliveries);
        self.rate_changes.extend(o.rate_changes);
        self.pauses_received.extend(o.pauses_received);
        self.schedule.extend(o.schedule);
    }

    /// Empty the step for reuse, keeping the buffer capacities. Hot
    /// loops hold one `NetStep` and pass it to [`Network::send_into`] /
    /// [`Network::handle_into`] instead of allocating per event.
    pub fn clear(&mut self) {
        self.deliveries.clear();
        self.rate_changes.clear();
        self.pauses_received.clear();
        self.schedule.clear();
    }
}

/// Per-flow sender state at its source host NIC.
struct FlowState {
    src: NodeId,
    dst: NodeId,
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    rp: RpState,
    np: NpState,
    timely: TimelyState,
    bucket: TokenBucket,
    /// Timers are armed while true; re-armed from their own firings.
    timers_armed: bool,
    /// DCQCN participation: `false` for fixed-rate (UDP-like) flows that
    /// neither trigger CNPs nor react to congestion.
    cc_enabled: bool,
}

/// Egress state of one directed link (switch port or host uplink).
struct PortState {
    /// Queued packets with the ingress link they arrived on (None when
    /// locally generated) — switches only; host egress queues live in
    /// `FlowState`/`HostNic`.
    queue: VecDeque<(Packet, Option<usize>)>,
    /// Control packets (CNP/ACK): strict priority over data and exempt
    /// from PFC pause (they ride the highest priority class).
    ctrl_queue: VecDeque<(Packet, Option<usize>)>,
    queued_bytes: u64,
    busy: bool,
    paused: bool,
    /// Packets serialized and propagating, FIFO.
    in_flight: VecDeque<Packet>,
    /// Arrival times of the `in_flight` prefix whose dedicated `Arrive`
    /// events were elided (burst coalescing): entry `k` is the arrival
    /// time of the `k`-th in-flight packet as long as deferred entries
    /// remain. Flushed by one `BurstArrive` event and drained
    /// opportunistically whenever the port is touched at a later time.
    deferred: VecDeque<SimTime>,
    /// True while a `BurstArrive` flush event is outstanding for this
    /// port (at most one lives at a time).
    flush_pending: bool,
}

/// Host NIC state (single uplink).
struct HostNic {
    uplink: usize,
    flows: Vec<usize>,
    rr: usize,
    /// Control (CNP) queue: unshaped, never paused.
    ctrl: VecDeque<Packet>,
    pause_frames_received: u64,
    /// Guards against redundant NicWakeup storms.
    wakeup_pending: bool,
}

/// PFC configuration.
#[derive(Clone, Debug)]
pub struct PfcParams {
    /// Ingress occupancy that triggers PAUSE to the upstream.
    pub xoff_bytes: u64,
    /// Ingress occupancy below which RESUME is sent.
    pub xon_bytes: u64,
}

impl Default for PfcParams {
    fn default() -> Self {
        PfcParams {
            xoff_bytes: 256 * 1024,
            xon_bytes: 128 * 1024,
        }
    }
}

/// Which rate-control scheme senders run.
#[derive(Clone, Debug)]
pub enum CcMode {
    /// DCQCN: ECN marking at switches, CNPs, multiplicative cut +
    /// staged recovery (the paper's choice).
    Dcqcn,
    /// TIMELY: RTT-gradient control from acknowledgment timestamps; no
    /// switch support needed.
    Timely(TimelyParams),
}

/// The network simulator.
pub struct Network {
    topo: Topology,
    params: DcqcnParams,
    cc: CcMode,
    pfc: PfcParams,
    mtu: u64,
    flows: Vec<FlowState>,
    ports: Vec<PortState>,
    nics: Vec<Option<HostNic>>, // indexed by node id
    /// PFC ingress byte accounting: `ingress_bytes[link]` = bytes queued
    /// inside `link.to` (a switch) that arrived over `link`.
    ingress_bytes: Vec<u64>,
    /// Whether we currently hold the upstream of `link` paused.
    upstream_paused: Vec<bool>,
    /// Total ECN-marked packets (telemetry).
    ecn_marked: u64,
    /// Total CNPs generated (telemetry).
    cnps_sent: u64,
    /// Deterministic marking "randomness" (low-discrepancy sequence).
    mark_seq: u64,
    /// Telemetry probes: DCQCN RP/NP transitions and `Rc`/`Rt`/alpha
    /// samples, drained by the owning event loop.
    probes: ProbeBuffer,
    /// Fault overlay: `(bandwidth factor, extra delay)` per link while a
    /// degradation window is active (`None` = nominal).
    link_degrade: Vec<Option<(f64, SimDuration)>>,
    /// Fault overlay: per-link data-packet drop probability (0 = none).
    link_loss: Vec<f64>,
    /// Fast guard: true while any `link_loss` entry is nonzero.
    any_link_loss: bool,
    /// Fault overlay: CNP suppression probability (0 = none).
    cnp_loss: f64,
    /// Dedicated draw sequence for loss faults; advances only when a
    /// loss fault actually consults it, so fault-free runs take no
    /// draws and stay byte-identical.
    fault_rng: FaultRng,
    /// Packet-burst coalescing master switch (on by default; the perf
    /// counterfactual benches and equivalence tests turn it off).
    coalescing: bool,
    /// Sticky per-link flag: set the first time a degrade or loss fault
    /// touches the link, and never cleared — packets on a touched link
    /// are no longer deferred, so fault draws keep their per-packet
    /// timing (see `set_link_loss`/`set_link_degrade`).
    fault_touched: Vec<bool>,
    /// Hot-path cache for `defer_eligible`: true iff the link terminates
    /// at a destination host AND no fault has ever touched it. Folding
    /// the two topology/fault lookups into one byte keeps the per-packet
    /// eligibility check to a single load.
    defer_ok: Vec<bool>,
    /// Per-link count of drain operations that delivered at least one
    /// deferred packet (telemetry).
    bursts_coalesced: Vec<u64>,
    /// Total packets delivered through the deferred path (each one is
    /// an `Arrive` event the wheel never saw).
    packets_coalesced: u64,
    /// How far past a deferred arrival the backstop flush is armed.
    /// [`FLUSH_HORIZON`] normally; zero while telemetry is enabled so
    /// traced runs keep the exact reference event-time lattice (see
    /// `set_telemetry`).
    flush_horizon: SimDuration,
}

const CNP_SIZE: u64 = 64;

/// How far past a deferred arrival the backstop flush is armed. Large
/// relative to packet spacing so trains accumulate (touch-drains deliver
/// them long before the flush), small relative to run length so
/// quiescence detection is never held up noticeably.
const FLUSH_HORIZON: SimDuration = SimDuration::from_us(50);

impl Network {
    /// Build over a routed topology.
    pub fn new(topo: Topology, params: DcqcnParams, pfc: PfcParams, mtu: u64) -> Self {
        assert!(mtu > 0, "MTU must be positive");
        let n_links = topo.n_links();
        let mut nics: Vec<Option<HostNic>> = Vec::with_capacity(topo.n_nodes());
        for n in 0..topo.n_nodes() {
            let node = NodeId(n);
            if topo.kind(node) == NodeKind::Host {
                let ups = topo.out_links(node);
                assert_eq!(ups.len(), 1, "hosts must have exactly one uplink");
                nics.push(Some(HostNic {
                    uplink: ups[0],
                    flows: Vec::new(),
                    rr: 0,
                    ctrl: VecDeque::new(),
                    pause_frames_received: 0,
                    wakeup_pending: false,
                }));
            } else {
                nics.push(None);
            }
        }
        let defer_ok: Vec<bool> = (0..n_links)
            .map(|l| topo.kind(topo.link(l).to) == NodeKind::Host)
            .collect();
        Network {
            topo,
            params,
            cc: CcMode::Dcqcn,
            pfc,
            mtu,
            flows: Vec::new(),
            ports: (0..n_links)
                .map(|_| PortState {
                    queue: VecDeque::new(),
                    ctrl_queue: VecDeque::new(),
                    queued_bytes: 0,
                    busy: false,
                    paused: false,
                    in_flight: VecDeque::new(),
                    deferred: VecDeque::new(),
                    flush_pending: false,
                })
                .collect(),
            nics,
            ingress_bytes: vec![0; n_links],
            upstream_paused: vec![false; n_links],
            ecn_marked: 0,
            cnps_sent: 0,
            mark_seq: 0,
            probes: ProbeBuffer::default(),
            link_degrade: vec![None; n_links],
            link_loss: vec![0.0; n_links],
            any_link_loss: false,
            cnp_loss: 0.0,
            fault_rng: FaultRng::new(0),
            coalescing: true,
            fault_touched: vec![false; n_links],
            defer_ok,
            bursts_coalesced: vec![0; n_links],
            packets_coalesced: 0,
            flush_horizon: FLUSH_HORIZON,
        }
    }

    // ------------------------------------------------------------------
    // Fault overlay (see `sim_engine::faults`)

    /// Seed the dedicated fault draw sequence (loss decisions). Call
    /// before traffic starts; a fresh sequence replaces any prior one.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.fault_rng = FaultRng::new(seed);
    }

    /// Degrade `link`: multiply its bandwidth by `bandwidth_factor` and
    /// add `extra_delay` to its propagation delay until cleared. The
    /// nominal topology is untouched — DCQCN's line-rate targets and
    /// token-bucket sizing keep using the nominal rate, exactly as real
    /// NICs keep targeting the configured line rate over a degraded
    /// path.
    ///
    /// Takes the current time and a step because activating a fault
    /// de-coalesces the link: packets already deferred revert to
    /// per-packet `Arrive` events so fault processing sees them at
    /// their exact arrival times, and the link stops deferring for the
    /// rest of the run.
    pub fn set_link_degrade(
        &mut self,
        link: usize,
        bandwidth_factor: f64,
        extra_delay: SimDuration,
        now: SimTime,
        step: &mut NetStep,
    ) {
        self.decoalesce_link(link, now, step);
        self.link_degrade[link] = Some((bandwidth_factor, extra_delay));
    }

    /// Restore `link` to its nominal bandwidth and delay.
    pub fn clear_link_degrade(&mut self, link: usize) {
        self.link_degrade[link] = None;
    }

    /// Drop data packets arriving over `link` with probability
    /// `probability` until cleared. Control packets (CNP/ACK) are
    /// exempt — model those with [`Network::set_cnp_loss`]. Takes the
    /// current time and a step for the same de-coalescing reason as
    /// [`Network::set_link_degrade`].
    pub fn set_link_loss(
        &mut self,
        link: usize,
        probability: f64,
        now: SimTime,
        step: &mut NetStep,
    ) {
        self.decoalesce_link(link, now, step);
        self.link_loss[link] = probability;
        self.any_link_loss = self.link_loss.iter().any(|&p| p > 0.0);
    }

    /// Stop dropping packets on `link`.
    pub fn clear_link_loss(&mut self, link: usize) {
        self.link_loss[link] = 0.0;
        self.any_link_loss = self.link_loss.iter().any(|&p| p > 0.0);
    }

    /// Permanently opt `link` out of burst coalescing and convert its
    /// pending deferrals back to per-packet `Arrive` events: overdue
    /// arrivals are drained in place (they predate the state change, so
    /// their handling is the same either way) and future ones get the
    /// dedicated events the reference path would have scheduled.
    fn decoalesce_link(&mut self, link: usize, now: SimTime, step: &mut NetStep) {
        self.fault_touched[link] = true;
        self.defer_ok[link] = false;
        self.drain_deferred(link, now, step);
        let port = &mut self.ports[link];
        while let Some(t) = port.deferred.pop_front() {
            step.schedule.push((t, NetEvent::Arrive { link }));
        }
    }

    /// Suppress generated CNPs with probability `probability` until
    /// cleared (the congestion signal is lost in the fabric; the NP
    /// state machine still counts the generation).
    pub fn set_cnp_loss(&mut self, probability: f64) {
        self.cnp_loss = probability;
    }

    /// Stop suppressing CNPs.
    pub fn clear_cnp_loss(&mut self) {
        self.cnp_loss = 0.0;
    }

    /// Turn telemetry probes on or off (off by default; disabling
    /// clears anything pending).
    ///
    /// Telemetry also zeroes the burst-flush horizon: traced runs
    /// sample gauges at event-loop times, so the flush must fire at the
    /// exact deferred-arrival times to keep the event-time lattice —
    /// and therefore every sample timestamp — identical to an
    /// uncoalesced run. Untraced runs keep `FLUSH_HORIZON` and get
    /// the full batching win.
    pub fn set_telemetry(&mut self, on: bool) {
        self.probes.set_enabled(on);
        self.flush_horizon = if on { SimDuration::ZERO } else { FLUSH_HORIZON };
    }

    /// Drain pending probe records straight into `sink`, preserving
    /// order and the probe buffer's capacity.
    pub fn drain_probes_into(&mut self, sink: &mut dyn TraceSink) {
        self.probes.drain_into(sink);
    }

    /// Sample one flow's RP state (`Rc`, `Rt`, alpha) into the probe
    /// buffer. No-op while telemetry is off.
    fn probe_rp_state(&mut self, flow: usize, now: SimTime) {
        if !self.probes.is_enabled() {
            return;
        }
        let rp = &self.flows[flow].rp;
        let (r, t, a) = (rp.rate.as_gbps_f64(), rp.target().as_gbps_f64(), rp.alpha());
        let fid = flow as u64;
        self.probes.record(now, "dcqcn", fid, "rate_gbps", r);
        self.probes.record(now, "dcqcn", fid, "target_gbps", t);
        self.probes.record(now, "dcqcn", fid, "alpha", a);
    }

    /// Switch every sender to TIMELY rate control. Call before any
    /// traffic is sent.
    pub fn use_timely(&mut self, params: TimelyParams) {
        self.cc = CcMode::Timely(params);
    }

    /// Register a unidirectional flow; returns its id.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId) -> FlowId {
        assert_eq!(
            self.topo.kind(src),
            NodeKind::Host,
            "flow src must be a host"
        );
        assert_eq!(
            self.topo.kind(dst),
            NodeKind::Host,
            "flow dst must be a host"
        );
        assert_ne!(src, dst, "flow endpoints must differ");
        let uplink = self.nics[src.0].as_ref().expect("host NIC").uplink;
        let line = self.topo.link(uplink).rate;
        let id = self.flows.len();
        self.flows.push(FlowState {
            src,
            dst,
            queue: VecDeque::new(),
            queued_bytes: 0,
            rp: RpState::new(line),
            np: NpState::default(),
            timely: TimelyState::new(line),
            bucket: TokenBucket::new(line, 2 * self.mtu),
            timers_armed: false,
            cc_enabled: true,
        });
        self.nics[src.0].as_mut().expect("host NIC").flows.push(id);
        FlowId(id)
    }

    /// Register a fixed-rate flow that does not participate in DCQCN:
    /// its packets never generate CNPs and its rate never changes. Used
    /// to model non-adaptive background traffic (competing tenants).
    pub fn add_fixed_rate_flow(&mut self, src: NodeId, dst: NodeId, rate: Rate) -> FlowId {
        let id = self.add_flow(src, dst);
        let f = &mut self.flows[id.0];
        f.cc_enabled = false;
        f.rp.rate = rate;
        f.bucket = TokenBucket::new(rate, 2 * self.mtu);
        id
    }

    /// Enqueue `bytes` of application payload on a flow, segmented into
    /// MTU-sized packets; the final packet carries `last_of_msg`.
    pub fn send(&mut self, flow: FlowId, bytes: u64, tag: u64, now: SimTime) -> NetStep {
        let mut step = NetStep::default();
        self.send_into(flow, bytes, tag, now, &mut step);
        step
    }

    /// Allocation-free variant of [`Network::send`]: appends to a
    /// caller-owned step instead of returning a fresh one.
    pub fn send_into(
        &mut self,
        flow: FlowId,
        bytes: u64,
        tag: u64,
        now: SimTime,
        step: &mut NetStep,
    ) {
        assert!(bytes > 0, "cannot send zero bytes");
        let f = &mut self.flows[flow.0];
        let dst = f.dst;
        let mut remaining = bytes;
        while remaining > 0 {
            let sz = remaining.min(self.mtu);
            remaining -= sz;
            f.queue.push_back(Packet {
                flow,
                dst,
                size: sz,
                kind: PacketKind::Data,
                ecn: false,
                tag,
                last_of_msg: remaining == 0,
                sent_at: SimTime::ZERO,
            });
            f.queued_bytes += sz;
        }
        let host = f.src;
        self.kick_nic(host, now, step);
    }

    /// Advance on one of the network's own events.
    pub fn handle(&mut self, ev: NetEvent, now: SimTime) -> NetStep {
        let mut step = NetStep::default();
        self.handle_into(ev, now, &mut step);
        step
    }

    /// Allocation-free variant of [`Network::handle`]: appends to a
    /// caller-owned step instead of returning a fresh one.
    pub fn handle_into(&mut self, ev: NetEvent, now: SimTime, step: &mut NetStep) {
        match ev {
            NetEvent::TxDone { link } => self.on_tx_done(link, now, step),
            NetEvent::Arrive { link } => self.on_arrive(link, now, step),
            NetEvent::NicWakeup { host } => {
                if let Some(nic) = self.nics[host].as_mut() {
                    nic.wakeup_pending = false;
                }
                self.kick_nic(NodeId(host), now, step);
            }
            NetEvent::AlphaTimer { flow, gen } => self.on_alpha_timer(flow, gen, now, step),
            NetEvent::RateTimer { flow, gen } => self.on_rate_timer(flow, gen, now, step),
            NetEvent::PauseSet { link, paused } => self.on_pause_set(link, paused, now, step),
            NetEvent::BurstArrive { link } => self.on_burst_arrive(link, now, step),
        }
    }

    // ------------------------------------------------------------------
    // Accessors

    /// Bytes queued at the sender for a flow (its TXQ backlog).
    pub fn flow_backlog_bytes(&self, flow: FlowId) -> u64 {
        self.flows[flow.0].queued_bytes
    }

    /// Total TXQ backlog of all flows sourced at `host`.
    pub fn host_backlog_bytes(&self, host: NodeId) -> u64 {
        self.nics[host.0]
            .as_ref()
            .map(|nic| nic.flows.iter().map(|&f| self.flows[f].queued_bytes).sum())
            .unwrap_or(0)
    }

    /// Current DCQCN sending rate of a flow.
    pub fn flow_rate(&self, flow: FlowId) -> Rate {
        self.flows[flow.0].rp.rate
    }

    /// PFC pause frames received by a host so far.
    pub fn host_pause_count(&self, host: NodeId) -> u64 {
        self.nics[host.0]
            .as_ref()
            .map(|n| n.pause_frames_received)
            .unwrap_or(0)
    }

    /// Total ECN-marked packets.
    pub fn ecn_marked(&self) -> u64 {
        self.ecn_marked
    }

    /// Total CNPs generated.
    pub fn cnps_sent(&self) -> u64 {
        self.cnps_sent
    }

    /// Enable or disable packet-burst coalescing (on by default). Must
    /// be called before traffic is sent — pending deferrals cannot be
    /// converted without an event context.
    pub fn set_coalescing(&mut self, on: bool) {
        assert!(
            self.ports.iter().all(|p| p.deferred.is_empty()),
            "toggle coalescing before traffic starts"
        );
        self.coalescing = on;
    }

    /// Drain operations on `link` that delivered at least one deferred
    /// packet (telemetry).
    pub fn bursts_coalesced(&self, link: usize) -> u64 {
        self.bursts_coalesced[link]
    }

    /// Total packets delivered through the deferred-arrival path — each
    /// is an `Arrive` event the wheel never carried.
    pub fn packets_coalesced(&self) -> u64 {
        self.packets_coalesced
    }

    /// The topology (read-only).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// True when no packets are queued, in flight, or being serialized.
    pub fn is_quiescent(&self) -> bool {
        self.flows.iter().all(|f| f.queue.is_empty())
            && self.ports.iter().all(|p| {
                p.queue.is_empty() && p.ctrl_queue.is_empty() && p.in_flight.is_empty() && !p.busy
            })
            && self.nics.iter().flatten().all(|n| n.ctrl.is_empty())
    }

    // ------------------------------------------------------------------
    // Host NIC

    /// Try to start transmissions on a host's uplink.
    fn kick_nic(&mut self, host: NodeId, now: SimTime, step: &mut NetStep) {
        let nic = self.nics[host.0].as_ref().expect("kick_nic on a switch");
        let link = nic.uplink;
        if self.ports[link].busy {
            return;
        }
        // Control packets first: unshaped, not subject to PFC pause.
        if let Some(pkt) = self.nics[host.0].as_mut().unwrap().ctrl.pop_front() {
            self.start_tx(link, pkt, None, now, step);
            return;
        }
        if self.ports[link].paused {
            return;
        }
        // Round-robin over flows with backlog and tokens.
        let nic = self.nics[host.0].as_ref().unwrap();
        let flows = nic.flows.clone();
        let start = nic.rr;
        let mut earliest: Option<SimTime> = None;
        for k in 0..flows.len() {
            let fid = flows[(start + k) % flows.len()];
            let (has_pkt, size) = {
                let f = &self.flows[fid];
                (
                    f.queue.front().is_some(),
                    f.queue.front().map_or(0, |p| p.size),
                )
            };
            if !has_pkt {
                continue;
            }
            let admit = self.flows[fid].bucket.try_consume(now, size);
            match admit {
                Ok(()) => {
                    let f = &mut self.flows[fid];
                    let mut pkt = f.queue.pop_front().expect("checked nonempty");
                    f.queued_bytes -= pkt.size;
                    pkt.sent_at = now;
                    self.nics[host.0].as_mut().unwrap().rr = (start + k + 1) % flows.len();
                    self.start_tx(link, pkt, None, now, step);
                    return;
                }
                Err(t) if t != SimTime::MAX => {
                    earliest = Some(earliest.map_or(t, |e| e.min(t)));
                }
                Err(_) => {}
            }
        }
        // Backlogged but token-starved: schedule a wakeup.
        if let Some(t) = earliest {
            let nic = self.nics[host.0].as_mut().unwrap();
            if !nic.wakeup_pending {
                nic.wakeup_pending = true;
                step.schedule
                    .push((t.max(now), NetEvent::NicWakeup { host: host.0 }));
            }
        }
    }

    // ------------------------------------------------------------------
    // Link/port machinery

    /// Begin serializing `pkt` on `link` (the port must be idle).
    fn start_tx(
        &mut self,
        link: usize,
        pkt: Packet,
        ingress: Option<usize>,
        now: SimTime,
        step: &mut NetStep,
    ) {
        let port = &mut self.ports[link];
        debug_assert!(!port.busy);
        port.busy = true;
        port.in_flight.push_back(pkt);
        let rate = match self.link_degrade[link] {
            Some((factor, _)) => self.topo.link(link).rate.scale(factor),
            None => self.topo.link(link).rate,
        };
        step.schedule
            .push((now + rate.tx_time(pkt.size), NetEvent::TxDone { link }));
        // PFC ingress accounting is released when the packet leaves the
        // buffer (serialization started).
        if let Some(ing) = ingress {
            self.release_ingress(ing, pkt.size, now, step);
        }
    }

    /// Can the just-serialized packet's `Arrive` event be elided and its
    /// delivery deferred to a consolidated burst flush? Only when every
    /// effect of its arrival is invisible to the rest of the simulation:
    /// a final-hop (destination-host) data packet that is not the last
    /// of its message (the event loop ignores non-last deliveries), is
    /// not ECN-marked (no CNP), triggers no acknowledgment (TIMELY acks
    /// every data packet of a cc-enabled flow), and rides a link no
    /// fault has ever touched (loss draws must keep per-packet timing).
    fn defer_eligible(&self, link: usize, pkt: &Packet) -> bool {
        self.coalescing
            && self.defer_ok[link]
            && pkt.kind == PacketKind::Data
            && !pkt.last_of_msg
            && !pkt.ecn
            && match self.cc {
                CcMode::Dcqcn => true,
                CcMode::Timely(_) => !self.flows[pkt.flow.0].cc_enabled,
            }
    }

    fn on_tx_done(&mut self, link: usize, now: SimTime, step: &mut NetStep) {
        let delay = match self.link_degrade[link] {
            Some((_, extra)) => self.topo.link(link).delay + extra,
            None => self.topo.link(link).delay,
        };
        let sent = *self.ports[link]
            .in_flight
            .back()
            .expect("tx done without in-flight packet");
        if self.defer_eligible(link, &sent) {
            // Burst coalescing: append the arrival time to the port's
            // ledger instead of scheduling a dedicated Arrive. One
            // outstanding BurstArrive flush per port delivers the whole
            // train, re-arming itself while the ledger keeps growing.
            // The flush is armed a full `flush_horizon` *behind* the
            // arrival so the train can accumulate: non-last delivery
            // timing is unobservable, and any observable event on the
            // link (a last packet, a CNP, an ECN mark) drains the due
            // prefix on touch before the flush ever fires. In practice
            // the touch-drains do nearly all the work and the flush is a
            // rare backstop that keeps quiescence detection live. (With
            // telemetry on the horizon is zero — see `set_telemetry`.)
            let horizon = self.flush_horizon;
            let port = &mut self.ports[link];
            port.deferred.push_back(now + delay);
            if !port.flush_pending {
                port.flush_pending = true;
                step.schedule
                    .push((now + delay + horizon, NetEvent::BurstArrive { link }));
            }
        } else {
            step.schedule.push((now + delay, NetEvent::Arrive { link }));
        }
        self.ports[link].busy = false;
        let from = self.topo.link(link).from;
        match self.topo.kind(from) {
            NodeKind::Host => {
                // Account DCQCN byte counter for the just-sent packet.
                // The byte-counter recovery stage belongs to DCQCN only:
                // fixed-rate and TIMELY flows must not creep toward line
                // rate through it.
                if sent.kind == PacketKind::Data
                    && matches!(self.cc, CcMode::Dcqcn)
                    && self.flows[sent.flow.0].cc_enabled
                {
                    let f = &mut self.flows[sent.flow.0];
                    if f.rp.on_bytes_sent(sent.size, &self.params) {
                        let stage = f.rp.increase(&self.params);
                        let r = f.rp.rate;
                        f.bucket.set_rate(now, r);
                        step.rate_changes.push((sent.flow, r));
                        let fid = sent.flow.0 as u64;
                        self.probes
                            .record(now, "dcqcn", fid, "rp_stage", stage.as_code());
                        self.probe_rp_state(sent.flow.0, now);
                    }
                }
                self.kick_nic(from, now, step);
            }
            NodeKind::Switch => {
                self.start_port(link, now, step);
            }
        }
    }

    /// Start the next queued packet on a switch egress port. Control
    /// packets have strict priority and ignore PFC pause.
    fn start_port(&mut self, link: usize, now: SimTime, step: &mut NetStep) {
        if self.ports[link].busy {
            return;
        }
        if let Some((pkt, ingress)) = self.ports[link].ctrl_queue.pop_front() {
            self.start_tx(link, pkt, ingress, now, step);
            return;
        }
        if self.ports[link].paused {
            return;
        }
        let Some((pkt, ingress)) = self.ports[link].queue.pop_front() else {
            return;
        };
        self.ports[link].queued_bytes -= pkt.size;
        self.start_tx(link, pkt, ingress, now, step);
    }

    /// Deliver every deferred packet on `link` whose arrival time has
    /// been reached. Deferred entries form the FIFO prefix of
    /// `in_flight` that is due: arrival times on a link are strictly
    /// increasing and a packet with a dedicated `Arrive` event at an
    /// earlier time has necessarily been popped already, so the
    /// in-flight front is always the ledger front's packet.
    fn drain_deferred(&mut self, link: usize, now: SimTime, step: &mut NetStep) {
        let mut delivered = false;
        while self.ports[link].deferred.front().is_some_and(|&t| t <= now) {
            let port = &mut self.ports[link];
            port.deferred.pop_front();
            let pkt = port
                .in_flight
                .pop_front()
                .expect("deferred arrival without in-flight packet");
            debug_assert!(pkt.kind == PacketKind::Data && !pkt.last_of_msg && !pkt.ecn);
            debug_assert_eq!(pkt.dst, self.topo.link(link).to);
            step.deliveries.push(Delivery {
                flow: pkt.flow,
                tag: pkt.tag,
                bytes: pkt.size,
                last: false,
            });
            self.packets_coalesced += 1;
            delivered = true;
        }
        if delivered {
            self.bursts_coalesced[link] += 1;
        }
    }

    /// The consolidated flush event: drain the due prefix, then re-arm
    /// one horizon past the ledger tail if packets are still
    /// propagating.
    fn on_burst_arrive(&mut self, link: usize, now: SimTime, step: &mut NetStep) {
        self.ports[link].flush_pending = false;
        self.drain_deferred(link, now, step);
        let horizon = self.flush_horizon;
        let port = &mut self.ports[link];
        if let Some(&tail) = port.deferred.back() {
            port.flush_pending = true;
            step.schedule
                .push((tail + horizon, NetEvent::BurstArrive { link }));
        }
    }

    fn on_arrive(&mut self, link: usize, now: SimTime, step: &mut NetStep) {
        // Deferred older arrivals on this link are due strictly before
        // this packet: deliver them first so the in-flight order holds.
        self.drain_deferred(link, now, step);
        let pkt = self.ports[link]
            .in_flight
            .pop_front()
            .expect("arrival without in-flight packet");
        // Loss fault: the packet evaporates before any ingress
        // accounting, so PFC/ECN state stays consistent.
        if self.any_link_loss
            && pkt.kind == PacketKind::Data
            && self.link_loss[link] > 0.0
            && self.fault_rng.next_draw() < self.link_loss[link]
        {
            return;
        }
        let node = self.topo.link(link).to;
        match self.topo.kind(node) {
            NodeKind::Switch => self.switch_ingress(node, link, pkt, now, step),
            NodeKind::Host => self.host_ingress(node, pkt, now, step),
        }
    }

    // ------------------------------------------------------------------
    // Switch

    fn switch_ingress(
        &mut self,
        sw: NodeId,
        ingress_link: usize,
        mut pkt: Packet,
        now: SimTime,
        step: &mut NetStep,
    ) {
        let egress = self.topo.route(sw, pkt.dst, pkt.flow.0 as u64);
        // ECN marking at enqueue (RED between Kmin and Kmax) — data only.
        if pkt.kind == PacketKind::Data {
            let q = self.ports[egress].queued_bytes;
            let p = &self.params;
            let mark = if q >= p.kmax {
                true
            } else if q > p.kmin {
                let prob = p.pmax * (q - p.kmin) as f64 / (p.kmax - p.kmin) as f64;
                self.next_mark_draw() < prob
            } else {
                false
            };
            if mark {
                pkt.ecn = true;
                self.ecn_marked += 1;
            }
        }
        // PFC ingress accounting (charge the arriving link).
        self.ingress_bytes[ingress_link] += pkt.size;
        if self.ingress_bytes[ingress_link] >= self.pfc.xoff_bytes
            && !self.upstream_paused[ingress_link]
        {
            self.upstream_paused[ingress_link] = true;
            let delay = self.topo.link(ingress_link).delay;
            step.schedule.push((
                now + delay,
                NetEvent::PauseSet {
                    link: ingress_link,
                    paused: true,
                },
            ));
        }
        let port = &mut self.ports[egress];
        if pkt.kind == PacketKind::Data {
            port.queued_bytes += pkt.size;
            port.queue.push_back((pkt, Some(ingress_link)));
        } else {
            port.ctrl_queue.push_back((pkt, Some(ingress_link)));
        }
        self.start_port(egress, now, step);
    }

    /// Low-discrepancy deterministic sequence in [0,1) for ECN marking
    /// (golden-ratio stride; avoids seeding an RNG for the one marking
    /// decision while staying uniform).
    fn next_mark_draw(&mut self) -> f64 {
        self.mark_seq = self.mark_seq.wrapping_add(1);
        const PHI: f64 = 0.618_033_988_749_894_9;
        (self.mark_seq as f64 * PHI).fract()
    }

    fn release_ingress(&mut self, ingress: usize, bytes: u64, now: SimTime, step: &mut NetStep) {
        let v = &mut self.ingress_bytes[ingress];
        *v = v.saturating_sub(bytes);
        if self.upstream_paused[ingress] && *v <= self.pfc.xon_bytes {
            self.upstream_paused[ingress] = false;
            let delay = self.topo.link(ingress).delay;
            step.schedule.push((
                now + delay,
                NetEvent::PauseSet {
                    link: ingress,
                    paused: false,
                },
            ));
        }
    }

    fn on_pause_set(&mut self, link: usize, paused: bool, now: SimTime, step: &mut NetStep) {
        self.ports[link].paused = paused;
        let from = self.topo.link(link).from;
        if self.topo.kind(from) == NodeKind::Host {
            if paused {
                let nic = self.nics[from.0].as_mut().expect("host nic");
                nic.pause_frames_received += 1;
                step.pauses_received.push(from);
            }
            if !paused {
                self.kick_nic(from, now, step);
            }
        } else if !paused {
            self.start_port(link, now, step);
        }
    }

    // ------------------------------------------------------------------
    // Host receive path

    fn host_ingress(&mut self, host: NodeId, pkt: Packet, now: SimTime, step: &mut NetStep) {
        match pkt.kind {
            PacketKind::Data => {
                debug_assert_eq!(pkt.dst, host, "data packet at wrong host");
                step.deliveries.push(Delivery {
                    flow: pkt.flow,
                    tag: pkt.tag,
                    bytes: pkt.size,
                    last: pkt.last_of_msg,
                });
                match (&self.cc, self.flows[pkt.flow.0].cc_enabled) {
                    (CcMode::Dcqcn, true) if pkt.ecn => {
                        let send_cnp = self.flows[pkt.flow.0]
                            .np
                            .on_marked_packet(now, &self.params);
                        if send_cnp {
                            self.cnps_sent += 1;
                            self.probes
                                .record(now, "dcqcn", pkt.flow.0 as u64, "np_cnp", 1.0);
                            // CNP-loss fault: generated (and counted)
                            // but lost before reaching the sender.
                            if self.cnp_loss > 0.0 && self.fault_rng.next_draw() < self.cnp_loss {
                                return;
                            }
                            let src_host = self.flows[pkt.flow.0].src;
                            let cnp = Packet {
                                flow: pkt.flow,
                                dst: src_host,
                                size: CNP_SIZE,
                                kind: PacketKind::Cnp,
                                ecn: false,
                                tag: 0,
                                last_of_msg: false,
                                sent_at: SimTime::ZERO,
                            };
                            self.nics[host.0]
                                .as_mut()
                                .expect("host nic")
                                .ctrl
                                .push_back(cnp);
                            self.kick_nic(host, now, step);
                        }
                    }
                    (CcMode::Timely(_), true) => {
                        // Acknowledge every data packet, echoing its NIC
                        // timestamp so the sender can measure RTT.
                        let src_host = self.flows[pkt.flow.0].src;
                        let ack = Packet {
                            flow: pkt.flow,
                            dst: src_host,
                            size: CNP_SIZE,
                            kind: PacketKind::Ack,
                            ecn: false,
                            tag: 0,
                            last_of_msg: false,
                            sent_at: pkt.sent_at,
                        };
                        self.nics[host.0]
                            .as_mut()
                            .expect("host nic")
                            .ctrl
                            .push_back(ack);
                        self.kick_nic(host, now, step);
                    }
                    _ => {}
                }
            }
            PacketKind::Ack => {
                let fidx = pkt.flow.0;
                if let CcMode::Timely(tp) = &self.cc {
                    let rtt = now.since(pkt.sent_at);
                    let f = &mut self.flows[fidx];
                    let prev = f.timely.rate;
                    let rate = f.timely.on_rtt(rtt, tp);
                    if rate != prev {
                        f.bucket.set_rate(now, rate);
                        f.rp.rate = rate; // keep flow_rate() uniform
                        step.rate_changes.push((pkt.flow, rate));
                        let src = f.src;
                        self.kick_nic(src, now, step);
                    }
                }
            }
            PacketKind::Cnp => {
                // We are the flow's sender: cut the rate.
                let fidx = pkt.flow.0;
                let (rate, gen) = {
                    let f = &mut self.flows[fidx];
                    f.rp.on_cnp(&self.params);
                    let r = f.rp.rate;
                    f.bucket.set_rate(now, r);
                    (r, f.rp.generation)
                };
                step.rate_changes.push((pkt.flow, rate));
                self.probes.record(now, "dcqcn", fidx as u64, "cnp_rx", 1.0);
                self.probe_rp_state(fidx, now);
                // (Re-)arm the DCQCN timers for this congestion episode.
                let f = &mut self.flows[fidx];
                f.timers_armed = true;
                step.schedule.push((
                    now + self.params.alpha_timer,
                    NetEvent::AlphaTimer { flow: fidx, gen },
                ));
                step.schedule.push((
                    now + self.params.rate_timer,
                    NetEvent::RateTimer { flow: fidx, gen },
                ));
            }
        }
    }

    // ------------------------------------------------------------------
    // DCQCN timers

    fn on_alpha_timer(&mut self, flow: usize, gen: u64, now: SimTime, step: &mut NetStep) {
        let f = &mut self.flows[flow];
        if !f.timers_armed || f.rp.generation != gen {
            return; // stale
        }
        f.rp.on_alpha_timer(&self.params);
        let alpha = f.rp.alpha();
        self.probes
            .record(now, "dcqcn", flow as u64, "alpha", alpha);
        let f = &mut self.flows[flow];
        if f.rp.alpha() > 1e-4 {
            step.schedule.push((
                now + self.params.alpha_timer,
                NetEvent::AlphaTimer { flow, gen },
            ));
        }
    }

    fn on_rate_timer(&mut self, flow: usize, gen: u64, now: SimTime, step: &mut NetStep) {
        let line = {
            let f = &self.flows[flow];
            if !f.timers_armed || f.rp.generation != gen {
                return; // stale
            }
            self.topo
                .link(self.nics[f.src.0].as_ref().unwrap().uplink)
                .rate
        };
        let f = &mut self.flows[flow];
        f.rp.on_rate_timer();
        let stage = f.rp.increase(&self.params);
        let r = f.rp.rate;
        f.bucket.set_rate(now, r);
        step.rate_changes.push((FlowId(flow), r));
        self.probes
            .record(now, "dcqcn", flow as u64, "rp_stage", stage.as_code());
        self.probe_rp_state(flow, now);
        let f = &mut self.flows[flow];
        if r < line {
            step.schedule.push((
                now + self.params.rate_timer,
                NetEvent::RateTimer { flow, gen },
            ));
        } else {
            f.timers_armed = false;
        }
        let src = f.src;
        self.kick_nic(src, now, step);
    }
}

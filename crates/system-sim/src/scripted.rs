//! Scripted-congestion runs (Fig. 9): the storage stack plus the SRC
//! controller, driven by synthetic pause/retrieval events with explicit
//! demanded sending rates — no network in the loop, so the convergence
//! of the dynamic adjustment itself is visible.

use sim_engine::{Rate, SimDuration, SimTime, TraceSink};
use src_core::algorithm::{CongestionEvent, CongestionKind};
use src_core::{SrcConfig, SrcController, ThroughputPredictionModel};
use std::sync::Arc;
use storage_node::report::NodeReport;
use storage_node::{run_trace_windowed_with_schedule, DisciplineKind, NodeConfig};
use workload::Trace;

/// Result of a scripted run: the node report plus the weight schedule
/// SRC chose and the measured convergence delay per event.
#[derive(Debug)]
pub struct ScriptedResult {
    /// Underlying storage run (read/write series are per ms).
    pub report: NodeReport,
    /// `(event time, demanded Gbps, chosen weight)` per event.
    pub responses: Vec<(SimTime, f64, u32)>,
    /// Convergence delay per event: time until the read throughput first
    /// comes within `tol` (relative) of its new steady level.
    pub convergence_ms: Vec<f64>,
}

/// Run `trace` on an SSQ storage node while injecting the scripted
/// congestion `events`; SRC picks a weight per event using features of
/// the trace window preceding the event.
///
/// SRC demand/weight decisions plus the storage node's SSQ and SSD
/// series flow into `sink`; pass `&mut NullSink` for an untraced run
/// (the result is identical either way).
pub fn run_scripted(
    ssd: &ssd_sim::SsdConfig,
    trace: &Trace,
    events: &[CongestionEvent],
    tpm: Arc<ThroughputPredictionModel>,
    src_cfg: &SrcConfig,
    sink: &mut dyn TraceSink,
) -> ScriptedResult {
    let tracing = sink.enabled();
    let mut controller = SrcController::new(tpm, src_cfg.clone());
    if tracing {
        controller.set_telemetry(true, 0);
    }
    // The controller's monitor is fed from the trace itself (arrivals
    // are what a Target observes).
    let mut schedule: Vec<(SimTime, u32)> = Vec::new();
    let mut responses = Vec::new();
    let mut cursor = 0usize;
    for ev in events {
        // Feed all arrivals up to the event into the monitor.
        while cursor < trace.len() && trace.requests()[cursor].arrival <= ev.at {
            let r = trace.requests()[cursor];
            controller.observe(&r, r.arrival);
            cursor += 1;
        }
        if let Some(w) = controller.on_congestion_notification(ev.demanded, ev.at) {
            schedule.push((ev.at, w));
        }
        let w_now = controller.current_weight();
        responses.push((ev.at, ev.demanded.as_gbps_f64(), w_now));
    }
    let node_cfg = NodeConfig {
        ssd: ssd.clone(),
        discipline: DisciplineKind::Ssq { weight: 1 },
        merge_cap: None,
    };
    // SRC's decisions first (they happen "before" the replayed storage
    // run applies them as a schedule), then the node run.
    if tracing {
        controller.drain_probes_into(sink);
    }
    let report = run_trace_windowed_with_schedule(&node_cfg, trace, &schedule, sink);
    let convergence_ms = convergence_delays(&report, events);
    ScriptedResult {
        report,
        responses,
        convergence_ms,
    }
}

/// Measure, for each event, how long the per-ms read throughput takes to
/// settle: the first bin after the event that is within 25 % of the
/// median read rate over the post-event steady window.
fn convergence_delays(report: &NodeReport, events: &[CongestionEvent]) -> Vec<f64> {
    let bins = report.read_series.bins();
    let bin_ms = report.read_series.bin_width().as_ms_f64();
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let start = (ev.at.as_ms_f64() / bin_ms).ceil() as usize;
        let end = events
            .get(i + 1)
            .map(|n| (n.at.as_ms_f64() / bin_ms) as usize)
            .unwrap_or(bins.len())
            .min(bins.len());
        if start + 2 >= end {
            out.push(f64::NAN);
            continue;
        }
        // Steady level: median of the second half of the interval.
        let tail = &bins[(start + end) / 2..end];
        let steady = sim_engine::stats::percentile(tail, 50.0);
        if !(steady.is_finite()) || steady <= 0.0 {
            out.push(f64::NAN);
            continue;
        }
        let mut delay = f64::NAN;
        for (k, &b) in bins[start..end].iter().enumerate() {
            if (b - steady).abs() / steady < 0.25 {
                delay = k as f64 * bin_ms;
                break;
            }
        }
        out.push(delay);
    }
    out
}

/// Build the paper's Fig. 9 event script scaled to a device: pause to
/// 60 % of the baseline read rate, pause to 30 %, retrieve to 60 %, then
/// retrieve to full speed. (The paper's absolute numbers — 6, 3, 6,
/// 10 Gbps on SSD-B — correspond to the same fractions of its 10 Gbps
/// baseline.)
pub fn fig9_events(
    baseline_read_gbps: f64,
    first_at: SimTime,
    spacing: SimDuration,
) -> Vec<CongestionEvent> {
    let frac = [0.6, 0.3, 0.6, 1.0];
    let kind = [
        CongestionKind::Pause,
        CongestionKind::Pause,
        CongestionKind::Retrieval,
        CongestionKind::Retrieval,
    ];
    frac.iter()
        .zip(kind)
        .enumerate()
        .map(|(i, (&f, k))| CongestionEvent {
            at: first_at + spacing.saturating_mul(i as u64),
            demanded: Rate::from_gbps_f64(baseline_read_gbps * f),
            kind: k,
        })
        .collect()
}

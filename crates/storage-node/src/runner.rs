//! The device-level event loop: arrivals from a trace, storage-node
//! stack, and weight changes from a script or from an in-the-loop
//! [`NodeControl`].

use crate::node::{NodeConfig, StorageNode};
use crate::report::NodeReport;
use sim_engine::{
    AdaptiveEventQueue, ArrivalCursor, FxHashMap, Next, NullSink, Scratch, SimDuration, SimTime,
    SimWorkspace, TraceRecord, TraceSink,
};
use ssd_sim::{CommandCompletion, SsdEvent};
use workload::{IoType, Request, Trace};

/// Bin width used for runtime throughput series (the paper plots per
/// millisecond).
pub const BIN: SimDuration = SimDuration(1_000_000_000); // 1 ms in ps

/// Queued events. Arrivals never enter the queue: they come from the
/// run's [`ArrivalCursor`].
enum Ev {
    Ssd(SsdEvent),
    SetWeight(u32),
    Wake,
}

/// A controller in the loop: it watches the node's traffic and, woken
/// every [`period`](NodeControl::period), may set a new SSQ weight.
///
/// A weight returned by [`wake`](NodeControl::wake) is applied exactly
/// like a scheduled one: it is recorded in
/// [`NodeReport::weight_changes`], traced, and followed by a pump. The
/// next wake-up is armed after that step's device events are scheduled,
/// so a device event the step schedules for the same instant pops first.
pub trait NodeControl {
    /// Time between wake-ups; the first is one period after zero.
    fn period(&self) -> SimDuration;
    /// An arrival, seen before it is submitted.
    fn on_arrival(&mut self, req: &Request, now: SimTime);
    /// A host completion (`c.at` is the current time).
    fn on_completion(&mut self, c: &CommandCompletion);
    /// A periodic wake-up; `Some(w)` sets the weight ratio to `w`.
    fn wake(&mut self, now: SimTime) -> Option<u32>;
}

/// Per-worker reusable state for the trace runner (the device-level
/// analogue of system-sim's workspace scratch): the event queue, the
/// arrival cursor, the SSD step buffer and the submit-time map keep
/// their allocations across runs. `reset` empties each of them.
#[derive(Default)]
struct TraceScratch {
    queue: AdaptiveEventQueue<Ev>,
    arrivals: ArrivalCursor,
    step: ssd_sim::SsdStep,
    submit_time: FxHashMap<u64, SimTime>,
}

impl Scratch for TraceScratch {
    fn reset(&mut self) {
        self.queue.reset();
        self.arrivals.load([]);
        self.step.clear();
        self.submit_time.clear();
    }
}

/// Run a trace through a fresh node until *all* work drains; returns the
/// report. Latency statistics are exact; the trimmed throughput rates are
/// meaningful only when the workload keeps the device busy for most of
/// the run.
pub fn run_trace(cfg: &NodeConfig, trace: &Trace) -> NodeReport {
    run_trace_impl(
        cfg,
        trace,
        &[],
        None,
        None,
        &mut SimWorkspace::new(),
        &mut NullSink,
    )
}

/// Run a trace and stop the clock at the last arrival: steady-state
/// throughput measurement under sustained offered load, the semantics of
/// the paper's Fig. 5 sweeps. Backlog still queued at the horizon is
/// intentionally not drained — under saturation the split of *completed*
/// bytes inside the window is exactly what the weight ratio controls.
pub fn run_trace_windowed(cfg: &NodeConfig, trace: &Trace) -> NodeReport {
    run_trace_windowed_in(cfg, trace, &mut SimWorkspace::new())
}

/// [`run_trace_windowed`] against caller-provided per-worker scratch
/// storage (event queue, arrival cursor, step buffer, submit-time
/// map): the form sweep workers use so every cell after a worker's
/// first reuses the same allocations. The scratch is fully reset at
/// the start of every run, so the report is identical to
/// [`run_trace_windowed`]'s.
pub fn run_trace_windowed_in(cfg: &NodeConfig, trace: &Trace, ws: &mut SimWorkspace) -> NodeReport {
    run_trace_impl(cfg, trace, &[], None, Some(trace.span()), ws, &mut NullSink)
}

/// Windowed run with scripted weight changes (see
/// [`run_trace_with_schedule`]).
///
/// This is the sink-polymorphic entry point: SSQ fetch decisions and
/// weight changes, per-bin queue occupancy and SSD channel/chip
/// utilization flow into `sink` as they happen. Pass `&mut NullSink`
/// for an untraced run — the returned report is identical either way.
pub fn run_trace_windowed_with_schedule(
    cfg: &NodeConfig,
    trace: &Trace,
    weight_schedule: &[(SimTime, u32)],
    sink: &mut dyn TraceSink,
) -> NodeReport {
    run_trace_impl(
        cfg,
        trace,
        weight_schedule,
        None,
        Some(trace.span()),
        &mut SimWorkspace::new(),
        sink,
    )
}

/// Windowed run with `control` in the loop: it sees every arrival and
/// host completion and sets weights at its wake-ups (see
/// [`NodeControl`]).
pub fn run_trace_windowed_with_control(
    cfg: &NodeConfig,
    trace: &Trace,
    control: &mut dyn NodeControl,
) -> NodeReport {
    run_trace_impl(
        cfg,
        trace,
        &[],
        Some(control),
        Some(trace.span()),
        &mut SimWorkspace::new(),
        &mut NullSink,
    )
}

/// Run a trace, applying `(time, weight)` changes as they come due
/// (scripted version of SRC's dynamic adjustment, for device-level
/// experiments).
pub fn run_trace_with_schedule(
    cfg: &NodeConfig,
    trace: &Trace,
    weight_schedule: &[(SimTime, u32)],
) -> NodeReport {
    run_trace_impl(
        cfg,
        trace,
        weight_schedule,
        None,
        None,
        &mut SimWorkspace::new(),
        &mut NullSink,
    )
}

fn run_trace_impl(
    cfg: &NodeConfig,
    trace: &Trace,
    weight_schedule: &[(SimTime, u32)],
    mut control: Option<&mut dyn NodeControl>,
    horizon: Option<SimTime>,
    ws: &mut SimWorkspace,
    sink: &mut dyn TraceSink,
) -> NodeReport {
    let tracing = sink.enabled();
    let mut node = StorageNode::new(cfg);
    if tracing {
        node.set_telemetry(true, 0);
    }
    let mut last_sample = SimTime::ZERO;
    // Per-worker scratch, reset at the start of every run (see the
    // workspace reset contract in `sim_engine::workspace`).
    let scratch = ws.slot::<TraceScratch>();
    scratch.reset();
    let TraceScratch {
        queue: q,
        arrivals,
        step,
        submit_time,
    } = scratch;
    let mut report = NodeReport::new(BIN);

    arrivals.load(trace.requests().iter().map(|r| r.arrival));
    for &(t, w) in weight_schedule {
        q.schedule(t, Ev::SetWeight(w));
    }
    // Wake-ups re-arm forever, so only a horizon ends a controlled run.
    let period = control.as_ref().map(|c| c.period());
    if let Some(p) = period {
        assert!(p > SimDuration::ZERO, "control period must be positive");
        assert!(horizon.is_some(), "a controlled run needs a horizon");
        q.schedule(SimTime::ZERO + p, Ev::Wake);
    }

    while let Some((now, next)) = arrivals.pop(q.peek_time(), || q.pop()) {
        if let Some(h) = horizon {
            if now > h {
                break;
            }
        }
        step.clear();
        let mut rearm = None;
        let set_weight = match next {
            Next::Arrival(i) => {
                let r = trace.requests()[i];
                if let Some(ctl) = control.as_deref_mut() {
                    ctl.on_arrival(&r, now);
                }
                submit_time.insert(r.id, now);
                node.submit_into(r, now, &mut *step);
                None
            }
            Next::Event(Ev::Ssd(e)) => {
                node.on_ssd_event_into(e, now, &mut *step);
                None
            }
            Next::Event(Ev::SetWeight(w)) => Some(w),
            Next::Event(Ev::Wake) => {
                rearm = period;
                control.as_deref_mut().and_then(|ctl| ctl.wake(now))
            }
        };
        if let Some(w) = set_weight {
            node.set_weight_ratio(w);
            report.weight_changes.push((now, w));
            if tracing {
                sink.record(TraceRecord {
                    at: now,
                    component: "ssq",
                    scope: 0,
                    metric: "weight",
                    value: w as f64,
                });
            }
            node.pump_into(now, &mut *step);
        }
        if tracing {
            if now.since(last_sample) >= BIN {
                node.sample_telemetry(now);
                last_sample = now;
            }
            node.drain_probes_into(sink);
        }
        for c in &step.completions {
            if let Some(ctl) = control.as_deref_mut() {
                ctl.on_completion(c);
            }
            let lat = submit_time
                .remove(&c.id)
                .map(|t0| c.at.since(t0).as_us_f64())
                .unwrap_or(0.0);
            match c.op {
                IoType::Read => {
                    report.reads_completed += 1;
                    report.read_bytes += c.size;
                    report.read_series.add(c.at, c.size as f64);
                    report.read_latency_us.push(lat);
                }
                IoType::Write => {
                    report.writes_completed += 1;
                    report.write_bytes += c.size;
                    report.write_series.add(c.at, c.size as f64);
                    report.write_latency_us.push(lat);
                }
            }
            report.makespan = report.makespan.max(c.at.since(SimTime::ZERO));
        }
        for &(t, e) in &step.schedule {
            q.schedule(t, Ev::Ssd(e));
        }
        if let Some(p) = rearm {
            q.schedule(now + p, Ev::Wake);
        }
    }

    if let Some(h) = horizon {
        report.makespan = h.since(SimTime::ZERO);
    } else {
        assert!(
            node.is_idle(),
            "run ended with work still pending: {} queued, {} in flight",
            node.discipline().queued(),
            node.ssd().in_flight()
        );
    }
    report.ssd = node.ssd().stats();
    if tracing {
        let stats = report.ssd;
        sink.count(("ssd", 0, "reads_completed"), stats.reads_completed);
        sink.count(("ssd", 0, "writes_completed"), stats.writes_completed);
        sink.count(("ssd", 0, "gc_copies"), stats.gc_copies);
        sink.count(("ssd", 0, "erases"), stats.erases);
        sink.gauge(("ssq", 0, "weight"), node.weight_ratio() as f64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DisciplineKind;
    use workload::micro::{generate_micro, MicroConfig};

    fn small_trace(seed: u64) -> Trace {
        generate_micro(
            &MicroConfig {
                read_count: 300,
                write_count: 300,
                read_iat_mean_us: 10.0,
                write_iat_mean_us: 10.0,
                read_size_mean: 24_000.0,
                write_size_mean: 24_000.0,
                ..MicroConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn completes_everything() {
        let r = run_trace(&NodeConfig::default(), &small_trace(1));
        assert_eq!(r.reads_completed, 300);
        assert_eq!(r.writes_completed, 300);
        assert!(r.makespan > SimDuration::ZERO);
        assert!(r.read_latency_us.mean() > 0.0);
    }

    #[test]
    fn deterministic() {
        let a = run_trace(&NodeConfig::default(), &small_trace(2));
        let b = run_trace(&NodeConfig::default(), &small_trace(2));
        assert_eq!(a.read_series.bins(), b.read_series.bins());
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn fifo_and_ssq_both_run() {
        let t = small_trace(3);
        let f = run_trace(
            &NodeConfig {
                discipline: DisciplineKind::Fifo,
                ..NodeConfig::default()
            },
            &t,
        );
        let s = run_trace(
            &NodeConfig {
                discipline: DisciplineKind::Ssq { weight: 1 },
                ..NodeConfig::default()
            },
            &t,
        );
        assert_eq!(f.reads_completed, s.reads_completed);
        assert_eq!(f.writes_completed, s.writes_completed);
    }

    #[test]
    fn weight_schedule_applies() {
        let t = small_trace(4);
        let r = run_trace_with_schedule(
            &NodeConfig::default(),
            &t,
            &[(SimTime::from_ms(1), 4), (SimTime::from_ms(2), 2)],
        );
        assert_eq!(r.weight_changes.len(), 2);
        assert_eq!(r.weight_changes[0].1, 4);
    }

    #[test]
    fn arrival_at_a_weight_change_is_submitted_first() {
        // One request and one weight change at the same instant. The
        // arrival wins the tie, so its fetch is traced before the new
        // weight is.
        let at = SimTime::from_ms(1);
        let t = Trace::from_requests(vec![workload::Request {
            id: 0,
            op: IoType::Write,
            lba: 0,
            size: 4096,
            arrival: at,
        }]);
        let mut sink = sim_engine::RingSink::new(1 << 10);
        let r = run_trace_windowed_with_schedule(&NodeConfig::default(), &t, &[(at, 4)], &mut sink);
        assert_eq!(r.weight_changes, vec![(at, 4)]);
        let ssq: Vec<&str> = sink
            .records()
            .filter(|rec| rec.component == "ssq" && rec.at == at)
            .map(|rec| rec.metric)
            .collect();
        assert_eq!(
            ssq.first(),
            Some(&"fetch_class"),
            "records at {at:?}: {ssq:?}"
        );
        assert!(ssq.contains(&"weight"));
    }

    /// Counts what the runner shows it; sets weight 4 at its first
    /// wake-up.
    #[derive(Default)]
    struct Counting {
        arrivals: u64,
        completions: u64,
        wakes: u64,
    }

    impl NodeControl for Counting {
        fn period(&self) -> SimDuration {
            SimDuration::from_ms(1)
        }
        fn on_arrival(&mut self, _: &workload::Request, _: SimTime) {
            self.arrivals += 1;
        }
        fn on_completion(&mut self, _: &ssd_sim::CommandCompletion) {
            self.completions += 1;
        }
        fn wake(&mut self, _: SimTime) -> Option<u32> {
            self.wakes += 1;
            (self.wakes == 1).then_some(4)
        }
    }

    #[test]
    fn control_sees_every_arrival_and_completion() {
        let t = small_trace(6);
        let mut ctl = Counting::default();
        let r = run_trace_windowed_with_control(&NodeConfig::default(), &t, &mut ctl);
        assert_eq!(ctl.arrivals, t.len() as u64);
        assert_eq!(ctl.completions, r.reads_completed + r.writes_completed);
        assert_eq!(
            ctl.wakes,
            t.span().since(SimTime::ZERO).as_ps() / SimDuration::from_ms(1).as_ps()
        );
        assert_eq!(r.weight_changes, vec![(SimTime::from_ms(1), 4)]);
    }

    #[test]
    fn unsorted_deserialized_trace_runs_like_the_sorted_one() {
        // `Deserialize` bypasses `from_requests`' sort; the runner walks
        // arrivals in time order regardless of their positions.
        let sorted = small_trace(9);
        let mut arrivals: Vec<SimTime> = sorted.requests().iter().map(|r| r.arrival).collect();
        arrivals.dedup();
        assert_eq!(arrivals.len(), sorted.len(), "arrivals must be distinct");
        let mut shuffled: Vec<String> = sorted
            .requests()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        shuffled.reverse();
        shuffled.swap(0, 100);
        let json = format!("{{\"requests\":[{}]}}", shuffled.join(","));
        let unsorted: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(unsorted.len(), sorted.len());
        assert_ne!(unsorted.requests()[0], sorted.requests()[0]);
        let cfg = NodeConfig::default();
        assert_eq!(
            format!("{:?}", run_trace(&cfg, &unsorted)),
            format!("{:?}", run_trace(&cfg, &sorted))
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_series() {
        use sim_engine::RingSink;
        let t = small_trace(7);
        let schedule = [(SimTime::from_ms(1), 4), (SimTime::from_ms(2), 2)];
        let plain =
            run_trace_windowed_with_schedule(&NodeConfig::default(), &t, &schedule, &mut NullSink);
        let mut sink = RingSink::new(1 << 16);
        let traced =
            run_trace_windowed_with_schedule(&NodeConfig::default(), &t, &schedule, &mut sink);
        // Telemetry must not perturb the simulation.
        assert_eq!(plain.reads_completed, traced.reads_completed);
        assert_eq!(plain.writes_completed, traced.writes_completed);
        assert_eq!(plain.read_series.bins(), traced.read_series.bins());
        assert_eq!(plain.write_series.bins(), traced.write_series.bins());
        assert_eq!(plain.makespan, traced.makespan);
        let rep = sink.into_report();
        assert_eq!(
            rep.series("ssq", "weight").len(),
            2,
            "both weight changes traced"
        );
        assert!(!rep.series("ssq", "fetch_class").is_empty());
        assert!(!rep.series("ssd", "chip_util").is_empty());
        assert_eq!(
            rep.counter(("ssd", 0, "reads_completed")),
            plain.reads_completed
        );
        // Same seed, same schedule: byte-identical JSON-lines export.
        let mut sink2 = RingSink::new(1 << 16);
        let _ = run_trace_windowed_with_schedule(&NodeConfig::default(), &t, &schedule, &mut sink2);
        assert_eq!(rep.to_json_lines(), sink2.into_report().to_json_lines());
    }

    #[test]
    fn higher_weight_shifts_throughput_under_saturation() {
        // Saturating workload: the SSQ weight should visibly shift
        // completed bytes from reads to writes (Fig. 5's core effect).
        let t = generate_micro(
            &MicroConfig {
                read_count: 2_000,
                write_count: 2_000,
                read_iat_mean_us: 8.0,
                write_iat_mean_us: 8.0,
                read_size_mean: 40_000.0,
                write_size_mean: 40_000.0,
                ..MicroConfig::default()
            },
            5,
        );
        let at = |w: u32| {
            run_trace_windowed(
                &NodeConfig {
                    discipline: DisciplineKind::Ssq { weight: w },
                    ..NodeConfig::default()
                },
                &t,
            )
        };
        let w1 = at(1);
        let w4 = at(4);
        let r1 = w1.read_tput().as_gbps_f64();
        let r4 = w4.read_tput().as_gbps_f64();
        let wr1 = w1.write_tput().as_gbps_f64();
        let wr4 = w4.write_tput().as_gbps_f64();
        assert!(r4 < r1 * 0.9, "read tput should fall: {r1} -> {r4}");
        assert!(wr4 > wr1 * 1.1, "write tput should rise: {wr1} -> {wr4}");
    }
}

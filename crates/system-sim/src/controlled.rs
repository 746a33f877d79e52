//! In-the-loop control harness: a storage node driven by a trace while a
//! [`RateController`] — TPM-based or reactive — adjusts the SSQ weights
//! from live measurements at a fixed control period.
//!
//! This is the testbed for the paper's Sec. II-C design argument: the
//! reactive stepper needs one control period per weight step, while the
//! TPM controller jumps straight to Algorithm 1's answer.
//!
//! The run itself is the storage-node runner's: this module supplies a
//! [`NodeControl`] that meters the read rate, tracks the workload
//! features, looks up the demanded rate, and asks the controller for a
//! weight at every wake-up.

use sim_engine::{SimDuration, SimTime};
use src_core::algorithm::CongestionEvent;
use src_core::reactive::RateController;
use src_core::WorkloadMonitor;
use ssd_sim::CommandCompletion;
use storage_node::{run_trace_windowed_with_control, DisciplineKind, NodeConfig, NodeControl};
use workload::{Request, Trace};

/// Result of a controlled run.
#[derive(Debug)]
pub struct ControlledResult {
    /// Applied weight changes `(time, w)`.
    pub weight_changes: Vec<(SimTime, u32)>,
    /// For each congestion event: time until the measured read rate
    /// first came within 25 % of the demanded rate (NaN = never).
    pub settle_ms: Vec<f64>,
}

/// Sliding-window read-rate meter.
struct RateMeter {
    window: SimDuration,
    samples: std::collections::VecDeque<(SimTime, u64)>,
    total: u64,
}

impl RateMeter {
    fn new(window: SimDuration) -> Self {
        RateMeter {
            window,
            samples: Default::default(),
            total: 0,
        }
    }
    fn push(&mut self, at: SimTime, bytes: u64) {
        self.samples.push_back((at, bytes));
        self.total += bytes;
        self.evict(at);
    }
    fn evict(&mut self, now: SimTime) {
        let cutoff = now.saturating_sub(self.window);
        while self.samples.front().is_some_and(|&(t, _)| t < cutoff) {
            let (_, b) = self.samples.pop_front().expect("checked");
            self.total -= b;
        }
    }
    fn gbps(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        self.total as f64 * 8.0 / self.window.as_secs_f64() / 1e9
    }
}

/// The [`NodeControl`] that puts a [`RateController`] in the loop.
struct Harness<'a> {
    events: &'a [CongestionEvent],
    controller: &'a mut dyn RateController,
    tick: SimDuration,
    monitor: WorkloadMonitor,
    meter: RateMeter,
    settle_ms: Vec<f64>,
}

impl NodeControl for Harness<'_> {
    fn period(&self) -> SimDuration {
        self.tick
    }

    fn on_arrival(&mut self, req: &Request, now: SimTime) {
        self.monitor.observe(req, now);
    }

    fn on_completion(&mut self, c: &CommandCompletion) {
        if c.op.is_read() {
            self.meter.push(c.at, c.size);
        }
    }

    fn wake(&mut self, now: SimTime) -> Option<u32> {
        // The congestion event in force: the latest one due by now (at
        // equal times, the later in `events`).
        let (ei, ev) = self
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.at <= now)
            .max_by_key(|&(i, e)| (e.at, i))?;
        let d = ev.demanded.as_gbps_f64();
        let measured = self.meter.gbps(now);
        // Settle detection.
        if self.settle_ms[ei].is_nan() && (measured - d).abs() / d.max(1e-9) < 0.25 {
            self.settle_ms[ei] = now.since(ev.at).as_ms_f64();
        }
        let ch = self.monitor.features(now);
        self.controller.control(d, measured, &ch, now)
    }
}

/// Run `trace` on an SSQ node; `events` set the demanded rate over time;
/// `controller` is ticked every `tick` with the measured read rate.
pub fn run_controlled(
    ssd: &ssd_sim::SsdConfig,
    trace: &Trace,
    events: &[CongestionEvent],
    controller: &mut dyn RateController,
    tick: SimDuration,
) -> ControlledResult {
    let cfg = NodeConfig {
        ssd: ssd.clone(),
        discipline: DisciplineKind::Ssq { weight: 1 },
        merge_cap: None,
    };
    let mut harness = Harness {
        events,
        controller,
        tick,
        monitor: WorkloadMonitor::new(SimDuration::from_ms(10)),
        meter: RateMeter::new(SimDuration::from_ms(3)),
        settle_ms: vec![f64::NAN; events.len()],
    };
    let report = run_trace_windowed_with_control(&cfg, trace, &mut harness);
    ControlledResult {
        weight_changes: report.weight_changes,
        settle_ms: harness.settle_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::Rate;
    use src_core::algorithm::CongestionKind;
    use src_core::reactive::{ReactiveConfig, ReactiveController, TpmRateController};
    use src_core::tpm::{ThroughputPredictionModel, TrainingConfig};
    use workload::micro::{generate_micro, MicroConfig};

    #[test]
    fn reactive_controller_converges_in_the_loop() {
        let trace = generate_micro(
            &MicroConfig {
                read_iat_mean_us: 8.0,
                write_iat_mean_us: 8.0,
                read_size_mean: 40_000.0,
                write_size_mean: 40_000.0,
                read_count: 6_000,
                write_count: 6_000,
                ..MicroConfig::default()
            },
            5,
        );
        let events = vec![CongestionEvent {
            at: SimTime::from_ms(10),
            demanded: Rate::from_gbps_f64(0.8),
            kind: CongestionKind::Pause,
        }];
        let mut ctl = ReactiveController::new(ReactiveConfig::default());
        let r = run_controlled(
            &ssd_sim::SsdConfig::ssd_a(),
            &trace,
            &events,
            &mut ctl,
            SimDuration::from_ms(1),
        );
        // It took multiple steps (several weight changes), and converged.
        assert!(
            r.weight_changes.len() >= 2,
            "reactive should need several steps: {:?}",
            r.weight_changes
        );
        assert!(ctl.current_weight() > 1);
        assert!(
            r.settle_ms[0].is_finite(),
            "should settle near the demanded rate"
        );
    }

    #[test]
    fn rate_meter_window() {
        let mut m = RateMeter::new(SimDuration::from_ms(2));
        m.push(SimTime::from_ms(1), 250_000); // 1 Gbps over 2 ms window
        assert!((m.gbps(SimTime::from_ms(1)) - 1.0).abs() < 0.01);
        // After the window passes, the sample evicts.
        assert!(m.gbps(SimTime::from_ms(4)) < 0.01);
    }

    /// The trace and congestion event both in-the-loop tests below run.
    fn micro_setup() -> (Trace, Vec<CongestionEvent>) {
        let trace = generate_micro(
            &MicroConfig {
                read_iat_mean_us: 8.0,
                write_iat_mean_us: 8.0,
                read_size_mean: 40_000.0,
                write_size_mean: 40_000.0,
                read_count: 4_000,
                write_count: 4_000,
                ..MicroConfig::default()
            },
            5,
        );
        let events = vec![CongestionEvent {
            at: SimTime::from_ms(8),
            demanded: Rate::from_gbps_f64(0.8),
            kind: CongestionKind::Pause,
        }];
        (trace, events)
    }

    fn quick_tpm(ssd: &ssd_sim::SsdConfig) -> std::sync::Arc<ThroughputPredictionModel> {
        std::sync::Arc::new(ThroughputPredictionModel::train_for_device(
            ssd,
            &TrainingConfig::quick(),
            1,
        ))
    }

    #[test]
    fn tpm_controller_needs_fewer_actions_than_reactive() {
        let ssd = ssd_sim::SsdConfig::ssd_a();
        let (trace, events) = micro_setup();
        let tick = SimDuration::from_ms(1);
        let mut reactive = ReactiveController::new(ReactiveConfig::default());
        let rr = run_controlled(&ssd, &trace, &events, &mut reactive, tick);
        let mut tc = TpmRateController::new(quick_tpm(&ssd), 0.1, 16);
        let rt = run_controlled(&ssd, &trace, &events, &mut tc, tick);
        // The paper's Sec. II-C argument: prediction replaces a staircase
        // of reactive corrections.
        assert!(
            rt.weight_changes.len() < rr.weight_changes.len(),
            "TPM {} actions vs reactive {}",
            rt.weight_changes.len(),
            rr.weight_changes.len()
        );
        assert!(!rt.weight_changes.is_empty());
    }

    #[test]
    fn controlled_runs_are_pinned_bitwise() {
        // Recorded from the harness's own queue-driven loop before it was
        // folded into the storage-node runner. The congestion event and a
        // wake-up share the 8 ms instant, so both controllers act at 8 ms
        // only if the event counts as in force there.
        let ssd = ssd_sim::SsdConfig::ssd_a();
        let (trace, events) = micro_setup();
        let tick = SimDuration::from_ms(1);
        let ps = |r: &ControlledResult| -> Vec<(u64, u32)> {
            r.weight_changes
                .iter()
                .map(|&(t, w)| (t.as_ps(), w))
                .collect()
        };
        let bits = |r: &ControlledResult| -> Vec<u64> {
            r.settle_ms.iter().map(|x| x.to_bits()).collect()
        };
        let one_ms = 1.0f64.to_bits();

        let mut reactive = ReactiveController::new(ReactiveConfig::default());
        let rr = run_controlled(&ssd, &trace, &events, &mut reactive, tick);
        let steps = [
            (8, 2),
            (10, 1),
            (17, 2),
            (18, 3),
            (19, 4),
            (20, 5),
            (21, 6),
            (22, 7),
            (23, 8),
            (24, 7),
            (25, 6),
            (26, 5),
            (27, 4),
            (28, 3),
            (30, 2),
            (32, 1),
        ];
        let expect: Vec<(u64, u32)> = steps
            .iter()
            .map(|&(ms, w)| (SimTime::from_ms(ms).as_ps(), w))
            .collect();
        assert_eq!(ps(&rr), expect);
        assert_eq!(bits(&rr), vec![one_ms]);

        let mut tc = TpmRateController::new(quick_tpm(&ssd), 0.1, 16);
        let rt = run_controlled(&ssd, &trace, &events, &mut tc, tick);
        assert_eq!(ps(&rt), vec![(SimTime::from_ms(8).as_ps(), 3)]);
        assert_eq!(bits(&rt), vec![one_ms]);
    }
}

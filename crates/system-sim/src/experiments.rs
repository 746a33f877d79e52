//! One function per table/figure of the paper's evaluation. The bench
//! binaries print these results; integration tests run them at reduced
//! scale and assert the qualitative shapes.

use crate::config::{
    per_target_sources, spread_source, BackgroundTraffic, Mode, SystemConfig, TargetSelection,
};
use crate::report::SystemReport;
use crate::scripted::{fig9_events, run_scripted, ScriptedResult};
use crate::system::{run_system, RobustnessConfig, RunOptions};
use ml::Dataset;
use serde::{Deserialize, Serialize};
use sim_engine::runner::join;
use sim_engine::{
    CheckpointSpec, FaultEvent, FaultKind, FaultPlan, FaultScope, NullSink, ScenarioRunner,
    SimDuration, SimTime, TraceSink,
};
use src_core::tpm::{
    generate_training_samples, samples_to_dataset, table1_accuracy, ThroughputPredictionModel,
    TrainingConfig,
};
use src_core::SrcConfig;
use ssd_sim::SsdConfig;
use std::sync::Arc;
use storage_node::{weight_sweep, SweepPoint};
use workload::micro::MicroConfig;
use workload::source::{ReplaySpec, WorkloadSource, WorkloadSpec};
use workload::synthetic::{ScvQuadrant, SyntheticConfig};

/// Scale knob: `full()` reproduces the paper's sizes; `quick()` keeps CI
/// runtimes in seconds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Scale {
    /// Requests per class per target in system runs.
    pub requests_per_target: usize,
    /// Samples per class in model-training sweeps.
    pub train: TrainKnob,
}

/// Which training grid to use.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum TrainKnob {
    /// The full Fig. 5 grid.
    Full,
    /// The reduced grid.
    Quick,
}

impl Scale {
    /// Paper-scale (5000 requests per class per target, full grid).
    pub fn full() -> Self {
        Scale {
            requests_per_target: 5_000,
            train: TrainKnob::Full,
        }
    }

    /// Test-scale.
    pub fn quick() -> Self {
        Scale {
            requests_per_target: 700,
            train: TrainKnob::Quick,
        }
    }

    /// Resolve the training grid.
    pub fn training_config(&self) -> TrainingConfig {
        match self.train {
            TrainKnob::Full => TrainingConfig::full(),
            TrainKnob::Quick => TrainingConfig::quick(),
        }
    }
}

// ----------------------------------------------------------------------
// Fig. 5 — throughput vs weight ratio grid

/// One cell of the Fig. 5 grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig5Cell {
    /// Mean inter-arrival time, µs.
    pub iat_us: f64,
    /// Mean request size, bytes.
    pub size_bytes: f64,
    /// Sweep points across weight ratios.
    pub points: Vec<SweepPoint>,
}

/// Sweep read/write throughput across weight ratios for the paper's
/// 4×4 workload grid (10–25 µs × 10–40 KB), on the given device. Grid
/// cells are independent seeded sweeps, so the [`ScenarioRunner`]
/// evaluates them in parallel; each cell's trace seed stays the same
/// pure function of its `(i, j)` grid position as the original serial
/// loop, so results are byte-identical at any thread count. With
/// `SRCSIM_CHECKPOINT` set, completed cells land in a sweep manifest
/// and an interrupted grid resumes where it left off.
pub fn fig5(ssd: &SsdConfig, scale: &Scale, seed: u64) -> Vec<Fig5Cell> {
    let cfg = scale.training_config();
    let ckpt =
        CheckpointSpec::from_env("fig5", &format!("fig5 ssd={ssd:?} cfg={cfg:?} seed={seed}"));
    let mut cells: Vec<(usize, usize, f64, f64)> = Vec::new();
    for (i, &iat) in cfg.iat_means_us.iter().enumerate() {
        for (j, &size) in cfg.size_means.iter().enumerate() {
            cells.push((i, j, iat, size));
        }
    }
    ScenarioRunner::from_env().run_cells_resumable(
        ckpt.as_ref(),
        seed,
        &cells,
        |_, &(i, j, iat, size)| {
            let spec = WorkloadSpec::Micro(MicroConfig {
                read_iat_mean_us: iat,
                write_iat_mean_us: iat,
                read_size_mean: size,
                write_size_mean: size,
                read_count: cfg.requests_per_class,
                write_count: cfg.requests_per_class,
                ..MicroConfig::default()
            });
            let trace = spec.generate(seed.wrapping_add((i * 16 + j) as u64));
            Fig5Cell {
                iat_us: iat,
                size_bytes: size,
                points: weight_sweep(ssd, &trace, &cfg.weights),
            }
        },
    )
}

// ----------------------------------------------------------------------
// Table I — regression accuracy of the five model families

/// Table I rows: `(model label, R²)` on a 60/40 split of micro sweeps.
pub fn table1(ssd: &SsdConfig, scale: &Scale, seed: u64) -> Vec<(&'static str, f64)> {
    let samples = generate_training_samples(ssd, &scale.training_config(), seed);
    let data = samples_to_dataset(&samples);
    table1_accuracy(&data, 0.6, seed)
}

/// Breiman feature importance of the TPM trained on the same sweep
/// (the paper: flow speed dominates with weight 0.39).
pub fn feature_importance(ssd: &SsdConfig, scale: &Scale, seed: u64) -> Vec<(String, f64)> {
    let samples = generate_training_samples(ssd, &scale.training_config(), seed);
    let data = samples_to_dataset(&samples);
    let tpm = ThroughputPredictionModel::train(&data, scale.training_config().n_trees, seed);
    let mut names: Vec<String> = workload::features::FEATURE_NAMES
        .iter()
        .map(|s| s.to_string())
        .collect();
    names.push("weight_ratio".into());
    names.into_iter().zip(tpm.feature_importance()).collect()
}

// ----------------------------------------------------------------------
// Table III — cross-validation over SCV quadrants

/// Table III rows: leave-one-quadrant-out R² of the random forest.
///
/// The `(quadrant, workload)` sweep cells and the four holdout fits are
/// each independent, so both stages run on the [`ScenarioRunner`]; the
/// per-cell trace seed stays the original pure function of `(qi, k)`.
pub fn table3(ssd: &SsdConfig, scale: &Scale, seed: u64) -> Vec<(&'static str, f64)> {
    let cfg = scale.training_config();
    let fp = format!("table3 ssd={ssd:?} cfg={cfg:?} seed={seed}");
    // Synthetic sweeps: one flat grid cell per (quadrant, workload).
    let mut cells: Vec<(usize, ScvQuadrant, usize, f64, f64)> = Vec::new();
    for (qi, q) in ScvQuadrant::ALL.into_iter().enumerate() {
        for (k, (&iat, &size)) in cfg
            .iat_means_us
            .iter()
            .zip(cfg.size_means.iter().cycle())
            .enumerate()
        {
            cells.push((qi, q, k, iat, size));
        }
    }
    let runner = ScenarioRunner::from_env();
    let ckpt_synth = CheckpointSpec::from_env("table3_synth", &fp);
    let cell_samples = runner.run_cells_resumable(
        ckpt_synth.as_ref(),
        seed,
        &cells,
        |_, &(qi, q, k, iat, size)| {
            let p = q.profile(iat, size);
            let spec = WorkloadSpec::Synthetic(SyntheticConfig {
                read: p,
                write: p,
                read_count: cfg.requests_per_class,
                write_count: cfg.requests_per_class,
                lba_space_sectors: 1 << 22,
                lba_model: workload::spatial::LbaModel::Uniform,
            });
            let trace = spec.generate(seed.wrapping_add((qi * 31 + k) as u64));
            weight_sweep(ssd, &trace, &cfg.weights)
        },
    );
    let mut quadrant_data: Vec<(ScvQuadrant, Dataset)> = Vec::new();
    for (qi, q) in ScvQuadrant::ALL.into_iter().enumerate() {
        let mut samples: Vec<SweepPoint> = Vec::new();
        for ((ci, ..), s) in cells.iter().zip(&cell_samples) {
            if *ci == qi {
                samples.extend(s.iter().cloned());
            }
        }
        quadrant_data.push((q, samples_to_dataset(&samples)));
    }
    // Micro sweeps are always in the training set (paper Sec. IV-C).
    let micro = samples_to_dataset(&generate_training_samples(ssd, &cfg, seed));

    // The holdout labels are `&'static str`, so the checkpoint payload
    // is the R² alone; labels re-attach by cell index.
    let ckpt_holdout = CheckpointSpec::from_env("table3_holdout", &fp);
    let r2s = runner.run_cells_resumable(
        ckpt_holdout.as_ref(),
        seed,
        &ScvQuadrant::ALL,
        |_, &held| {
            let mut train = micro.clone();
            let mut test = Dataset::default();
            for (q, d) in &quadrant_data {
                if *q == held {
                    test = d.clone();
                } else {
                    train = train.concat(d.clone());
                }
            }
            ml::cv::holdout_r2(&train, &test, &ml::ModelKind::RandomForest, seed)
        },
    );
    ScvQuadrant::ALL
        .into_iter()
        .map(|q| q.label())
        .zip(r2s)
        .collect()
}

// ----------------------------------------------------------------------
// Figs. 7/8 — runtime throughput and pause count, DCQCN vs DCQCN-SRC

/// Both modes on the VDI-like workload (1 Initiator × 2 Targets).
pub struct Fig7Result {
    /// DCQCN-only run.
    pub dcqcn_only: SystemReport,
    /// DCQCN-SRC run.
    pub dcqcn_src: SystemReport,
}

/// Train a TPM for a device at the given scale.
pub fn train_tpm(ssd: &SsdConfig, scale: &Scale, seed: u64) -> Arc<ThroughputPredictionModel> {
    Arc::new(ThroughputPredictionModel::train_for_device(
        ssd,
        &scale.training_config(),
        seed,
    ))
}

/// The congestion environment shared by the system experiments
/// (Figs. 7/8/10, Table IV): non-adaptive fabric-sharing traffic into
/// Initiator 0 covering ~65 % of the expected run (see
/// [`BackgroundTraffic`] and DESIGN.md).
pub fn paper_background(assignments: &[crate::config::Assignment]) -> Option<BackgroundTraffic> {
    let total_bytes: u64 = assignments.iter().map(|a| a.request.size).sum();
    let est_makespan_ms = (total_bytes as f64 * 8.0 / 7.5e9 * 1e3).max(10.0);
    Some(BackgroundTraffic {
        // 14 x 3 Gbps of non-adaptive traffic slightly oversubscribes
        // the 40 Gbps link: the paper's regime, where the Targets' flows
        // are squeezed to a fraction of the SSDs' read output.
        n_sources: 14,
        rate_per_source: sim_engine::Rate::from_gbps(3),
        bytes_per_burst: 128 * 1024,
        burst_interval: SimDuration::from_us(100),
        start: SimTime::from_ms(2),
        stop: SimTime::from_ms((est_makespan_ms * 0.65) as u64),
    })
}

/// Tight PFC thresholds used with [`paper_background`] so pause frames
/// reach the Targets during congestion onset (Fig. 8's metric).
pub fn paper_pfc() -> net_sim::PfcParams {
    net_sim::PfcParams {
        xoff_bytes: 64 * 1024,
        xon_bytes: 32 * 1024,
    }
}

/// Run the Fig. 7/8 experiment. Each mode's run streams into its own
/// sink (`sinks.0` DCQCN-only, `sinks.1` DCQCN-SRC) so the two traces
/// stay comparable line-by-line; pass `(&mut NullSink, &mut NullSink)`
/// for an untraced run.
pub fn fig7_fig8(
    ssd: &SsdConfig,
    scale: &Scale,
    tpm: Arc<ThroughputPredictionModel>,
    seed: u64,
    sinks: (&mut dyn TraceSink, &mut dyn TraceSink),
) -> Fig7Result {
    let n = scale.requests_per_target;
    // Per-target VDI stream at 20 µs inter-arrival so the two Targets
    // together offer the paper's ~35.2 Gbps of read traffic into the
    // single Initiator link.
    let mut vdi = SyntheticConfig::vdi(n, n);
    vdi.read.iat_mean_us = 20.0;
    vdi.write.iat_mean_us = 20.0;
    let specs = vec![WorkloadSpec::Synthetic(vdi); 2];
    let assignments = per_target_sources(&specs, seed, 1);
    // Congestion (paper Fig. 7: heavy from the start, relieved around
    // 70 % of the timeline): enough competing traffic that the Targets'
    // DCQCN share falls below the SSDs' read output — only then does
    // the TXQ become the bottleneck the paper describes.
    let base = SystemConfig::builder()
        .n_initiators(1)
        .n_targets(2)
        .ssd(ssd.clone())
        .workloads(specs)
        .background(paper_background(&assignments))
        .pfc(paper_pfc())
        .build();
    let only_cfg = base.to_builder().mode(Mode::DcqcnOnly).build();
    let src_cfg = base.to_builder().mode(Mode::DcqcnSrc).build();
    // The two modes are independent runs; `join` overlaps them when the
    // thread budget allows (sinks are `Send`, each owned by one run).
    let (s_only, s_src) = sinks;
    let (dcqcn_only, dcqcn_src) = join(
        || run_system(&only_cfg, RunOptions::assignments(&assignments), s_only),
        || {
            run_system(
                &src_cfg,
                RunOptions::assignments(&assignments).tpm(tpm),
                s_src,
            )
        },
    );
    Fig7Result {
        dcqcn_only,
        dcqcn_src,
    }
}

// ----------------------------------------------------------------------
// Fig. 9 — dynamic control convergence on SSD-B

/// Run the Fig. 9 scripted-congestion experiment on SSD-B. SRC
/// demand/weight decisions and the storage node's SSQ/SSD series stream
/// into `sink`; pass `&mut NullSink` for an untraced run.
pub fn fig9(scale: &Scale, seed: u64, sink: &mut dyn TraceSink) -> ScriptedResult {
    let ssd = SsdConfig::ssd_b();
    let tpm = train_tpm(&ssd, scale, seed);
    // Sustained heavy workload so the weight knob has authority.
    let n = scale.requests_per_target * 8;
    let trace = WorkloadSpec::Micro(MicroConfig {
        read_iat_mean_us: 10.0,
        write_iat_mean_us: 10.0,
        read_size_mean: 40_000.0,
        write_size_mean: 40_000.0,
        read_count: n,
        write_count: n,
        ..MicroConfig::default()
    })
    .generate(seed);
    // Baseline read throughput at w = 1 sets the event scale.
    let baseline = weight_sweep(&ssd, &trace, &[1])[0].read_gbps;
    let span_ms = trace.span().as_ms_f64();
    let spacing = SimDuration::from_ms(((span_ms / 5.0).max(2.0)) as u64);
    let events = fig9_events(baseline, SimTime::ZERO + spacing, spacing);
    run_scripted(&ssd, &trace, &events, tpm, &SrcConfig::default(), sink)
}

/// Companion fabric slice for the Fig. 9 trace: the scripted convergence
/// run has no network in the loop, so this short congested system run
/// (same device, derived seed) supplies the real DCQCN per-flow rate and
/// TXQ backlog series for the same trace file.
pub fn fig9_fabric_slice(scale: &Scale, seed: u64, sink: &mut dyn TraceSink) -> SystemReport {
    let ssd = SsdConfig::ssd_b();
    let n = (scale.requests_per_target / 2).max(150);
    let spec = WorkloadSpec::Micro(MicroConfig {
        read_iat_mean_us: 10.0,
        write_iat_mean_us: 10.0,
        read_size_mean: 40_000.0,
        write_size_mean: 40_000.0,
        read_count: n,
        write_count: n,
        ..MicroConfig::default()
    });
    let assignments = spread_source(&spec, seed, 1, 2);
    let cfg = SystemConfig::builder()
        .n_initiators(1)
        .n_targets(2)
        .ssd(ssd)
        .workload(spec)
        .background(paper_background(&assignments))
        .pfc(paper_pfc())
        .build();
    run_system(&cfg, RunOptions::assignments(&assignments), sink)
}

// ----------------------------------------------------------------------
// Fig. 10 — workload-intensity sensitivity

/// `(label, DCQCN-only, DCQCN-SRC)` per intensity class.
pub fn fig10(
    ssd: &SsdConfig,
    scale: &Scale,
    tpm: Arc<ThroughputPredictionModel>,
    seed: u64,
) -> Vec<(&'static str, SystemReport, SystemReport)> {
    let mk = |mc: MicroConfig| {
        let n = scale.requests_per_target;
        WorkloadSpec::Micro(MicroConfig {
            read_count: n,
            write_count: n,
            ..mc
        })
    };
    // Intensity classes scaled to this reproduction's device (our SSD
    // model runs at a few Gbps per class where the paper's MQSim config
    // ran several times faster): "light" must leave the device
    // unsaturated for the paper's no-difference result to be meaningful.
    // Ratios between the classes match the paper's 22/32/44 KB and
    // 60/80/100 per-ms ladder.
    let light = MicroConfig {
        read_iat_mean_us: 40.0,
        write_iat_mean_us: 40.0,
        read_size_mean: 4_000.0,
        write_size_mean: 4_000.0,
        ..MicroConfig::default()
    };
    let classes = [
        ("light", light),
        ("moderate", MicroConfig::moderate()),
        ("heavy", MicroConfig::heavy()),
    ];
    // Intensity classes (and the two modes within each) are independent
    // runs; spread them across the pool. The class labels are
    // `&'static str`, so checkpoint payloads carry only the two reports
    // and labels re-attach by cell index.
    let ckpt = CheckpointSpec::from_env(
        "fig10",
        &format!("fig10 ssd={ssd:?} scale={scale:?} seed={seed}"),
    );
    let reports = ScenarioRunner::from_env().run_cells_resumable(
        ckpt.as_ref(),
        seed,
        &classes,
        |_, (_, mc)| {
            let specs = vec![mk(mc.clone()); 2];
            let assignments = per_target_sources(&specs, seed, 1);
            let base = SystemConfig::builder()
                .n_initiators(1)
                .n_targets(2)
                .ssd(ssd.clone())
                .workloads(specs)
                .background(paper_background(&assignments))
                .pfc(paper_pfc())
                .build();
            join(
                || {
                    run_system(
                        &base.to_builder().mode(Mode::DcqcnOnly).build(),
                        RunOptions::assignments(&assignments),
                        &mut NullSink,
                    )
                },
                || {
                    run_system(
                        &base.to_builder().mode(Mode::DcqcnSrc).build(),
                        RunOptions::assignments(&assignments).tpm(tpm.clone()),
                        &mut NullSink,
                    )
                },
            )
        },
    );
    classes
        .iter()
        .zip(reports)
        .map(|((label, _), (only, src))| (*label, only, src))
        .collect()
}

// ----------------------------------------------------------------------
// Table IV — in-cast ratio analysis

/// One Table IV row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IncastRow {
    /// Ratio label, e.g. "2:1".
    pub ratio: String,
    /// DCQCN-SRC aggregated throughput, Gbps.
    pub src_gbps: f64,
    /// DCQCN-only aggregated throughput, Gbps.
    pub only_gbps: f64,
    /// Improvement of SRC over the baseline, percent.
    pub improvement_pct: f64,
}

/// The Table IV in-cast workload: one heavy micro stream (~38 Gbps of
/// reads: 44 KB every 9.2 µs) sized for `n_targets` Targets. Shared by
/// the homogeneous ([`table4`]), fleet ([`ext_heterogeneous`],
/// [`extension_distribution_fleet`]) and traced-bin in-cast sweeps.
pub fn incast_spec(scale: &Scale, n_targets: usize) -> WorkloadSpec {
    let total_requests = scale.requests_per_target * n_targets;
    WorkloadSpec::Micro(MicroConfig {
        read_iat_mean_us: 9.2,
        write_iat_mean_us: 9.2,
        read_size_mean: 44_000.0,
        write_size_mean: 23_000.0,
        read_count: total_requests,
        write_count: total_requests,
        ..MicroConfig::default()
    })
}

/// Run the in-cast sweep: Targets:Initiators of 2:1, 3:1, 4:1 and 4:4
/// with (approximately) the same total offered traffic.
pub fn table4(
    ssd: &SsdConfig,
    scale: &Scale,
    tpm: Arc<ThroughputPredictionModel>,
    seed: u64,
) -> Vec<IncastRow> {
    let ratios: [(usize, usize); 4] = [(2, 1), (3, 1), (4, 1), (4, 4)];
    // Every ratio (and both modes within it) is an independent seeded
    // run; the grid executes on the pool with rows in ratio order.
    let ckpt = CheckpointSpec::from_env(
        "table4",
        &format!("table4 ssd={ssd:?} scale={scale:?} seed={seed}"),
    );
    ScenarioRunner::from_env().run_cells_resumable(
        ckpt.as_ref(),
        seed,
        &ratios,
        |_, &(n_targets, n_initiators)| {
            // Fixed total read load ≈ 38 Gbps: one heavy stream split
            // across all targets.
            let spec = incast_spec(scale, n_targets);
            let assignments = spread_source(&spec, seed, n_initiators, n_targets);
            let base = SystemConfig::builder()
                .n_initiators(n_initiators)
                .n_targets(n_targets)
                .ssd(ssd.clone())
                .workload(spec)
                .background(paper_background(&assignments))
                .pfc(paper_pfc())
                .build();
            let (only, src) = join(
                || {
                    run_system(
                        &base.to_builder().mode(Mode::DcqcnOnly).build(),
                        RunOptions::assignments(&assignments),
                        &mut NullSink,
                    )
                },
                || {
                    run_system(
                        &base.to_builder().mode(Mode::DcqcnSrc).build(),
                        RunOptions::assignments(&assignments).tpm(tpm.clone()),
                        &mut NullSink,
                    )
                },
            );
            let only_gbps = only.aggregated_tput().as_gbps_f64();
            let src_gbps = src.aggregated_tput().as_gbps_f64();
            IncastRow {
                ratio: format!("{n_targets}:{n_initiators}"),
                src_gbps,
                only_gbps,
                improvement_pct: if only_gbps > 0.0 {
                    (src_gbps - only_gbps) / only_gbps * 100.0
                } else {
                    0.0
                },
            }
        },
    )
}

// ----------------------------------------------------------------------
// Extension: fault injection over the in-cast grid

/// One row of the fault-injection sweep: a Table IV cell under a
/// scheduled fault storm of the given intensity. The recovery counters
/// and availability come from the DCQCN-SRC run (the mode under study);
/// both modes run against the identical plan.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultRow {
    /// Ratio label, e.g. "2:1".
    pub ratio: String,
    /// Fault intensity in `[0, 1]` (0 = empty plan).
    pub intensity: f64,
    /// DCQCN-only aggregated throughput, Gbps.
    pub only_gbps: f64,
    /// DCQCN-SRC aggregated throughput, Gbps.
    pub src_gbps: f64,
    /// Improvement of SRC over the baseline, percent.
    pub improvement_pct: f64,
    /// Timed-out attempts in the SRC run.
    pub timeouts: u64,
    /// Retries issued in the SRC run.
    pub retries: u64,
    /// Requests abandoned in the SRC run.
    pub abandoned: u64,
    /// Worst per-Target availability in the SRC run.
    pub min_availability: f64,
}

/// Time base for one cell's fault windows: roughly the fault-free
/// makespan of an in-cast cell at this scale, so the storm covers the
/// bulk of the run at `quick` and `full` alike instead of a fixed few
/// milliseconds.
pub fn fault_horizon(scale: &Scale) -> SimDuration {
    SimDuration::from_ms(scale.requests_per_target as u64 / 4)
}

/// The timeout/retry policy the fault sweep arms. The in-cast workload
/// is open-loop overloaded — fault-free tail latency is on the order of
/// the makespan — so the deadline sits several makespans out: its job
/// is recovering *lost* work (dropped commands and replies), not
/// policing congestion latency.
pub fn fault_robustness(scale: &Scale) -> RobustnessConfig {
    RobustnessConfig {
        timeout: SimDuration::from_ms(scale.requests_per_target as u64),
        retry_budget: 3,
        backoff_base: SimDuration::from_ms(10),
    }
}

/// The fault schedule for one in-cast cell, scaled by `intensity` in
/// `[0, 1]`: 0 is the empty plan (bit-identical to the fault-free
/// Table IV cell), 1 the full storm. Windows are fractions of
/// `horizon` (see [`fault_horizon`]). Faults concentrate on Target 0's
/// read path — its switch uplink degrades, then drops packets — while
/// CNPs are lost fabric-wide and the last Target's device first slows
/// down, then (from intensity 0.5) fail-stops for a window; at
/// intensity ≥ 0.75 Target 0 additionally drops out entirely.
///
/// Link indices follow `build_star`: host `h`'s uplink is link `2h`,
/// and Target `t` is host `n_initiators + t`.
pub fn faults_for_incast(
    intensity: f64,
    horizon: SimDuration,
    n_initiators: usize,
    n_targets: usize,
    seed: u64,
) -> FaultPlan {
    assert!(
        (0.0..=1.0).contains(&intensity),
        "intensity {intensity} outside [0, 1]"
    );
    let mut plan = FaultPlan::seeded(seed);
    if intensity == 0.0 {
        return plan;
    }
    let at = |frac: f64| SimTime((horizon.0 as f64 * frac) as u64);
    let lasting = |frac: f64| SimDuration((horizon.0 as f64 * frac) as u64);
    let t0_uplink = 2 * n_initiators;
    plan.push(FaultEvent {
        scope: FaultScope::Link { index: t0_uplink },
        kind: FaultKind::LinkDegrade {
            bandwidth_factor: 1.0 - 0.6 * intensity,
            extra_delay: SimDuration::from_us((30.0 * intensity) as u64),
        },
        start: at(0.05),
        duration: lasting(0.4),
    });
    plan.push(FaultEvent {
        scope: FaultScope::Link { index: t0_uplink },
        kind: FaultKind::PacketLoss {
            probability: 0.05 * intensity,
        },
        start: at(0.1),
        duration: lasting(0.7),
    });
    plan.push(FaultEvent {
        scope: FaultScope::Global,
        kind: FaultKind::CnpLoss {
            probability: 0.5 * intensity,
        },
        start: at(0.05),
        duration: lasting(0.35),
    });
    plan.push(FaultEvent {
        scope: FaultScope::Target {
            index: n_targets - 1,
        },
        kind: FaultKind::SsdLatencySpike {
            factor: 1.0 + 3.0 * intensity,
        },
        start: at(0.1),
        duration: lasting(0.4),
    });
    if intensity >= 0.5 {
        plan.push(FaultEvent {
            scope: FaultScope::Target {
                index: n_targets - 1,
            },
            kind: FaultKind::TargetFailStop,
            start: at(0.55),
            duration: lasting(0.1),
        });
    }
    if intensity >= 0.75 {
        plan.push(FaultEvent {
            scope: FaultScope::Target { index: 0 },
            kind: FaultKind::TargetDropout,
            start: at(0.7),
            duration: lasting(0.1),
        });
    }
    plan
}

/// The in-cast grid swept by `ext_faults`.
pub const FAULT_RATIOS: [(usize, usize); 4] = [(2, 1), (3, 1), (4, 1), (4, 4)];
/// Fault intensities swept per ratio.
pub const FAULT_INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];

/// Fingerprint binding an `ext_faults` checkpoint manifest to its
/// inputs — including every cell's resolved [`FaultPlan`], so editing
/// the fault schedule invalidates stale manifests.
pub fn ext_faults_fingerprint(ssd: &SsdConfig, scale: &Scale, seed: u64) -> String {
    let horizon = fault_horizon(scale);
    let plans: Vec<String> = FAULT_RATIOS
        .iter()
        .flat_map(|&(nt, ni)| {
            FAULT_INTENSITIES
                .iter()
                .map(move |&i| format!("{:?}", faults_for_incast(i, horizon, ni, nt, seed)))
        })
        .collect();
    format!(
        "ext_faults ssd={ssd:?} scale={scale:?} seed={seed} robustness={:?} plans={}",
        fault_robustness(scale),
        plans.join(";")
    )
}

/// The Table IV in-cast sweep under scheduled fault injection:
/// DCQCN-only vs DCQCN-SRC across the ratio grid × fault intensities,
/// every cell running the identical seeded [`FaultPlan`] in both modes
/// (with the default timeout/retry policy armed by the active plan).
/// Checkpointable via `SRCSIM_CHECKPOINT` like the other sweeps.
pub fn ext_faults(
    ssd: &SsdConfig,
    scale: &Scale,
    tpm: Arc<ThroughputPredictionModel>,
    seed: u64,
) -> Vec<FaultRow> {
    let ckpt = CheckpointSpec::from_env("ext_faults", &ext_faults_fingerprint(ssd, scale, seed));
    ext_faults_checkpointed(ssd, scale, tpm, seed, ckpt.as_ref())
}

/// [`ext_faults`] with an explicit checkpoint (env-independent), for
/// harnesses that manage their own manifests.
pub fn ext_faults_checkpointed(
    ssd: &SsdConfig,
    scale: &Scale,
    tpm: Arc<ThroughputPredictionModel>,
    seed: u64,
    ckpt: Option<&CheckpointSpec>,
) -> Vec<FaultRow> {
    let mut cells: Vec<((usize, usize), f64)> = Vec::new();
    for &ratio in &FAULT_RATIOS {
        for &intensity in &FAULT_INTENSITIES {
            cells.push((ratio, intensity));
        }
    }
    ScenarioRunner::from_env().run_cells_resumable(
        ckpt,
        seed,
        &cells,
        |_, &((n_targets, n_initiators), intensity)| {
            let spec = incast_spec(scale, n_targets);
            let assignments = spread_source(&spec, seed, n_initiators, n_targets);
            let plan = faults_for_incast(
                intensity,
                fault_horizon(scale),
                n_initiators,
                n_targets,
                seed,
            );
            let rb = fault_robustness(scale);
            let base = SystemConfig::builder()
                .n_initiators(n_initiators)
                .n_targets(n_targets)
                .ssd(ssd.clone())
                .workload(spec)
                .background(paper_background(&assignments))
                .pfc(paper_pfc())
                .build();
            let (only, src) = join(
                || {
                    run_system(
                        &base.to_builder().mode(Mode::DcqcnOnly).build(),
                        RunOptions::assignments(&assignments)
                            .faults(&plan)
                            .robustness(rb),
                        &mut NullSink,
                    )
                },
                || {
                    run_system(
                        &base.to_builder().mode(Mode::DcqcnSrc).build(),
                        RunOptions::assignments(&assignments)
                            .faults(&plan)
                            .robustness(rb)
                            .tpm(tpm.clone()),
                        &mut NullSink,
                    )
                },
            );
            let only_gbps = only.aggregated_tput().as_gbps_f64();
            let src_gbps = src.aggregated_tput().as_gbps_f64();
            let min_availability = (0..n_targets)
                .map(|t| src.availability(t))
                .fold(1.0_f64, f64::min);
            FaultRow {
                ratio: format!("{n_targets}:{n_initiators}"),
                intensity,
                only_gbps,
                src_gbps,
                improvement_pct: if only_gbps > 0.0 {
                    (src_gbps - only_gbps) / only_gbps * 100.0
                } else {
                    0.0
                },
                timeouts: src.timeouts,
                retries: src.retries,
                abandoned: src.abandoned,
                min_availability,
            }
        },
    )
}

// ----------------------------------------------------------------------
// Extension (paper Sec. IV-F / V): initiator-side data distribution

/// Result row of the data-distribution extension experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DistributionRow {
    /// Target-selection policy label.
    pub policy: String,
    /// Aggregated throughput, Gbps.
    pub aggregated_gbps: f64,
    /// Trimmed write throughput, Gbps.
    pub write_gbps: f64,
}

/// The paper observes that at a 4:1 in-cast ratio the load spreads so
/// thin that WRR loses authority, and suggests a data-distribution
/// mechanism as the remedy (citing replica placement \[29\]). This
/// experiment implements that extension: DCQCN-SRC at 4:1, with static
/// assignment vs least-loaded Target selection.
pub fn extension_distribution(
    ssd: &SsdConfig,
    scale: &Scale,
    tpm: Arc<ThroughputPredictionModel>,
    seed: u64,
) -> Vec<DistributionRow> {
    let ssds = vec![ssd.clone(); 4];
    let tpms = vec![tpm; 4];
    extension_distribution_fleet(&ssds, scale, &tpms, seed)
}

/// [`extension_distribution`] on an arbitrary device fleet: one
/// [`SsdConfig`] and one (device-matched) TPM per Target. On a
/// heterogeneous fleet the least-loaded margin over static assignment
/// is structural — static round-robin feeds the slow and fast devices
/// equally, so the fast devices starve while the slow ones back up —
/// rather than the bimodal noise the homogeneous 4:1 grid shows.
pub fn extension_distribution_fleet(
    ssds: &[SsdConfig],
    scale: &Scale,
    tpms: &[Arc<ThroughputPredictionModel>],
    seed: u64,
) -> Vec<DistributionRow> {
    let n_targets = ssds.len();
    assert_eq!(tpms.len(), n_targets, "one TPM per target");
    let spec = incast_spec(scale, n_targets);
    let assignments = spread_source(&spec, seed, 1, n_targets);
    let policies = [
        ("static", TargetSelection::Static),
        ("least-loaded", TargetSelection::LeastLoaded),
        ("pack", TargetSelection::Pack { cap: 128 }),
    ];
    ScenarioRunner::from_env().run_cells(&policies, |_, &(label, policy)| {
        let cfg = SystemConfig::builder()
            .n_initiators(1)
            .n_targets(n_targets)
            .ssds(ssds.to_vec())
            .workload(spec.clone())
            .mode(Mode::DcqcnSrc)
            .background(paper_background(&assignments))
            .pfc(paper_pfc())
            .target_selection(policy)
            .build();
        let r = run_system(
            &cfg,
            RunOptions::assignments(&assignments).tpm_fleet(tpms),
            &mut NullSink,
        );
        DistributionRow {
            policy: label.to_string(),
            aggregated_gbps: r.aggregated_tput().as_gbps_f64(),
            write_gbps: r.write_tput().as_gbps_f64(),
        }
    })
}

// ----------------------------------------------------------------------
// Extension: SRC under TIMELY (CC-agnosticism)

/// Run the Fig. 7 scenario with TIMELY as the network congestion control
/// instead of DCQCN. SRC consumes the same rate-change notifications, so
/// the mechanism is CC-agnostic; returns (baseline, SRC) reports.
pub fn extension_timely(
    ssd: &SsdConfig,
    scale: &Scale,
    tpm: Arc<ThroughputPredictionModel>,
    seed: u64,
) -> Fig7Result {
    let n = scale.requests_per_target;
    let mut vdi = SyntheticConfig::vdi(n, n);
    vdi.read.iat_mean_us = 20.0;
    vdi.write.iat_mean_us = 20.0;
    let specs = vec![WorkloadSpec::Synthetic(vdi); 2];
    let assignments = per_target_sources(&specs, seed, 1);
    let base = SystemConfig::builder()
        .n_initiators(1)
        .n_targets(2)
        .ssd(ssd.clone())
        .workloads(specs)
        .background(paper_background(&assignments))
        .pfc(paper_pfc())
        .cc(crate::config::CcChoice::Timely)
        .build();
    let (dcqcn_only, dcqcn_src) = join(
        || {
            run_system(
                &base.to_builder().mode(Mode::DcqcnOnly).build(),
                RunOptions::assignments(&assignments),
                &mut NullSink,
            )
        },
        || {
            run_system(
                &base.to_builder().mode(Mode::DcqcnSrc).build(),
                RunOptions::assignments(&assignments).tpm(tpm),
                &mut NullSink,
            )
        },
    );
    Fig7Result {
        dcqcn_only,
        dcqcn_src,
    }
}

// ----------------------------------------------------------------------
// Extension: heterogeneous device fleets

/// Per-device lane of a heterogeneous in-cast cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeviceLane {
    /// Target index in the fleet.
    pub target: usize,
    /// Device model name ("ssd_a", "ssd_b", ...).
    pub model: String,
    /// DCQCN-only mean throughput of this device over the makespan, Gbps.
    pub only_gbps: f64,
    /// DCQCN-SRC mean throughput of this device over the makespan, Gbps.
    pub src_gbps: f64,
}

/// One cell of the heterogeneous in-cast sweep: a Table IV-style row
/// plus a per-device breakdown.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HeterogeneousRow {
    /// Ratio label, e.g. "2:1".
    pub ratio: String,
    /// DCQCN-only aggregated throughput, Gbps.
    pub only_gbps: f64,
    /// DCQCN-SRC aggregated throughput, Gbps.
    pub src_gbps: f64,
    /// Improvement of SRC over the baseline, percent.
    pub improvement_pct: f64,
    /// Per-device throughput split, in target order.
    pub lanes: Vec<DeviceLane>,
}

/// Alternating SSD-A / SSD-B fleet of `n_targets` devices (even targets
/// get the high-capacity SSD-A, odd ones the low-latency SSD-B).
pub fn ab_fleet(n_targets: usize) -> Vec<SsdConfig> {
    (0..n_targets)
        .map(|t| {
            if t % 2 == 0 {
                SsdConfig::ssd_a()
            } else {
                SsdConfig::ssd_b()
            }
        })
        .collect()
}

/// Train one TPM per device in `ssds`, reusing a single trained model
/// per distinct device config (the paper trains per device, not per
/// Target instance).
pub fn train_fleet_tpms(
    ssds: &[SsdConfig],
    scale: &Scale,
    seed: u64,
) -> Vec<Arc<ThroughputPredictionModel>> {
    let mut trained: Vec<(SsdConfig, Arc<ThroughputPredictionModel>)> = Vec::new();
    ssds.iter()
        .map(|ssd| {
            if let Some((_, tpm)) = trained.iter().find(|(s, _)| s == ssd) {
                return tpm.clone();
            }
            let tpm = train_tpm(ssd, scale, seed);
            trained.push((ssd.clone(), tpm.clone()));
            tpm
        })
        .collect()
}

/// The Table IV in-cast sweep on a heterogeneous fleet: an alternating
/// SSD-A/SSD-B mix swept over the same 2:1, 3:1, 4:1, 4:4 ratios, with
/// per-device TPMs so each Target's SRC weight decisions use its own
/// device's predicted throughput. `tpm_a`/`tpm_b` must be trained on
/// SSD-A/SSD-B respectively (see [`train_tpm`]).
///
/// The grid is checkpointable (`SRCSIM_CHECKPOINT_DIR`) and runs on the
/// scenario pool like the homogeneous Table IV.
pub fn ext_heterogeneous(
    scale: &Scale,
    tpm_a: Arc<ThroughputPredictionModel>,
    tpm_b: Arc<ThroughputPredictionModel>,
    seed: u64,
) -> Vec<HeterogeneousRow> {
    let ratios: [(usize, usize); 4] = [(2, 1), (3, 1), (4, 1), (4, 4)];
    let ckpt = CheckpointSpec::from_env(
        "ext_heterogeneous",
        &format!("ext_heterogeneous scale={scale:?} seed={seed}"),
    );
    ScenarioRunner::from_env().run_cells_resumable(
        ckpt.as_ref(),
        seed,
        &ratios,
        |_, &(n_targets, n_initiators)| {
            let ssds = ab_fleet(n_targets);
            let tpms: Vec<Arc<ThroughputPredictionModel>> = ssds
                .iter()
                .map(|s| {
                    if *s == SsdConfig::ssd_a() {
                        tpm_a.clone()
                    } else {
                        tpm_b.clone()
                    }
                })
                .collect();
            // Same offered load as Table IV: ~38 Gbps of reads.
            let spec = incast_spec(scale, n_targets);
            let assignments = spread_source(&spec, seed, n_initiators, n_targets);
            let base = SystemConfig::builder()
                .n_initiators(n_initiators)
                .n_targets(n_targets)
                .ssds(ssds.clone())
                .workload(spec)
                .background(paper_background(&assignments))
                .pfc(paper_pfc())
                .build();
            let (only, src) = join(
                || {
                    run_system(
                        &base.to_builder().mode(Mode::DcqcnOnly).build(),
                        RunOptions::assignments(&assignments),
                        &mut NullSink,
                    )
                },
                || {
                    run_system(
                        &base.to_builder().mode(Mode::DcqcnSrc).build(),
                        RunOptions::assignments(&assignments).tpm_fleet(&tpms),
                        &mut NullSink,
                    )
                },
            );
            let only_gbps = only.aggregated_tput().as_gbps_f64();
            let src_gbps = src.aggregated_tput().as_gbps_f64();
            let lanes = (0..n_targets)
                .map(|t| DeviceLane {
                    target: t,
                    model: ssds[t].model_name().to_string(),
                    only_gbps: only.per_target[t].mean_gbps(only.makespan),
                    src_gbps: src.per_target[t].mean_gbps(src.makespan),
                })
                .collect();
            HeterogeneousRow {
                ratio: format!("{n_targets}:{n_initiators}"),
                only_gbps,
                src_gbps,
                improvement_pct: if only_gbps > 0.0 {
                    (src_gbps - only_gbps) / only_gbps * 100.0
                } else {
                    0.0
                },
                lanes,
            }
        },
    )
}

// ----------------------------------------------------------------------
// Extension: trace-driven replay through the in-cast sweep

/// Fingerprint binding an `ext_replay` checkpoint manifest to its
/// inputs. The replayed trace itself is summarized by its label, length
/// and span — enough to invalidate the manifest when the recording or
/// the rescaling knobs change.
pub fn ext_replay_fingerprint(ssd: &SsdConfig, replay: &ReplaySpec, seed: u64) -> String {
    format!(
        "ext_replay ssd={ssd:?} replay={} len={} span_ps={} seed={seed}",
        replay.label(),
        replay.trace.len(),
        replay.trace.span().as_ps(),
    )
}

/// The Table IV in-cast sweep driven by a *replayed* trace instead of
/// the synthetic generators: the recording (with its rescaling knobs)
/// is spread over Targets:Initiators of 2:1, 3:1, 4:1 and 4:4, with
/// DCQCN-only vs DCQCN-SRC in every cell. Checkpointable via
/// `SRCSIM_CHECKPOINT` like the other sweeps.
pub fn ext_replay(
    ssd: &SsdConfig,
    replay: &ReplaySpec,
    tpm: Arc<ThroughputPredictionModel>,
    seed: u64,
) -> Vec<IncastRow> {
    let ckpt = CheckpointSpec::from_env("ext_replay", &ext_replay_fingerprint(ssd, replay, seed));
    ext_replay_checkpointed(ssd, replay, tpm, seed, ckpt.as_ref())
}

/// [`ext_replay`] with an explicit checkpoint (env-independent), for
/// harnesses that manage their own manifests.
pub fn ext_replay_checkpointed(
    ssd: &SsdConfig,
    replay: &ReplaySpec,
    tpm: Arc<ThroughputPredictionModel>,
    seed: u64,
    ckpt: Option<&CheckpointSpec>,
) -> Vec<IncastRow> {
    let ratios: [(usize, usize); 4] = [(2, 1), (3, 1), (4, 1), (4, 4)];
    let spec = WorkloadSpec::Replay(replay.clone());
    ScenarioRunner::from_env().run_cells_resumable(
        ckpt,
        seed,
        &ratios,
        |_, &(n_targets, n_initiators)| {
            // Replay ignores the seed; the spread is what varies by cell.
            let assignments = spread_source(&spec, seed, n_initiators, n_targets);
            let base = SystemConfig::builder()
                .n_initiators(n_initiators)
                .n_targets(n_targets)
                .ssd(ssd.clone())
                .workload(spec.clone())
                .background(paper_background(&assignments))
                .pfc(paper_pfc())
                .build();
            let (only, src) = join(
                || {
                    run_system(
                        &base.to_builder().mode(Mode::DcqcnOnly).build(),
                        RunOptions::assignments(&assignments),
                        &mut NullSink,
                    )
                },
                || {
                    run_system(
                        &base.to_builder().mode(Mode::DcqcnSrc).build(),
                        RunOptions::assignments(&assignments).tpm(tpm.clone()),
                        &mut NullSink,
                    )
                },
            );
            let only_gbps = only.aggregated_tput().as_gbps_f64();
            let src_gbps = src.aggregated_tput().as_gbps_f64();
            IncastRow {
                ratio: format!("{n_targets}:{n_initiators}"),
                src_gbps,
                only_gbps,
                improvement_pct: if only_gbps > 0.0 {
                    (src_gbps - only_gbps) / only_gbps * 100.0
                } else {
                    0.0
                },
            }
        },
    )
}

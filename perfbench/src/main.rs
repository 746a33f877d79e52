//! srcsim benchmark driver: runs one workload for a fixed host-time
//! budget and prints its metrics, the per-cell output hashes, and, as
//! the last line of stdout, one JSON object. `perfbench/run.py` builds
//! this binary, runs it with one executor thread, checks the hashes
//! against `perfbench/reference.json` and prints the final result line.
//!
//! Usage: `perfbench --workload <tpm_train|incast|incast_faults>
//!         --seed <n> --seconds <s> --trace <0|1> [--spans <path>]`
//!
//! All timings are host time (`std::time::Instant`); simulated
//! quantities are labelled `sim`. See `perfbench/README.md` for the
//! workloads and what each metric should move.

mod calib;
mod spans;

use calib::Calibration;
use sim_engine::{
    AdaptiveEventQueue, FaultPlan, NullSink, SimTime, SimWorkspace, ADAPTIVE_MIGRATION_THRESHOLD,
};
use spans::Spans;
use src_core::tpm::{generate_training_samples, samples_to_dataset};
use src_core::{ThroughputPredictionModel, TrainingConfig};
use ssd_sim::SsdConfig;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use storage_node::{run_trace_windowed, weight_sweep, DisciplineKind, NodeConfig, SweepPoint};
use system_sim::config::{spread_source, Assignment};
use system_sim::experiments::{
    fault_horizon, fault_robustness, faults_for_incast, incast_spec, paper_background, paper_pfc,
    Scale, TrainKnob, FAULT_INTENSITIES, FAULT_RATIOS,
};
use system_sim::{
    run_system, run_system_in, workspace_queue_migrations, Mode, RunOptions, SystemConfig,
    SystemReport,
};
use workload::micro::{generate_micro, MicroConfig};
use workload::trace::Trace;
use workload::{extract_features, WorkloadFeatures};

/// Requests per class per Target in the in-cast cells. `Scale::full()`
/// uses 5000; 2000 keeps one pass of the Table IV grid near 4.5 s of
/// host time on one executor thread, so a 30 s run holds several.
const INCAST_REQUESTS_PER_TARGET: usize = 2_000;
/// Set-up runs at least `SETUP_REPS` times and for at least
/// `SETUP_BLOCK_S` host seconds before the first pass, and again after
/// the last (one more runs before each later pass); `setup_s` is the
/// median of all of them. The time floor gives a short set-up enough
/// samples for a steady median.
const SETUP_REPS: usize = 3;
const SETUP_BLOCK_S: f64 = 1.0;
/// Table IV of the paper: SRC gain over DCQCN-only at 2:1, 3:1, 4:1, 4:4.
const PAPER_TABLE4_GAIN_PCT: [f64; 4] = [33.0, 17.0, 5.0, 3.0];

// ---------------------------------------------------------------------
// Command line

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad)? != 0),
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

// ---------------------------------------------------------------------
// Output checks and summaries

/// FNV-1a, 64 bit: a stable digest of a cell's simulated outputs.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn f64_bytes(xs: impl IntoIterator<Item = f64>) -> Vec<u8> {
    xs.into_iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect()
}

/// One checked unit of work: a device sweep, a forest fit or a system
/// run. `ok` is false when it panicked or broke an invariant.
#[derive(Clone)]
struct Cell {
    name: String,
    hash: u64,
    ok: bool,
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples above it, as
/// `(percent, value)`; `None` below twenty samples, where that
/// percentile would fall under the median.
fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// Human-readable timing line: median, tail and sample count.
fn timing_line(label: &str, unit: &str, xs: &[f64]) -> String {
    let tail = match tail(xs) {
        Some((p, v)) => format!("p{p:.1} {v:.4} {unit}"),
        None => "tail n/a (< 20 samples)".to_string(),
    };
    format!(
        "{label}: median {:.4} {unit}, {tail}, n={}",
        median(xs),
        xs.len()
    )
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run `f`, turning a panic into `None` (the panic message still goes to
/// stderr through the default hook).
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

// ---------------------------------------------------------------------
// tpm_train: the TPM training sweep on SSD-B with the full grid

/// The micro workloads `generate_training_samples` sweeps, in its cell
/// order; cell `i` uses trace seed `seed + i`.
fn training_cells(cfg: &TrainingConfig) -> Vec<MicroConfig> {
    let mut cells = Vec::new();
    for &iat in &cfg.iat_means_us {
        for &size in &cfg.size_means {
            for &mix in &cfg.read_mixes {
                for _ in 0..cfg.seeds_per_cell.max(1) {
                    let total = 2 * cfg.requests_per_class;
                    let read_count = ((total as f64) * mix).round() as usize;
                    cells.push(MicroConfig {
                        read_iat_mean_us: iat,
                        write_iat_mean_us: iat,
                        read_size_mean: size,
                        write_size_mean: size,
                        read_count: read_count.max(1),
                        write_count: (total - read_count).max(1),
                        ..MicroConfig::default()
                    });
                }
            }
        }
    }
    cells
}

/// Simulated requests in one training sweep: every trace runs once per
/// weight.
fn training_requests(cfg: &TrainingConfig) -> u64 {
    training_cells(cfg)
        .iter()
        .map(|m| (m.read_count + m.write_count) as u64)
        .sum::<u64>()
        * cfg.weights.len() as u64
}

/// Per-run counters the decomposed training collects from each
/// `NodeReport`.
#[derive(Default)]
struct NodeTotals {
    runs: u64,
    sim_reqs: u64,
    gc_copies: u64,
    erases: u64,
    cached_writes: u64,
    sync_writes: u64,
}

/// The micro traces `generate_training_samples` sweeps, in its cell
/// order: trace `i` is generated with seed `seed + i`. With `spans`,
/// each `generate_micro` call is a `workload` span.
fn training_traces(cfg: &TrainingConfig, seed: u64, mut spans: Option<&mut Spans>) -> Vec<Trace> {
    training_cells(cfg)
        .iter()
        .enumerate()
        .map(|(i, mc)| {
            let gen = || generate_micro(mc, seed.wrapping_add(i as u64));
            match spans.as_mut() {
                None => gen(),
                Some(sp) => sp.time("workload.generate_micro", gen),
            }
        })
        .collect()
}

/// `ThroughputPredictionModel::train_for_device` after trace generation,
/// taken apart into its public pieces, each call inside a span:
/// `extract_features` (workload), `run_trace_windowed` per weight
/// (storage-node, which drives nvme-queues and ssd-sim),
/// `samples_to_dataset` and `train` (ml).
fn train_decomposed(
    ssd: &SsdConfig,
    cfg: &TrainingConfig,
    seed: u64,
    traces: &[Trace],
    spans: &mut Spans,
    totals: &mut NodeTotals,
) -> (Vec<SweepPoint>, ThroughputPredictionModel) {
    let mut samples = Vec::new();
    for trace in traces {
        let features = spans.time("workload.extract_features", || {
            extract_features(trace.requests())
        });
        for &w in &cfg.weights {
            let node = NodeConfig {
                ssd: ssd.clone(),
                discipline: DisciplineKind::Ssq { weight: w },
                merge_cap: None,
            };
            let r = spans.time("storage-node.run_trace_windowed", || {
                run_trace_windowed(&node, trace)
            });
            totals.runs += 1;
            totals.sim_reqs += trace.len() as u64;
            totals.gc_copies += r.ssd.gc_copies;
            totals.erases += r.ssd.erases;
            totals.cached_writes += r.ssd.cached_writes;
            totals.sync_writes += r.ssd.sync_writes;
            samples.push(SweepPoint {
                weight: w,
                read_gbps: r.read_tput().as_gbps_f64(),
                write_gbps: r.write_tput().as_gbps_f64(),
                features,
            });
        }
    }
    let data = spans.time("ml.samples_to_dataset", || samples_to_dataset(&samples));
    let model = spans.time("ml.train", || {
        ThroughputPredictionModel::train(&data, cfg.n_trees, seed)
    });
    (samples, model)
}

/// `generate_training_samples`' cells over pre-generated traces, one
/// `weight_sweep` per trace, then the forest fit: the work of
/// `train_for_device` after trace generation, in the same order. Also
/// returns the host seconds of each cell, the fit last. `between` runs
/// after each sweep, outside its timing.
fn train_pass(
    ssd: &SsdConfig,
    cfg: &TrainingConfig,
    seed: u64,
    traces: &[Trace],
    between: &mut dyn FnMut(),
) -> (Vec<SweepPoint>, ThroughputPredictionModel, Vec<f64>) {
    let mut cell_s = Vec::with_capacity(traces.len() + 1);
    let mut samples = Vec::new();
    for trace in traces {
        let t = Instant::now();
        samples.extend(weight_sweep(ssd, trace, &cfg.weights));
        cell_s.push(t.elapsed().as_secs_f64());
        between();
    }
    let t = Instant::now();
    let model = ThroughputPredictionModel::train(&samples_to_dataset(&samples), cfg.n_trees, seed);
    cell_s.push(t.elapsed().as_secs_f64());
    (samples, model, cell_s)
}

/// `train_for_device` itself, kept as its two calls so the sweep points
/// can be checked: the reference the decomposed forms must equal.
fn train_untraced(
    ssd: &SsdConfig,
    cfg: &TrainingConfig,
    seed: u64,
) -> (Vec<SweepPoint>, ThroughputPredictionModel) {
    let samples = generate_training_samples(ssd, cfg, seed);
    let model = ThroughputPredictionModel::train(&samples_to_dataset(&samples), cfg.n_trees, seed);
    (samples, model)
}

/// One cell per swept trace (its weight row of sweep points) plus one
/// for the forest (its predictions at every training input).
fn training_check(
    cfg: &TrainingConfig,
    samples: &[SweepPoint],
    model: &ThroughputPredictionModel,
) -> Vec<Cell> {
    let per_trace = cfg.weights.len();
    let mut cells: Vec<Cell> = samples
        .chunks(per_trace)
        .enumerate()
        .map(|(i, row)| {
            let ok = row.len() == per_trace
                && row.iter().zip(&cfg.weights).all(|(p, &w)| {
                    p.weight == w
                        && p.read_gbps.is_finite()
                        && p.write_gbps.is_finite()
                        && p.read_gbps >= 0.0
                        && p.write_gbps >= 0.0
                });
            let bits = row.iter().flat_map(|p| {
                let mut v = vec![p.weight as f64, p.read_gbps, p.write_gbps];
                v.extend(p.features.to_vec());
                v
            });
            Cell {
                name: format!("sweep{i}"),
                hash: fnv(f64_bytes(bits)),
                ok,
            }
        })
        .collect();
    let preds: Vec<f64> = samples
        .iter()
        .flat_map(|p| {
            let (r, w) = model.predict(&p.features, p.weight);
            [r, w]
        })
        .collect();
    cells.push(Cell {
        name: "forest".into(),
        ok: preds.iter().all(|x| x.is_finite()) && model.n_samples() == samples.len(),
        hash: fnv(f64_bytes(preds)),
    });
    cells
}

// ---------------------------------------------------------------------
// incast / incast_faults: the Table IV grid on SSD-A

fn incast_scale() -> Scale {
    Scale {
        requests_per_target: INCAST_REQUESTS_PER_TARGET,
        train: TrainKnob::Quick,
    }
}

struct IncastCell {
    name: String,
    ratio: usize,
    src: bool,
    cfg: SystemConfig,
    plan: Option<FaultPlan>,
}

struct IncastSetup {
    tpm: Arc<ThroughputPredictionModel>,
    /// Per ratio, the in-cast trace spread over Initiators and Targets.
    ratios: Vec<Vec<Assignment>>,
    cells: Vec<IncastCell>,
}

/// Train the TPM with the quick grid, generate the in-cast inputs, and
/// build every cell's configuration. With `spans`, the training runs
/// decomposed and is checked bitwise against `generate_training_samples`.
fn incast_setup(
    faults: bool,
    seed: u64,
    mut spans: Option<(&mut Spans, &mut NodeTotals)>,
    cells_out: &mut Vec<Cell>,
) -> Result<IncastSetup, String> {
    let ssd = SsdConfig::ssd_a();
    let scale = incast_scale();
    let train_cfg = scale.training_config();
    let tpm = match spans.as_mut() {
        None => train_untraced(&ssd, &train_cfg, seed).1,
        Some((sp, totals)) => {
            let traces = training_traces(&train_cfg, seed, Some(&mut **sp));
            let (samples, model) = train_decomposed(&ssd, &train_cfg, seed, &traces, sp, totals);
            let (ref_samples, ref_model) = train_untraced(&ssd, &train_cfg, seed);
            let checked = check_decomposed(
                "decomposed set-up training",
                &train_cfg,
                (&samples, &model),
                (&ref_samples, &ref_model),
            );
            cells_out.extend(checked.into_iter().map(|c| Cell {
                name: format!("setup/{}", c.name),
                ..c
            }));
            model
        }
    };
    let tpm = Arc::new(tpm);
    let intensities: Vec<f64> = if faults {
        FAULT_INTENSITIES
            .iter()
            .copied()
            .filter(|&i| i > 0.0)
            .collect()
    } else {
        vec![0.0]
    };
    let mut ratios = Vec::new();
    let mut cells = Vec::new();
    for (ri, &(n_targets, n_initiators)) in FAULT_RATIOS.iter().enumerate() {
        let spec = incast_spec(&scale, n_targets);
        let assignments = match spans.as_mut() {
            None => spread_source(&spec, seed, n_initiators, n_targets),
            Some((sp, _)) => sp.time("workload.spread_source", || {
                spread_source(&spec, seed, n_initiators, n_targets)
            }),
        };
        let base = SystemConfig::builder()
            .n_initiators(n_initiators)
            .n_targets(n_targets)
            .ssd(ssd.clone())
            .workload(spec)
            .background(paper_background(&assignments))
            .pfc(paper_pfc());
        for &intensity in &intensities {
            let plan = faults.then(|| {
                faults_for_incast(
                    intensity,
                    fault_horizon(&scale),
                    n_initiators,
                    n_targets,
                    seed,
                )
            });
            for (src, mode) in [(false, Mode::DcqcnOnly), (true, Mode::DcqcnSrc)] {
                let cfg = base
                    .clone()
                    .mode(mode)
                    .try_build()
                    .map_err(|e| format!("config {n_targets}:{n_initiators}: {e}"))?;
                let tag = if src { "src" } else { "only" };
                let name = if faults {
                    format!("{n_targets}:{n_initiators}@{intensity}/{tag}")
                } else {
                    format!("{n_targets}:{n_initiators}/{tag}")
                };
                cells.push(IncastCell {
                    name,
                    ratio: ri,
                    src,
                    cfg,
                    plan: plan.clone(),
                });
            }
        }
        ratios.push(assignments);
    }
    Ok(IncastSetup { tpm, ratios, cells })
}

fn incast_options<'a>(s: &'a IncastSetup, c: &'a IncastCell) -> RunOptions<'a> {
    let mut opts = RunOptions::assignments(&s.ratios[c.ratio]);
    if let Some(plan) = &c.plan {
        opts = opts
            .faults(plan)
            .robustness(fault_robustness(&incast_scale()));
    }
    if c.src {
        opts = opts.tpm(s.tpm.clone());
    }
    opts
}

fn run_incast_cell(s: &IncastSetup, c: &IncastCell) -> SystemReport {
    run_system(&c.cfg, incast_options(s, c), &mut NullSink)
}

/// Events a cell schedules before its first pop: one issue per request
/// (`run_system` schedules every arrival up front), one per background
/// source, and two per fault window. A lower bound on the cell's peak
/// pending events.
fn upfront_events(s: &IncastSetup, c: &IncastCell) -> usize {
    s.ratios[c.ratio].len()
        + c.cfg.background.as_ref().map_or(0, |bg| bg.n_sources)
        + c.plan.as_ref().map_or(0, |p| 2 * p.events.len())
}

/// One pass over the grid through `run_system_in` with one
/// `SimWorkspace`, as a sweep worker runs it: each cell's report and
/// whether its event queue migrated from the heap to the timing wheel.
fn incast_queue_probe(s: &IncastSetup) -> Vec<(Option<SystemReport>, bool)> {
    let mut ws = SimWorkspace::new();
    s.cells
        .iter()
        .map(|c| {
            let before = workspace_queue_migrations(&mut ws);
            let r = guarded(|| run_system_in(&c.cfg, incast_options(s, c), &mut ws, &mut NullSink));
            (r, workspace_queue_migrations(&mut ws) > before)
        })
        .collect()
}

/// One pass over the grid: each cell's report (`None` if it panicked)
/// and each cell's host seconds. `between` runs after each cell,
/// outside its timing.
fn incast_pass(
    s: &IncastSetup,
    mut spans: Option<&mut Spans>,
    between: &mut dyn FnMut(),
) -> (Vec<Option<SystemReport>>, Vec<f64>) {
    s.cells
        .iter()
        .map(|c| {
            let t = Instant::now();
            let name = if c.src {
                "system-sim.run_system.src"
            } else {
                "system-sim.run_system.only"
            };
            let r = match spans.as_mut() {
                None => guarded(|| run_incast_cell(s, c)),
                Some(sp) => sp.time(name, || guarded(|| run_incast_cell(s, c))),
            };
            let cell_s = t.elapsed().as_secs_f64();
            between();
            (r, cell_s)
        })
        .unzip()
}

fn incast_check(s: &IncastSetup, out: &[Option<SystemReport>]) -> Vec<Cell> {
    s.cells
        .iter()
        .zip(out)
        .map(|(c, r)| match r {
            None => Cell {
                name: c.name.clone(),
                hash: 0,
                ok: false,
            },
            Some(r) => {
                let issued = s.ratios[c.ratio].len() as u64;
                // Every request completes or is abandoned. Under faults a
                // retried request can also complete on its first attempt,
                // so completions may exceed issues by at most the retries.
                let finished = r.reads_completed + r.writes_completed + r.abandoned;
                let conserved = finished >= issued && finished <= issued + r.retries;
                let fault_free_clean =
                    c.plan.is_some() || (r.abandoned == 0 && r.timeouts == 0);
                let cache_matches_mode =
                    c.src == (r.tpm_cache_hits + r.tpm_cache_misses > 0);
                let json = serde_json::to_string(r).unwrap_or_default();
                let ok = conserved && fault_free_clean && cache_matches_mode && !json.is_empty();
                if !ok {
                    println!(
                        "check: {} broke an invariant: completed {} + abandoned {} vs issued {issued}, \
                         timeouts {}, retries {}, cache lookups {}",
                        c.name,
                        r.reads_completed + r.writes_completed,
                        r.abandoned,
                        r.timeouts,
                        r.retries,
                        r.tpm_cache_hits + r.tpm_cache_misses
                    );
                }
                Cell {
                    name: c.name.clone(),
                    hash: fnv(json.bytes()),
                    ok,
                }
            }
        })
        .collect()
}

fn incast_requests(s: &IncastSetup) -> u64 {
    s.cells.iter().map(|c| s.ratios[c.ratio].len() as u64).sum()
}

/// Mean absolute error, percentage points, of the simulated SRC gain
/// against the paper's Table IV gains (fault-free grid only).
fn paper_err_pp(s: &IncastSetup, out: &[Option<SystemReport>]) -> Option<f64> {
    let mut gains = vec![(0.0, 0.0); s.ratios.len()];
    for (c, r) in s.cells.iter().zip(out) {
        let gbps = r.as_ref()?.aggregated_tput().as_gbps_f64();
        if c.src {
            gains[c.ratio].0 = gbps;
        } else {
            gains[c.ratio].1 = gbps;
        }
    }
    let err: f64 = gains
        .iter()
        .zip(PAPER_TABLE4_GAIN_PCT)
        .map(|(&(src, only), paper)| ((src - only) / only * 100.0 - paper).abs())
        .sum();
    Some(err / gains.len() as f64)
}

// ---------------------------------------------------------------------
// Layer micro-measurements (traced run only)

/// `AdaptiveEventQueue` hold model: at a steady `depth` pending events,
/// pop the earliest and schedule one a pseudo-random step later. A
/// queue made with `threshold` 1 runs on the timing wheel from its
/// first event; `ADAPTIVE_MIGRATION_THRESHOLD` is what the simulator
/// uses. Median ns per hold over five blocks.
fn hold_ns(threshold: usize, depth: usize, seed: u64) -> f64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut q: AdaptiveEventQueue<u64> = AdaptiveEventQueue::with_threshold(threshold);
    // Steps up to ~10 µs in ps, the scale of packet and flash timers.
    for i in 0..depth as u64 {
        q.schedule(SimTime(next() % 10_000_000), i);
    }
    const OPS: usize = 500_000;
    let mut blocks = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..OPS {
            let (at, ev) = q.pop().expect("the queue holds `depth` events");
            q.schedule(SimTime(at.0 + next() % 10_000_000), black_box(ev));
        }
        blocks.push(t.elapsed().as_nanos() as f64 / OPS as f64);
    }
    median(&blocks)
}

/// `ThroughputPredictionModel::predict` over `features` × weights 1–8.
/// Median ns per prediction over five blocks.
fn predict_ns(model: &ThroughputPredictionModel, features: &[WorkloadFeatures]) -> f64 {
    const REPS: usize = 2_000;
    let mut blocks = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..REPS {
            for f in features {
                for w in 1..=8 {
                    black_box(model.predict(black_box(f), w));
                }
            }
        }
        blocks.push(t.elapsed().as_nanos() as f64 / (REPS * features.len() * 8) as f64);
    }
    median(&blocks)
}

// ---------------------------------------------------------------------
// Runs

/// Cells of a training, each failed unless the whole training is bit for
/// bit equal to `reference` (`train_for_device` as the library runs it).
fn check_decomposed(
    what: &str,
    cfg: &TrainingConfig,
    (samples, model): (&[SweepPoint], &ThroughputPredictionModel),
    (ref_samples, ref_model): (&[SweepPoint], &ThroughputPredictionModel),
) -> Vec<Cell> {
    let a = training_check(cfg, samples, model);
    let b = training_check(cfg, ref_samples, ref_model);
    let same = a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.hash == y.hash);
    println!("check: {what} bitwise equal to generate_training_samples + train: {same}");
    a.into_iter()
        .map(|c| Cell {
            ok: c.ok && same,
            ..c
        })
        .collect()
}

struct RunOut {
    cells: Vec<Cell>,
    metrics: Metrics,
    /// Recorded spans, one JSON object per line (traced runs only).
    spans: String,
}

/// Per-cell determinism: every later pass must reproduce the first
/// pass's hashes, since the inputs are the same.
fn mark_repeats(first: &[Cell], later: &mut [Cell]) {
    for (a, b) in first.iter().zip(later.iter_mut()) {
        if a.hash != b.hash {
            println!("check: {} differs from the first pass", b.name);
            b.ok = false;
        }
    }
}

/// Each cell's host seconds across the passes that timed every cell.
fn per_cell(cell_s: &[Vec<f64>], n_cells: usize) -> Vec<Vec<f64>> {
    (0..n_cells)
        .map(|j| {
            cell_s
                .iter()
                .filter(|p| p.len() == n_cells)
                .map(|p| p[j])
                .collect()
        })
        .collect()
}

/// The end-to-end metrics of an untraced run. `sim_reqs` is the
/// simulated requests in one pass's inputs. Timings are rescaled to the
/// calibration's reference speed (see `calib`); the host seconds as
/// measured are printed beside them.
fn end_to_end<S>(metrics: &mut Metrics, timed: &Timed<S>, sim_reqs: u64) {
    let names = &timed.cell_names;
    let by_cell = per_cell(&timed.cell_s, names.len());
    for (name, xs) in names.iter().zip(&by_cell) {
        println!("{}", timing_line(&format!("cell {name} host"), "s", xs));
    }
    let pooled: Vec<f64> = by_cell.iter().flatten().copied().collect();
    println!("{}", timing_line("cell host (all cells)", "s", &pooled));
    println!(
        "{}",
        timing_line("pass host (with calibration samples)", "s", &timed.pass_s)
    );
    let samples = timed.calibration.samples();
    println!("{}", timing_line("calibration sample host", "s", samples));
    let scale = timed.calibration.scale();
    println!(
        "calibration scale: {scale:.4} = reference {} s / median sample over {} samples",
        calib::REFERENCE_S,
        samples.len()
    );
    // A cell's median over passes drops a pass it spent stalled; the sum
    // is one pass's time. A pass that did not time every cell (a
    // training that panicked) is left out.
    let host_wall: f64 = by_cell.iter().map(|xs| median(xs)).sum();
    let wall = host_wall * scale;
    println!(
        "wall_s: {wall:.4} s = calibration scale x {host_wall:.4} host s, the sum over {} cells \
         of each cell's median over {} passes",
        names.len(),
        by_cell.first().map_or(0, Vec::len)
    );
    metrics.put("wall_s", wall, "s");
    let rate = sim_reqs as f64 / wall;
    println!(
        "sim_req_per_s: {rate:.1} = {sim_reqs} sim requests in one pass / wall_s \
         ({:.1} per host second)",
        sim_reqs as f64 / host_wall
    );
    metrics.put("sim_req_per_s", rate, "1/s");
    let rss = peak_rss_mb();
    println!("peak_rss_mb: {rss:.1}");
    metrics.put("peak_rss_mb", rss, "MB");
    // Set-ups are short, so each is rescaled by the sample taken right
    // after it rather than by the run's median sample.
    let rescaled: Vec<f64> = timed
        .setup_s
        .iter()
        .zip(&timed.setup_cal)
        .map(|(s, c)| s * calib::REFERENCE_S / c)
        .collect();
    let setup = median(&rescaled);
    println!(
        "setup_s: {setup:.4} s = median over {} set-ups of host s x reference / the sample after it \
         ({:.4} host s median; x run scale {:.4})",
        rescaled.len(),
        median(&timed.setup_s),
        median(&timed.setup_s) * scale
    );
    metrics.put("setup_s", setup, "s");
}

/// What the timed phase of an untraced run leaves: the last set-up, all
/// set-up and pass host seconds, each pass's per-cell host seconds, and
/// every pass's checked cells.
struct Timed<S> {
    setup: S,
    calibration: Calibration,
    setup_s: Vec<f64>,
    setup_cal: Vec<f64>,
    pass_s: Vec<f64>,
    cell_s: Vec<Vec<f64>>,
    cell_names: Vec<String>,
    cells: Vec<Cell>,
}

/// Set up a block of times (see `SETUP_REPS`), then run passes until
/// `seconds` have passed. One more set-up runs before every pass after
/// the first and another block after the last, so the set-up samples
/// span the run as the passes do: a short set-up timed only at the
/// start would see whatever host speed that moment had. `pass` returns its outputs and
/// each cell's host seconds, in the order `check` names the cells, and
/// ticks the calibration between cells; a calibration sample follows
/// every set-up, so the samples span the run as well.
/// `on_first` sees the first pass's outputs; no pass's outputs outlive
/// its check, so peak memory is that of one pass.
fn timed_phase<S, P>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut pass: impl FnMut(&S, &mut Calibration) -> (P, Vec<f64>),
    check: impl Fn(&S, &P) -> Vec<Cell>,
    on_first: impl FnOnce(&S, &P),
) -> Result<Timed<S>, String> {
    let mut setup_s = Vec::new();
    let mut cal = Calibration::new();
    // The calibration sample taken right after each set-up.
    let mut setup_cal = Vec::new();
    // One set-up, or with `block` a block of them; returns the last.
    let mut timed_setup = |setup_s: &mut Vec<f64>, cal: &mut Calibration, block: bool| {
        let start = Instant::now();
        let mut reps = 0;
        loop {
            let t = Instant::now();
            let s = setup()?;
            setup_s.push(t.elapsed().as_secs_f64());
            setup_cal.push(cal.sample());
            reps += 1;
            let enough = reps >= SETUP_REPS && start.elapsed().as_secs_f64() >= SETUP_BLOCK_S;
            if !block || enough {
                return Ok::<S, String>(s);
            }
        }
    };
    let mut s = timed_setup(&mut setup_s, &mut cal, true)?;
    let mut pass_s = Vec::new();
    let mut cell_s = Vec::new();
    let mut cells = Vec::new();
    let mut first_cells: Option<Vec<Cell>> = None;
    let mut on_first = Some(on_first);
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let (out, times) = pass(&s, &mut cal);
        pass_s.push(t.elapsed().as_secs_f64());
        cell_s.push(times);
        let mut pass_cells = check(&s, &out);
        match &first_cells {
            None => first_cells = Some(pass_cells.clone()),
            Some(f) => mark_repeats(f, &mut pass_cells),
        }
        if let Some(f) = on_first.take() {
            f(&s, &out);
        }
        drop(out);
        cells.extend(pass_cells);
        // Start another pass only if it would end no more than half a
        // pass past the budget, so runs last `seconds` ± half a pass.
        let last = pass_s[pass_s.len() - 1];
        if start.elapsed().as_secs_f64() + 0.5 * last >= seconds {
            break;
        }
        s = timed_setup(&mut setup_s, &mut cal, false)?;
    }
    timed_setup(&mut setup_s, &mut cal, true)?;
    println!("{}", timing_line("setup_s", "s", &setup_s));
    let cell_names = first_cells
        .unwrap_or_default()
        .into_iter()
        .map(|c| c.name)
        .collect();
    Ok(Timed {
        setup: s,
        calibration: cal,
        setup_s,
        setup_cal,
        pass_s,
        cell_s,
        cell_names,
        cells,
    })
}

/// Warm-up for the training workloads: the quick grid on the device, so
/// lazy allocation and code paging are paid before anything is timed.
fn warm_up(ssd: &SsdConfig, seed: u64) {
    train_untraced(ssd, &TrainingConfig::quick(), seed);
}

fn tpm_train_run(seed: u64, seconds: f64) -> Result<RunOut, String> {
    let ssd = SsdConfig::ssd_b();
    let cfg = TrainingConfig::full();
    warm_up(&ssd, seed);
    // Set-up generates the micro traces; a pass sweeps and fits them.
    let timed = timed_phase(
        seconds,
        || Ok(training_traces(&cfg, seed, None)),
        |traces, cal| match guarded(|| train_pass(&ssd, &cfg, seed, traces, &mut || cal.tick())) {
            Some((samples, model, cell_s)) => (Some((samples, model)), cell_s),
            None => (None, Vec::new()),
        },
        |_, out| match out {
            Some((samples, model)) => training_check(&cfg, samples, model),
            None => failed_training_cells(&cfg),
        },
        |_, _| {},
    )?;
    let mut metrics = Metrics(Vec::new());
    end_to_end(&mut metrics, &timed, training_requests(&cfg));
    Ok(RunOut {
        cells: timed.cells,
        metrics,
        spans: String::new(),
    })
}

fn failed_training_cells(cfg: &TrainingConfig) -> Vec<Cell> {
    (0..training_cells(cfg).len())
        .map(|i| format!("sweep{i}"))
        .chain(["forest".to_string()])
        .map(|name| Cell {
            name,
            hash: 0,
            ok: false,
        })
        .collect()
}

fn incast_run(faults: bool, seed: u64, seconds: f64) -> Result<RunOut, String> {
    let timed = timed_phase(
        seconds,
        || incast_setup(faults, seed, None, &mut Vec::new()),
        |s, cal| incast_pass(s, None, &mut || cal.tick()),
        |s, out: &Vec<_>| incast_check(s, out),
        |s, out| {
            let makespan_s: f64 = out
                .iter()
                .flatten()
                .map(|r| r.makespan.0 as f64 * 1e-12)
                .sum();
            println!("sim makespan, summed over the cells of one pass: {makespan_s:.4} sim s");
            if !faults {
                match paper_err_pp(s, out) {
                    Some(e) => println!(
                        "paper_err_pp: {e:.2} pp (mean |sim SRC gain - paper Table IV 33/17/5/3 %| over 4 ratios)"
                    ),
                    None => println!("paper_err_pp: n/a (a cell failed)"),
                }
            }
        },
    )?;
    let mut metrics = Metrics(Vec::new());
    end_to_end(&mut metrics, &timed, incast_requests(&timed.setup));
    Ok(RunOut {
        cells: timed.cells,
        metrics,
        spans: String::new(),
    })
}

/// Untraced and traced passes in pairs, alternating which of the two
/// runs first: at least two pairs, and more until `seconds` have passed.
/// `after` receives each pair's outputs. Returns the summed host seconds
/// of the untraced and of the traced passes.
fn paired<P, T>(
    seconds: f64,
    mut plain: impl FnMut() -> P,
    mut traced: impl FnMut() -> T,
    mut after: impl FnMut(P, T),
) -> (f64, f64) {
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let start = Instant::now();
    let mut pair = 0;
    while pair < 2 || start.elapsed().as_secs_f64() < seconds {
        let mut run_plain = || {
            let t = Instant::now();
            let p = plain();
            plain_s += t.elapsed().as_secs_f64();
            p
        };
        let mut run_traced = || {
            let t = Instant::now();
            let out = traced();
            traced_s += t.elapsed().as_secs_f64();
            out
        };
        let (p, t) = if pair % 2 == 0 {
            let p = run_plain();
            (p, run_traced())
        } else {
            let t = run_traced();
            (run_plain(), t)
        };
        after(p, t);
        pair += 1;
    }
    (plain_s, traced_s)
}

/// Traced run of `tpm_train`: trace generation in a set-up span tree,
/// then untraced and traced passes alternate. Both kinds of pass are
/// checked bit for bit against one `generate_training_samples` + `train`
/// run; per-layer metrics come from the last traced pass.
fn tpm_train_traced(seed: u64, seconds: f64) -> Result<RunOut, String> {
    let ssd = SsdConfig::ssd_b();
    let cfg = TrainingConfig::full();
    warm_up(&ssd, seed);
    let mut setup_spans = Spans::new();
    let root = setup_spans.enter("setup");
    let traces = training_traces(&cfg, seed, Some(&mut setup_spans));
    setup_spans.exit(root);
    let reference = train_untraced(&ssd, &cfg, seed);
    let reference = (reference.0.as_slice(), &reference.1);
    let mut cells = Vec::new();
    let mut last = None;
    let (untraced_s, traced_s) = paired(
        seconds,
        || train_pass(&ssd, &cfg, seed, &traces, &mut || {}),
        || {
            let mut spans = Spans::new();
            let mut totals = NodeTotals::default();
            let root = spans.enter("pass");
            let out = train_decomposed(&ssd, &cfg, seed, &traces, &mut spans, &mut totals);
            spans.exit(root);
            (out, spans, totals)
        },
        |(samples, model, _), ((t_samples, t_model), spans, totals)| {
            cells.extend(check_decomposed(
                "untraced pass",
                &cfg,
                (&samples, &model),
                reference,
            ));
            cells.extend(check_decomposed(
                "decomposed traced pass",
                &cfg,
                (&t_samples, &t_model),
                reference,
            ));
            last = Some((t_model, t_samples, spans, totals));
        },
    );
    let (model, samples, spans, totals) = last.expect("paired runs at least two pairs");
    let features: Vec<WorkloadFeatures> = samples
        .chunks(cfg.weights.len())
        .map(|row| row[0].features)
        .collect();
    // The device runner schedules every arrival up front.
    let depth = traces.iter().map(Trace::len).max().unwrap_or(0);
    println!("hold depth: {depth} = the longest training trace's arrivals, scheduled up front");
    let mut metrics = Metrics(Vec::new());
    layer_metrics(
        &mut metrics,
        (&setup_spans, &spans, &spans, &totals),
        (untraced_s, traced_s),
        (model.n_samples() as f64, predict_ns(&model, &features)),
        depth,
        seed,
    );
    zero_system_metrics(&mut metrics);
    Ok(RunOut {
        cells,
        metrics,
        spans: setup_spans.to_jsonl(0) + &spans.to_jsonl(setup_spans.len()),
    })
}

/// Traced run of an in-cast workload: the set-up's TPM training runs
/// decomposed (storage-node, ml and workload metrics), then untraced and
/// traced passes alternate (system-sim, net-sim, fabric and core
/// metrics from the last traced pass), then one pass through
/// `run_system_in` counts event-queue migrations.
fn incast_traced(faults: bool, seed: u64, seconds: f64) -> Result<RunOut, String> {
    let mut cells = Vec::new();
    let mut setup_spans = Spans::new();
    let mut totals = NodeTotals::default();
    let root = setup_spans.enter("setup");
    let setup = incast_setup(
        faults,
        seed,
        Some((&mut setup_spans, &mut totals)),
        &mut cells,
    )?;
    setup_spans.exit(root);
    let mut last = None;
    let (untraced_s, traced_s) = paired(
        seconds,
        || incast_pass(&setup, None, &mut || {}).0,
        || {
            let mut spans = Spans::new();
            let root = spans.enter("pass");
            let out = incast_pass(&setup, Some(&mut spans), &mut || {}).0;
            spans.exit(root);
            (out, spans)
        },
        |plain, (traced, spans)| {
            let a = incast_check(&setup, &plain);
            let mut b = incast_check(&setup, &traced);
            mark_repeats(&a, &mut b);
            cells.extend(b);
            last = Some((traced, spans, a.clone()));
            cells.extend(a);
        },
    );
    let (out, spans, plain_cells) = last.expect("paired runs at least two pairs");

    let probe = incast_queue_probe(&setup);
    let mut migrated = 0;
    for (c, (_, moved)) in setup.cells.iter().zip(&probe) {
        println!(
            "queue: cell {} schedules {} events up front; moved to the timing wheel: {moved}",
            c.name,
            upfront_events(&setup, c)
        );
        migrated += *moved as u64;
    }
    let probe_reports: Vec<Option<SystemReport>> = probe.into_iter().map(|(r, _)| r).collect();
    let mut probe_cells = incast_check(&setup, &probe_reports);
    mark_repeats(&plain_cells, &mut probe_cells);
    cells.extend(probe_cells.into_iter().map(|c| Cell {
        name: format!("run_system_in/{}", c.name),
        ..c
    }));
    let depth = setup
        .cells
        .iter()
        .map(|c| upfront_events(&setup, c))
        .max()
        .unwrap_or(0);
    println!(
        "hold depth: {depth} = the largest cell's up-front events (a lower bound on its peak)"
    );

    let features: Vec<WorkloadFeatures> = setup
        .ratios
        .iter()
        .map(|r| {
            let reqs: Vec<_> = r.iter().map(|a| a.request).collect();
            extract_features(&reqs)
        })
        .collect();
    let mut metrics = Metrics(Vec::new());
    layer_metrics(
        &mut metrics,
        (&setup_spans, &setup_spans, &spans, &totals),
        (untraced_s, traced_s),
        (
            setup.tpm.n_samples() as f64,
            predict_ns(&setup.tpm, &features),
        ),
        depth,
        seed,
    );
    let reports: Vec<&SystemReport> = out.iter().flatten().collect();
    let sum = |f: &dyn Fn(&SystemReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let (hits, misses) = (sum(&|r| r.tpm_cache_hits), sum(&|r| r.tpm_cache_misses));
    println!(
        "core.cache_hit_ratio: {:.4} = {hits} hits / {} lookups (SRC cells)",
        hits / (hits + misses),
        hits + misses
    );
    metrics.put("core.cache_hits", hits, "count");
    metrics.put("core.cache_misses", misses, "count");
    metrics.put("core.cache_lookups", hits + misses, "count");
    metrics.put("core.cache_hit_ratio", hits / (hits + misses), "ratio");
    let cell_s: Vec<f64> = spans
        .durations_s("system-sim.run_system.src")
        .into_iter()
        .chain(spans.durations_s("system-sim.run_system.only"))
        .collect();
    let host_s: f64 = cell_s.iter().sum();
    let sim_reqs = incast_requests(&setup) as f64;
    let sim_s: f64 = reports.iter().map(|r| r.makespan.0 as f64 * 1e-12).sum();
    metrics.put(
        "system-sim.src_self_s",
        spans.self_s("system-sim.run_system.src"),
        "s",
    );
    metrics.put(
        "system-sim.only_self_s",
        spans.self_s("system-sim.run_system.only"),
        "s",
    );
    println!("system-sim.us_per_req: base {sim_reqs} sim requests over {host_s:.4} host s");
    metrics.put("system-sim.us_per_req", host_s / sim_reqs * 1e6, "us");
    println!("system-sim.host_per_sim_s: base {sim_s:.4} sim s");
    metrics.put("system-sim.host_per_sim_s", host_s / sim_s, "s/s");
    println!(
        "{}",
        timing_line(
            "system-sim.run_ms",
            "ms",
            &cell_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()
        )
    );
    metrics.put("system-sim.run_ms_p50", median(&cell_s) * 1e3, "ms");
    metrics.put("system-sim.runs", cell_s.len() as f64, "count");
    println!(
        "system-sim.queue_migrations: {migrated} of {} cells moved from the heap to the timing wheel",
        setup.cells.len()
    );
    metrics.put("system-sim.queue_migrations", migrated as f64, "count");
    metrics.put(
        "net-sim.packets_coalesced",
        sum(&|r| r.packets_coalesced),
        "count",
    );
    metrics.put(
        "net-sim.bursts_coalesced",
        sum(&|r| r.bursts_coalesced),
        "count",
    );
    metrics.put("net-sim.ecn_marked", sum(&|r| r.ecn_marked), "count");
    metrics.put("net-sim.cnps", sum(&|r| r.cnps), "count");
    metrics.put("net-sim.pauses", sum(&|r| r.pauses_total), "count");
    metrics.put("fabric.timeouts", sum(&|r| r.timeouts), "count");
    metrics.put("fabric.retries", sum(&|r| r.retries), "count");
    metrics.put("fabric.abandoned", sum(&|r| r.abandoned), "count");
    Ok(RunOut {
        cells,
        metrics,
        spans: setup_spans.to_jsonl(0) + &spans.to_jsonl(setup_spans.len()),
    })
}

/// Layer metrics every workload reports: storage-node, ssd-sim and ml
/// from the spans and totals of the decomposed training, workload from
/// the set-up and pass spans, the sim-engine hold model at `depth`
/// pending events, the core micro-measurement, and the share of the
/// traced pass no layer span covers.
fn layer_metrics(
    m: &mut Metrics,
    (setup_spans, train_spans, pass_spans, totals): (&Spans, &Spans, &Spans, &NodeTotals),
    (untraced_s, traced_s): (f64, f64),
    (samples, predict_ns): (f64, f64),
    depth: usize,
    seed: u64,
) {
    m.put(
        "sim-engine.queue_hold_ns",
        hold_ns(ADAPTIVE_MIGRATION_THRESHOLD, depth, seed),
        "ns",
    );
    m.put("sim-engine.wheel_hold_ns", hold_ns(1, depth, seed), "ns");
    m.put(
        "workload.gen_s",
        setup_spans.self_s("workload.") + pass_spans.self_s("workload."),
        "s",
    );
    let node_s = train_spans.self_s("storage-node.");
    m.put("storage-node.self_s", node_s, "s");
    m.put("storage-node.runs", totals.runs as f64, "count");
    m.put("storage-node.sim_reqs", totals.sim_reqs as f64, "count");
    m.put(
        "storage-node.us_per_req",
        node_s / totals.sim_reqs as f64 * 1e6,
        "us",
    );
    let run_ms: Vec<f64> = train_spans
        .durations_s("storage-node.run_trace_windowed")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    println!("{}", timing_line("storage-node.run_ms", "ms", &run_ms));
    m.put("storage-node.run_ms_p50", median(&run_ms), "ms");
    m.put(
        "storage-node.run_ms_tail",
        tail(&run_ms).map_or(f64::NAN, |t| t.1),
        "ms",
    );
    m.put("ssd-sim.gc_copies", totals.gc_copies as f64, "count");
    m.put("ssd-sim.erases", totals.erases as f64, "count");
    m.put(
        "ssd-sim.cached_writes",
        totals.cached_writes as f64,
        "count",
    );
    m.put("ssd-sim.sync_writes", totals.sync_writes as f64, "count");
    m.put("ml.fit_s", train_spans.self_s("ml.train"), "s");
    m.put("ml.samples", samples, "count");
    m.put("core.predict_ns", predict_ns, "ns");
    let pass_s: f64 = pass_spans.durations_s("pass").iter().sum();
    let unattributed = pass_spans.self_s("pass") / pass_s;
    println!(
        "trace: layers account for {:.4} of {pass_s:.4} traced pass s (the rest is benchmark glue)",
        1.0 - unattributed
    );
    m.put("trace.unattributed_frac", unattributed, "ratio");
    println!("trace.overhead_frac: base {untraced_s:.4} untraced s vs {traced_s:.4} traced s");
    m.put("trace.untraced_s", untraced_s, "s");
    m.put("trace.traced_s", traced_s, "s");
    m.put("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
}

/// The system-level metrics, as zeros, for `tpm_train`, which never
/// runs the fabric.
fn zero_system_metrics(m: &mut Metrics) {
    for (name, unit) in [
        ("core.cache_hits", "count"),
        ("core.cache_misses", "count"),
        ("core.cache_lookups", "count"),
        ("core.cache_hit_ratio", "ratio"),
        ("system-sim.src_self_s", "s"),
        ("system-sim.only_self_s", "s"),
        ("system-sim.us_per_req", "us"),
        ("system-sim.host_per_sim_s", "s/s"),
        ("system-sim.run_ms_p50", "ms"),
        ("system-sim.runs", "count"),
        ("system-sim.queue_migrations", "count"),
        ("net-sim.packets_coalesced", "count"),
        ("net-sim.bursts_coalesced", "count"),
        ("net-sim.ecn_marked", "count"),
        ("net-sim.cnps", "count"),
        ("net-sim.pauses", "count"),
        ("fabric.timeouts", "count"),
        ("fabric.retries", "count"),
        ("fabric.abandoned", "count"),
    ] {
        m.put(name, 0.0, unit);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} executor_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        sim_engine::ScenarioRunner::from_env().threads()
    );
    let result = match (args.workload.as_str(), args.trace) {
        ("tpm_train", false) => tpm_train_run(args.seed, args.seconds),
        ("incast", false) => incast_run(false, args.seed, args.seconds),
        ("incast_faults", false) => incast_run(true, args.seed, args.seconds),
        ("tpm_train", true) => tpm_train_traced(args.seed, args.seconds),
        ("incast", true) => incast_traced(false, args.seed, args.seconds),
        ("incast_faults", true) => incast_traced(true, args.seed, args.seconds),
        (w, _) => Err(format!("unknown workload {w}")),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, &out.spans) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            std::process::exit(1);
        }
    }
    let failed = out.cells.iter().filter(|c| !c.ok).count();
    println!(
        "fail_frac: {:.4} = {failed} failed / {} cells attempted",
        failed as f64 / out.cells.len().max(1) as f64,
        out.cells.len()
    );
    for (n, v, u) in &out.metrics.0 {
        println!("metric {n} = {} {u}", json_num(*v));
    }
    let cells: Vec<String> = out
        .cells
        .iter()
        .map(|c| format!("[\"{}\", \"{:016x}\", {}]", c.name, c.hash, c.ok))
        .collect();
    println!(
        "{{\"cells\": [{}], \"metrics\": {}}}",
        cells.join(", "),
        out.metrics.json()
    );
}

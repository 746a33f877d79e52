//! The fault-injection contract: an empty [`FaultPlan`] reproduces
//! fault-free runs bit-for-bit, active plans are deterministic across
//! executor thread counts, the retry budget's accounting is exact, and
//! checkpointed fault sweeps key their manifests on the plan.
//!
//! The heavy sweeps are ignored in debug builds (run
//! `cargo test --release -- --include-ignored`).

use srcsim::sim_engine::checkpoint::{committed_cells, fnv1a64};
use srcsim::sim_engine::runner::with_threads;
use srcsim::sim_engine::{
    CheckpointSpec, FaultEvent, FaultKind, FaultPlan, FaultScope, NullSink, SimDuration, SimTime,
    SimWorkspace,
};
use srcsim::ssd_sim::SsdConfig;
use srcsim::system_sim::config::{spread_source, spread_trace, Assignment, Mode, SystemConfig};
use srcsim::system_sim::experiments::{
    ext_faults_checkpointed, ext_faults_fingerprint, fault_horizon, fault_robustness,
    faults_for_incast, incast_spec, paper_background, paper_pfc, train_tpm, Scale, TrainKnob,
};
use srcsim::system_sim::{
    run_system, run_system_in, workspace_queue_migrations, RobustnessConfig, RunOptions,
    SystemReport,
};
use srcsim::workload::micro::{generate_micro, MicroConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn micro_assignments(
    n_per_class: usize,
    n_init: usize,
    n_tgt: usize,
    seed: u64,
) -> Vec<Assignment> {
    let t = generate_micro(
        &MicroConfig {
            read_count: n_per_class,
            write_count: n_per_class,
            read_iat_mean_us: 15.0,
            write_iat_mean_us: 15.0,
            read_size_mean: 24_000.0,
            write_size_mean: 24_000.0,
            ..MicroConfig::default()
        },
        seed,
    );
    spread_trace(&t, n_init, n_tgt)
}

/// [`faulted_runs_are_pinned_bitwise`]'s FNV-1a of [`active_plan_run`].
const PIN_ACTIVE: u64 = 0x3118_8f4c_278e_e99a;
/// [`faulted_runs_are_pinned_bitwise`]'s FNV-1a of
/// [`retry_budget_exhaustion_run`].
const PIN_EXHAUSTED: u64 = 0x9b49_3037_91e9_f607;

fn report_bits(r: &SystemReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

fn quick() -> Scale {
    Scale {
        requests_per_target: 300,
        train: TrainKnob::Quick,
    }
}

/// An empty fault plan — whether defaulted in the config, set
/// explicitly on the config, or passed through [`RunOptions`] — must
/// reproduce the fault-free run bit-for-bit: zero extra events, zero
/// robustness machinery, identical serialized report.
#[test]
fn empty_plan_reproduces_fault_free_run_bitwise() {
    let a = micro_assignments(120, 1, 2, 7);
    let cfg = SystemConfig {
        mode: Mode::DcqcnOnly,
        ..SystemConfig::default()
    };
    let baseline = run_system(&cfg, RunOptions::assignments(&a), &mut NullSink);
    assert_eq!(
        (baseline.timeouts, baseline.retries, baseline.abandoned),
        (0, 0, 0)
    );

    let empty = FaultPlan::seeded(99);
    let via_opts = run_system(
        &cfg,
        RunOptions::assignments(&a).faults(&empty),
        &mut NullSink,
    );
    assert_eq!(
        report_bits(&baseline),
        report_bits(&via_opts),
        "empty plan via RunOptions diverged from the fault-free run"
    );

    let cfg_with_plan = cfg.to_builder().faults(FaultPlan::default()).build();
    let via_cfg = run_system(&cfg_with_plan, RunOptions::assignments(&a), &mut NullSink);
    assert_eq!(
        report_bits(&baseline),
        report_bits(&via_cfg),
        "empty plan via SystemConfig diverged from the fault-free run"
    );
}

/// A 2:1 in-cast (two Targets, one Initiator) under the full fault
/// storm, with the default timeout/retry policy the active plan arms.
fn active_plan_run() -> SystemReport {
    let a = micro_assignments(100, 1, 2, 11);
    let plan = faults_for_incast(1.0, SimDuration::from_ms(3), 1, 2, 13);
    let cfg = SystemConfig {
        mode: Mode::DcqcnOnly,
        ..SystemConfig::default()
    };
    run_system(
        &cfg,
        RunOptions::assignments(&a).faults(&plan),
        &mut NullSink,
    )
}

/// One Target that drops out for the whole run, under a tight timeout
/// and a retry budget of 2: every request times out and is abandoned.
/// Returns the report and the request count.
fn retry_budget_exhaustion_run() -> (SystemReport, u64) {
    let a = micro_assignments(40, 1, 1, 5);
    let plan = FaultPlan::seeded(3).with(FaultEvent {
        scope: FaultScope::Target { index: 0 },
        kind: FaultKind::TargetDropout,
        start: SimTime::ZERO,
        duration: SimDuration::from_ms(60_000),
    });
    let rb = RobustnessConfig {
        timeout: SimDuration::from_us(300),
        retry_budget: 2,
        backoff_base: SimDuration::from_us(50),
    };
    let r = run_system(
        &SystemConfig {
            mode: Mode::DcqcnOnly,
            n_targets: 1,
            ..SystemConfig::default()
        },
        RunOptions::assignments(&a).faults(&plan).robustness(rb),
        &mut NullSink,
    );
    (r, a.len() as u64)
}

/// A run under an active plan must be a pure function of
/// `(config, plan, seed)` — the same cell computed twice, and computed
/// under different executor thread budgets, is bit-identical.
#[test]
fn active_plan_run_is_reproducible() {
    let run = |threads: usize| with_threads(threads, active_plan_run);
    let first = run(1);
    let again = run(1);
    let parallel = run(4);
    assert_eq!(report_bits(&first), report_bits(&again), "rerun diverged");
    assert_eq!(
        report_bits(&first),
        report_bits(&parallel),
        "thread budget leaked into an active-plan run"
    );
}

/// A Target that drops out for the whole run exhausts every routed
/// request's retry budget with exact accounting: `budget + 1` timeouts
/// and `budget` retries per abandoned request, zero completions, zero
/// availability.
#[test]
fn retry_budget_exhaustion_accounting() {
    let (r, total) = retry_budget_exhaustion_run();
    assert_eq!(r.abandoned, total, "every request must be abandoned");
    assert_eq!(r.reads_completed + r.writes_completed, 0);
    assert_eq!(r.timeouts, total * 3, "budget+1 timeouts per request");
    assert_eq!(r.retries, total * 2, "budget retries per request");
    assert_eq!(r.per_target_abandoned, vec![total]);
    assert_eq!(r.availability(0), 0.0);
}

/// Faulted runs are pinned to the bit, not just reproducible: the FNV-1a
/// of the serialized report of the two cells above, recorded before the
/// initiator timeouts moved from the event heap onto the queue's
/// monotone lane. The timeout arms, their pop order and every counter
/// they feed must not move a bit.
#[test]
fn faulted_runs_are_pinned_bitwise() {
    let active = active_plan_run();
    assert!(active.timeouts > 0, "the storm must fire timeouts");
    let (exhausted, _) = retry_budget_exhaustion_run();
    let got = [active, exhausted].map(|r| fnv1a64(report_bits(&r).as_bytes()));
    assert_eq!(got, [PIN_ACTIVE, PIN_EXHAUSTED], "{got:#018x?}");
}

/// A faulted paper-scale cell (4:1 in-cast, full storm, the fault
/// sweep's timeout policy) keeps its event queue on the binary heap:
/// its one-per-attempt timeouts ride the monotone lane, which the
/// migration threshold does not count.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy simulation; run in release")]
fn faulted_full_scale_cell_stays_on_the_heap() {
    let (scale, seed, n_targets, n_initiators) = (Scale::full(), 29, 4, 1);
    let spec = incast_spec(&scale, n_targets);
    let assignments = spread_source(&spec, seed, n_initiators, n_targets);
    let plan = faults_for_incast(1.0, fault_horizon(&scale), n_initiators, n_targets, seed);
    let cfg = SystemConfig::builder()
        .n_initiators(n_initiators)
        .n_targets(n_targets)
        .ssd(SsdConfig::ssd_a())
        .workload(spec)
        .background(paper_background(&assignments))
        .pfc(paper_pfc())
        .mode(Mode::DcqcnOnly)
        .build();
    let mut ws = SimWorkspace::new();
    let before = workspace_queue_migrations(&mut ws);
    let r = run_system_in(
        &cfg,
        RunOptions::assignments(&assignments)
            .faults(&plan)
            .robustness(fault_robustness(&scale)),
        &mut ws,
        &mut NullSink,
    );
    assert!(r.timeouts > 0, "the storm must fire timeouts");
    assert_eq!(
        workspace_queue_migrations(&mut ws),
        before,
        "a faulted full-scale cell migrated to the timing wheel"
    );
}

/// The full fault sweep is deterministic across executor thread counts,
/// and its intensity-0 rows are clean (no timeouts, retries, or
/// abandoned work; full availability).
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy simulation; run in release")]
fn ext_faults_identical_serial_and_parallel() {
    let scale = quick();
    let tpm = train_tpm(&SsdConfig::ssd_a(), &scale, 42);
    let serial = with_threads(1, || {
        ext_faults_checkpointed(&SsdConfig::ssd_a(), &scale, tpm.clone(), 29, None)
    });
    let parallel = with_threads(4, || {
        ext_faults_checkpointed(&SsdConfig::ssd_a(), &scale, tpm.clone(), 29, None)
    });
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
        "fault sweep must not depend on executor thread count"
    );
    for row in serial.iter().filter(|r| r.intensity == 0.0) {
        assert_eq!(
            (row.timeouts, row.retries, row.abandoned),
            (0, 0, 0),
            "{}: intensity 0 must be fault-free",
            row.ratio
        );
        assert_eq!(row.min_availability, 1.0);
    }
}

/// Checkpointed fault sweeps resume bit-identically, and the manifest
/// fingerprint embeds the resolved fault plans — so changing the plan
/// (via its seed) is configuration drift that rejects the stale
/// manifest instead of silently replaying it.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy simulation; run in release")]
fn ext_faults_checkpoint_resume_keyed_on_plan() {
    let scale = quick();
    let ssd = SsdConfig::ssd_a();
    let fp = ext_faults_fingerprint(&ssd, &scale, 29);
    assert!(
        fp.contains("PacketLoss") && fp.contains("TargetDropout"),
        "fingerprint must embed the resolved plans: {fp}"
    );
    assert_ne!(
        fp,
        ext_faults_fingerprint(&ssd, &scale, 30),
        "a different plan seed must change the fingerprint"
    );

    let path = std::env::temp_dir().join(format!(
        "srcsim-faults-resume-{}.ckpt.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let spec = CheckpointSpec::new(&path, &fp);
    let tpm = train_tpm(&ssd, &scale, 42);
    let first = ext_faults_checkpointed(&ssd, &scale, tpm.clone(), 29, Some(&spec));
    let n_cells = first.len();
    assert_eq!(committed_cells(&path).unwrap(), n_cells);
    // Rerun: fully cached, rows byte-identical, nothing re-appended.
    let resumed = ext_faults_checkpointed(&ssd, &scale, tpm.clone(), 29, Some(&spec));
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&resumed).unwrap(),
        "cached replay diverged"
    );
    assert_eq!(committed_cells(&path).unwrap(), n_cells);
    // Same manifest file under a different plan's fingerprint: fatal.
    let drifted = CheckpointSpec::new(&path, &ext_faults_fingerprint(&ssd, &scale, 30));
    let boom = catch_unwind(AssertUnwindSafe(|| {
        ext_faults_checkpointed(&ssd, &scale, tpm.clone(), 30, Some(&drifted))
    }));
    assert!(boom.is_err(), "plan drift must reject the stale manifest");
    let _ = std::fs::remove_file(&path);
}

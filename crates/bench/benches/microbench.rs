//! Microbenchmarks of the hot paths: event queue, token bucket, DCQCN
//! updates, WRR arbitration, SSD transaction pipeline, feature
//! extraction and random-forest train/predict.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ml::{Dataset, RandomForest, RandomForestParams, Regressor};
use net_sim::{DcqcnParams, RpState};
use nvme_queues::{QueueDiscipline, SsqQueues};
use sim_engine::{EventQueue, Rate, SimDuration, SimTime, TokenBucket};
use ssd_sim::SsdConfig;
use storage_node::{run_trace, DisciplineKind, NodeConfig};
use workload::micro::{generate_micro, MicroConfig};
use workload::{extract_features, IoType, Request, Trace};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(10_000);
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_ns((i * 37) % 50_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_token_bucket(c: &mut Criterion) {
    c.bench_function("token_bucket_consume", |b| {
        let mut tb = TokenBucket::new(Rate::from_gbps(40), 64 * 1024);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_ns(300);
            black_box(tb.try_consume(t, 1500))
        })
    });
}

fn bench_dcqcn(c: &mut Criterion) {
    let p = DcqcnParams::default();
    c.bench_function("dcqcn_cnp_and_recover", |b| {
        let mut rp = RpState::new(Rate::from_gbps(40));
        b.iter(|| {
            rp.on_cnp(&p);
            for _ in 0..8 {
                rp.on_rate_timer();
                rp.increase(&p);
            }
            black_box(rp.rate)
        })
    });
}

fn bench_wrr(c: &mut Criterion) {
    let mut g = c.benchmark_group("ssq");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("wrr_fetch_1k", |b| {
        b.iter(|| {
            let mut q = SsqQueues::new(128, 4);
            for i in 0..500u64 {
                q.enqueue(Request {
                    id: i,
                    op: IoType::Read,
                    lba: 1_000_000 + i * 32,
                    size: 16 * 1024,
                    arrival: SimTime::ZERO,
                });
                q.enqueue(Request {
                    id: 10_000 + i,
                    op: IoType::Write,
                    lba: 9_000_000 + i * 32,
                    size: 16 * 1024,
                    arrival: SimTime::ZERO,
                });
            }
            let mut n = 0;
            while let Some(cmd) = q.fetch() {
                q.on_complete(cmd.op);
                n += 1;
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_ssd(c: &mut Criterion) {
    let mut g = c.benchmark_group("ssd");
    g.sample_size(10);
    // All 500 reads arrive at t = 0, so the FIFO node keeps the device
    // queue depth outstanding: a closed loop.
    let cfg = NodeConfig {
        ssd: SsdConfig::ssd_a(),
        discipline: DisciplineKind::Fifo,
        merge_cap: None,
    };
    let trace = Trace::from_requests(
        (0..500)
            .map(|i| Request {
                id: i,
                op: IoType::Read,
                lba: (i * 64) % (1 << 20),
                size: 32 * 1024,
                arrival: SimTime::ZERO,
            })
            .collect(),
    );
    g.bench_function("closed_loop_500_reads", |b| {
        b.iter(|| black_box(run_trace(&cfg, &trace)))
    });
    g.finish();
}

fn bench_features_and_forest(c: &mut Criterion) {
    let trace = generate_micro(
        &MicroConfig {
            read_count: 2_000,
            write_count: 2_000,
            ..MicroConfig::default()
        },
        1,
    );
    c.bench_function("feature_extraction_4k_requests", |b| {
        b.iter(|| black_box(extract_features(trace.requests())))
    });

    // A small regression problem shaped like the TPM's.
    let x: Vec<Vec<f64>> = (0..256)
        .map(|i| (0..12).map(|j| ((i * (j + 3)) % 17) as f64).collect())
        .collect();
    let y: Vec<Vec<f64>> = x
        .iter()
        .map(|r| vec![r[0] * 0.5 + r[11], r[3] - r[11] * 0.2])
        .collect();
    let data = Dataset::new(x, y);
    let mut g = c.benchmark_group("forest");
    g.sample_size(10);
    g.bench_function("train_30_trees_256x12", |b| {
        b.iter(|| {
            black_box(RandomForest::fit(
                &data,
                &RandomForestParams {
                    n_trees: 30,
                    ..Default::default()
                },
                7,
            ))
        })
    });
    let forest = RandomForest::fit(
        &data,
        &RandomForestParams {
            n_trees: 100,
            ..Default::default()
        },
        7,
    );
    g.bench_function("predict_100_trees", |b| {
        let q: Vec<f64> = (0..12).map(|j| j as f64).collect();
        b.iter(|| black_box(forest.predict_one(&q)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_token_bucket,
    bench_dcqcn,
    bench_wrr,
    bench_ssd,
    bench_features_and_forest
);
criterion_main!(benches);

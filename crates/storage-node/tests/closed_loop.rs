//! Device properties measured closed-loop: every request arrives at
//! t = 0 on a FIFO node, which keeps the device queue depth of commands
//! outstanding until the trace drains.

use sim_engine::{ByteSize, SimTime};
use ssd_sim::SsdConfig;
use storage_node::{run_trace, DisciplineKind, NodeConfig, NodeReport};
use workload::{IoType, Request, Trace};

/// `n` requests of `size` bytes, all at t = 0, with LBAs from `lba(i)`.
fn burst(n: u64, op: IoType, size: u64, lba: impl Fn(u64) -> u64) -> Trace {
    Trace::from_requests(
        (0..n)
            .map(|i| Request {
                id: i,
                op,
                lba: lba(i),
                size,
                arrival: SimTime::ZERO,
            })
            .collect(),
    )
}

fn closed_loop(ssd: SsdConfig, trace: &Trace) -> NodeReport {
    let cfg = NodeConfig {
        ssd,
        discipline: DisciplineKind::Fifo,
        merge_cap: None,
    };
    let r = run_trace(&cfg, trace);
    assert_eq!(r.reads_completed + r.writes_completed, trace.len() as u64);
    r
}

/// Achieved bytes per second over the run.
fn bw(bytes: u64, r: &NodeReport) -> f64 {
    bytes as f64 / r.makespan.as_secs_f64()
}

#[test]
fn cache_exhaustion_forces_sync_writes() {
    // 64 KiB cache = 4 pages of 16 KiB.
    let ssd = SsdConfig {
        write_cache: ByteSize::from_kib(64),
        ..SsdConfig::ssd_a()
    };
    let r = closed_loop(ssd, &burst(16, IoType::Write, 16 * 1024, |i| i * 8));
    assert!(r.ssd.sync_writes > 0, "small cache must overflow");
    assert!(r.ssd.cached_writes >= 4);
}

#[test]
fn read_throughput_bounded_by_channel_bandwidth() {
    // Saturating closed-loop reads: achieved throughput must not exceed
    // the channel bound and should get reasonably close.
    let ssd = SsdConfig::ssd_a();
    let bound = ssd.channel_bound_bw();
    let r = closed_loop(
        ssd,
        &burst(2000, IoType::Read, 64 * 1024, |i| (i * 16) % (1 << 20)),
    );
    let achieved = bw(r.read_bytes, &r);
    assert!(
        achieved <= bound * 1.01,
        "achieved {achieved} > bound {bound}"
    );
    assert!(
        achieved > bound * 0.5,
        "achieved {achieved} too far below bound {bound}"
    );
}

#[test]
fn writes_slower_than_reads_at_flash() {
    // With the cache disabled, write throughput is program-bound and
    // clearly below read throughput.
    let no_cache = SsdConfig {
        write_cache: ByteSize::ZERO,
        ..SsdConfig::ssd_a()
    };
    let mk = |op| burst(800, op, 64 * 1024, |i| (i * 16) % (1 << 20));
    let r = closed_loop(no_cache.clone(), &mk(IoType::Read));
    let w = closed_loop(no_cache, &mk(IoType::Write));
    let (r_bw, w_bw) = (bw(r.read_bytes, &r), bw(w.write_bytes, &w));
    assert!(
        w_bw < r_bw * 0.6,
        "write bw {w_bw} not clearly below read bw {r_bw}"
    );
}

#[test]
fn faster_device_finishes_sooner() {
    let t = burst(400, IoType::Read, 32 * 1024, |i| i * 16);
    let slow = closed_loop(SsdConfig::ssd_a(), &t).makespan;
    let fast = closed_loop(SsdConfig::ssd_b(), &t).makespan;
    assert!(fast < slow, "SSD-B ({fast:?}) should beat SSD-A ({slow:?})");
}

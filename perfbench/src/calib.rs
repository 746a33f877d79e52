//! Host-speed calibration for the end-to-end timings.
//!
//! The bench host is a shared virtual machine whose speed drifts by
//! tens of percent over minutes as its neighbours' load comes and goes,
//! so two runs of the same code a few minutes apart can differ by more
//! than any per-cell statistic within a run can remove. A fixed
//! reference kernel runs between cells for the whole timed phase; its
//! median host time over the run says how fast the host was during that
//! run, and the untraced run's timings are rescaled to the speed at
//! which the kernel takes `REFERENCE_S`. A sample also follows every
//! set-up, which is rescaled by that sample alone.
//!
//! The kernel uses only `std` (ordered and hashed maps under churn:
//! branchy, allocating, pointer-chasing work like the simulator's), so
//! no change to a simulator crate can move it. Its work is the same in every run,
//! whatever the seed.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// About the median host seconds of one kernel sample on the 2-vCPU
/// host the benchmark was written on: the speed rescaled timings refer
/// to.
pub const REFERENCE_S: f64 = 0.0080;
/// A sample runs when this much host time has passed since the last.
const INTERVAL_S: f64 = 0.2;

pub struct Calibration {
    samples: Vec<f64>,
    last: Instant,
}

impl Calibration {
    /// A calibration with one sample taken.
    pub fn new() -> Self {
        let mut c = Calibration {
            samples: Vec::new(),
            last: Instant::now(),
        };
        c.sample();
        c
    }

    /// Take a sample if `INTERVAL_S` has passed since the last one.
    /// Call between timed cells, never inside one.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() >= INTERVAL_S {
            self.sample();
        }
    }

    /// Take a sample now; returns its host seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(kernel());
        let s = t.elapsed().as_secs_f64();
        self.samples.push(s);
        self.last = Instant::now();
        s
    }

    /// Host seconds of every sample taken.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Factor that turns this run's host seconds into seconds at the
    /// reference speed: `REFERENCE_S` / median sample.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / crate::median(&self.samples)
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference work: ordered-map and hashed-map churn (inserts,
/// updates and removals over some ten thousand live keys). Fixed seeds
/// and a fixed hasher keep its work identical in every run.
fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut tree = BTreeMap::new();
    for i in 0..36_000_u64 {
        let k = xorshift(&mut x) % 40_000;
        tree.insert(k, i);
        if i % 3 == 0 {
            tree.remove(&(k / 2));
        }
    }
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..72_000_u64 {
        let k = xorshift(&mut x) % 20_000;
        *map.entry(k).or_insert(0) += i;
        if i % 2 == 0 {
            map.remove(&(k / 2));
        }
    }
    tree.len() as u64 + map.len() as u64
}

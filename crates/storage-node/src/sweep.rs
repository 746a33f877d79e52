//! Weight-ratio sweeps (Fig. 5) and TPM training-sample generation.

use crate::node::{DisciplineKind, NodeConfig};
use crate::runner::run_trace_windowed_in;
use serde::{Deserialize, Serialize};
use sim_engine::ScenarioRunner;
use ssd_sim::SsdConfig;
use workload::source::WorkloadSource;
use workload::{extract_features, Trace, WorkloadFeatures};

/// One point of a weight sweep: the measured read/write throughput of a
/// workload under a given SSQ weight ratio.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Write:read weight ratio.
    pub weight: u32,
    /// Trimmed-mean read throughput, Gbps.
    pub read_gbps: f64,
    /// Trimmed-mean write throughput, Gbps.
    pub write_gbps: f64,
    /// Workload features of the trace that produced this point.
    pub features: WorkloadFeatures,
}

/// Run `trace` on `ssd` for every weight in `weights`; one sweep row of
/// Fig. 5, and the raw material for TPM training samples. Each weight
/// cell is an independent seeded DES run, so the [`ScenarioRunner`]
/// evaluates them in parallel with results in weight order.
pub fn weight_sweep(ssd: &SsdConfig, trace: &Trace, weights: &[u32]) -> Vec<SweepPoint> {
    let features = extract_features(trace.requests());
    ScenarioRunner::from_env().run_cells_with_workspace(weights, |ws, _, &w| {
        let cfg = NodeConfig {
            ssd: ssd.clone(),
            discipline: DisciplineKind::Ssq { weight: w },
            merge_cap: None,
        };
        let r = run_trace_windowed_in(&cfg, trace, ws);
        SweepPoint {
            weight: w,
            read_gbps: r.read_tput().as_gbps_f64(),
            write_gbps: r.write_tput().as_gbps_f64(),
            features,
        }
    })
}

/// [`weight_sweep`] on a workload source: the source resolves to its
/// trace with `seed` first (bit-identical to generating the trace by
/// hand and calling [`weight_sweep`]). This is the seam replayed
/// recordings use to enter the Fig. 5 sweep machinery.
pub fn weight_sweep_source<S: WorkloadSource + ?Sized>(
    ssd: &SsdConfig,
    source: &S,
    seed: u64,
    weights: &[u32],
) -> Vec<SweepPoint> {
    weight_sweep(ssd, &source.generate(seed), weights)
}

impl SweepPoint {
    /// TPM feature vector: workload features followed by the weight
    /// ratio (the `(Ch, w)` input of Eq. 1).
    pub fn x(&self) -> Vec<f64> {
        let mut v = self.features.to_vec();
        v.push(self.weight as f64);
        v
    }

    /// TPM target vector `[TPUT_R, TPUT_W]` in Gbps.
    pub fn y(&self) -> Vec<f64> {
        vec![self.read_gbps, self.write_gbps]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::micro::{generate_micro, MicroConfig};

    #[test]
    fn sweep_has_expected_shape() {
        let trace = generate_micro(
            &MicroConfig {
                read_count: 1_200,
                write_count: 1_200,
                read_iat_mean_us: 8.0,
                write_iat_mean_us: 8.0,
                read_size_mean: 36_000.0,
                write_size_mean: 36_000.0,
                ..MicroConfig::default()
            },
            7,
        );
        let pts = weight_sweep(&SsdConfig::ssd_a(), &trace, &[1, 2, 4, 8]);
        assert_eq!(pts.len(), 4);
        // Read throughput monotonically non-increasing (within noise),
        // write non-decreasing, across the sweep's ends.
        assert!(pts[3].read_gbps < pts[0].read_gbps);
        assert!(pts[3].write_gbps > pts[0].write_gbps);
        // x/y vectors shaped for the TPM.
        assert_eq!(pts[0].x().len(), workload::features::N_FEATURES + 1);
        assert_eq!(pts[0].y().len(), 2);
        assert_eq!(pts[0].x().last().copied(), Some(1.0));
    }

    #[test]
    fn light_workload_insensitive_to_weight() {
        // Fig. 5 bottom-left corner: long inter-arrival, small requests —
        // the weight knob has no authority.
        let trace = generate_micro(
            &MicroConfig {
                read_count: 400,
                write_count: 400,
                read_iat_mean_us: 120.0,
                write_iat_mean_us: 120.0,
                read_size_mean: 8_000.0,
                write_size_mean: 8_000.0,
                ..MicroConfig::default()
            },
            8,
        );
        let pts = weight_sweep(&SsdConfig::ssd_a(), &trace, &[1, 8]);
        let rel = (pts[0].read_gbps - pts[1].read_gbps).abs() / pts[0].read_gbps.max(1e-9);
        assert!(rel < 0.1, "light load should fade out WRR, delta={rel}");
    }

    #[test]
    fn sweep_is_pinned_bitwise() {
        // Recorded before the runner's arrival cursor, the lazily built
        // FTL and the Fx-hashed maps: none of them may move a bit.
        let trace = generate_micro(
            &MicroConfig {
                read_count: 600,
                write_count: 600,
                read_iat_mean_us: 6.0,
                write_iat_mean_us: 6.0,
                read_size_mean: 32_000.0,
                write_size_mean: 32_000.0,
                lba_space_sectors: 1 << 14,
                ..MicroConfig::default()
            },
            11,
        );
        let pinned: [(SsdConfig, [(u64, u64); 4]); 2] = [
            (
                SsdConfig::ssd_a(),
                [
                    (0x400626b2f23033a4, 0x40154434e3369b9d),
                    (0x4001b1d92b7fe08b, 0x401a8262456f75da),
                    (0x3ff1904b3c3e74b0, 0x401e03f705857aff),
                    (0x3fe2dfd694ccab3f, 0x40200a393ee5eedd),
                ],
            ),
            (
                SsdConfig::ssd_b(),
                [
                    (0x400a47a9e2bcf91a, 0x40137f38c5436b90),
                    (0x400a47a9e2bcf91a, 0x40137f38c5436b90),
                    (0x400a47a9e2bcf91a, 0x40137f38c5436b90),
                    (0x400ce6c093d96638, 0x4013879c4113c686),
                ],
            ),
        ];
        for (ssd, want) in pinned {
            let got: Vec<(u64, u64)> = weight_sweep(&ssd, &trace, &[1, 2, 4, 8])
                .iter()
                .map(|p| (p.read_gbps.to_bits(), p.write_gbps.to_bits()))
                .collect();
            assert_eq!(got, want, "{}", ssd.model_name());
        }
    }
}

//! DCQCN (Data Center Quantized Congestion Notification) — the rate
//! control of Zhu et al., SIGCOMM 2015 \[4\], as used by the paper.
//!
//! Three roles:
//!
//! * **CP** (congestion point, the switch): RED-style ECN marking —
//!   implemented in the switch model, parameterized by
//!   [`DcqcnParams::kmin`]/[`kmax`](DcqcnParams::kmax)/[`pmax`](DcqcnParams::pmax).
//! * **NP** (notification point, the receiver): on an ECN-marked data
//!   packet, send a CNP to the sender, at most one per
//!   [`DcqcnParams::cnp_interval`] per flow — [`NpState`].
//! * **RP** (reaction point, the sender): cut the sending rate on CNP,
//!   recover through fast recovery / additive increase / hyper increase
//!   stages — [`RpState`].
//!
//! The state machines are pure (no event queue); the NIC model drives
//! them and re-arms timers from the returned deadlines.

use serde::{Deserialize, Serialize};
use sim_engine::{Rate, SimDuration, SimTime};

/// DCQCN tuning. Defaults follow the SIGCOMM'15 parameters, with the
/// rate-increase byte counter and timer scaled down so recovery plays out
/// on the millisecond timescale of the paper's figures (documented in
/// DESIGN.md; the original B = 10 MB / T = 55 µs constants assume
/// seconds-long flows).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DcqcnParams {
    /// ECN marking lower threshold (bytes queued at the egress port).
    pub kmin: u64,
    /// ECN marking upper threshold.
    pub kmax: u64,
    /// Marking probability at `kmax`.
    pub pmax: f64,
    /// Minimum gap between CNPs per flow (NP side).
    pub cnp_interval: SimDuration,
    /// Multiplicative-decrease gain `g` for alpha.
    pub g: f64,
    /// Alpha-update timer (no CNP for this long decays alpha).
    pub alpha_timer: SimDuration,
    /// Rate-increase timer period.
    pub rate_timer: SimDuration,
    /// Rate-increase byte counter threshold.
    pub byte_counter: u64,
    /// Fast-recovery stage count before additive increase.
    pub fast_recovery_stages: u32,
    /// Additive increase step.
    pub rai: Rate,
    /// Hyper increase step.
    pub rhai: Rate,
    /// Floor on the sending rate.
    pub min_rate: Rate,
}

impl Default for DcqcnParams {
    fn default() -> Self {
        DcqcnParams {
            // Shallow marking thresholds, as deployed DCQCN uses for
            // 40 GbE (the SIGCOMM'15 paper evaluates Kmin of 5–40 KB):
            // line-rate bursts from a handful of flows are enough to
            // trigger marking.
            kmin: 10 * 1024,
            kmax: 200 * 1024,
            pmax: 0.05,
            cnp_interval: SimDuration::from_us(50),
            g: 1.0 / 16.0,
            alpha_timer: SimDuration::from_us(55),
            rate_timer: SimDuration::from_us(500),
            byte_counter: 10 * 1024 * 1024,
            fast_recovery_stages: 5,
            rai: Rate::from_mbps(100),
            rhai: Rate::from_gbps(1),
            min_rate: Rate::from_mbps(100),
        }
    }
}

/// Notification-point (receiver) per-flow state: CNP pacing.
#[derive(Clone, Debug, Default)]
pub struct NpState {
    last_cnp: Option<SimTime>,
}

impl NpState {
    /// An ECN-marked packet arrived; should a CNP be sent now?
    pub fn on_marked_packet(&mut self, now: SimTime, p: &DcqcnParams) -> bool {
        match self.last_cnp {
            Some(t) if now.since(t) < p.cnp_interval => false,
            _ => {
                self.last_cnp = Some(now);
                true
            }
        }
    }
}

/// Reaction-point (sender) per-flow state.
#[derive(Clone, Debug)]
pub struct RpState {
    /// Current sending rate `Rc`.
    pub rate: Rate,
    /// Target rate `Rt`.
    target: Rate,
    /// Congestion estimate `alpha`.
    alpha: f64,
    /// Timer-driven increase iterations since last cut.
    timer_iters: u32,
    /// Byte-counter-driven increase iterations since last cut.
    byte_iters: u32,
    /// Bytes sent since the counter last fired.
    bytes_since: u64,
    /// Link capacity (rate never exceeds this).
    line_rate: Rate,
    /// Generation stamp: bumped on every CNP so stale timer events can be
    /// discarded by the NIC.
    pub generation: u64,
}

impl RpState {
    /// Fresh sender state at line rate.
    pub fn new(line_rate: Rate) -> Self {
        RpState {
            rate: line_rate,
            target: line_rate,
            alpha: 1.0,
            timer_iters: 0,
            byte_iters: 0,
            bytes_since: 0,
            line_rate,
            generation: 0,
        }
    }

    /// Current alpha (for tests/telemetry).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Target rate `Rt` (for telemetry).
    pub fn target(&self) -> Rate {
        self.target
    }

    /// A CNP arrived: cut the rate, bump alpha, restart recovery.
    pub fn on_cnp(&mut self, p: &DcqcnParams) {
        self.target = self.rate;
        let cut = 1.0 - self.alpha / 2.0;
        self.rate = self.rate.scale(cut).max(p.min_rate);
        self.alpha = ((1.0 - p.g) * self.alpha + p.g).clamp(0.0, 1.0);
        self.timer_iters = 0;
        self.byte_iters = 0;
        self.bytes_since = 0;
        self.generation += 1;
    }

    /// Alpha-decay timer fired (no CNP for `alpha_timer`).
    pub fn on_alpha_timer(&mut self, p: &DcqcnParams) {
        self.alpha *= 1.0 - p.g;
    }

    /// Account transmitted bytes; returns true when the byte counter
    /// fired (the NIC should then call [`RpState::increase`]).
    pub fn on_bytes_sent(&mut self, bytes: u64, p: &DcqcnParams) -> bool {
        self.bytes_since += bytes;
        if self.bytes_since >= p.byte_counter {
            self.bytes_since = 0;
            self.byte_iters += 1;
            true
        } else {
            false
        }
    }

    /// The rate-increase timer fired.
    pub fn on_rate_timer(&mut self) {
        self.timer_iters += 1;
    }

    /// Perform one rate-increase step. The stage is the max of the timer
    /// and byte-counter iteration counts, as in the DCQCN paper: fast
    /// recovery halves the gap to `Rt`; additive increase raises `Rt` by
    /// `Rai`; hyper increase (both counters past the stage bound) raises
    /// it by `Rhai`. Returns the stage that executed (for telemetry).
    ///
    /// `Rt` is monotone across increase steps: `Rc <= Rt` is an
    /// invariant (`on_cnp` re-anchors `Rt` at the pre-cut `Rc`, both
    /// stay above `min_rate`, and recovery only moves `Rc` toward `Rt`
    /// while `Rt` only grows), so an earlier `Rt = max(Rt, Rc)`
    /// pre-clamp in the hyper branch — absent from the additive branch
    /// — could never fire and has been removed. The regression test
    /// `hyper_increase_never_lowers_target` pins the monotonicity down.
    pub fn increase(&mut self, p: &DcqcnParams) -> RpStage {
        debug_assert!(self.rate <= self.target, "Rc <= Rt invariant broken");
        let f = p.fast_recovery_stages;
        let stage = self.timer_iters.max(self.byte_iters);
        let executed = if self.timer_iters > f && self.byte_iters > f {
            // Hyper increase: both counters past the fast-recovery bound.
            self.target = Rate::from_bps(
                (self.target.as_bps() + p.rhai.as_bps()).min(self.line_rate.as_bps()),
            );
            RpStage::Hyper
        } else if stage > f {
            // Additive increase.
            self.target = Rate::from_bps(
                (self.target.as_bps() + p.rai.as_bps()).min(self.line_rate.as_bps()),
            );
            RpStage::Additive
        } else {
            RpStage::FastRecovery
        };
        // Fast recovery toward the target in every stage. Snap once the
        // gap closes below 1 Mbps — integer halving would otherwise
        // asymptote one bps below the target and keep the recovery timer
        // armed forever.
        let next = (self.rate.as_bps() + self.target.as_bps()) / 2;
        let next = if self.target.as_bps().abs_diff(next) < 1_000_000 {
            self.target.as_bps()
        } else {
            next
        };
        self.rate = Rate::from_bps(next).min(self.line_rate).max(p.min_rate);
        executed
    }
}

/// Which branch one [`RpState::increase`] call took (telemetry: the RP
/// stage transitions the trace records).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpStage {
    /// Gap-halving toward `Rt` only; `Rt` untouched.
    FastRecovery,
    /// `Rt += Rai`.
    Additive,
    /// `Rt += Rhai` (both counters past the fast-recovery bound).
    Hyper,
}

impl RpStage {
    /// Numeric encoding used in trace records (0, 1, 2).
    pub fn as_code(self) -> f64 {
        match self {
            RpStage::FastRecovery => 0.0,
            RpStage::Additive => 1.0,
            RpStage::Hyper => 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> DcqcnParams {
        DcqcnParams::default()
    }

    #[test]
    fn cnp_halves_rate_initially() {
        let mut rp = RpState::new(Rate::from_gbps(40));
        rp.on_cnp(&p());
        // alpha starts at 1 => cut factor 0.5.
        assert_eq!(rp.rate, Rate::from_gbps(20));
        assert_eq!(rp.target(), Rate::from_gbps(40));
        assert!(rp.alpha() <= 1.0);
    }

    #[test]
    fn repeated_cnps_floor_at_min_rate() {
        let mut rp = RpState::new(Rate::from_gbps(40));
        for _ in 0..100 {
            rp.on_cnp(&p());
        }
        assert_eq!(rp.rate, p().min_rate);
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut rp = RpState::new(Rate::from_gbps(40));
        rp.on_cnp(&p());
        let a0 = rp.alpha();
        for _ in 0..20 {
            rp.on_alpha_timer(&p());
        }
        assert!(rp.alpha() < a0 * 0.5);
        // Later cuts are gentler.
        let before = rp.rate;
        rp.on_cnp(&p());
        assert!(rp.rate.as_bps() > before.as_bps() / 2);
    }

    #[test]
    fn fast_recovery_converges_to_target() {
        let mut rp = RpState::new(Rate::from_gbps(40));
        rp.on_cnp(&p()); // Rc=20, Rt=40
        for _ in 0..10 {
            rp.on_rate_timer();
            rp.increase(&p());
        }
        // After several halvings of the gap, Rc ~ Rt.
        assert!(rp.rate.as_gbps_f64() > 39.0, "rate={:?}", rp.rate);
        assert!(rp.rate <= Rate::from_gbps(40));
    }

    #[test]
    fn additive_increase_raises_target() {
        let mut rp = RpState::new(Rate::from_gbps(40));
        rp.on_cnp(&p());
        // Exhaust fast recovery (stage > F with timer only).
        for _ in 0..=p().fast_recovery_stages + 3 {
            rp.on_rate_timer();
            rp.increase(&p());
        }
        // Target must not exceed the line rate.
        assert!(rp.target() <= Rate::from_gbps(40));
        assert!(rp.rate <= Rate::from_gbps(40));
    }

    #[test]
    fn hyper_increase_requires_both_counters() {
        let params = p();
        let mut rp = RpState::new(Rate::from_gbps(40));
        rp.on_cnp(&params);
        rp.on_cnp(&params); // rate well below line
        let f = params.fast_recovery_stages;
        for _ in 0..=f + 1 {
            rp.on_rate_timer();
            let _ = rp.on_bytes_sent(params.byte_counter, &params);
            rp.increase(&params);
        }
        // Both counters past F: hyper stage reached; rate recovering.
        assert!(rp.rate.as_gbps_f64() > 10.0);
        assert!(rp.rate <= Rate::from_gbps(40));
    }

    #[test]
    fn hyper_increase_never_lowers_target() {
        let params = p();
        let mut rp = RpState::new(Rate::from_gbps(40));
        // Cut deep so recovery has room, then run both counters past
        // the fast-recovery bound: Rt must be monotone through every
        // stage, including hyper.
        for _ in 0..8 {
            rp.on_cnp(&params);
        }
        let mut prev = rp.target();
        let mut saw_hyper = false;
        for _ in 0..params.fast_recovery_stages + 10 {
            rp.on_rate_timer();
            let _ = rp.on_bytes_sent(params.byte_counter, &params);
            let stage = rp.increase(&params);
            saw_hyper |= stage == RpStage::Hyper;
            assert!(
                rp.target() >= prev,
                "{stage:?} lowered Rt: {prev:?} -> {:?}",
                rp.target()
            );
            prev = rp.target();
        }
        assert!(saw_hyper, "test never reached the hyper stage");
    }

    #[test]
    fn byte_counter_fires_on_threshold() {
        let params = p();
        let mut rp = RpState::new(Rate::from_gbps(40));
        assert!(!rp.on_bytes_sent(params.byte_counter / 2, &params));
        assert!(rp.on_bytes_sent(params.byte_counter / 2, &params));
        assert!(!rp.on_bytes_sent(1, &params));
    }

    #[test]
    fn generation_bumps_on_cnp() {
        let mut rp = RpState::new(Rate::from_gbps(40));
        let g0 = rp.generation;
        rp.on_cnp(&p());
        assert_eq!(rp.generation, g0 + 1);
    }

    #[test]
    fn np_paces_cnps() {
        let params = p();
        let mut np = NpState::default();
        assert!(np.on_marked_packet(SimTime::from_us(0), &params));
        assert!(!np.on_marked_packet(SimTime::from_us(10), &params));
        assert!(!np.on_marked_packet(SimTime::from_us(49), &params));
        assert!(np.on_marked_packet(SimTime::from_us(50), &params));
    }

    proptest::proptest! {
        /// The rate always stays within [min_rate, line_rate] under any
        /// sequence of CNPs, timers, and increases.
        #[test]
        fn prop_rate_bounds(ops in proptest::collection::vec(0u8..4, 1..300)) {
            let params = p();
            let line = Rate::from_gbps(40);
            let mut rp = RpState::new(line);
            for op in ops {
                match op {
                    0 => rp.on_cnp(&params),
                    1 => { rp.on_rate_timer(); rp.increase(&params); }
                    2 => { let _ = rp.on_bytes_sent(300_000, &params); rp.increase(&params); }
                    _ => rp.on_alpha_timer(&params),
                }
                proptest::prop_assert!(rp.rate >= params.min_rate);
                proptest::prop_assert!(rp.rate <= line);
                proptest::prop_assert!(rp.rate <= rp.target());
                proptest::prop_assert!(rp.alpha() >= 0.0 && rp.alpha() <= 1.0);
            }
        }
    }
}

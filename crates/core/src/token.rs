//! Eq. 6–9 — token-bucket smoothing of the DQM rate.
//!
//! Raw `R_DQM` (Eq. 5) can jump with network jitter, so the paper smooths
//! it: each outgoing packet adds `min(α·R_DQM/R_credit, 1)` tokens; a
//! full token bumps the dynamic window `dw` up, a shortfall bumps it
//! down, and the advertised rate is `R̄_DQM = R_credit + dw·MTU/RTT_C`.
//! With α = 0.5 the equilibrium sits exactly at `R_DQM = R_credit`:
//! above it `dw` climbs one packet at a time, below it `dw` falls —
//! per-packet granularity makes the adjustment speed proportional to the
//! flow's own rate.

use netsim::units::{Time, SEC};

/// α — token-bucket gain (Eq. 7). Paper default 0.5.
pub(crate) const ALPHA: f64 = 0.5;

/// Token-bucket smoother state.
#[derive(Clone, Debug)]
pub struct TokenSmoother {
    token: f64,
    dw: i64,
    /// Rate contribution of one window step: MTU/RTT_C in bits/s.
    step_bps: f64,
}

impl TokenSmoother {
    /// `mtu_wire_bytes` and the cross-DC RTT set the per-step rate
    /// granularity.
    pub fn new(mtu_wire_bytes: u32, rtt_c: Time) -> Self {
        let step_bps = mtu_wire_bytes as f64 * 8.0 * (SEC as f64 / rtt_c.max(1) as f64);
        TokenSmoother {
            token: 0.0,
            dw: 0,
            step_bps,
        }
    }

    /// One outgoing packet (Eq. 6–8). `r_dqm` is the raw Eq. 5 rate,
    /// `r_credit` the current dequeue rate.
    ///
    /// `dw` is clamped so the advertised rate stays within
    /// `[0.75, 1.05]·R_credit` (each bound rounded outward to a whole
    /// step) — anti-windup: with a ~RTT_C control delay, letting the
    /// integral run to the rate floor produces multi-millisecond
    /// starvation/overshoot limit cycles instead of the paper's smooth
    /// drain-to-target behaviour. The band is asymmetric because
    /// overshoot integrates into the DCI queue for a full RTT_C before
    /// the loop can react (+5% bounds the rebuild to
    /// ~0.05·R_credit·RTT_C of queue), while draining an accumulated
    /// backlog benefits from the larger −25% authority.
    pub fn on_packet(&mut self, r_dqm: f64, r_credit: f64) {
        let ratio = if r_credit > 0.0 {
            (ALPHA * r_dqm / r_credit).min(1.0)
        } else {
            1.0
        };
        self.token += ratio;
        if self.token >= 1.0 {
            self.token -= 1.0;
            self.dw += 1;
        } else {
            self.dw -= 1;
        }
        let lo = ((0.25 * r_credit / self.step_bps).ceil() as i64).max(1);
        let hi = ((0.05 * r_credit / self.step_bps).ceil() as i64).max(1);
        self.dw = self.dw.clamp(-lo, hi);
    }

    /// Eq. 9: the smoothed advertised rate.
    pub fn smoothed_bps(&self, r_credit: f64) -> f64 {
        (r_credit + self.dw as f64 * self.step_bps).max(0.0)
    }

    #[inline]
    pub fn dw(&self) -> i64 {
        self.dw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::MS;

    fn smoother() -> TokenSmoother {
        TokenSmoother::new(1048, 6 * MS)
    }

    #[test]
    fn equilibrium_when_rates_match() {
        let mut s = smoother();
        for _ in 0..1000 {
            s.on_packet(10e9, 10e9);
        }
        // dw oscillates around zero: net drift stays within a couple of
        // steps over 1000 packets.
        assert!(s.dw().abs() <= 2, "dw = {}", s.dw());
    }

    #[test]
    fn dqm_above_credit_raises_dw() {
        let mut s = smoother();
        for _ in 0..100 {
            s.on_packet(25e9, 10e9); // ratio capped at 1 → +1 per packet
        }
        assert_eq!(s.dw(), 100);
        assert!(s.smoothed_bps(10e9) > 10e9);
    }

    #[test]
    fn dqm_below_credit_lowers_dw() {
        let mut s = smoother();
        for _ in 0..100 {
            s.on_packet(2e9, 10e9); // ratio 0.1 → mostly -1
        }
        assert!(s.dw() < -60, "dw = {}", s.dw());
        assert!(s.smoothed_bps(10e9) < 10e9);
    }

    #[test]
    fn dw_is_bounded() {
        let r_credit = 10e9;
        let mut s = smoother();
        for _ in 0..10_000_000 / 100 {
            s.on_packet(0.0, r_credit);
        }
        let floor = s.dw();
        s.on_packet(0.0, r_credit);
        assert_eq!(s.dw(), floor, "dw must saturate at the limit");
        let low = s.smoothed_bps(r_credit);
        assert!(
            low <= 0.75 * r_credit && low > 0.75 * r_credit - s.step_bps,
            "floor {low}"
        );
        for _ in 0..10_000 {
            s.on_packet(25e9, r_credit);
        }
        let ceiling = s.dw();
        s.on_packet(25e9, r_credit);
        assert_eq!(s.dw(), ceiling, "dw must saturate at the limit");
        let high = s.smoothed_bps(r_credit);
        assert!(
            high >= 1.05 * r_credit && high < 1.05 * r_credit + s.step_bps,
            "ceiling {high}"
        );
    }

    #[test]
    fn step_granularity_matches_eq9() {
        let s = TokenSmoother::new(1048, 6 * MS);
        // One step = MTU / RTT_C = 1048·8 bits / 6 ms ≈ 1.397 Mbps.
        let one = s.step_bps;
        assert!((one - 1048.0 * 8.0 / 0.006).abs() < 1.0, "{one}");
    }

    #[test]
    fn adjustment_speed_scales_with_packet_rate() {
        // Twice the packets → twice the dw movement in the same period.
        let mut slow = smoother();
        let mut fast = smoother();
        for _ in 0..50 {
            slow.on_packet(25e9, 10e9);
        }
        for _ in 0..100 {
            fast.on_packet(25e9, 10e9);
        }
        assert_eq!(fast.dw(), 2 * slow.dw());
    }
}

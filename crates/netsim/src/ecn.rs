//! RED/ECN marking.
//!
//! Switches mark the ECN congestion-experienced bit probabilistically as a
//! function of the instantaneous egress queue length, exactly like the
//! RED-with-instantaneous-queue configuration ns-3's RDMA models use:
//! below `kmin` never mark, above `kmax` always mark, linear ramp to
//! `pmax` in between.

use crate::units::{Bandwidth, GBPS};

/// RED marking thresholds in bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EcnConfig {
    pub kmin_bytes: u64,
    pub kmax_bytes: u64,
    pub pmax: f64,
}

impl EcnConfig {
    /// Standard datacenter-switch marking profile for a given egress line
    /// rate, following the HPCC paper's DCQCN configuration (100 KB / 400
    /// KB / 0.2 at 25 Gbps), scaled linearly with rate.
    ///
    /// Thresholds are rounded (not truncated), and `kmax` is kept
    /// strictly above `kmin` so very low link rates can never produce a
    /// degenerate zero-width ramp.
    pub fn dc_switch(rate: Bandwidth) -> Self {
        let scale = rate as f64 / (25.0 * GBPS as f64);
        let kmin_bytes = (100_000.0 * scale).round() as u64;
        let kmax_bytes = ((400_000.0 * scale).round() as u64).max(kmin_bytes + 1);
        EcnConfig {
            kmin_bytes,
            kmax_bytes,
            pmax: 0.2,
        }
    }

    /// DCI-switch profile: a deep-buffer switch marks far later — the
    /// paper's motivation Experiment 3 relies on multi-megabyte DCI queues
    /// building before any signal fires.
    pub fn dci_switch() -> Self {
        EcnConfig {
            kmin_bytes: 1_000_000,
            kmax_bytes: 8_000_000,
            pmax: 0.2,
        }
    }

    /// Marking probability at queue length `qlen` bytes.
    pub fn mark_probability(&self, qlen: u64) -> f64 {
        if qlen < self.kmin_bytes {
            0.0
        } else if qlen >= self.kmax_bytes {
            1.0
        } else {
            // kmin ≤ qlen < kmax, so the span is positive.
            let span = (self.kmax_bytes - self.kmin_bytes) as f64;
            self.pmax * (qlen - self.kmin_bytes) as f64 / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_kmin_never_marks() {
        let c = EcnConfig::dc_switch(25 * GBPS);
        assert_eq!(c.mark_probability(0), 0.0);
        assert_eq!(c.mark_probability(c.kmin_bytes - 1), 0.0);
    }

    #[test]
    fn above_kmax_always_marks() {
        let c = EcnConfig::dc_switch(25 * GBPS);
        assert_eq!(c.mark_probability(c.kmax_bytes), 1.0);
        assert_eq!(c.mark_probability(u64::MAX), 1.0);
    }

    #[test]
    fn linear_ramp_midpoint() {
        let c = EcnConfig::dc_switch(25 * GBPS);
        let mid = (c.kmin_bytes + c.kmax_bytes) / 2;
        let p = c.mark_probability(mid);
        assert!((p - c.pmax / 2.0).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn scales_with_rate() {
        let c25 = EcnConfig::dc_switch(25 * GBPS);
        let c100 = EcnConfig::dc_switch(100 * GBPS);
        assert_eq!(c100.kmin_bytes, 4 * c25.kmin_bytes);
        assert_eq!(c100.kmax_bytes, 4 * c25.kmax_bytes);
    }

    #[test]
    fn dci_thresholds_are_megabytes() {
        let c = EcnConfig::dci_switch();
        assert!(c.kmin_bytes >= 1_000_000);
        assert!(c.kmax_bytes > c.kmin_bytes);
    }

    #[test]
    fn thresholds_round_not_truncate() {
        // 3 Gbps: scale = 0.12, kmin = 12 000, kmax = 48 000 exactly;
        // 1 Gbps: scale = 0.04 → 4 000 / 16 000. Pick a rate whose scale
        // is not exact in binary to catch truncation: 10 Gbps/3 ≈ 3.33G.
        let rate = 10 * GBPS / 3;
        let scale = rate as f64 / (25.0 * GBPS as f64);
        let c = EcnConfig::dc_switch(rate);
        assert_eq!(c.kmin_bytes, (100_000.0 * scale).round() as u64);
        assert_eq!(c.kmax_bytes, (400_000.0 * scale).round() as u64);
    }

    #[test]
    fn degenerate_low_rate_has_nonzero_span() {
        // At absurdly low rates rounding would collapse kmin == kmax;
        // the constructor must keep the ramp non-degenerate.
        for rate in [1, 10, 1000, 125_000] {
            let c = EcnConfig::dc_switch(rate);
            assert!(c.kmax_bytes > c.kmin_bytes, "rate {rate}: {c:?}");
            // And probabilities stay finite everywhere.
            for q in [0, c.kmin_bytes, c.kmax_bytes, c.kmax_bytes + 1] {
                let p = c.mark_probability(q);
                assert!(p.is_finite() && (0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn hand_built_equal_thresholds_step_not_nan() {
        let c = EcnConfig {
            kmin_bytes: 5_000,
            kmax_bytes: 5_000,
            pmax: 0.2,
        };
        assert_eq!(c.mark_probability(4_999), 0.0);
        let p = c.mark_probability(5_000);
        assert!(p.is_finite() && p == 1.0, "at kmax: always mark, p = {p}");
    }

    /// Seeded-loop property test: marking probability is monotone in
    /// queue length and bounded by [0, 1].
    #[test]
    fn probability_monotone_random_pairs() {
        use crate::rng::{SimRng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xEC4);
        let c = EcnConfig::dc_switch(25 * GBPS);
        for _ in 0..4_000 {
            let q1 = rng.gen_range(0..10_000_000);
            let q2 = rng.gen_range(0..10_000_000);
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let p_lo = c.mark_probability(lo);
            let p_hi = c.mark_probability(hi);
            assert!(p_lo <= p_hi + 1e-12, "q {lo}→{hi}: p {p_lo} > {p_hi}");
            assert!((0.0..=1.0).contains(&p_lo));
            assert!((0.0..=1.0).contains(&p_hi));
        }
    }
}

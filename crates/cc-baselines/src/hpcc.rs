//! HPCC (Li et al., SIGCOMM 2019) — INT-driven window-based congestion
//! control.
//!
//! Every ACK echoes the per-hop INT stack; the sender computes each hop's
//! utilization `U = qlen/(B·T) + txRate/B`, takes the bottleneck maximum,
//! and sets its window multiplicatively against the reference window plus
//! a small additive term (`W = Wc/(U/η) + W_AI`). The reference window is
//! advanced once per RTT; up to `max_stage` additive-only rounds are
//! allowed when under-utilized.

use netsim::cc::{clamp_rate, AckView, SenderCc};
use netsim::int::HopHistory;
use netsim::units::{bytes_in, Bandwidth, Time, SEC};

// Parameters: the paper's defaults.
/// Target utilization η.
const ETA: f64 = 0.95;
/// Additive-increase rounds allowed before a multiplicative pass.
const MAX_STAGE: u32 = 5;
/// Expected concurrent flows N in the paper's additive increase
/// `W_AI = Wmax·(1-η)/N`, computed from the line-rate BDP at
/// construction.
const WAI_FLOWS: u32 = 16;

/// HPCC sender state for one flow.
pub struct Hpcc {
    line_rate: f64,
    base_rtt: Time,
    /// Maximum window: one line-rate BDP.
    w_max: f64,
    /// Additive step in bytes.
    w_ai: f64,
    /// Reference window Wc.
    w_c: f64,
    /// Current window W.
    w: f64,
    inc_stage: u32,
    /// Sequence number after which the next reference update may happen.
    update_seq: u64,
    hops: HopHistory,
    /// Time of the last INT fold, to age out telemetry across dark
    /// periods (loss bursts, link flaps): per-hop deltas spanning a long
    /// gap mix pre-gap queue samples with post-gap counters.
    last_int: Option<Time>,
}

impl Hpcc {
    pub fn new(line_rate_bps: Bandwidth, base_rtt: Time) -> Self {
        let w_max = bytes_in(base_rtt, line_rate_bps) as f64;
        let w_ai = (w_max * (1.0 - ETA) / WAI_FLOWS as f64).max(1.0);
        Hpcc {
            line_rate: line_rate_bps as f64,
            base_rtt,
            w_max,
            w_ai,
            w_c: w_max,
            w: w_max,
            inc_stage: 0,
            update_seq: 0,
            hops: HopHistory::new(),
            last_int: None,
        }
    }

    #[inline]
    pub fn window(&self) -> f64 {
        self.w
    }
}

impl SenderCc for Hpcc {
    fn on_ack(&mut self, ack: &AckView<'_>) {
        // Age out telemetry across a dark period: re-prime instead of
        // differencing a record pair that straddles the gap.
        const STALE_RTT_MULTIPLE: u64 = 16;
        if self
            .last_int
            .is_some_and(|t| ack.now.saturating_sub(t) > STALE_RTT_MULTIPLE * self.base_rtt)
        {
            self.hops = HopHistory::new();
        }
        if !ack.int.is_empty() {
            self.last_int = Some(ack.now);
        }
        let Some(u) = self.hops.max_utilization(ack.int, self.base_rtt, |_| true) else {
            return;
        };
        if u >= ETA || self.inc_stage >= MAX_STAGE {
            self.w = self.w_c / (u / ETA) + self.w_ai;
        } else {
            self.w = self.w_c + self.w_ai;
        }
        self.w = self.w.clamp(self.w_ai.max(1.0), self.w_max);
        // Reference update once per RTT (window's worth of bytes acked).
        if ack.seq >= self.update_seq {
            self.w_c = self.w;
            self.inc_stage = if u >= ETA { 0 } else { self.inc_stage + 1 };
            self.update_seq = ack.seq + self.w as u64;
        }
    }

    fn rate_bps(&self) -> f64 {
        // Pace at W/T alongside the window cap.
        let t = self.base_rtt.max(1) as f64 / SEC as f64;
        clamp_rate(self.w * 8.0 / t, self.line_rate as u64)
    }

    fn window_bytes(&self) -> Option<u64> {
        Some(self.w as u64)
    }

    fn name(&self) -> &'static str {
        "hpcc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::int::{IntHop, IntStack};
    use netsim::units::{GBPS, US};

    const LINE: u64 = 25 * GBPS;
    const BASE: Time = 10 * US;

    fn hop(ts: Time, qlen: u64, tx: u64) -> IntHop {
        IntHop {
            hop_id: 1,
            ts,
            qlen_bytes: qlen,
            tx_bytes: tx,
            link_bps: LINE,
            is_dci: false,
        }
    }

    fn feed(h: &mut Hpcc, seq: u64, hopinfo: IntHop) {
        let mut int = IntStack::new();
        int.push(hopinfo);
        h.on_ack(&AckView {
            seq,
            ecn_echo: false,
            rtt_sample: Some(BASE),
            int: &int,
            r_dqm_bps: None,
            now: hopinfo.ts,
        });
    }

    #[test]
    fn starts_at_bdp_window() {
        let h = Hpcc::new(LINE, BASE);
        let bdp = bytes_in(BASE, LINE) as f64;
        assert_eq!(h.window(), bdp);
        assert!(h.window_bytes().is_some());
    }

    #[test]
    fn overload_shrinks_window() {
        let mut h = Hpcc::new(LINE, BASE);
        let w0 = h.window();
        // Hop at 2× line utilization: big standing queue + full rate.
        let bdp = bytes_in(BASE, LINE);
        feed(&mut h, 1000, hop(0, bdp, 0));
        feed(&mut h, 2000, hop(BASE, bdp, bytes_in(BASE, LINE)));
        assert!(h.window() < w0 * 0.6, "w {} vs {}", h.window(), w0);
    }

    #[test]
    fn underload_grows_additively() {
        let mut h = Hpcc::new(LINE, BASE);
        h.w_c = h.w_max / 4.0;
        h.w = h.w_c;
        h.update_seq = 0;
        // 10% utilization, no queue.
        let tenth = bytes_in(BASE, LINE) / 10;
        feed(&mut h, 1, hop(0, 0, 0));
        let w1 = h.window();
        feed(&mut h, 2, hop(BASE, 0, tenth));
        assert!(h.window() > 0.0);
        // Additive growth: exactly +W_AI from the reference.
        assert!((h.window() - (w1.max(h.w_c) + 0.0)).abs() <= h.w_max);
        let w2 = h.window();
        feed(&mut h, w2 as u64 * 2, hop(2 * BASE, 0, 2 * tenth));
        assert!(h.window() >= w2, "window must not shrink when idle");
    }

    #[test]
    fn utilization_one_is_stable() {
        // At exactly η utilization the window stays near the reference.
        let mut h = Hpcc::new(LINE, BASE);
        let per_rtt = (bytes_in(BASE, LINE) as f64 * ETA) as u64;
        let mut tx = 0;
        feed(&mut h, 1, hop(0, 0, tx));
        for i in 1..20u64 {
            tx += per_rtt;
            feed(&mut h, i * per_rtt, hop(i * BASE, 0, tx));
        }
        let w = h.window();
        let wmax = h.w_max;
        assert!(w > 0.8 * wmax && w <= wmax, "w {w} wmax {wmax}");
    }

    #[test]
    fn window_never_exceeds_bdp_or_underflows() {
        let mut h = Hpcc::new(LINE, BASE);
        let bdp = bytes_in(BASE, LINE);
        // Wild inputs.
        feed(&mut h, 1, hop(0, 0, 0));
        feed(&mut h, 2, hop(1, 100 * bdp, 0)); // zero-dt pair is skipped
        for i in 2..50u64 {
            feed(&mut h, i * 100, hop(i * BASE, 50 * bdp, i * bdp));
            assert!(h.window() <= bdp as f64);
            assert!(h.window() >= 1.0);
        }
    }

    #[test]
    fn stale_gap_reprimes_instead_of_differencing() {
        let mut h = Hpcc::new(LINE, BASE);
        let bdp = bytes_in(BASE, LINE);
        feed(&mut h, 1, hop(0, 0, 0));
        feed(&mut h, 1000, hop(BASE, 0, (bdp as f64 * 0.95) as u64));
        let before = h.window();
        // Dark for 100 RTTs, then a record showing a big queue. A naive
        // difference against the pre-gap record would crater the window;
        // the stale guard re-primes so this ACK is a no-op.
        let gap = BASE + 100 * BASE;
        feed(&mut h, 2000, hop(gap, 10 * bdp, bdp));
        assert_eq!(h.window(), before, "post-gap ACK only re-primes");
        // Fresh deltas after the re-prime act normally again.
        feed(&mut h, 3000, hop(gap + BASE, 10 * bdp, 2 * bdp));
        assert!(h.window() < before);
    }

    #[test]
    fn rate_tracks_window() {
        let mut h = Hpcc::new(LINE, BASE);
        let r0 = h.rate_bps();
        assert!((r0 - LINE as f64).abs() / (LINE as f64) < 0.01);
        let bdp = bytes_in(BASE, LINE);
        feed(&mut h, 1000, hop(0, bdp, 0));
        feed(&mut h, 2000, hop(BASE, bdp, bytes_in(BASE, LINE)));
        assert!(h.rate_bps() < r0);
    }
}

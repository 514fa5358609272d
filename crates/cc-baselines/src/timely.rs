//! TIMELY (Mittal et al., SIGCOMM 2015) — RTT-gradient congestion
//! control.
//!
//! The sender samples RTT from ACK timestamp echoes, smooths the RTT
//! *difference* with an EWMA, and reacts to the normalized gradient:
//! additive increase below `t_low`, multiplicative decrease above
//! `t_high`, gradient-proportional adjustment in between, with
//! hyperactive increase (HAI) after several consecutive negative
//! gradients.
//!
//! One adaptation for the cross-datacenter setting: thresholds apply to
//! the **queueing delay** (RTT minus the flow's propagation RTT) rather
//! than the raw RTT — with a 6 ms propagation RTT a raw `t_high` of
//! 500 µs would pin every cross-DC flow at the floor rate, which is not
//! the behaviour the paper reports for Timely.

use netsim::cc::{clamp_rate, AckView, SenderCc};
use netsim::units::{Time, MBPS, US};

// Parameters: the ns-3 defaults.
/// EWMA weight for the RTT difference.
const EWMA_ALPHA: f64 = 0.875;
/// Multiplicative decrease factor.
const BETA: f64 = 0.8;
/// Additive increase step, bits/s.
const ADD_STEP: f64 = 40.0 * MBPS as f64;
/// Queueing delay below which we always increase.
const T_LOW: Time = 50 * US;
/// Queueing delay above which we always decrease.
const T_HIGH: Time = 500 * US;
/// Consecutive negative gradients before hyperactive increase.
const HAI_THRESHOLD: u32 = 5;
/// Minimum bytes acked between rate updates (completion-event
/// granularity, per the paper's 16–64 KB segments).
const UPDATE_BYTES: u64 = 16_000;

/// TIMELY sender state for one flow.
pub struct Timely {
    line_rate: f64,
    base_rtt: Time,
    rate: f64,
    prev_rtt: Option<Time>,
    rtt_diff: f64,
    neg_gradient_streak: u32,
    bytes_since_update: u64,
    last_acked: u64,
}

impl Timely {
    pub fn new(line_rate_bps: u64, base_rtt: Time) -> Self {
        Timely {
            line_rate: line_rate_bps as f64,
            base_rtt,
            rate: line_rate_bps as f64,
            prev_rtt: None,
            rtt_diff: 0.0,
            neg_gradient_streak: 0,
            bytes_since_update: 0,
            last_acked: 0,
        }
    }

    fn update(&mut self, rtt: Time) {
        let Some(prev) = self.prev_rtt else {
            self.prev_rtt = Some(rtt);
            return;
        };
        self.prev_rtt = Some(rtt);
        let new_diff = rtt as f64 - prev as f64;
        self.rtt_diff = (1.0 - EWMA_ALPHA) * self.rtt_diff + EWMA_ALPHA * new_diff;
        // Normalize the gradient over at least t_low: TIMELY was designed
        // for RTTs of tens to hundreds of µs, and dividing by a ~5 µs
        // intra-rack propagation RTT makes every queue wiggle look like a
        // cliff.
        let min_rtt = self.base_rtt.max(T_LOW).max(1) as f64;
        let gradient = self.rtt_diff / min_rtt;
        let queue_delay = rtt.saturating_sub(self.base_rtt);

        if queue_delay < T_LOW {
            self.neg_gradient_streak = 0;
            self.rate += ADD_STEP;
        } else if queue_delay > T_HIGH {
            self.neg_gradient_streak = 0;
            let ratio = T_HIGH as f64 / queue_delay as f64;
            self.rate *= 1.0 - BETA * (1.0 - ratio);
        } else if gradient <= 0.0 {
            self.neg_gradient_streak += 1;
            let n = if self.neg_gradient_streak >= HAI_THRESHOLD {
                5.0
            } else {
                1.0
            };
            self.rate += n * ADD_STEP;
        } else {
            self.neg_gradient_streak = 0;
            self.rate *= 1.0 - BETA * gradient.min(1.0);
        }
        self.rate = clamp_rate(self.rate, self.line_rate as u64);
    }
}

impl SenderCc for Timely {
    fn on_ack(&mut self, ack: &AckView<'_>) {
        let newly = ack.seq.saturating_sub(self.last_acked);
        self.last_acked = self.last_acked.max(ack.seq);
        self.bytes_since_update += newly;
        // Inverted samples arrive as None and are skipped outright —
        // a clamped zero would read as a perfect RTT and spike the rate.
        let Some(rtt) = ack.rtt_sample else {
            return;
        };
        if self.bytes_since_update >= UPDATE_BYTES || self.prev_rtt.is_none() {
            self.bytes_since_update = 0;
            self.update(rtt);
        }
    }

    fn rate_bps(&self) -> f64 {
        self.rate
    }

    fn name(&self) -> &'static str {
        "timely"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::int::IntStack;
    use netsim::units::GBPS;

    const LINE: u64 = 25 * GBPS;
    const BASE: Time = 10 * US;

    fn ack_with(seq: u64, rtt: Time) -> (u64, Time) {
        (seq, rtt)
    }

    fn feed(t: &mut Timely, seq: u64, rtt: Time) {
        let int = IntStack::new();
        t.on_ack(&AckView {
            seq,
            ecn_echo: false,
            rtt_sample: Some(rtt),
            int: &int,
            r_dqm_bps: None,
            now: 0,
        });
    }

    #[test]
    fn low_delay_increases_rate() {
        let mut t = Timely::new(LINE, BASE);
        // Drop to mid rate first so increases are visible.
        t.rate = 10e9;
        let mut seq = 0;
        for _ in 0..10 {
            seq += 20_000;
            feed(&mut t, seq, BASE + 5 * US); // queue delay 5 µs < t_low
        }
        assert!(t.rate_bps() > 10e9, "rate {}", t.rate_bps());
    }

    #[test]
    fn high_delay_decreases_rate() {
        let mut t = Timely::new(LINE, BASE);
        let mut seq = 0;
        for _ in 0..10 {
            seq += 20_000;
            feed(&mut t, seq, BASE + 2_000 * US); // 2 ms queueing
        }
        assert!(t.rate_bps() < 0.5 * LINE as f64, "rate {}", t.rate_bps());
    }

    #[test]
    fn gradient_band_tracks_direction() {
        let mut t = Timely::new(LINE, BASE);
        t.rate = 10e9;
        // Rising RTT inside the band → positive gradient → decrease.
        let (s1, r1) = ack_with(20_000, BASE + 100 * US);
        feed(&mut t, s1, r1);
        let mut seq = s1;
        for i in 1..8 {
            seq += 20_000;
            feed(&mut t, seq, BASE + (100 + 40 * i) * US);
        }
        assert!(t.rate_bps() < 10e9, "rising RTT must slow down");
        let after_decrease = t.rate_bps();
        // Falling RTT inside the band → negative gradient → increase.
        for i in 0..8u64 {
            seq += 20_000;
            feed(&mut t, seq, BASE + (380 - 30 * i) * US);
        }
        assert!(t.rate_bps() > after_decrease, "falling RTT must speed up");
    }

    #[test]
    fn hai_kicks_in_after_streak() {
        let mut t = Timely::new(LINE, BASE);
        t.rate = 1e9;
        let mut seq = 0;
        // Constant in-band RTT: gradient → 0 (EWMA decays), so streak
        // builds and HAI multiplies the additive step.
        let mut increments = Vec::new();
        let mut prev_rate = t.rate;
        for _ in 0..12 {
            seq += 20_000;
            feed(&mut t, seq, BASE + 100 * US);
            increments.push(t.rate_bps() - prev_rate);
            prev_rate = t.rate_bps();
        }
        let early: f64 = increments[1..3].iter().sum::<f64>() / 2.0;
        let late: f64 = increments[9..].iter().sum::<f64>() / 3.0;
        assert!(late > 2.0 * early, "HAI: early {early}, late {late}");
    }

    #[test]
    fn updates_gated_by_bytes() {
        let mut t = Timely::new(LINE, BASE);
        t.rate = 1e9;
        // Tiny ACK increments below the 16 KB gate: only the first
        // (priming) sample runs, so the rate stays put.
        feed(&mut t, 1_000, BASE);
        let r0 = t.rate_bps();
        feed(&mut t, 2_000, BASE);
        feed(&mut t, 3_000, BASE);
        assert_eq!(t.rate_bps(), r0);
        // Crossing the gate triggers an update.
        feed(&mut t, 40_000, BASE + 1 * US);
        assert!(t.rate_bps() > r0);
    }

    #[test]
    fn cross_dc_flow_is_not_starved_by_raw_rtt() {
        // A 6 ms base-RTT flow with small queueing delay must be able to
        // increase — the queue-delay adaptation at work.
        let base = 6_000 * US;
        let mut t = Timely::new(LINE, base);
        t.rate = 1e9;
        let mut seq = 0;
        for _ in 0..5 {
            seq += 20_000;
            feed(&mut t, seq, base + 10 * US);
        }
        assert!(t.rate_bps() > 1e9);
    }
}

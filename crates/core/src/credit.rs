//! Algorithm 1 — the credit-driven receiver loop.
//!
//! The receiver holds a credit counter `C_R` per flow. ACKs carry `C_R`
//! to the receiver-side DCI switch, which records it as the PFQ's `C_D`
//! and stamps `C_D` into subsequent data packets. When a data packet
//! returns the receiver's own credit (`C_D == C_R`), one receiver-side
//! datacenter round-trip has elapsed: the receiver advances the credit,
//! refreshes the congestion parameters, and computes a new dequeue rate
//! `R_credit` for the DCI's per-flow queue from the intra-DC INT records.

use netsim::int::IntStack;
use netsim::units::Time;

use crate::rate_ctl::{HopFilter, IntRateController};

/// Factor by which `R_credit` may exceed the flow's measured arrival
/// rate. Utilization-only MIMD drifts to the cap whenever the sender is
/// throttled below the fair share (the receiver DC looks idle), and one
/// cross-DC RTT later the released senders overrun the fabric; pacing
/// the credit rate against actual arrivals bounds that overshoot while
/// still allowing exponential ramp-up (×1.2 per receiver-side round).
const ARRIVAL_HEADROOM: f64 = 1.2;

/// Per-flow credit state at the receiver.
pub struct CreditLoop {
    /// The receiver's credit counter C_R.
    c_r: u32,
    ctl: IntRateController,
    /// Bottleneck utilization accumulated since the last round.
    u_round: Option<f64>,
    /// Completed rounds (diagnostics).
    pub rounds: u64,
    r_credit: f64,
    /// Wire bytes received since the last completed round.
    bytes_in_round: u64,
    /// Completion time of the previous round.
    last_round_at: Option<Time>,
}

/// Result of a completed credit round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CreditRound {
    /// The new credit counter to send in the ACK.
    pub c_r: u32,
    /// The new dequeue rate for the PFQ, bits/s.
    pub r_credit_bps: f64,
}

impl CreditLoop {
    /// `cap_bps` bounds `R_credit` (the receiver's access rate);
    /// `dst_dc_rtt` is the receiver-side datacenter loop RTT.
    pub fn new(cap_bps: u64, dst_dc_rtt: Time) -> Self {
        CreditLoop {
            c_r: 0,
            ctl: IntRateController::new(cap_bps, dst_dc_rtt, HopFilter::ExcludeDci),
            u_round: None,
            rounds: 0,
            r_credit: cap_bps as f64,
            bytes_in_round: 0,
            last_round_at: None,
        }
    }

    /// Current credit counter.
    #[inline]
    pub fn c_r(&self) -> u32 {
        self.c_r
    }

    /// Latest dequeue rate.
    #[inline]
    pub fn r_credit_bps(&self) -> f64 {
        self.r_credit
    }

    /// Process one data packet: fold its INT into the utilization
    /// accumulator and, if the packet closes the credit round
    /// (`C_D == C_R`), advance the credit and recompute `R_credit`.
    ///
    /// `wire_bytes` is the packet's wire size, used to measure the
    /// flow's arrival rate per round.
    pub fn on_data(
        &mut self,
        int: &IntStack,
        c_d: Option<u32>,
        wire_bytes: u32,
        now: Time,
    ) -> Option<CreditRound> {
        self.bytes_in_round += wire_bytes as u64;
        if let Some(u) = self.ctl.observe(int) {
            self.u_round = Some(self.u_round.map_or(u, |m: f64| m.max(u)));
        }
        if c_d != Some(self.c_r) {
            return None;
        }
        // Round complete (Algorithm 1 lines 9-13).
        self.c_r = self.c_r.wrapping_add(1);
        self.rounds += 1;
        let mut rate = if let Some(u) = self.u_round.take() {
            self.ctl.apply(u, now)
        } else {
            // No measurable INT delta this round (e.g. the very first
            // packets): keep the controller's current rate.
            self.ctl.rate_bps()
        };
        // Arrival pacing (see ARRIVAL_HEADROOM).
        if let Some(prev) = self.last_round_at {
            if now > prev {
                let arrival = netsim::units::rate_bps(self.bytes_in_round, now - prev);
                rate = rate.min((arrival * ARRIVAL_HEADROOM).max(netsim::cc::MIN_SEND_RATE_BPS));
            }
        }
        self.last_round_at = Some(now);
        self.bytes_in_round = 0;
        // Half-weight EWMA: the dequeue rate a deep-buffer switch applies
        // should not chase single-round measurement noise.
        self.r_credit = 0.5 * self.r_credit + 0.5 * rate;
        Some(CreditRound {
            c_r: self.c_r,
            r_credit_bps: self.r_credit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::int::IntHop;
    use netsim::units::{bytes_in, GBPS, US};

    const CAP: u64 = 25 * GBPS;
    const T: Time = 20 * US;
    /// Wire bytes representing a full-rate round (arrival pacing sees
    /// line-rate arrivals).
    const FULL: u32 = 62_500;

    fn stack(ts: Time, qlen: u64, tx: u64, dci_q: u64) -> IntStack {
        let mut s = IntStack::new();
        s.push(IntHop {
            hop_id: 99,
            ts,
            qlen_bytes: dci_q,
            tx_bytes: 0,
            link_bps: 100 * GBPS,
            is_dci: true,
        });
        s.push(IntHop {
            hop_id: 1,
            ts,
            qlen_bytes: qlen,
            tx_bytes: tx,
            link_bps: CAP,
            is_dci: false,
        });
        s
    }

    #[test]
    fn first_matching_credit_completes_round_zero() {
        let mut c = CreditLoop::new(CAP, T);
        // C_D defaults to 0 at the DCI; the receiver's C_R starts at 0,
        // so the very first stamped packet closes round 0.
        let out = c.on_data(&stack(0, 0, 0, 0), Some(0), FULL, 0).unwrap();
        assert_eq!(out.c_r, 1);
        assert_eq!(c.rounds, 1);
    }

    #[test]
    fn mismatched_credit_does_not_advance() {
        let mut c = CreditLoop::new(CAP, T);
        assert!(c.on_data(&stack(0, 0, 0, 0), Some(5), FULL, 0).is_none());
        assert!(c.on_data(&stack(T, 0, 0, 0), None, FULL, T).is_none());
        assert_eq!(c.c_r(), 0);
        assert_eq!(c.rounds, 0);
    }

    #[test]
    fn rate_reacts_to_intra_dc_congestion_once_per_round() {
        let mut c = CreditLoop::new(CAP, T);
        // Round 0 primes the hop history.
        c.on_data(&stack(0, 0, 0, 0), Some(0), FULL, 0);
        // Packets within round 1 observe 2× overload but C_D lags at 0.
        let over = bytes_in(T, CAP);
        c.on_data(&stack(T, over, over, 0), Some(0), FULL, T);
        let before = c.r_credit_bps();
        assert_eq!(before, CAP as f64, "no update mid-round");
        // Credit echoes arrive round after round under sustained 2×
        // overload: the clamped, EWMA-smoothed rate compounds downward.
        let mut cr = 1;
        let mut rate = before;
        for i in 2..14u64 {
            if let Some(out) = c.on_data(&stack(i * T, over, i * over, 0), Some(cr), FULL, i * T) {
                cr = out.c_r;
                assert!(out.r_credit_bps <= rate + 1.0, "monotone under overload");
                rate = out.r_credit_bps;
            }
        }
        assert!(rate < 0.7 * CAP as f64, "rate {rate}");
    }

    #[test]
    fn dci_queue_does_not_affect_credit_rate() {
        let mut c = CreditLoop::new(CAP, T);
        c.on_data(&stack(0, 0, 0, 0), Some(0), FULL, 0);
        // Intra-DC hop is idle; the DCI per-flow queue is huge.
        let giant = 100 * bytes_in(T, CAP);
        let out = c
            .on_data(&stack(T, 0, bytes_in(T, CAP) / 20, giant), Some(1), FULL, T)
            .unwrap();
        assert!(
            out.r_credit_bps >= 0.9 * CAP as f64,
            "credit loop must ignore the DCI queue (DQM handles it): {}",
            out.r_credit_bps
        );
    }

    #[test]
    fn credit_counter_wraps_safely() {
        let mut c = CreditLoop::new(CAP, T);
        c.c_r = u32::MAX;
        let out = c
            .on_data(&stack(0, 0, 0, 0), Some(u32::MAX), FULL, 0)
            .unwrap();
        assert_eq!(out.c_r, 0);
    }
}

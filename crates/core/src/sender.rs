//! The MLCC sender.
//!
//! Cross-DC flows combine two rate signals (Eq. 10):
//! `R_MLCC = min(R_NS, R̄_DQM)` — the near-source rate computed from
//! Switch-INT feedback (sender-side micro loop) and the smoothed DQM rate
//! carried back in ACKs (long-term end-to-end loop). [`NearSourceSender`]
//! runs the first loop and [`DqmGoverned`] applies the ceiling, the same
//! one it puts on a legacy algorithm's rate in the hybrid.
//!
//! Intra-DC flows have no DCI on their path; they run the same INT rate
//! controller end-to-end over the ACK-echoed stack, which is already a
//! short loop.

use netsim::cc::{AckView, SenderCc};
use netsim::int::IntStack;
use netsim::units::Time;

use crate::hybrid::DqmGoverned;
use crate::rate_ctl::{HopFilter, IntRateController};

/// MLCC sender state for one flow: the near-source loop under the
/// `R̄_DQM` ceiling.
pub type MlccSender = DqmGoverned<NearSourceSender>;

/// The near-source half of the MLCC sender: `R_NS` alone.
pub struct NearSourceSender {
    cross_dc: bool,
    /// Near-source controller (cross-DC: Switch-INT; intra-DC: ACK INT).
    ns: IntRateController,
}

impl NearSourceSender {
    pub fn new(line_rate_bps: u64, loop_rtt: Time, cross_dc: bool) -> Self {
        NearSourceSender {
            cross_dc,
            ns: IntRateController::new(line_rate_bps, loop_rtt, HopFilter::All),
        }
    }
}

impl SenderCc for NearSourceSender {
    fn on_ack(&mut self, ack: &AckView<'_>) {
        if self.cross_dc {
            // The near-source loop is fed by Switch-INT; if that feed
            // has gone dark (loss burst or flap ate the control packets)
            // while ACKs still show forward progress, probe upward
            // additively instead of staying pinned at the last — now
            // meaningless — MIMD output.
            if self.ns.telemetry_stale(ack.now) {
                self.ns.ai_probe(ack.now);
            }
        } else if !ack.int.is_empty() {
            self.ns.on_int(ack.int, ack.now);
        } else if self.ns.telemetry_stale(ack.now) {
            self.ns.ai_probe(ack.now);
        }
    }

    fn on_switch_int(&mut self, int: &IntStack, now: Time) {
        self.ns.on_int(int, now);
    }

    fn rate_bps(&self) -> f64 {
        self.ns.rate_bps()
    }

    fn name(&self) -> &'static str {
        "mlcc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::int::IntHop;
    use netsim::units::{bytes_in, GBPS, MS, US};

    const LINE: u64 = 25 * GBPS;

    fn stack(ts: Time, qlen: u64, tx: u64) -> IntStack {
        let mut s = IntStack::new();
        s.push(IntHop {
            hop_id: 3,
            ts,
            qlen_bytes: qlen,
            tx_bytes: tx,
            link_bps: LINE,
            is_dci: false,
        });
        s
    }

    fn sender(loop_rtt: Time, cross_dc: bool) -> MlccSender {
        DqmGoverned::new(
            NearSourceSender::new(LINE, loop_rtt, cross_dc),
            LINE,
            cross_dc,
        )
    }

    fn ack(seq: u64, r_dqm: Option<u64>, int: &IntStack, now: Time) -> AckView<'_> {
        AckView {
            seq,
            ecn_echo: false,
            rtt_sample: Some(10 * US),
            int,
            r_dqm_bps: r_dqm,
            now,
        }
    }

    #[test]
    fn cross_flow_takes_min_of_loops() {
        let mut s = sender(20 * US, true);
        assert_eq!(s.rate_bps(), LINE as f64);
        // DQM derates to 5 Gbps via ACK.
        let empty = IntStack::new();
        s.on_ack(&ack(1000, Some(5_000_000_000), &empty, 1 * MS));
        assert_eq!(s.rate_bps(), 5e9);
        // Near-source congestion pushes R_NS below R̄_DQM (sustained
        // queue across samples; the per-round MD clamp compounds).
        let t = 20 * US;
        let q = 10 * bytes_in(t, LINE);
        s.on_switch_int(&stack(0, q, 0), 0);
        for i in 1..=10u64 {
            s.on_switch_int(&stack(i * t, q, i * bytes_in(t, LINE)), i * t);
        }
        let r_ns = s.inner().rate_bps();
        assert!(r_ns < 0.6 * LINE as f64, "{r_ns}");
        assert_eq!(s.rate_bps(), r_ns.min(s.ceiling_bps()));
    }

    #[test]
    fn cross_flow_ignores_ack_int() {
        // Cross-DC flows get their near-source signal from Switch-INT;
        // the receiver-side INT echoed in ACKs must not drive R_NS.
        let mut s = sender(20 * US, true);
        let t = 20 * US;
        let congested = stack(t, 100 * bytes_in(t, LINE), bytes_in(t, LINE));
        s.on_ack(&ack(1, None, &stack(0, 0, 0), 0));
        s.on_ack(&ack(2, None, &congested, t));
        assert_eq!(s.inner().rate_bps(), LINE as f64);
    }

    #[test]
    fn intra_flow_uses_ack_int_end_to_end() {
        let mut s = sender(8 * US, false);
        let t = 8 * US;
        let q = 10 * bytes_in(t, LINE);
        s.on_ack(&ack(1, None, &stack(0, q, 0), 0));
        for i in 1..=10u64 {
            s.on_ack(&ack(
                1 + i,
                None,
                &stack(i * t, q, i * bytes_in(t, LINE)),
                i * t,
            ));
        }
        assert!(s.rate_bps() < 0.6 * LINE as f64, "{}", s.rate_bps());
    }

    #[test]
    fn stale_switch_int_falls_back_to_additive_increase() {
        use crate::rate_ctl::STALE_RTT_MULTIPLE;
        let t = 20 * US;
        let mut s = sender(t, true);
        // Congest the near-source loop so R_NS sits well below line rate.
        let q = 10 * bytes_in(t, LINE);
        s.on_switch_int(&stack(0, q, 0), 0);
        for i in 1..=10u64 {
            s.on_switch_int(&stack(i * t, q, i * bytes_in(t, LINE)), i * t);
        }
        let depressed = s.inner().rate_bps();
        assert!(depressed < 0.6 * LINE as f64);
        // Switch-INT goes dark (flap), but ACKs keep arriving: R_NS must
        // climb back instead of staying pinned at the stale output.
        let empty = IntStack::new();
        let dark_from = 10 * t + (STALE_RTT_MULTIPLE + 1) * t;
        let mut last = depressed;
        for k in 0..200u64 {
            s.on_ack(&ack(100 + k, None, &empty, dark_from + k * t));
            let r_ns = s.inner().rate_bps();
            assert!(r_ns >= last, "AI fallback never decreases");
            last = r_ns;
        }
        assert!(last > depressed, "stale NS loop must probe upward");
    }

    #[test]
    fn dqm_recovery_restores_rate() {
        let mut s = sender(20 * US, true);
        let empty = IntStack::new();
        s.on_ack(&ack(1, Some(2_000_000_000), &empty, 0));
        assert_eq!(s.rate_bps(), 2e9);
        s.on_ack(&ack(2, Some(20_000_000_000), &empty, 1 * MS));
        assert_eq!(s.rate_bps(), 20e9);
    }
}

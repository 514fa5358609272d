//! Algorithm 2 — DCI-switch Queue Management (DQM).
//!
//! Once per receiver-side round (RTT_D) the receiver predicts the DCI
//! per-flow queue one cross-DC RTT ahead and derates the end-to-end
//! sender so the queueing delay converges to the target `D_t` within the
//! budget `θ`:
//!
//! * Eq. 1: `n = RTT_C / RTT_D` — rounds per cross-DC RTT;
//! * Eq. 2: `R_pre_eq` — the mean of the last `n` advertised `R_DQM`
//!   values predicts the enqueue rate of the next RTT_C (rates advertised
//!   now arrive as traffic one RTT_C later);
//! * Eq. 3: `Q_pre = (R_pre_eq − R_credit)·RTT_C + Q_c`;
//! * Eq. 4: `D_pre = Q_pre / avg_m(R_credit)`;
//! * Eq. 5: `R_DQM = R_credit·(1 − (D_pre − D_t)/θ)`;
//! * Eq. 6–9: token-bucket smoothing (see [`crate::token`]).

use std::collections::VecDeque;

use netsim::cc::MIN_SEND_RATE_BPS;
use netsim::units::{Time, SEC};

use crate::params::MlccParams;
use crate::token::TokenSmoother;

/// m — number of recent R_credit samples averaged when predicting the
/// queueing delay (Eq. 4). Paper default 5.
pub(crate) const M: usize = 5;

/// Per-flow DQM state at the receiver.
pub struct Dqm {
    /// θ and D_t (Eq. 5).
    p: MlccParams,
    rtt_c: Time,
    /// Eq. 1: rounds per cross-DC RTT.
    n: usize,
    cap_bps: f64,
    /// Ring of the last `n` raw R_DQM values (Eq. 2).
    r_dqm_hist: VecDeque<f64>,
    /// Ring of the last `m` R_credit values (Eq. 4).
    r_credit_hist: VecDeque<f64>,
    /// Latest raw R_DQM (Eq. 5).
    r_dqm: f64,
    smoother: TokenSmoother,
    /// Latest Q_c observed from the DCI INT record.
    q_c_bytes: u64,
    /// Diagnostics.
    pub last_d_pre_secs: f64,
}

impl Dqm {
    pub fn new(p: MlccParams, rtt_c: Time, rtt_d: Time, mtu_wire_bytes: u32, cap_bps: u64) -> Self {
        let n = ((rtt_c / rtt_d.max(1)).max(1)) as usize;
        Dqm {
            p,
            rtt_c,
            n,
            cap_bps: cap_bps as f64,
            r_dqm_hist: VecDeque::with_capacity(n),
            r_credit_hist: VecDeque::with_capacity(M),
            r_dqm: cap_bps as f64,
            smoother: TokenSmoother::new(mtu_wire_bytes, rtt_c),
            q_c_bytes: 0,
            last_d_pre_secs: 0.0,
        }
    }

    /// Eq. 1 ratio.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Record the DCI per-flow queue length from a data packet's INT.
    pub fn observe_queue(&mut self, q_c_bytes: u64) {
        self.q_c_bytes = q_c_bytes;
    }

    /// One credit round completed with dequeue rate `r_credit` (Eq. 2–5).
    /// Returns the raw `R_DQM`.
    pub fn on_round(&mut self, r_credit: f64) -> f64 {
        push_bounded(&mut self.r_credit_hist, r_credit, M);

        // Eq. 2: predicted average enqueue rate over the next RTT_C.
        let r_pre_eq = if self.r_dqm_hist.is_empty() {
            r_credit
        } else {
            self.r_dqm_hist.iter().sum::<f64>() / self.r_dqm_hist.len() as f64
        };

        // Eq. 3: predicted queue in bytes.
        let rtt_c_secs = self.rtt_c as f64 / SEC as f64;
        let q_pre = ((r_pre_eq - r_credit) * rtt_c_secs / 8.0 + self.q_c_bytes as f64).max(0.0);

        // Eq. 4: predicted queueing delay at the smoothed dequeue rate.
        let avg_credit = self.r_credit_hist.iter().sum::<f64>() / self.r_credit_hist.len() as f64;
        let d_pre = if avg_credit > 0.0 {
            q_pre * 8.0 / avg_credit
        } else {
            0.0
        };
        self.last_d_pre_secs = d_pre;

        // Eq. 5.
        let d_t = self.p.d_t as f64 / SEC as f64;
        let theta = self.p.theta as f64 / SEC as f64;
        let factor = 1.0 - (d_pre - d_t) / theta;
        self.r_dqm = (r_credit * factor).clamp(MIN_SEND_RATE_BPS, self.cap_bps);
        push_bounded(&mut self.r_dqm_hist, self.r_dqm, self.n);
        self.r_dqm
    }

    /// Per-packet smoothing step (Eq. 6–8); returns `R̄_DQM` (Eq. 9).
    pub fn on_packet(&mut self, r_credit: f64) -> f64 {
        self.smoother.on_packet(self.r_dqm, r_credit);
        self.smoother
            .smoothed_bps(r_credit)
            .clamp(MIN_SEND_RATE_BPS, self.cap_bps)
    }

    /// Latest raw R_DQM.
    #[inline]
    pub fn r_dqm_bps(&self) -> f64 {
        self.r_dqm
    }
}

fn push_bounded(q: &mut VecDeque<f64>, v: f64, cap: usize) {
    if q.len() == cap {
        q.pop_front();
    }
    q.push_back(v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::{GBPS, MS, US};

    const RTT_C: Time = 6 * MS;
    const RTT_D: Time = 25 * US;
    const CAP: u64 = 25 * GBPS;

    fn dqm() -> Dqm {
        Dqm::new(MlccParams::default(), RTT_C, RTT_D, 1048, CAP)
    }

    #[test]
    fn n_matches_eq1() {
        let d = dqm();
        assert_eq!(d.n(), 240); // 6 ms / 25 µs
    }

    #[test]
    fn empty_queue_below_target_allows_increase() {
        let mut d = dqm();
        d.observe_queue(0);
        let r = d.on_round(10e9);
        // D_pre = 0 < D_t → factor = 1 + D_t/θ > 1.
        assert!(r > 10e9, "r = {r}");
        let expect = 10e9 * (1.0 + 0.001 / 0.018);
        assert!((r - expect).abs() / expect < 1e-9, "r {r} expect {expect}");
    }

    #[test]
    fn big_queue_derates() {
        let mut d = dqm();
        // Queue worth 10 ms at the dequeue rate: D_pre = 10 ms.
        let r_credit = 10e9;
        let q = (r_credit * 0.010 / 8.0) as u64;
        d.observe_queue(q);
        let r = d.on_round(r_credit);
        // factor = 1 - (10ms - 1ms)/18ms = 0.5.
        assert!((r - 5e9).abs() / 5e9 < 0.01, "r = {r}");
        assert!((d.last_d_pre_secs - 0.010).abs() < 1e-4);
    }

    #[test]
    fn queue_at_target_is_neutral() {
        let mut d = dqm();
        let r_credit = 12.5e9;
        // Exactly D_t of queueing: 12.5 Gbps × 1 ms = 1.5625 MB — the
        // paper's Fig. 9b equilibrium (≈1.5 MB at the 12.5 Gbps fair
        // rate).
        let q = (r_credit * 0.001 / 8.0) as u64;
        d.observe_queue(q);
        let r = d.on_round(r_credit);
        assert!((r - r_credit).abs() / r_credit < 0.01, "r = {r}");
    }

    #[test]
    fn enqueue_prediction_uses_history() {
        let mut d = dqm();
        d.observe_queue(0);
        // Advertise a high R_DQM for a while…
        for _ in 0..10 {
            d.on_round(20e9);
        }
        // …then drop the dequeue rate: the predictor must see the old
        // high advertised rates still arriving and predict queue growth,
        // derating below the naive Eq. 5 value for an empty queue.
        let r = d.on_round(5e9);
        let naive_empty = 5e9 * (1.0 + 0.001 / 0.018);
        assert!(r < naive_empty, "r {r} naive {naive_empty}");
    }

    #[test]
    fn histories_are_bounded() {
        let mut d = dqm();
        for i in 0..2000 {
            d.observe_queue(i as u64);
            d.on_round(10e9);
        }
        assert!(d.r_dqm_hist.len() <= d.n());
        assert_eq!(d.r_credit_hist.len(), M);
    }

    #[test]
    fn smoothed_rate_moves_toward_raw() {
        let mut d = dqm();
        // Huge queue → raw R_DQM far below R_credit.
        let r_credit = 10e9;
        d.observe_queue((r_credit * 0.020 / 8.0) as u64);
        d.on_round(r_credit);
        assert!(d.r_dqm_bps() < r_credit);
        let mut last = f64::MAX;
        for _ in 0..200 {
            last = d.on_packet(r_credit);
        }
        assert!(last < r_credit, "smoothed {last} must drop below credit");
    }

    #[test]
    fn closed_loop_converges_to_target_delay() {
        // Toy plant: the DCI queue integrates (sender − dequeue); the
        // sender applies the smoothed advertisement after an RTT_C lag.
        // DQM must steer the queueing delay to D_t without collapsing
        // throughput.
        let mut d = dqm();
        let dequeue = 12.5e9; // fair dequeue rate (R_credit)
        let lag_rounds = (RTT_C / RTT_D) as usize; // sender reacts RTT_C late
        let mut q_bytes = 40.0e6; // start from a Fig. 9-sized backlog
        let mut pending: std::collections::VecDeque<f64> =
            std::collections::VecDeque::from(vec![25e9; lag_rounds]);
        let dt = RTT_D as f64 / 1e12;
        let mut sender = 25e9;
        let mut delays_ms = Vec::new();
        for round in 0..40_000usize {
            // Plant.
            let arrive = pending.pop_front().unwrap();
            q_bytes = (q_bytes + (arrive - dequeue) * dt / 8.0).max(0.0);
            // Controller: one credit round.
            d.observe_queue(q_bytes as u64);
            d.on_round(dequeue);
            // Packet-rate-proportional smoothing steps this round.
            let pkts = (sender * dt / (1048.0 * 8.0)).max(1.0) as usize;
            let mut adv = sender;
            for _ in 0..pkts {
                adv = d.on_packet(dequeue);
            }
            sender = adv;
            pending.push_back(sender);
            if round % 100 == 0 {
                delays_ms.push(q_bytes * 8.0 / dequeue * 1e3);
            }
        }
        // Tail: queueing delay settles near D_t = 1 ms (well inside
        // [0.2, 3] ms — neither drained to zero nor ballooning).
        let tail = &delays_ms[delays_ms.len() - 40..];
        let avg: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (0.2..=3.0).contains(&avg),
            "settled queueing delay {avg:.2} ms (target 1 ms)"
        );
        // And the sender is not starved.
        assert!(sender > 0.5 * dequeue, "sender {sender:.3e}");
    }

    #[test]
    fn rates_always_clamped() {
        let mut d = dqm();
        d.observe_queue(u64::MAX / 1024);
        let r = d.on_round(25e9);
        assert!(r >= MIN_SEND_RATE_BPS);
        d.observe_queue(0);
        for _ in 0..1000 {
            let r = d.on_round(30e9);
            assert!(r <= CAP as f64);
        }
    }
}

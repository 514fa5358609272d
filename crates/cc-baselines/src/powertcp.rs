//! PowerTCP (Addanki et al., NSDI 2022) — power-based (current × voltage)
//! window control from INT.
//!
//! For each hop the sender computes normalized power
//! `Γ = (λ · v) / (C · BDP)` where the *current* `λ = dq/dt·8 + txRate`
//! captures both queue growth and throughput, and the *voltage*
//! `v = q·8 + C·τ` is the queue plus one base-RTT BDP (in bits). The
//! bottleneck is the hop with maximum power. The window update smooths
//! `w ← γ(w_past/Γ + β) + (1-γ)w`, reacting to both the queue's level and
//! its derivative — PowerTCP's key advantage over HPCC on transients.

use netsim::cc::{clamp_rate, AckView, SenderCc};
use netsim::int::IntHop;
use netsim::units::{bytes_in, rate_bps, Bandwidth, Time, SEC};

// Parameters: the paper's defaults.
/// EWMA smoothing factor γ.
const GAMMA: f64 = 0.9;
/// Expected concurrent flows N setting the additive term
/// `β = Wmax·(1-η)/N` in bytes, like HPCC with η = 0.95, computed at
/// construction.
const BETA_FLOWS: u32 = 16;

/// PowerTCP sender state for one flow.
pub struct PowerTcp {
    line_rate: f64,
    base_rtt: Time,
    w_max: f64,
    beta: f64,
    w: f64,
    /// Previous INT record per hop id (only a handful of hops per path).
    prev: Vec<IntHop>,
}

impl PowerTcp {
    pub fn new(line_rate_bps: Bandwidth, base_rtt: Time) -> Self {
        let w_max = bytes_in(base_rtt, line_rate_bps) as f64;
        let beta = (w_max * 0.05 / BETA_FLOWS as f64).max(1.0);
        PowerTcp {
            line_rate: line_rate_bps as f64,
            base_rtt,
            w_max,
            beta,
            w: w_max,
            prev: Vec::new(),
        }
    }

    #[inline]
    pub fn window(&self) -> f64 {
        self.w
    }

    /// Normalized power of one hop given its previous record.
    fn hop_power(&self, prev: &IntHop, cur: &IntHop) -> Option<f64> {
        if cur.ts <= prev.ts || cur.hop_id != prev.hop_id {
            return None;
        }
        let dt = (cur.ts - prev.ts) as f64 / SEC as f64;
        let dq_bits = (cur.qlen_bytes as f64 - prev.qlen_bytes as f64) * 8.0;
        let tx = rate_bps(cur.tx_bytes.saturating_sub(prev.tx_bytes), cur.ts - prev.ts);
        let lambda = (dq_bits / dt + tx).max(0.0);
        let c = cur.link_bps as f64;
        let tau = self.base_rtt as f64 / SEC as f64;
        let v = cur.qlen_bytes as f64 * 8.0 + c * tau;
        let base = c * (c * tau);
        if base <= 0.0 {
            return None;
        }
        Some((lambda * v / base).max(1e-3))
    }
}

impl SenderCc for PowerTcp {
    fn on_ack(&mut self, ack: &AckView<'_>) {
        // Bottleneck = maximum normalized power across hops.
        let mut gamma_norm: Option<f64> = None;
        for hop in ack.int.hops() {
            match self.prev.iter().position(|p| p.hop_id == hop.hop_id) {
                Some(i) => {
                    let prev = self.prev[i];
                    if let Some(p) = self.hop_power(&prev, hop) {
                        gamma_norm = Some(gamma_norm.map_or(p, |g: f64| g.max(p)));
                    }
                    self.prev[i] = *hop;
                }
                None => self.prev.push(*hop),
            }
        }
        let Some(g) = gamma_norm else {
            return;
        };
        let target = self.w / g + self.beta;
        let mut w_new = GAMMA * target + (1.0 - GAMMA) * self.w;
        // Bound the per-ACK step: INT records are quantized at packet
        // granularity, so the instantaneous dq/dt term swings wildly at
        // small BDPs; an unbounded step lets single-sample noise crash
        // the window. ±1/3 per ACK still halves/doubles within ~3 ACKs.
        w_new = w_new.clamp(0.75 * self.w, 1.33 * self.w);
        self.w = w_new.clamp(1.0, self.w_max);
    }

    fn rate_bps(&self) -> f64 {
        let t = self.base_rtt.max(1) as f64 / SEC as f64;
        clamp_rate(self.w * 8.0 / t, self.line_rate as u64)
    }

    fn window_bytes(&self) -> Option<u64> {
        Some(self.w as u64)
    }

    fn name(&self) -> &'static str {
        "powertcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::int::IntStack;
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

    fn feed(p: &mut PowerTcp, hopinfo: IntHop) {
        let mut int = IntStack::new();
        int.push(hopinfo);
        p.on_ack(&AckView {
            seq: 0,
            ecn_echo: false,
            rtt_sample: Some(BASE),
            int: &int,
            r_dqm_bps: None,
            now: hopinfo.ts,
        });
    }

    #[test]
    fn equilibrium_at_line_rate_empty_queue() {
        // λ = C, v = BDP → Γ = 1 → window drifts to w + β (≈ stable).
        let mut p = PowerTcp::new(LINE, BASE);
        let w0 = p.window();
        let per = bytes_in(BASE, LINE);
        let mut tx = 0;
        feed(&mut p, hop(0, 0, tx));
        for i in 1..10u64 {
            tx += per;
            feed(&mut p, hop(i * BASE, 0, tx));
        }
        assert!(
            p.window() >= w0 * 0.95 && p.window() <= w0 + 1.0,
            "w {}",
            p.window()
        );
    }

    #[test]
    fn growing_queue_cuts_window_before_its_large() {
        // Queue growing fast but still small: the derivative term must
        // already push the window down (PowerTCP's selling point).
        let mut p = PowerTcp::new(LINE, BASE);
        let per = bytes_in(BASE, LINE);
        let w0 = p.window();
        feed(&mut p, hop(0, 0, 0));
        // In one RTT the queue grows by a full BDP while the hop also
        // transmits at line rate: λ = 2C, v slightly above BDP → Γ ≈ 2.
        // Each ACK step is bounded at -25%; two congested samples
        // compound.
        feed(&mut p, hop(BASE, per, per));
        feed(&mut p, hop(2 * BASE, 2 * per, 2 * per));
        assert!(p.window() < w0 * 0.7, "w {} vs {}", p.window(), w0);
    }

    #[test]
    fn standing_queue_also_cuts() {
        let mut p = PowerTcp::new(LINE, BASE);
        let per = bytes_in(BASE, LINE);
        let w0 = p.window();
        feed(&mut p, hop(0, 2 * per, 0));
        // Standing queue of 2 BDP at line rate: λ = C, v = 3·BDP → Γ = 3.
        feed(&mut p, hop(BASE, 2 * per, per));
        feed(&mut p, hop(2 * BASE, 2 * per, 2 * per));
        feed(&mut p, hop(3 * BASE, 2 * per, 3 * per));
        assert!(p.window() < w0 * 0.6, "w {}", p.window());
    }

    #[test]
    fn draining_queue_lets_window_recover() {
        let mut p = PowerTcp::new(LINE, BASE);
        let per = bytes_in(BASE, LINE);
        // Crash the window with a big queue first.
        feed(&mut p, hop(0, 4 * per, 0));
        feed(&mut p, hop(BASE, 4 * per, per));
        let w_low = p.window();
        // Queue draining to zero with low throughput: Γ < 1 → grow.
        feed(&mut p, hop(2 * BASE, per / 4, per + per / 8));
        feed(&mut p, hop(3 * BASE, 0, per + per / 4));
        assert!(p.window() > w_low, "w {} vs {}", p.window(), w_low);
    }

    #[test]
    fn window_bounded() {
        let mut p = PowerTcp::new(LINE, BASE);
        let bdp = bytes_in(BASE, LINE) as f64;
        feed(&mut p, hop(0, 0, 0));
        for i in 1..100u64 {
            // Alternate absurd overload and idle.
            let q = if i % 2 == 0 { 100 * bdp as u64 } else { 0 };
            feed(&mut p, hop(i * BASE, q, i * bdp as u64));
            assert!(p.window() >= 1.0 && p.window() <= bdp);
        }
    }
}

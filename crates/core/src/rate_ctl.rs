//! The INT-driven rate controller shared by MLCC's micro loops.
//!
//! Both the near-source loop (sender, fed by Switch-INT feedback) and the
//! credit loop (receiver, fed by data-packet INT) need the same engine: a
//! multiplicative-decrease / additive-increase rate update against the
//! bottleneck hop utilization, in the style of HPCC but over a **short**
//! loop — that is the paper's "micro congestion control loop".

use netsim::cc::MIN_SEND_RATE_BPS;
use netsim::int::{HopHistory, IntStack};
use netsim::units::Time;

/// Which hops a controller reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HopFilter {
    /// All hops in the stack.
    All,
    /// Only non-DCI hops (the credit loop: the DCI queue belongs to DQM).
    ExcludeDci,
}

/// Telemetry older than this many loop base RTTs is stale: the
/// controller stops trusting MIMD against it and its hop history is
/// discarded, because per-hop deltas spanning a dark period (loss burst,
/// link flap) mix pre-gap queue samples with post-gap counters and
/// produce garbage utilization estimates.
pub const STALE_RTT_MULTIPLE: u64 = 16;

/// η — target utilization of both micro loops, following HPCC.
const ETA: f64 = 0.95;
/// Additive-increase rounds allowed before a multiplicative pass.
const MAX_STAGE: u32 = 5;
/// Expected concurrent flows per bottleneck; sets the additive increase
/// that drives fair convergence (see `r_ai`).
const AI_FLOWS: u32 = 16;

/// Additive increase step `R_AI = cap·(1-η)/AI_FLOWS` for a controller
/// capped at `cap_bps`.
fn r_ai(cap_bps: u64) -> f64 {
    (cap_bps as f64 * (1.0 - ETA) / AI_FLOWS as f64).max(1.0)
}

/// MIMD rate controller over per-hop INT utilization.
pub struct IntRateController {
    r_ai: f64,
    /// Loop base RTT: normalizes queue terms and paces reference updates.
    t_base: Time,
    cap: f64,
    filter: HopFilter,
    hops: HopHistory,
    r_c: f64,
    r: f64,
    stage: u32,
    last_ref: Time,
    /// Time of the last INT fold, for staleness detection. `None` until
    /// the first stack arrives (startup is not "stale" — there is
    /// nothing to age out).
    last_int: Option<Time>,
}

impl IntRateController {
    pub fn new(cap_bps: u64, t_base: Time, filter: HopFilter) -> Self {
        IntRateController {
            r_ai: r_ai(cap_bps),
            t_base: t_base.max(1),
            cap: cap_bps as f64,
            filter,
            hops: HopHistory::new(),
            r_c: cap_bps as f64,
            r: cap_bps as f64,
            stage: 0,
            last_ref: 0,
            last_int: None,
        }
    }

    /// Current rate.
    #[inline]
    pub fn rate_bps(&self) -> f64 {
        self.r
    }

    /// Fold an INT stack into the hop history and return the bottleneck
    /// utilization, if it can be computed.
    ///
    /// The queue term is normalized over `4·t_base` rather than one loop
    /// RTT: a *rate* controller integrates its response, so the raw HPCC
    /// gain (one BDP of queue = full-scale U) on top of that integration
    /// is under-damped and makes the queue slosh; a window controller
    /// like HPCC tolerates it because the window bounds the queue
    /// directly.
    pub fn observe(&mut self, stack: &IntStack) -> Option<f64> {
        let filter = self.filter;
        self.hops
            .max_utilization(stack, 4 * self.t_base, |h| match filter {
                HopFilter::All => true,
                HopFilter::ExcludeDci => !h.is_dci,
            })
    }

    /// Apply a utilization sample to the rate.
    ///
    /// The multiplicative step is bounded to [0.9×, 1.1×] of the
    /// reference per update: the loop updates every `t_base` (tens of
    /// µs), so compounding still quarters or quadruples the rate within
    /// ~150 µs, while an unbounded `η/U` against a transient multi-BDP
    /// queue would crash the rate to the floor and induce
    /// starvation/overshoot limit cycles (a rate-based loop, unlike
    /// HPCC's window, cannot physically bound the queue it reacts to;
    /// and per-round tx-rate samples over ~10 packets are noisy).
    pub fn apply(&mut self, u: f64, now: Time) -> f64 {
        let u = u.max(1e-6);
        if u >= ETA || self.stage >= MAX_STAGE {
            let factor = (ETA / u).clamp(0.9, 1.1);
            self.r = self.r_c * factor + self.r_ai;
        } else {
            self.r = self.r_c + self.r_ai;
        }
        self.r = self.r.clamp(MIN_SEND_RATE_BPS, self.cap);
        // Reference update once per loop RTT.
        if now >= self.last_ref + self.t_base {
            self.r_c = self.r;
            self.stage = if u >= ETA { 0 } else { self.stage + 1 };
            self.last_ref = now;
        }
        self.r
    }

    /// True when the telemetry feed has gone dark for more than
    /// [`STALE_RTT_MULTIPLE`] loop RTTs since its last fold. Never true
    /// before the first fold.
    pub fn telemetry_stale(&self, now: Time) -> bool {
        self.last_int
            .is_some_and(|t| now.saturating_sub(t) > STALE_RTT_MULTIPLE * self.t_base)
    }

    /// Cautious additive-increase step for when the INT feed is stale:
    /// the caller still sees forward progress (ACKs arrive) but has no
    /// trustworthy utilization, so the rate probes upward by `r_ai` per
    /// loop RTT instead of staying pinned at the last MIMD output.
    pub fn ai_probe(&mut self, now: Time) -> f64 {
        self.r = (self.r_c + self.r_ai).clamp(MIN_SEND_RATE_BPS, self.cap);
        if now >= self.last_ref + self.t_base {
            self.r_c = self.r;
            self.last_ref = now;
        }
        self.r
    }

    /// Observe and apply in one step (the near-source loop reacts to each
    /// Switch-INT packet as it arrives).
    pub fn on_int(&mut self, stack: &IntStack, now: Time) -> f64 {
        if self.telemetry_stale(now) {
            // The gap straddles a dark period: drop the history and
            // re-prime from this stack rather than differencing across
            // the gap.
            self.hops = HopHistory::new();
        }
        self.last_int = Some(now);
        if let Some(u) = self.observe(stack) {
            self.apply(u, now);
        }
        self.r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::int::IntHop;
    use netsim::units::{bytes_in, GBPS, SEC, US};

    const CAP: u64 = 25 * GBPS;
    const T: Time = 20 * US;

    fn stack(ts: Time, qlen: u64, tx: u64) -> IntStack {
        let mut s = IntStack::new();
        s.push(IntHop {
            hop_id: 7,
            ts,
            qlen_bytes: qlen,
            tx_bytes: tx,
            link_bps: CAP,
            is_dci: false,
        });
        s
    }

    fn ctl() -> IntRateController {
        IntRateController::new(CAP, T, HopFilter::All)
    }

    #[test]
    fn r_ai_scales_with_cap() {
        let ai25 = r_ai(25 * GBPS);
        let ai100 = r_ai(100 * GBPS);
        assert!((ai100 / ai25 - 4.0).abs() < 1e-9);
        // 25G, η=0.95, 16 flows → 78.125 Mbps.
        assert!((ai25 - 78.125e6).abs() < 1.0);
    }

    #[test]
    fn sustained_overload_compounds_decrease() {
        let mut c = ctl();
        // Sustained queue plus line-rate transmission: U ≈ 2 every round.
        // Each round is clamped to ×0.9, so ~7 rounds quarter the rate.
        let bdp = bytes_in(T, CAP);
        c.on_int(&stack(0, bdp, 0), 0);
        let mut r = CAP as f64;
        for i in 1..=8u64 {
            r = c.on_int(&stack(i * T, bdp, i * bytes_in(T, CAP)), i * T);
        }
        assert!(r < 0.6 * CAP as f64, "r = {r}");
        // And a single round never cuts more than the clamp.
        let mut c2 = ctl();
        c2.on_int(&stack(0, bdp, 0), 0);
        let r1 = c2.on_int(&stack(T, bdp, bytes_in(T, CAP)), T);
        assert!(r1 >= 0.89 * CAP as f64, "per-round MD is clamped: {r1}");
    }

    #[test]
    fn underload_grows_additively() {
        let mut c = ctl();
        c.r_c = CAP as f64 / 10.0;
        c.r = c.r_c;
        c.on_int(&stack(0, 0, 0), 0);
        let r1 = c.on_int(&stack(T, 0, bytes_in(T, CAP) / 10), T);
        let r2 = c.on_int(&stack(2 * T, 0, 2 * (bytes_in(T, CAP) / 10)), 2 * T);
        assert!(r2 > r1 || (r2 - r1).abs() < 2.0 * c.r_ai, "r1 {r1} r2 {r2}");
        assert!(r2 > CAP as f64 / 10.0);
    }

    #[test]
    fn rate_stays_in_bounds() {
        let mut c = ctl();
        c.on_int(&stack(0, 0, 0), 0);
        for i in 1..200u64 {
            let q = if i % 2 == 0 {
                100 * bytes_in(T, CAP)
            } else {
                0
            };
            let r = c.on_int(&stack(i * T, q, i * bytes_in(T, CAP)), i * T);
            assert!(r >= MIN_SEND_RATE_BPS && r <= CAP as f64);
        }
    }

    #[test]
    fn dci_filter_ignores_dci_hops() {
        let mut c = IntRateController::new(CAP, T, HopFilter::ExcludeDci);
        let mk = |ts, tx| {
            let mut s = IntStack::new();
            s.push(IntHop {
                hop_id: 9,
                ts,
                qlen_bytes: 10 * bytes_in(T, CAP),
                tx_bytes: tx,
                link_bps: CAP,
                is_dci: true,
            });
            s
        };
        assert!(c.observe(&mk(0, 0)).is_none());
        assert!(c.observe(&mk(T, bytes_in(T, CAP))).is_none());
        assert_eq!(
            c.rate_bps(),
            CAP as f64,
            "DCI congestion must not move the credit rate"
        );
    }

    #[test]
    fn stale_gap_discards_history_instead_of_differencing() {
        let mut c = ctl();
        let bdp = bytes_in(T, CAP);
        c.on_int(&stack(0, bdp, 0), 0);
        c.on_int(&stack(T, bdp, bytes_in(T, CAP)), T);
        let before = c.rate_bps();
        // Dark for far longer than the stale threshold (a flap window),
        // then a stack showing a huge standing queue from both sides of
        // the gap. Differencing across it would slam the rate; instead
        // the history re-primes and the first post-gap stack is a no-op.
        let gap = T + (STALE_RTT_MULTIPLE + 10) * T;
        let r = c.on_int(&stack(gap, 100 * bdp, bytes_in(T, CAP)), gap);
        assert_eq!(r, before, "first post-gap stack only re-primes");
        // The *next* stack differences cleanly against the re-primed one.
        let r2 = c.on_int(&stack(gap + T, 100 * bdp, 2 * bytes_in(T, CAP)), gap + T);
        assert!(r2 < before, "fresh deltas drive MD again: {r2}");
    }

    #[test]
    fn staleness_detection_and_ai_fallback() {
        let mut c = ctl();
        assert!(
            !c.telemetry_stale(SEC),
            "startup is not stale (nothing to age out)"
        );
        c.on_int(&stack(0, 0, 0), 0);
        assert!(!c.telemetry_stale(STALE_RTT_MULTIPLE * T));
        assert!(c.telemetry_stale(STALE_RTT_MULTIPLE * T + T + 1));
        // AI fallback probes upward from a depressed rate, ~one r_ai per
        // loop RTT, and stays within bounds.
        c.r = CAP as f64 / 10.0;
        c.r_c = c.r;
        let start = c.r;
        let a = c.r_ai;
        let t0 = 2 * STALE_RTT_MULTIPLE * T;
        // A burst of probes within one loop RTT must not compound: at
        // most two AI steps (the reference advances once).
        for i in 0..50 {
            c.ai_probe(t0 + i);
        }
        assert!(c.rate_bps() <= start + 2.0 * a + 1.0, "{}", c.rate_bps());
        // Probing across windows ramps additively, one step per window.
        for w in 1..=10u64 {
            c.ai_probe(t0 + w * T);
        }
        assert!(c.rate_bps() >= start + 10.0 * a, "{}", c.rate_bps());
        assert!(c.rate_bps() <= start + 13.0 * a, "{}", c.rate_bps());
        assert!(c.rate_bps() <= CAP as f64);
    }

    #[test]
    fn two_controllers_converge_to_fair_share() {
        // Closed-loop toy model: two flows share a link of capacity CAP.
        // Each controller sees the same hop whose tx bytes reflect the sum
        // of the two rates, and a queue that integrates the excess.
        let mut a = IntRateController::new(CAP, T, HopFilter::All);
        let mut b = IntRateController::new(CAP, T, HopFilter::All);
        // Start very unfair.
        a.r = CAP as f64;
        a.r_c = a.r;
        b.r = CAP as f64 / 100.0;
        b.r_c = b.r;
        let mut q = 0f64;
        let mut tx = 0u64;
        let dt = T as f64 / 1e12;
        let mut s_a = IntStack::new();
        let mut s_b;
        let _ = &mut s_a;
        // Prime histories.
        a.observe(&stack(0, 0, 0));
        b.observe(&stack(0, 0, 0));
        for i in 1..4000u64 {
            let now = i * T;
            let offered = a.rate_bps() + b.rate_bps();
            let sent = offered.min(CAP as f64) * dt / 8.0;
            q = (q + (offered - CAP as f64) * dt / 8.0).max(0.0);
            tx += sent as u64;
            s_a = stack(now, q as u64, tx);
            s_b = stack(now, q as u64, tx);
            let ua = a.observe(&s_a);
            let ub = b.observe(&s_b);
            if let Some(u) = ua {
                a.apply(u, now);
            }
            if let Some(u) = ub {
                b.apply(u, now);
            }
        }
        let (ra, rb) = (a.rate_bps(), b.rate_bps());
        let fair = CAP as f64 / 2.0;
        assert!(
            (ra - fair).abs() / fair < 0.25 && (rb - fair).abs() / fair < 0.25,
            "ra {ra} rb {rb} (fair {fair})"
        );
        // Jain index close to 1.
        let jain = (ra + rb).powi(2) / (2.0 * (ra * ra + rb * rb));
        assert!(jain > 0.97, "jain {jain}");
    }
}

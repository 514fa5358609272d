//! DCQCN (Zhu et al., SIGCOMM 2015) — the Mellanox RoCEv2 rate-based
//! congestion control the paper compares against.
//!
//! Sender behaviour, following the ns-3 Mellanox model:
//! * on CNP: `α ← (1-g)α + g`, save the target rate, multiplicatively cut
//!   the current rate by `α/2`, and reset the recovery machinery;
//! * every `alpha_timer` without a CNP: `α ← (1-g)α`;
//! * rate increase events fire from a timer **and** a byte counter; the
//!   event counts select the stage: fast recovery (averaging back toward
//!   the target), additive increase, or hyper increase.

#[cfg(test)]
use netsim::cc::MIN_SEND_RATE_BPS;
use netsim::cc::{clamp_rate, AckView, SenderCc};
use netsim::units::{Time, MBPS, US};

// Parameters: the HPCC paper's suggested tuning.
/// EWMA gain for α.
const G: f64 = 1.0 / 256.0;
/// α decay timer period.
const ALPHA_TIMER: Time = 55 * US;
/// Rate-increase timer period.
const INCREASE_TIMER: Time = 55 * US;
/// Byte counter threshold for a rate-increase event.
const BYTE_COUNTER: u64 = 10_000_000;
/// Stages of fast recovery before additive increase.
const FAST_RECOVERY_STAGES: u32 = 5;
/// Additive increase step, bits/s.
const RATE_AI: f64 = 40.0 * MBPS as f64;
/// Hyper increase step, bits/s.
const RATE_HAI: f64 = 400.0 * MBPS as f64;

/// DCQCN sender state for one flow. Like the paper's DCQCN it has no
/// in-flight window, which is what lets cross-DC flows flood deep
/// buffers.
pub struct Dcqcn {
    line_rate: f64,
    /// Current rate Rc.
    rc: f64,
    /// Target rate Rt.
    rt: f64,
    alpha: f64,
    /// Timer-driven increase events since the last CNP.
    t_stage: u32,
    /// Byte-counter-driven increase events since the last CNP.
    bc_stage: u32,
    bytes_since_event: u64,
    /// Deadlines for the two timers.
    alpha_deadline: Time,
    increase_deadline: Time,
    /// Whether any CNP was received since the last α update (the α decay
    /// only runs in CNP-free periods).
    cnp_since_alpha: bool,
}

impl Dcqcn {
    pub fn new(line_rate_bps: u64, t0: Time) -> Self {
        Dcqcn {
            line_rate: line_rate_bps as f64,
            rc: line_rate_bps as f64,
            rt: line_rate_bps as f64,
            alpha: 1.0,
            t_stage: 0,
            bc_stage: 0,
            bytes_since_event: 0,
            alpha_deadline: t0 + ALPHA_TIMER,
            increase_deadline: t0 + INCREASE_TIMER,
            cnp_since_alpha: false,
        }
    }

    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn rate_increase_event(&mut self) {
        let f = FAST_RECOVERY_STAGES;
        let t = self.t_stage;
        let b = self.bc_stage;
        if t > f && b > f {
            // Hyper increase: both counters past fast recovery.
            let i = (t.min(b) - f) as f64;
            self.rt += i * RATE_HAI;
        } else if t > f || b > f {
            // Additive increase.
            self.rt += RATE_AI;
        }
        // Fast recovery and all later stages average toward the target.
        self.rt = self.rt.min(self.line_rate);
        self.rc = clamp_rate((self.rc + self.rt) / 2.0, self.line_rate as u64);
    }
}

impl SenderCc for Dcqcn {
    fn on_ack(&mut self, _ack: &AckView<'_>) {
        // DCQCN reacts to CNPs, not ACKs.
    }

    fn on_cnp(&mut self, now: Time) {
        self.cnp_since_alpha = true;
        self.alpha = (1.0 - G) * self.alpha + G;
        self.rt = self.rc;
        self.rc = clamp_rate(self.rc * (1.0 - self.alpha / 2.0), self.line_rate as u64);
        // Reset the recovery machinery.
        self.t_stage = 0;
        self.bc_stage = 0;
        self.bytes_since_event = 0;
        self.alpha_deadline = now + ALPHA_TIMER;
        self.increase_deadline = now + INCREASE_TIMER;
    }

    fn on_sent(&mut self, bytes: u64, _now: Time) {
        self.bytes_since_event += bytes;
        while self.bytes_since_event >= BYTE_COUNTER {
            self.bytes_since_event -= BYTE_COUNTER;
            self.bc_stage += 1;
            self.rate_increase_event();
        }
    }

    fn on_timer(&mut self, now: Time) {
        if now >= self.alpha_deadline {
            if !self.cnp_since_alpha {
                self.alpha *= 1.0 - G;
            }
            self.cnp_since_alpha = false;
            self.alpha_deadline = now + ALPHA_TIMER;
        }
        if now >= self.increase_deadline {
            self.t_stage += 1;
            self.rate_increase_event();
            self.increase_deadline = now + INCREASE_TIMER;
        }
    }

    fn rate_bps(&self) -> f64 {
        self.rc
    }

    fn next_timer(&self) -> Option<Time> {
        Some(self.alpha_deadline.min(self.increase_deadline))
    }

    fn name(&self) -> &'static str {
        "dcqcn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::GBPS;

    const LINE: u64 = 25 * GBPS;

    fn fresh() -> Dcqcn {
        Dcqcn::new(LINE, 0)
    }

    #[test]
    fn starts_at_line_rate() {
        let d = fresh();
        assert_eq!(d.rate_bps(), LINE as f64);
        assert!(d.next_timer().is_some());
    }

    #[test]
    fn cnp_cuts_rate_multiplicatively() {
        let mut d = fresh();
        d.on_cnp(100 * US);
        // First CNP: α ≈ (255/256) + 1/256 ≈ 1 → cut ≈ half.
        let r1 = d.rate_bps();
        assert!(r1 < LINE as f64 * 0.52 && r1 > LINE as f64 * 0.48, "{r1}");
        d.on_cnp(200 * US);
        assert!(d.rate_bps() < r1);
    }

    #[test]
    fn rate_never_below_floor() {
        let mut d = fresh();
        for i in 0..10_000 {
            d.on_cnp(i * US);
        }
        assert!(d.rate_bps() >= MIN_SEND_RATE_BPS);
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut d = fresh();
        d.on_cnp(0);
        let a0 = d.alpha();
        // Fire alpha timers without further CNPs.
        let mut t = d.next_timer().unwrap();
        for _ in 0..100 {
            d.on_timer(t);
            t = d.next_timer().unwrap();
        }
        assert!(d.alpha() < a0 * 0.8, "alpha {} vs {}", d.alpha(), a0);
    }

    #[test]
    fn fast_recovery_converges_to_target() {
        let mut d = fresh();
        d.on_cnp(0);
        let target = d.rt;
        // Five timer events of fast recovery halve the gap each time.
        let mut t = d.next_timer().unwrap();
        for _ in 0..5 {
            d.on_timer(t);
            t = d.next_timer().unwrap();
        }
        let gap = (target - d.rate_bps()).abs() / target;
        assert!(gap < 0.05, "after fast recovery gap {gap}");
    }

    #[test]
    fn additive_then_hyper_increase_raises_target() {
        let mut d = fresh();
        d.on_cnp(0);
        let r_after_cut = d.rate_bps();
        let mut t = d.next_timer().unwrap();
        // Push way past the fast-recovery stages with timer events and
        // byte-counter events together (needed for hyper increase).
        for _ in 0..20 {
            d.on_timer(t);
            d.on_sent(BYTE_COUNTER, t);
            t = d.next_timer().unwrap();
        }
        assert!(d.rate_bps() > r_after_cut);
    }

    #[test]
    fn recovers_to_line_rate_eventually() {
        let mut d = fresh();
        d.on_cnp(0);
        let mut t = d.next_timer().unwrap();
        for _ in 0..3000 {
            d.on_timer(t);
            d.on_sent(1_000_000, t);
            t = d.next_timer().unwrap();
        }
        assert!(
            d.rate_bps() > 0.99 * LINE as f64,
            "rate {} after long CNP-free period",
            d.rate_bps()
        );
    }

    #[test]
    fn byte_counter_triggers_increase_without_timer() {
        let mut d = fresh();
        d.on_cnp(0);
        let r0 = d.rate_bps();
        d.on_sent(BYTE_COUNTER * 3, 0);
        assert!(d.rate_bps() > r0, "byte counter alone must drive recovery");
    }
}

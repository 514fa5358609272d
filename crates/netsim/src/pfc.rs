//! Priority Flow Control (IEEE 802.1Qbb).
//!
//! Switches account queued data bytes against the **ingress** port each
//! packet arrived on. When an ingress crosses its Xoff threshold the
//! switch sends a PAUSE frame upstream for the data priority; when it
//! drains below Xon it sends a RESUME. Pause frames bypass queues and take
//! effect after one propagation delay.
//!
//! The Xoff threshold is the "dynamic threshold" (DT) scheme shipped in
//! shared-buffer ASICs: an ingress may hold at most `α × (free buffer)`
//! bytes, with α = 1/8 (the classic Broadcom shared-buffer setting). Xon
//! sits a fixed gap of two 1048 B wire MTUs below the current Xoff.
//!
//! ## Dedicated per-port headroom
//!
//! Crossing Xoff does not stop traffic instantly: the PAUSE frame takes
//! one propagation delay to reach the upstream peer, and everything the
//! peer put on the wire in the meantime still lands here. Real RoCEv2
//! switches therefore reserve dedicated *headroom* per ingress port,
//! sized to the pause loop: `2 × link delay × link rate + 2 MTU`. The
//! reservation is carved out of the shared pool at topology-build time
//! (shrinking the DT free pool, so Xoff fires while the headroom can
//! still absorb the in-flight tail), and bytes arriving on a paused
//! ingress are charged to its headroom instead of the shared pool. With
//! correctly sized headroom a PFC-enabled switch is lossless *by
//! construction*, not by buffer-sizing convention.

use crate::units::{bytes_in, Bandwidth, Time};

/// Dynamic-threshold α: an ingress pauses its upstream once it holds
/// more than `ALPHA × (free shared buffer)` bytes.
const ALPHA: f64 = 0.125;

/// Hysteresis gap: a paused ingress resumes once it drops to
/// `Xoff − XON_GAP_BYTES` (two 1048 B wire MTUs).
const XON_GAP_BYTES: u64 = 2 * 1048;

/// PFC configuration for one switch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PfcConfig {
    pub enabled: bool,
    /// Dedicated per-ingress-port headroom. `None` auto-sizes each port
    /// from its upstream link (`2 × delay × rate + 2 MTU`) at
    /// topology-build time; `Some(0)` disables the reservation (the
    /// legacy shared-pool-only model); `Some(n)` reserves exactly `n`
    /// bytes per ingress port.
    pub headroom_bytes: Option<u64>,
}

impl PfcConfig {
    /// Typical shallow-buffer DC switch configuration: PFC on with
    /// auto-sized per-port headroom.
    pub fn dc_switch() -> Self {
        PfcConfig {
            enabled: true,
            headroom_bytes: None,
        }
    }

    pub fn disabled() -> Self {
        PfcConfig {
            enabled: false,
            headroom_bytes: Some(0),
        }
    }

    /// The legacy shared-pool-only model: PFC on, no reserved headroom.
    pub fn without_headroom(mut self) -> Self {
        self.headroom_bytes = Some(0);
        self
    }

    /// Pause-loop headroom for one ingress port: the bytes the upstream
    /// peer can land here between the Xoff crossing and the pause taking
    /// hold — one propagation delay for the PAUSE frame to travel
    /// upstream plus one for the wire to drain, at line rate, padded by
    /// one MTU mid-serialization at each end.
    pub fn auto_headroom_bytes(bandwidth: Bandwidth, delay: Time, mtu_wire: u64) -> u64 {
        bytes_in(2 * delay, bandwidth) + 2 * mtu_wire
    }

    /// Current Xoff threshold given the *shared-pool* occupancy (the
    /// pool with every port's headroom reservation already carved out —
    /// see [`crate::buffer::SharedBuffer::shared_capacity`]).
    pub fn xoff_threshold(&self, shared_capacity: u64, shared_used: u64) -> u64 {
        let free = shared_capacity.saturating_sub(shared_used);
        (ALPHA * free as f64) as u64
    }
}

/// Per-ingress PFC runtime state.
#[derive(Clone, Debug, Default)]
pub struct IngressState {
    /// Data bytes currently queued in the switch that arrived on this
    /// ingress.
    pub bytes: u64,
    /// The subset of `bytes` charged to this port's dedicated headroom
    /// (arrivals that landed while the upstream was being paused).
    pub hr_bytes: u64,
    /// True while this ingress has paused its upstream peer.
    pub paused_upstream: bool,
    /// Number of Xoff (pause) transitions — the paper's "PFC triggers".
    pub pause_count: u64,
    /// Time of the last pause, for pause-duration accounting.
    pub paused_since: Option<Time>,
    /// Accumulated paused time.
    pub paused_total: Time,
}

/// What the accounting update decided.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PfcAction {
    None,
    /// Send a PAUSE upstream on this ingress.
    Pause,
    /// Send a RESUME upstream on this ingress.
    Resume,
}

impl IngressState {
    /// Account an arriving data packet and decide whether to pause.
    pub fn on_enqueue(
        &mut self,
        bytes: u64,
        cfg: &PfcConfig,
        buffer_capacity: u64,
        buffer_used: u64,
        now: Time,
    ) -> PfcAction {
        self.bytes += bytes;
        if !cfg.enabled || self.paused_upstream {
            return PfcAction::None;
        }
        let xoff = cfg.xoff_threshold(buffer_capacity, buffer_used);
        if self.bytes > xoff {
            self.paused_upstream = true;
            self.pause_count += 1;
            self.paused_since = Some(now);
            PfcAction::Pause
        } else {
            PfcAction::None
        }
    }

    /// Account an arriving data packet charged to this port's dedicated
    /// headroom (only possible while the upstream is paused — the
    /// in-flight tail of the pause loop). Never triggers a further
    /// pause: the headroom exists precisely to absorb these bytes.
    pub fn on_enqueue_headroom(&mut self, bytes: u64) {
        debug_assert!(
            self.paused_upstream,
            "headroom charge on an unpaused ingress"
        );
        self.bytes += bytes;
        self.hr_bytes += bytes;
    }

    /// Account a departing data packet and decide whether to resume.
    /// `from_headroom` is the portion drained from the port's headroom
    /// occupancy (headroom drains first; see the caller in `sim.rs`).
    /// Resume additionally requires the headroom to be fully drained,
    /// so every pause cycle starts with the whole reservation available
    /// to absorb the next in-flight tail.
    pub fn on_dequeue(
        &mut self,
        bytes: u64,
        from_headroom: u64,
        cfg: &PfcConfig,
        shared_capacity: u64,
        shared_used: u64,
        now: Time,
    ) -> PfcAction {
        debug_assert!(self.bytes >= bytes, "ingress accounting underflow");
        debug_assert!(self.hr_bytes >= from_headroom, "headroom underflow");
        debug_assert!(from_headroom <= bytes, "headroom share exceeds packet");
        self.bytes = self.bytes.saturating_sub(bytes);
        self.hr_bytes = self.hr_bytes.saturating_sub(from_headroom);
        if !cfg.enabled || !self.paused_upstream {
            return PfcAction::None;
        }
        let xoff = cfg.xoff_threshold(shared_capacity, shared_used);
        let xon = xoff.saturating_sub(XON_GAP_BYTES);
        if self.bytes <= xon && self.hr_bytes == 0 {
            self.paused_upstream = false;
            if let Some(since) = self.paused_since.take() {
                self.paused_total += now.saturating_sub(since);
            }
            PfcAction::Resume
        } else {
            PfcAction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::US;

    /// With nothing in the shared pool, a capacity of `8 × XOFF` puts the
    /// dynamic Xoff threshold at `XOFF` (α = 1/8).
    const XOFF: u64 = 10_000;
    const CAP: u64 = 8 * XOFF;

    #[test]
    fn pause_and_resume_cycle() {
        let cfg = PfcConfig::dc_switch();
        let mut st = IngressState::default();
        // Fill to the threshold: no pause.
        assert_eq!(st.on_enqueue(XOFF, &cfg, CAP, 0, 0), PfcAction::None);
        // One more byte crosses it.
        assert_eq!(st.on_enqueue(1, &cfg, CAP, 0, 1 * US), PfcAction::Pause);
        assert_eq!(st.pause_count, 1);
        // Still above Xon: no resume yet.
        assert_eq!(st.on_dequeue(1, 0, &cfg, CAP, 0, 2 * US), PfcAction::None);
        // Drain to Xoff - gap.
        let target = XOFF - XON_GAP_BYTES;
        assert_eq!(
            st.on_dequeue(st.bytes - target, 0, &cfg, CAP, 0, 3 * US),
            PfcAction::Resume
        );
        assert!(!st.paused_upstream);
        assert_eq!(st.paused_total, 2 * US);
    }

    #[test]
    fn no_double_pause() {
        let cfg = PfcConfig::dc_switch();
        let mut st = IngressState::default();
        assert_eq!(st.on_enqueue(2 * XOFF, &cfg, CAP, 0, 0), PfcAction::Pause);
        assert_eq!(st.on_enqueue(2 * XOFF, &cfg, CAP, 0, 0), PfcAction::None);
        assert_eq!(st.pause_count, 1);
    }

    #[test]
    fn dynamic_threshold_shrinks_as_buffer_fills() {
        let cfg = PfcConfig::dc_switch();
        // Empty buffer: α × capacity.
        assert_eq!(cfg.xoff_threshold(CAP, 0), XOFF);
        // Half full: half of that.
        assert_eq!(cfg.xoff_threshold(CAP, CAP / 2), XOFF / 2);
        // Full: threshold zero — everything pauses.
        assert_eq!(cfg.xoff_threshold(CAP, CAP), 0);
    }

    #[test]
    fn disabled_never_pauses() {
        let cfg = PfcConfig::disabled();
        let mut st = IngressState::default();
        assert_eq!(
            st.on_enqueue(u64::MAX / 2, &cfg, CAP, CAP, 0),
            PfcAction::None
        );
        assert!(!st.paused_upstream);
    }

    #[test]
    fn resume_requires_hysteresis_gap() {
        let cfg = PfcConfig::dc_switch();
        let mut st = IngressState::default();
        st.on_enqueue(XOFF + 1, &cfg, CAP, 0, 0);
        assert!(st.paused_upstream);
        // Dequeue 1 byte: still paused (within the hysteresis band).
        assert_eq!(st.on_dequeue(1, 0, &cfg, CAP, 0, 0), PfcAction::None);
        assert!(st.paused_upstream);
    }

    // -----------------------------------------------------------------
    // Headroom unit math.
    // -----------------------------------------------------------------

    #[test]
    fn auto_headroom_matches_hand_computed_values() {
        use crate::units::{GBPS, US};
        // 25 Gbps, 1 µs, 1048 B MTU: 2·1e-6·25e9/8 = 6250 B in flight,
        // plus 2 MTU.
        assert_eq!(
            PfcConfig::auto_headroom_bytes(25 * GBPS, US, 1048),
            6250 + 2 * 1048
        );
        // 100 Gbps, 5 µs: 2·5e-6·100e9/8 = 125 000 B.
        assert_eq!(
            PfcConfig::auto_headroom_bytes(100 * GBPS, 5 * US, 1048),
            125_000 + 2 * 1048
        );
        // 10 Gbps, 1 µs: 2·1e-6·10e9/8 = 2500 B.
        assert_eq!(
            PfcConfig::auto_headroom_bytes(10 * GBPS, US, 1048),
            2500 + 2 * 1048
        );
        // Headroom scales with the MTU term when the wire is short.
        assert_eq!(PfcConfig::auto_headroom_bytes(GBPS, 0, 1500), 3000);
    }

    #[test]
    fn dynamic_threshold_on_the_carved_shared_pool() {
        // With headroom carved out, the DT threshold sees only the
        // shared pool: a 1 MB buffer with 200 KB reserved behaves like
        // an 800 KB buffer for threshold purposes.
        let cfg = PfcConfig::dc_switch();
        let raw_cap = 1_000_000;
        let shared_cap = raw_cap - 200_000; // two ports × 100 KB
                                            // Empty shared pool: threshold is α × the carved capacity, not
                                            // α × the raw capacity.
        assert_eq!(cfg.xoff_threshold(shared_cap, 0), 100_000);
        assert!(cfg.xoff_threshold(shared_cap, 0) < cfg.xoff_threshold(raw_cap, 0));
        // Occupancy exactly at the reservation boundary.
        assert_eq!(
            cfg.xoff_threshold(shared_cap, 200_000),
            (0.125 * 600_000.0) as u64
        );
        // Shared pool full: threshold collapses to zero.
        assert_eq!(cfg.xoff_threshold(shared_cap, shared_cap), 0);
        // Over-full (control packets are never refused): saturates, no
        // underflow.
        assert_eq!(cfg.xoff_threshold(shared_cap, shared_cap + 5_000), 0);
    }

    #[test]
    fn headroom_charges_defer_resume_until_drained() {
        let cfg = PfcConfig::dc_switch();
        let mut st = IngressState::default();
        assert_eq!(st.on_enqueue(XOFF + 1, &cfg, CAP, 0, 0), PfcAction::Pause);
        // The in-flight tail lands in headroom while paused.
        st.on_enqueue_headroom(3_000);
        assert_eq!(st.bytes, 13_001);
        assert_eq!(st.hr_bytes, 3_000);
        // Drain below Xon but with headroom still occupied: no resume —
        // the next pause cycle must start with the full reservation.
        assert_eq!(
            st.on_dequeue(12_000, 2_000, &cfg, CAP, 0, US),
            PfcAction::None
        );
        assert!(st.paused_upstream);
        assert_eq!(st.hr_bytes, 1_000);
        // Final headroom byte leaves: now the resume fires.
        assert_eq!(
            st.on_dequeue(1_000, 1_000, &cfg, CAP, 0, 2 * US),
            PfcAction::Resume
        );
        assert_eq!(st.hr_bytes, 0);
        assert!(!st.paused_upstream);
    }

    #[test]
    fn xon_gap_interacts_with_the_carved_threshold() {
        // Xoff 10 000, gap 2096: Xon at 7904 while the shared pool holds
        // still.
        let cfg = PfcConfig::dc_switch();
        let mut st = IngressState::default();
        st.on_enqueue(XOFF + 1, &cfg, CAP, 0, 0);
        assert_eq!(
            st.on_dequeue(XOFF + 1 - 7_905, 0, &cfg, CAP, 0, 0),
            PfcAction::None,
            "one byte above Xon must stay paused"
        );
        assert_eq!(st.on_dequeue(1, 0, &cfg, CAP, 0, 0), PfcAction::Resume);

        // The gap applies to the threshold of the moment, which grows as
        // the shared pool drains. At 240 KB of a 400 KB pool used, Xoff is
        // 0.125·160 000 = 20 000, so 21 KB of ingress occupancy pauses.
        let shared_cap = 400_000;
        let mut st = IngressState::default();
        st.on_enqueue(21_000, &cfg, shared_cap, 240_000, 0);
        assert!(st.paused_upstream);
        // After draining 500 B the threshold is 0.125·160 500 = 20 062
        // and Xon 17 966; 20 500 B queued stays inside the hysteresis band.
        assert_eq!(
            st.on_dequeue(500, 0, &cfg, shared_cap, 239_500, 0),
            PfcAction::None,
            "20.5 KB > Xon 17.966 KB: still paused"
        );
        // Another 2 500 B out: threshold 0.125·163 000 = 20 375, Xon
        // 18 279, and 18 000 B queued clears it (the Xon of the pause
        // moment, 17 904, would not have).
        assert_eq!(
            st.on_dequeue(2_500, 0, &cfg, shared_cap, 237_000, 0),
            PfcAction::Resume,
            "18 KB <= Xon 18.279 KB with empty headroom: resume"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::{SimRng, Xoshiro256StarStar};

    /// Pause/resume events strictly alternate and byte accounting never
    /// goes negative under arbitrary enqueue/dequeue traces
    /// (seeded-loop property test).
    #[test]
    fn alternating_actions() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xFFC);
        for _ in 0..64 {
            let n_ops = rng.gen_range(1..300);
            let cfg = PfcConfig::dc_switch();
            let mut st = IngressState::default();
            let mut last_was_pause = false;
            let mut used = 0u64;
            for _ in 0..n_ops {
                let enq = rng.next_u64() & 1 == 0;
                let n = rng.gen_range(1..5_000);
                let act = if enq {
                    used += n;
                    st.on_enqueue(n, &cfg, 160_000, used, 0)
                } else {
                    let n = n.min(st.bytes);
                    if n == 0 {
                        continue;
                    }
                    used = used.saturating_sub(n);
                    st.on_dequeue(n, 0, &cfg, 160_000, used, 0)
                };
                match act {
                    PfcAction::Pause => {
                        assert!(!last_was_pause, "two pauses without a resume");
                        last_was_pause = true;
                    }
                    PfcAction::Resume => {
                        assert!(last_was_pause, "resume without a pause");
                        last_was_pause = false;
                    }
                    PfcAction::None => {}
                }
            }
        }
    }
}

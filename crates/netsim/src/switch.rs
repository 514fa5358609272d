//! Switch state: shared buffer, ECN profile, PFC accounting, and the DCI
//! role extensions (near-source Switch-INT feedback and PFQ bookkeeping).
//!
//! Forwarding logic lives in the simulator core (`sim.rs`); this module is
//! the per-switch data and the small self-contained decision helpers.

use crate::buffer::SharedBuffer;
use crate::densemap::DenseMap;
use crate::pfc::{IngressState, PfcConfig};
use crate::types::{FlowId, LinkId, NodeId};
use crate::units::{Time, US};

/// Minimum interval between two Switch-INT feedback packets for one flow
/// at a sender-side DCI.
pub const SWITCH_INT_MIN_INTERVAL: Time = 4 * US;

/// DCI-role state: present exactly on the switches that terminate a
/// long-haul link (derived by [`crate::topology::NetBuilder::build`]).
#[derive(Default)]
pub struct DciState {
    /// Last Switch-INT emission time per flow (dense: flow ids are small
    /// integers, and this is consulted for every long-haul data packet).
    pub last_switch_int: DenseMap<FlowId, Time>,
    /// Which egress link holds each cross-DC flow's PFQ (receiver side).
    pub pfq_link: DenseMap<FlowId, LinkId>,
    /// Count of Switch-INT feedback packets emitted.
    pub switch_int_sent: u64,
}

impl DciState {
    /// Whether a Switch-INT feedback for `flow` may be emitted now.
    pub fn switch_int_due(&mut self, flow: FlowId, now: Time) -> bool {
        match self.last_switch_int.get(flow) {
            Some(&t) if now < t + SWITCH_INT_MIN_INTERVAL => false,
            _ => {
                self.last_switch_int.insert(flow, now);
                self.switch_int_sent += 1;
                true
            }
        }
    }
}

/// One switch.
pub struct Switch {
    pub id: NodeId,
    pub buffer: SharedBuffer,
    pub pfc: PfcConfig,
    /// Per-ingress PFC accounting, keyed densely by the arriving link.
    pub ingress: DenseMap<LinkId, IngressState>,
    /// Dedicated PFC headroom capacity per ingress link (bytes), resolved
    /// at topology-build time from [`PfcConfig::headroom_bytes`].
    pub headroom: DenseMap<LinkId, u64>,
    /// DCI role, when this switch terminates a long-haul link.
    pub dci: Option<DciState>,
}

impl Switch {
    pub fn new(id: NodeId, buffer_bytes: u64, pfc: PfcConfig) -> Self {
        Switch {
            id,
            buffer: SharedBuffer::new(buffer_bytes),
            pfc,
            ingress: DenseMap::new(),
            headroom: DenseMap::new(),
            dci: None,
        }
    }

    /// Dedicate `bytes` of headroom to `ingress`, carving it out of the
    /// shared pool. Called once per PFC-enabled ingress at build time.
    pub fn set_ingress_headroom(&mut self, ingress: LinkId, bytes: u64) {
        self.headroom.insert(ingress, bytes);
        self.buffer.reserve_headroom(bytes);
    }

    /// Headroom capacity dedicated to `ingress` (0 when none).
    pub fn ingress_headroom(&self, ingress: LinkId) -> u64 {
        self.headroom.get(ingress).copied().unwrap_or(0)
    }

    /// Whether a data packet of `bytes` arriving on `ingress` charges the
    /// headroom reservation instead of the shared pool: the ingress must
    /// have paused its upstream (the bytes are the in-flight tail of the
    /// pause loop) and the per-port reservation must still have room.
    /// Arrivals on an unpaused ingress always charge shared, so headroom
    /// is provably empty at the instant each Pause asserts.
    pub fn charges_headroom(&self, ingress: LinkId, bytes: u64) -> bool {
        if !self.pfc.enabled {
            return false;
        }
        let cap = self.ingress_headroom(ingress);
        if cap == 0 {
            return false;
        }
        self.ingress
            .get(ingress)
            .is_some_and(|st| st.paused_upstream && st.hr_bytes + bytes <= cap)
    }

    /// Total PFC pause transitions on this switch.
    pub fn pfc_pause_count(&self) -> u64 {
        self.ingress.values().map(|i| i.pause_count).sum()
    }

    /// Total time spent paused across ingresses.
    pub fn pfc_paused_total(&self) -> Time {
        self.ingress.values().map(|i| i.paused_total).sum()
    }

    /// Shared-buffer accounting audit: the buffer's `used` counter must
    /// equal the bytes actually parked at this switch's egresses (the
    /// caller sums its egress links' queued bytes). Admit and release
    /// are symmetric, so any divergence means a leaked or double-counted
    /// admission. The headroom ledger must reconcile too: the pool's
    /// headroom occupancy equals the sum of per-ingress `hr_bytes`, never
    /// exceeds the reservation, and the shared/headroom split sums back
    /// to the total.
    #[cfg(feature = "audit")]
    pub fn audit_check_buffer(&self, egress_queued_bytes: u64) {
        assert_eq!(
            self.buffer.used(),
            egress_queued_bytes,
            "AUDIT VIOLATION: switch {:?} buffer accounting out of sync \
             (used {} vs {} bytes queued at egresses)",
            self.id,
            self.buffer.used(),
            egress_queued_bytes
        );
        let ingress_hr: u64 = self.ingress.values().map(|st| st.hr_bytes).sum();
        assert_eq!(
            self.buffer.headroom_used(),
            ingress_hr,
            "AUDIT VIOLATION: switch {:?} headroom ledger out of sync \
             (pool says {} vs {} summed over ingresses)",
            self.id,
            self.buffer.headroom_used(),
            ingress_hr
        );
        assert!(
            self.buffer.headroom_used() <= self.buffer.headroom_reserved(),
            "AUDIT VIOLATION: switch {:?} headroom occupancy {} exceeds \
             the reservation {}",
            self.id,
            self.buffer.headroom_used(),
            self.buffer.headroom_reserved()
        );
        assert_eq!(
            self.buffer.shared_used() + self.buffer.headroom_used(),
            self.buffer.used(),
            "AUDIT VIOLATION: switch {:?} shared + headroom must sum to \
             total occupancy",
            self.id
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_int_rate_limiting() {
        let mut d = DciState::default();
        assert!(d.switch_int_due(FlowId(0), 0));
        assert!(!d.switch_int_due(FlowId(0), SWITCH_INT_MIN_INTERVAL - 1));
        assert!(d.switch_int_due(FlowId(0), SWITCH_INT_MIN_INTERVAL));
        // Independent per flow.
        assert!(d.switch_int_due(FlowId(1), SWITCH_INT_MIN_INTERVAL + 1));
        assert_eq!(d.switch_int_sent, 3);
    }

    #[test]
    fn headroom_charging_rules() {
        let mut s = Switch::new(NodeId(1), 1_000_000, PfcConfig::dc_switch());
        s.set_ingress_headroom(LinkId(0), 10_000);
        assert_eq!(s.ingress_headroom(LinkId(0)), 10_000);
        assert_eq!(s.ingress_headroom(LinkId(1)), 0, "unreserved port");
        assert_eq!(s.buffer.shared_capacity(), 990_000);
        // Unpaused ingress: never charges headroom.
        assert!(!s.charges_headroom(LinkId(0), 1_500));
        // Paused ingress with room: charges headroom up to the cap.
        s.ingress.get_or_default(LinkId(0)).paused_upstream = true;
        assert!(s.charges_headroom(LinkId(0), 1_500));
        assert!(s.charges_headroom(LinkId(0), 10_000), "exactly at cap");
        assert!(!s.charges_headroom(LinkId(0), 10_001), "over the cap");
        s.ingress.get_or_default(LinkId(0)).hr_bytes = 9_000;
        assert!(s.charges_headroom(LinkId(0), 1_000));
        assert!(!s.charges_headroom(LinkId(0), 1_001), "cap minus occupancy");
        // A paused port with no reservation charges shared.
        s.ingress.get_or_default(LinkId(1)).paused_upstream = true;
        assert!(!s.charges_headroom(LinkId(1), 1_500));
        // PFC disabled: headroom never charges.
        s.pfc.enabled = false;
        assert!(!s.charges_headroom(LinkId(0), 100));
    }

    #[test]
    fn pfc_counters_aggregate() {
        let mut s = Switch::new(NodeId(1), 22_000_000, PfcConfig::dc_switch());
        s.ingress.get_or_default(LinkId(0)).pause_count = 3;
        s.ingress.get_or_default(LinkId(1)).pause_count = 2;
        assert_eq!(s.pfc_pause_count(), 5);
    }
}

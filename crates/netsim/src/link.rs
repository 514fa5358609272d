//! Unidirectional links.
//!
//! A link owns the **egress queue at its sending end**: the per-priority
//! FIFOs (and, on MLCC DCI egresses, the per-flow queue set), the busy
//! state of the serializer, and the cumulative byte counter that INT
//! reports. Pausing a link via PFC therefore pauses exactly the upstream
//! egress that feeds the congested ingress.

use crate::ecn::EcnConfig;
use crate::fault::FaultState;
use crate::pfq::PfqSet;
use crate::queue::PrioQueues;
use crate::types::{LinkId, NodeId};
use crate::units::{tx_time, Bandwidth, Time};

/// Options applied when creating a link.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkOpts {
    /// This link crosses between datacenters: the one declaration of the
    /// datacenter boundary. Every switch at either end takes the DCI role
    /// (see [`crate::topology::NetBuilder::build`]), its INT records are
    /// DCI records, and sharding partitions the fabric at it.
    pub long_haul: bool,
}

/// A unidirectional link plus the egress queue feeding it.
pub struct Link {
    pub id: LinkId,
    /// Sending node (owner of the egress queue).
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    pub bandwidth: Bandwidth,
    pub delay: Time,
    /// The paired reverse-direction link.
    pub reverse: LinkId,
    pub opts: LinkOpts,
    /// ECN marking profile of this egress: the deep-buffer
    /// [`EcnConfig::dci_switch`] profile on the egresses of a DCI switch,
    /// else the standard profile scaled to the link rate (ECN is
    /// configured per port on real switches, so thresholds must scale
    /// with the egress rate, not the switch).
    pub ecn: EcnConfig,
    /// Priority FIFOs at the egress.
    pub queues: PrioQueues,
    /// MLCC per-flow queue set (receiver-side DCI egresses only).
    pub pfq: Option<PfqSet>,
    /// Serializer busy flag.
    pub busy: bool,
    /// Cumulative bytes ever serialized (INT's txBytes).
    pub tx_bytes: u64,
    /// Dedup for scheduled PFQ pacing wakeups.
    pub pfq_wake_at: Option<Time>,
    /// Packets ever put on the wire by this egress. On long-haul links
    /// this is the content-derived arrival tie-break (see
    /// [`crate::event::boundary_seq`]); elsewhere it is just a counter.
    pub wire_seq: u64,
    /// Fault-injection state (see [`crate::fault`]); `None` on healthy
    /// links, which then perform no fault bookkeeping or RNG draws.
    pub faults: Option<Box<FaultState>>,
}

impl Link {
    /// Serialization time of `bytes` on this link.
    #[inline]
    pub fn ser_time(&self, bytes: u64) -> Time {
        tx_time(bytes, self.bandwidth)
    }

    /// Total bytes queued at this egress (FIFOs + PFQ).
    pub fn queued_bytes(&self) -> u64 {
        self.queues.total_bytes() + self.pfq.as_ref().map_or(0, |p| p.total_bytes())
    }

    /// Data-class bytes visible to ECN marking (FIFO data + PFQ).
    pub fn data_queued_bytes(&self) -> u64 {
        self.queues.bytes(crate::types::Priority::Data)
            + self.pfq.as_ref().map_or(0, |p| p.total_bytes())
    }

    /// Remove every packet parked at this egress (priority FIFOs and,
    /// when present, the per-flow queue set), handing each to `f` —
    /// the crash path when this link's source node fails.
    pub fn drain_queued(&mut self, mut f: impl FnMut(Box<crate::packet::Packet>)) {
        self.queues.drain_all(&mut f);
        if let Some(pfq) = &mut self.pfq {
            pfq.drain_all(&mut f);
        }
    }

    /// Visit every packet parked at this egress — priority FIFOs and,
    /// when present, the per-flow queue set (the auditor's census).
    #[cfg(feature = "audit")]
    pub fn audit_for_each_queued(&self, mut f: impl FnMut(&crate::packet::Packet)) {
        self.queues.for_each_packet(&mut f);
        if let Some(pfq) = &self.pfq {
            pfq.for_each_packet(&mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::types::FlowId;
    use crate::units::GBPS;

    fn mk_link() -> Link {
        Link {
            id: LinkId(0),
            src: NodeId(0),
            dst: NodeId(1),
            bandwidth: 100 * GBPS,
            delay: 5_000_000,
            reverse: LinkId(1),
            opts: LinkOpts::default(),
            ecn: EcnConfig::dc_switch(100 * GBPS),
            queues: PrioQueues::new(),
            pfq: None,
            busy: false,
            tx_bytes: 0,
            pfq_wake_at: None,
            wire_seq: 0,
            faults: None,
        }
    }

    #[test]
    fn ser_time_uses_bandwidth() {
        let l = mk_link();
        assert_eq!(l.ser_time(1048), tx_time(1048, 100 * GBPS));
    }

    #[test]
    fn queued_bytes_spans_fifo_and_pfq() {
        let mut l = mk_link();
        l.queues.enqueue(Box::new(Packet::data(
            1,
            FlowId(0),
            NodeId(0),
            NodeId(1),
            0,
            1000,
            0,
        )));
        assert_eq!(l.queued_bytes(), 1048);
        let mut pfq = PfqSet::new(1 * GBPS, 1048);
        pfq.enqueue(
            Box::new(Packet::data(2, FlowId(1), NodeId(0), NodeId(1), 0, 1000, 0)),
            0,
        );
        l.pfq = Some(pfq);
        assert_eq!(l.queued_bytes(), 2 * 1048);
        assert_eq!(l.data_queued_bytes(), 2 * 1048);
    }
}

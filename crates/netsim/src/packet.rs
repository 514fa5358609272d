//! Packets and their on-wire bookkeeping.
//!
//! One flat struct represents every packet kind; the unused fields of a
//! given kind stay at their defaults. A packet lives in exactly one heap
//! box from birth to recycling: hosts and switches move `Box<Packet>`
//! (8 bytes) through queues and events, never the struct itself. The
//! boxes — and the cold, out-of-line INT stacks — are recycled through
//! [`PktPool`], so the steady-state hot path allocates nothing.
//!
//! The header itself is kept hot/cold split and compact:
//! * the INT stack (the bulk of the old inline layout) lives behind
//!   `Option<Box<IntStack>>` — data packets only carry a stack after the
//!   first INT-enabled egress pushes a hop, and the ACK echo takes the
//!   stack by move, not copy;
//! * [`MlccFields`] packs its four optional fields into a presence
//!   bitflag plus plain integers instead of four `Option`s.
//!
//! A `const` assertion at the bottom of this file turns any layout
//! regression into a build error.

use crate::int::{IntHop, IntStack};
use crate::types::{FlowId, LinkId, NodeId, Priority};
use crate::units::Time;

/// What a packet is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// Flow payload.
    Data,
    /// Per-packet acknowledgement carrying the cumulative received byte
    /// count, the echoed INT stack, and (for MLCC) credit/DQM fields.
    Ack,
    /// DCQCN congestion notification packet (receiver → sender).
    Cnp,
    /// MLCC Switch-INT feedback generated by the sender-side DCI switch
    /// (DCI → sender), carrying the stripped sender-side INT stack.
    SwitchInt,
}

/// MLCC fields piggybacked on data and ACK packets.
///
/// `c_d` rides on data packets (stamped by the receiver-side DCI switch);
/// `c_r`, `r_credit_bps` and `r_dqm_bps` ride on ACKs (inserted by the
/// receiver, consumed by the DCI switch and the sender respectively).
///
/// Presence is tracked in a bitflag instead of four `Option`s: the
/// payload fields are plain integers, which keeps the struct at 32 bytes
/// (vs 48 for the `Option` layout) and the absent-value comparison exact
/// (setters zero the payload when clearing a flag).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MlccFields {
    flags: u8,
    c_d: u32,
    c_r: u32,
    r_credit_bps: u64,
    r_dqm_bps: u64,
}

impl MlccFields {
    const HAS_C_D: u8 = 1 << 0;
    const HAS_C_R: u8 = 1 << 1;
    const HAS_R_CREDIT: u8 = 1 << 2;
    const HAS_R_DQM: u8 = 1 << 3;

    /// Credit echo stamped into data packets by the receiver-side DCI.
    #[inline]
    pub fn c_d(&self) -> Option<u32> {
        (self.flags & Self::HAS_C_D != 0).then_some(self.c_d)
    }

    /// Receiver's credit counter, carried in ACKs.
    #[inline]
    pub fn c_r(&self) -> Option<u32> {
        (self.flags & Self::HAS_C_R != 0).then_some(self.c_r)
    }

    /// Per-flow-queue dequeue rate computed by the receiver (Algorithm 1),
    /// applied by the receiver-side DCI switch. Bits per second.
    #[inline]
    pub fn r_credit_bps(&self) -> Option<u64> {
        (self.flags & Self::HAS_R_CREDIT != 0).then_some(self.r_credit_bps)
    }

    /// Smoothed end-to-end DQM rate (Eq. 9), read by the sender. Bits/s.
    #[inline]
    pub fn r_dqm_bps(&self) -> Option<u64> {
        (self.flags & Self::HAS_R_DQM != 0).then_some(self.r_dqm_bps)
    }

    #[inline]
    pub fn set_c_d(&mut self, v: Option<u32>) {
        self.c_d = v.unwrap_or(0);
        self.set_flag(Self::HAS_C_D, v.is_some());
    }

    #[inline]
    pub fn set_c_r(&mut self, v: Option<u32>) {
        self.c_r = v.unwrap_or(0);
        self.set_flag(Self::HAS_C_R, v.is_some());
    }

    #[inline]
    pub fn set_r_credit_bps(&mut self, v: Option<u64>) {
        self.r_credit_bps = v.unwrap_or(0);
        self.set_flag(Self::HAS_R_CREDIT, v.is_some());
    }

    #[inline]
    pub fn set_r_dqm_bps(&mut self, v: Option<u64>) {
        self.r_dqm_bps = v.unwrap_or(0);
        self.set_flag(Self::HAS_R_DQM, v.is_some());
    }

    #[inline]
    fn set_flag(&mut self, bit: u8, on: bool) {
        if on {
            self.flags |= bit;
        } else {
            self.flags &= !bit;
        }
    }
}

/// The empty INT stack every stackless packet reads through
/// [`Packet::int`].
static EMPTY_INT_STACK: IntStack = IntStack::new();

/// A packet in flight or queued.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Globally unique packet id (diagnostics and deterministic ordering).
    pub id: u64,
    pub kind: PacketKind,
    pub flow: FlowId,
    /// Source and final destination hosts.
    pub src: NodeId,
    pub dst: NodeId,
    /// Data: first payload byte offset. Ack: cumulative bytes received.
    pub seq: u64,
    /// Payload bytes carried (0 for control packets).
    pub payload: u32,
    /// Total wire size in bytes (payload + headers).
    pub size: u32,
    pub priority: Priority,
    /// ECN congestion-experienced mark (set by switches on data).
    pub ecn: bool,
    /// ECN echo on ACKs (receiver copies the data packet's mark).
    pub ecn_echo: bool,
    /// Sender timestamp on data, echoed back on the matching ACK so the
    /// sender measures RTT without clock games.
    pub ts_sent: Time,
    /// In-band telemetry records — the cold half of the packet, kept out
    /// of line so the hot header stays under a cache line. `None` until
    /// the first INT-enabled egress pushes a hop; moved (never copied)
    /// onto the ACK echo or the Switch-INT feedback.
    pub int: Option<Box<IntStack>>,
    /// MLCC credit/rate fields.
    pub mlcc: MlccFields,
    /// Transient: the link this packet most recently arrived on. Used for
    /// PFC ingress accounting while the packet waits in an egress queue.
    pub in_link: Option<LinkId>,
}

/// Payload bytes of a full-size data packet: the default of
/// [`crate::config::SimConfig::mtu_payload`] and the packetization of
/// every host the topology builders lay.
pub const MTU_PAYLOAD: u32 = 1000;
/// Fixed header budget for data packets (Ethernet + IP + UDP + RoCE BTH +
/// INT shim), matching the ns-3 RDMA models used by the paper.
pub const DATA_HEADER_BYTES: u32 = 48;
/// Wire size of ACK, CNP, and Switch-INT packets.
pub const CONTROL_PACKET_BYTES: u32 = 64;

/// Ceiling on the hot packet header. The split layout sits at 96 bytes
/// today; anything above this means the INT stack (or another cold
/// payload) crept back inline. See also the `size_of` test.
pub const MAX_PACKET_BYTES: usize = 112;
const _: () = assert!(
    std::mem::size_of::<Packet>() <= MAX_PACKET_BYTES,
    "Packet grew past its hot-header budget; keep cold state boxed"
);

impl Packet {
    /// Build a data packet. `size` on the wire is payload + header budget.
    pub fn data(
        id: u64,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        payload: u32,
        now: Time,
    ) -> Packet {
        Packet {
            id,
            kind: PacketKind::Data,
            flow,
            src,
            dst,
            seq,
            payload,
            size: payload + DATA_HEADER_BYTES,
            priority: Priority::Data,
            ecn: false,
            ecn_echo: false,
            ts_sent: now,
            int: None,
            mlcc: MlccFields::default(),
            in_link: None,
        }
    }

    /// Build an ACK for `data`, carrying the cumulative received count.
    pub fn ack_for(id: u64, data: &Packet, cumulative: u64) -> Packet {
        Packet {
            id,
            kind: PacketKind::Ack,
            flow: data.flow,
            // ACKs travel receiver → sender.
            src: data.dst,
            dst: data.src,
            seq: cumulative,
            payload: 0,
            size: CONTROL_PACKET_BYTES,
            priority: Priority::Control,
            ecn: false,
            ecn_echo: data.ecn,
            ts_sent: data.ts_sent,
            int: None,
            mlcc: MlccFields::default(),
            in_link: None,
        }
    }

    /// Build a DCQCN CNP for the given flow (receiver → sender).
    pub fn cnp(id: u64, flow: FlowId, receiver: NodeId, sender: NodeId) -> Packet {
        Packet {
            id,
            kind: PacketKind::Cnp,
            flow,
            src: receiver,
            dst: sender,
            seq: 0,
            payload: 0,
            size: CONTROL_PACKET_BYTES,
            priority: Priority::Control,
            ecn: false,
            ecn_echo: true,
            ts_sent: 0,
            int: None,
            mlcc: MlccFields::default(),
            in_link: None,
        }
    }

    /// Build an MLCC Switch-INT feedback packet (sender-side DCI → sender)
    /// carrying the INT stack stripped (by move) from a data packet.
    pub fn switch_int(
        id: u64,
        flow: FlowId,
        dci: NodeId,
        sender: NodeId,
        int: Option<Box<IntStack>>,
    ) -> Packet {
        Packet {
            id,
            kind: PacketKind::SwitchInt,
            flow,
            src: dci,
            dst: sender,
            seq: 0,
            payload: 0,
            size: CONTROL_PACKET_BYTES,
            priority: Priority::Control,
            ecn: false,
            ecn_echo: false,
            ts_sent: 0,
            int,
            mlcc: MlccFields::default(),
            in_link: None,
        }
    }

    /// True for packets subject to ECN marking and PFC pausing.
    #[inline]
    pub fn is_data(&self) -> bool {
        self.kind == PacketKind::Data
    }

    /// The packet's INT stack, reading an empty stack when none has been
    /// attached. (The field and this accessor share a name on purpose:
    /// readers use `pkt.int()`, owners take or attach `pkt.int`.)
    #[inline]
    pub fn int(&self) -> &IntStack {
        match &self.int {
            Some(s) => s,
            None => &EMPTY_INT_STACK,
        }
    }

    /// Append one INT hop, allocating a fresh stack box when the packet
    /// has none. The simulator hot path attaches pooled boxes itself via
    /// [`PktPool::take_int`]; this helper is for tests and scenario code.
    pub fn push_hop(&mut self, hop: IntHop) {
        self.int
            .get_or_insert_with(|| Box::new(IntStack::new()))
            .push(hop);
    }
}

/// Recycler for packet boxes and their out-of-line INT stacks, plus the
/// global packet-id counter.
///
/// Every packet the simulator creates is boxed out of this pool and
/// returned to it when it dies (delivered, dropped, or lost); INT stack
/// boxes are reclaimed separately so a control packet without telemetry
/// never pays for one. After warm-up the pools reach the peak in-flight
/// population and the steady state allocates nothing — the allocation
/// gate in `tests/alloc_gate.rs` pins that.
#[derive(Default)]
pub struct PktPool {
    #[allow(clippy::vec_box)] // the boxes themselves are the resource
    free: Vec<Box<Packet>>,
    #[allow(clippy::vec_box)]
    free_int: Vec<Box<IntStack>>,
    next_id: u64,
    /// Packet boxes handed out and not yet recycled (audit census).
    #[cfg(feature = "audit")]
    outstanding: i64,
    /// INT-stack boxes handed out and not yet recycled (audit census).
    #[cfg(feature = "audit")]
    outstanding_int: i64,
}

impl PktPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Next globally unique packet id.
    #[inline]
    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Pre-provision the pools with spare boxes so the in-flight
    /// population can grow to `n_packets` packets / `n_stacks` INT
    /// stacks beyond its current high-water mark without touching the
    /// allocator. Used by allocation-budget tests that assert a
    /// zero-allocation steady state.
    pub fn prewarm(&mut self, n_packets: usize, n_stacks: usize) {
        self.free.reserve(n_packets);
        while self.free.len() < n_packets {
            self.free.push(Box::new(Packet::data(
                0,
                FlowId(0),
                NodeId(0),
                NodeId(0),
                0,
                0,
                0,
            )));
        }
        self.free_int.reserve(n_stacks);
        while self.free_int.len() < n_stacks {
            self.free_int.push(Box::new(IntStack::new()));
        }
    }

    /// Move `pkt` into a recycled heap box (allocates only while the pool
    /// is still warming up).
    #[inline]
    pub fn boxed(&mut self, pkt: Packet) -> Box<Packet> {
        #[cfg(feature = "audit")]
        {
            self.outstanding += 1;
        }
        match self.free.pop() {
            Some(mut b) => {
                *b = pkt;
                b
            }
            None => Box::new(pkt),
        }
    }

    /// Recycle a dead packet's box, reclaiming its INT stack box too.
    #[inline]
    pub fn put(&mut self, mut b: Box<Packet>) {
        #[cfg(feature = "audit")]
        {
            self.outstanding -= 1;
            assert!(
                self.outstanding >= 0,
                "AUDIT VIOLATION: more packet boxes recycled than handed out"
            );
        }
        if let Some(s) = b.int.take() {
            self.put_int(s);
        }
        self.free.push(b);
    }

    /// A cleared INT stack box from the pool.
    #[inline]
    pub fn take_int(&mut self) -> Box<IntStack> {
        #[cfg(feature = "audit")]
        {
            self.outstanding_int += 1;
        }
        self.free_int
            .pop()
            .unwrap_or_else(|| Box::new(IntStack::new()))
    }

    /// Live packet boxes: handed out by [`Self::boxed`] and not yet
    /// recycled. The auditor checks this against the packets it can
    /// actually find in queues and pending events at drain time.
    #[cfg(feature = "audit")]
    pub fn outstanding_packets(&self) -> i64 {
        self.outstanding
    }

    /// Transfer accounting for a box leaving this pool's custody (a
    /// cross-shard boundary export): the box will be recycled by the
    /// peer pool, so it no longer counts as outstanding here. The
    /// packet itself is untouched.
    #[inline]
    pub fn export(&mut self, pkt: &Packet) {
        #[cfg(feature = "audit")]
        {
            self.outstanding -= 1;
            if pkt.int.is_some() {
                self.outstanding_int -= 1;
            }
            assert!(
                self.outstanding >= 0 && self.outstanding_int >= 0,
                "AUDIT VIOLATION: exported more boxes than were handed out"
            );
        }
        let _ = pkt;
    }

    /// Transfer accounting for a box entering this pool's custody (the
    /// receiving side of [`Self::export`]): it counts as outstanding
    /// here from now on and its eventual `put` balances.
    #[inline]
    pub fn adopt(&mut self, pkt: &Packet) {
        #[cfg(feature = "audit")]
        {
            self.outstanding += 1;
            if pkt.int.is_some() {
                self.outstanding_int += 1;
            }
        }
        let _ = pkt;
    }

    /// Live INT-stack boxes (see [`Self::outstanding_packets`]).
    #[cfg(feature = "audit")]
    pub fn outstanding_int_stacks(&self) -> i64 {
        self.outstanding_int
    }

    /// Recycle an INT stack box (cleared here, so callers can hand back
    /// used stacks directly).
    #[inline]
    pub fn put_int(&mut self, mut s: Box<IntStack>) {
        #[cfg(feature = "audit")]
        {
            self.outstanding_int -= 1;
            assert!(
                self.outstanding_int >= 0,
                "AUDIT VIOLATION: more INT-stack boxes recycled than handed out"
            );
        }
        s.clear();
        self.free_int.push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int::IntHop;
    use crate::units::GBPS;

    #[test]
    fn data_packet_sizing() {
        let p = Packet::data(1, FlowId(0), NodeId(0), NodeId(1), 0, 1000, 5);
        assert_eq!(p.size, 1000 + DATA_HEADER_BYTES);
        assert_eq!(p.payload, 1000);
        assert!(p.is_data());
        assert_eq!(p.priority, Priority::Data);
        assert_eq!(p.ts_sent, 5);
        assert!(p.int.is_none(), "data is born without an INT stack");
        assert!(p.int().is_empty(), "accessor reads the shared empty stack");
    }

    #[test]
    fn ack_reverses_direction_and_echoes() {
        let mut d = Packet::data(1, FlowId(3), NodeId(0), NodeId(9), 4000, 1000, 77);
        d.ecn = true;
        let a = Packet::ack_for(2, &d, 5000);
        assert_eq!(a.kind, PacketKind::Ack);
        assert_eq!(a.src, NodeId(9));
        assert_eq!(a.dst, NodeId(0));
        assert_eq!(a.seq, 5000);
        assert!(a.ecn_echo);
        assert_eq!(a.ts_sent, 77, "ACK echoes the data send timestamp");
        assert_eq!(a.priority, Priority::Control);
        assert!(!a.is_data());
    }

    #[test]
    fn switch_int_carries_stack() {
        let mut stack = IntStack::new();
        stack.push(IntHop {
            hop_id: 42,
            ts: 1,
            qlen_bytes: 100,
            tx_bytes: 1000,
            link_bps: 100 * GBPS,
            is_dci: false,
        });
        let p = Packet::switch_int(5, FlowId(1), NodeId(4), NodeId(0), Some(Box::new(stack)));
        assert_eq!(p.kind, PacketKind::SwitchInt);
        assert_eq!(p.int().len(), 1);
        assert_eq!(p.int().hops()[0].hop_id, 42);
        assert_eq!(p.dst, NodeId(0));
    }

    #[test]
    fn cnp_is_control() {
        let p = Packet::cnp(9, FlowId(2), NodeId(5), NodeId(1));
        assert_eq!(p.kind, PacketKind::Cnp);
        assert_eq!(p.priority, Priority::Control);
        assert_eq!(p.size, CONTROL_PACKET_BYTES);
    }

    #[test]
    fn packet_header_stays_under_budget() {
        // The whole point of the hot/cold split: the header the fabric
        // copies into pool boxes must stay far below the old ~400-byte
        // inline-IntStack layout. The const assertion enforces the same
        // ceiling at build time; this records the measured value.
        let sz = std::mem::size_of::<Packet>();
        assert!(sz <= MAX_PACKET_BYTES, "Packet is {sz} bytes");
        assert!(
            std::mem::size_of::<MlccFields>() <= 32,
            "packed MlccFields regressed"
        );
        // The cold stack really is out of line.
        assert!(std::mem::size_of::<IntStack>() > 128);
        assert_eq!(
            std::mem::size_of::<Option<Box<IntStack>>>(),
            8,
            "niche-packed box"
        );
    }

    #[test]
    fn mlcc_fields_pack_and_roundtrip() {
        let mut m = MlccFields::default();
        assert_eq!(m.c_d(), None);
        assert_eq!(m.c_r(), None);
        assert_eq!(m.r_credit_bps(), None);
        assert_eq!(m.r_dqm_bps(), None);
        m.set_c_d(Some(0)); // zero with the flag set is still present
        m.set_c_r(Some(7));
        m.set_r_credit_bps(Some(25_000_000_000));
        m.set_r_dqm_bps(Some(1));
        assert_eq!(m.c_d(), Some(0));
        assert_eq!(m.c_r(), Some(7));
        assert_eq!(m.r_credit_bps(), Some(25_000_000_000));
        assert_eq!(m.r_dqm_bps(), Some(1));
        // Clearing zeroes the payload, so equality with a fresh default
        // is exact — stale raw values can never leak into comparisons.
        m.set_c_d(None);
        m.set_c_r(None);
        m.set_r_credit_bps(None);
        m.set_r_dqm_bps(None);
        assert_eq!(m, MlccFields::default());
    }

    #[test]
    fn pool_recycles_boxes_and_stacks() {
        let mut pool = PktPool::new();
        assert_eq!(pool.next_id(), 1);
        assert_eq!(pool.next_id(), 2);
        let mut p = pool.boxed(Packet::data(3, FlowId(0), NodeId(0), NodeId(1), 0, 1000, 0));
        // Attach the stack through the pool (the engine's only path), so
        // the audit feature's outstanding-box accounting stays balanced.
        let mut stack = pool.take_int();
        stack.push(IntHop {
            hop_id: 1,
            ts: 0,
            qlen_bytes: 0,
            tx_bytes: 0,
            link_bps: GBPS,
            is_dci: false,
        });
        p.int = Some(stack);
        let raw = &*p as *const Packet;
        pool.put(p);
        // The same box comes back, and its old stack box is reclaimed
        // (cleared) rather than dropped.
        let q = pool.boxed(Packet::cnp(4, FlowId(0), NodeId(1), NodeId(0)));
        assert_eq!(&*q as *const Packet, raw, "box is recycled, not realloc'd");
        assert!(q.int.is_none());
        let s = pool.take_int();
        assert!(s.is_empty(), "reclaimed stack was cleared");
    }

    #[test]
    fn recycled_box_carries_no_stale_state() {
        let mut pool = PktPool::new();
        let id = pool.next_id();
        let mut p = pool.boxed(Packet::data(
            id,
            FlowId(7),
            NodeId(0),
            NodeId(1),
            4096,
            1000,
            55,
        ));
        // Dirty every field a switch or DCI can touch in flight.
        p.ecn = true;
        p.ecn_echo = true;
        p.in_link = Some(LinkId(9));
        p.mlcc.set_c_d(Some(3));
        p.mlcc.set_c_r(Some(5));
        p.mlcc.set_r_credit_bps(Some(12_000_000_000));
        p.mlcc.set_r_dqm_bps(Some(7));
        let mut s = pool.take_int();
        s.push(IntHop {
            hop_id: 2,
            ts: 10,
            qlen_bytes: 500,
            tx_bytes: 9000,
            link_bps: GBPS,
            is_dci: true,
        });
        p.int = Some(s);
        pool.put(p);
        // The recycled box must be indistinguishable from a fresh one:
        // no INT, default MLCC bitflags, ECN/echo/in_link zeroed.
        // Probe with a data packet: unlike a CNP (which is born with
        // ecn_echo set — it *is* the congestion echo), a fresh data
        // packet has every one of these fields clear.
        let id2 = pool.next_id();
        let q = pool.boxed(Packet::data(
            id2,
            FlowId(1),
            NodeId(1),
            NodeId(0),
            0,
            4096,
            0,
        ));
        assert!(
            q.int.is_none(),
            "stale INT stack leaked into a recycled box"
        );
        assert_eq!(q.mlcc, MlccFields::default(), "stale MLCC fields");
        assert!(!q.ecn && !q.ecn_echo, "stale ECN state");
        assert!(q.in_link.is_none(), "stale ingress-link state");
        assert!(
            pool.take_int().is_empty(),
            "the stack reclaimed from the dirty packet was not cleared"
        );
    }
}

//! The server / RDMA-NIC model.
//!
//! A host owns the sender state of its outgoing flows (pacing, windows,
//! retransmission, the per-flow [`SenderCc`]) and the receiver state of
//! its incoming flows (cumulative reassembly, the per-flow
//! [`ReceiverCc`], ACK/CNP generation). The NIC serializes one packet at
//! a time onto its uplink; flows that are allowed to send are arbitrated
//! round-robin, which is the ns-3 RDMA egress model.

use crate::cc::{clamp_rate, AckView, ReceiverCc, SenderCc};
use crate::densemap::DenseMap;
use crate::flow::{FailReason, FctRecord, FlowPath, FlowSpec};
use crate::packet::{Packet, PacketKind, PktPool};
use crate::types::{FlowId, LinkId, NodeId};
#[cfg(test)]
use crate::units::tx_time;
use crate::units::{Time, MS, SEC};

/// Exponential-backoff cap: the RTO never exceeds `base << MAX_RTO_SHIFT`
/// (16× base). Bounded so a flow behind a long flap window still probes
/// within a handful of base RTOs of the link coming back.
pub const MAX_RTO_SHIFT: u32 = 4;

/// Sender-side state of one flow.
pub struct SendFlow {
    pub spec: FlowSpec,
    pub path: FlowPath,
    pub cc: Box<dyn SenderCc>,
    /// First unsent byte.
    pub bytes_sent: u64,
    /// Cumulative bytes acknowledged.
    pub bytes_acked: u64,
    /// Earliest time pacing allows the next packet.
    pub next_avail: Time,
    /// Mirror of the currently scheduled CC timer, to drop stale events.
    pub timer_at: Option<Time>,
    /// Bytes acked as of the last RTO check (progress detection).
    pub rto_progress: u64,
    /// Base retransmission timeout interval (4×RTT, floored at 1 ms).
    pub rto_base: Time,
    /// Current backoff exponent: the effective RTO is
    /// `rto_base << rto_shift`. Bumped on every no-progress timeout,
    /// reset to zero when an ACK advances `bytes_acked`.
    pub rto_shift: u32,
    /// Mirror of the currently scheduled RTO check, to drop stale
    /// events (same pattern as `timer_at`). Invariant: `Some` whenever
    /// the flow is not done, so an RTO check is always pending while
    /// bytes can still be unacknowledged.
    pub rto_at: Option<Time>,
    pub done: bool,
    /// The give-up policy abandoned this flow; it transmits nothing
    /// further and its RTO chain is dead. Mutually exclusive with
    /// `done`.
    pub failed: bool,
    /// Consecutive no-progress RTO checks observed while already at
    /// [`MAX_RTO_SHIFT`] — the give-up policy's counter. Reset by any
    /// ACK progress.
    pub stall_checks: u32,
    /// Count of go-back-N retransmissions triggered.
    pub retransmits: u64,
}

impl SendFlow {
    #[inline]
    fn inflight(&self) -> u64 {
        self.bytes_sent.saturating_sub(self.bytes_acked)
    }

    /// Current (backed-off) retransmission timeout interval.
    #[inline]
    pub fn rto_interval(&self) -> Time {
        self.rto_base << self.rto_shift.min(MAX_RTO_SHIFT)
    }

    /// Whether this flow could transmit at time `now` (ignoring pacing).
    fn sendable(&self) -> bool {
        if self.done || self.failed || self.bytes_sent >= self.spec.size_bytes {
            return false;
        }
        match self.cc.window_bytes() {
            Some(w) => self.inflight() < w.max(1),
            None => true,
        }
    }
}

/// Receiver-side state of one flow.
pub struct RecvFlow {
    pub spec: FlowSpec,
    pub path: FlowPath,
    pub cc: Box<dyn ReceiverCc>,
    /// Cumulative contiguous bytes received.
    pub expected: u64,
    pub complete: bool,
}

/// What an RTO check decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtoVerdict {
    /// Stale event, finished flow, or a check that found progress:
    /// nothing for the caller to do.
    None,
    /// A go-back-N rewind was performed; the caller kicks the uplink.
    Retransmit,
    /// The give-up policy fired: the flow is abandoned with this
    /// reason, its RTO chain ends, and the caller records the outcome.
    GiveUp(FailReason),
}

/// Result of asking the host for its next data packet.
pub enum HostTx {
    /// Transmit this packet now (boxed straight out of the pool).
    Packet(Box<Packet>),
    /// Nothing ready; wake the host no later than this time.
    WakeAt(Time),
    /// No flow has anything to send.
    Idle,
}

/// What the host wants done after processing an arrival.
///
/// Fixed-size on purpose: every `on_*` dispatch touches exactly one
/// flow, so at most one ACK, one CNP, one CC timer, and one RTO check
/// can result — plain `Option`s keep the per-arrival path free of heap
/// allocation.
#[derive(Default)]
pub struct HostOutput {
    /// ACK to enqueue on the uplink.
    pub ack: Option<Packet>,
    /// CNP to enqueue on the uplink.
    pub cnp: Option<Packet>,
    /// A flow completed at this receiver.
    pub completed: Option<FctRecord>,
    /// CC timer to (re)schedule: (flow, absolute time).
    pub timer: Option<(FlowId, Time)>,
    /// RTO check to (re)schedule: (flow, absolute time). Emitted when
    /// ACK progress resets the backoff and the pending (backed-off)
    /// check sits too far in the future, or when the chain must be
    /// re-armed.
    pub rto_check: Option<(FlowId, Time)>,
    /// A sending flow just became fully acknowledged.
    pub sender_done: bool,
}

/// One server.
pub struct Host {
    pub id: NodeId,
    /// The host's single uplink (host → ToR).
    pub uplink: LinkId,
    pub mtu_bytes: u32,
    // Dense, id-indexed flow tables: per-packet lookups are a bounds
    // check and a pointer chase, never a hash. Flow state is boxed so
    // the slab stays one pointer per flow id.
    send: DenseMap<FlowId, Box<SendFlow>>,
    recv: DenseMap<FlowId, Box<RecvFlow>>,
    /// Round-robin order of active sending flows.
    rr: Vec<FlowId>,
    rr_cursor: usize,
    /// Mirror of the earliest scheduled HostWake, to dedup events.
    pub wake_at: Option<Time>,
    /// Cumulative in-order bytes accepted by this host's receivers —
    /// the liveness watchdog's progress signal.
    pub delivered_bytes: u64,
    /// Give-up policy: consecutive no-progress RTO checks at max
    /// backoff before a flow is abandoned (0 = never give up).
    giveup_rto_limit: u32,
    /// Give-up policy: absolute deadline from each flow's start time
    /// (0 = no deadline). Enforced at RTO-check granularity.
    flow_deadline: Time,
}

impl Host {
    pub fn new(id: NodeId, uplink: LinkId, mtu_bytes: u32) -> Self {
        Host {
            id,
            uplink,
            mtu_bytes,
            send: DenseMap::new(),
            recv: DenseMap::new(),
            rr: Vec::new(),
            rr_cursor: 0,
            wake_at: None,
            delivered_bytes: 0,
            giveup_rto_limit: 0,
            flow_deadline: 0,
        }
    }

    /// Arm the give-up policy (both knobs 0 by default: pre-existing
    /// retry-forever behavior, bit-identical to builds without it).
    pub fn set_giveup(&mut self, rto_limit: u32, deadline: Time) {
        self.giveup_rto_limit = rto_limit;
        self.flow_deadline = deadline;
    }

    /// Register an outgoing flow. Returns the initial CC timer, if any.
    pub fn add_send_flow(
        &mut self,
        spec: FlowSpec,
        path: FlowPath,
        cc: Box<dyn SenderCc>,
        now: Time,
    ) -> Option<(FlowId, Time)> {
        let rto_base = (4 * path.base_rtt).max(1 * MS);
        let timer = cc.next_timer();
        let flow = SendFlow {
            spec,
            path,
            cc,
            bytes_sent: 0,
            bytes_acked: 0,
            next_avail: now,
            timer_at: timer,
            rto_progress: 0,
            rto_base,
            rto_shift: 0,
            rto_at: None,
            done: false,
            failed: false,
            stall_checks: 0,
            retransmits: 0,
        };
        self.send.insert(spec.id, Box::new(flow));
        self.rr.push(spec.id);
        timer.map(|t| (spec.id, t))
    }

    /// Register an incoming flow (done at flow-start so the receiver knows
    /// the transfer size).
    pub fn add_recv_flow(&mut self, spec: FlowSpec, path: FlowPath, cc: Box<dyn ReceiverCc>) {
        self.recv.insert(
            spec.id,
            Box::new(RecvFlow {
                spec,
                path,
                cc,
                expected: 0,
                complete: false,
            }),
        );
    }

    pub fn send_flow(&self, flow: FlowId) -> Option<&SendFlow> {
        self.send.get(flow).map(|b| b.as_ref())
    }

    pub fn recv_flow(&self, flow: FlowId) -> Option<&RecvFlow> {
        self.recv.get(flow).map(|b| b.as_ref())
    }

    /// Number of still-active (not fully acked, not abandoned) sending
    /// flows.
    pub fn active_send_flows(&self) -> usize {
        self.send.values().filter(|f| !f.done && !f.failed).count()
    }

    /// Pick the next data packet under pacing/window constraints.
    ///
    /// `pool` hands out the global packet id and a recycled heap box.
    pub fn next_data_packet(&mut self, now: Time, pool: &mut PktPool) -> HostTx {
        if self.rr.is_empty() {
            return HostTx::Idle;
        }
        let n = self.rr.len();
        let mut earliest: Option<Time> = None;
        for step in 0..n {
            let idx = (self.rr_cursor + step) % n;
            let fid = self.rr[idx];
            let f = self.send.get_mut(fid).expect("rr entry has send state");
            if !f.sendable() {
                continue;
            }
            if f.next_avail > now {
                earliest = Some(earliest.map_or(f.next_avail, |e: Time| e.min(f.next_avail)));
                continue;
            }
            // Build the packet into a recycled box.
            let remaining = f.spec.size_bytes - f.bytes_sent;
            let payload = (remaining.min(self.mtu_bytes as u64)) as u32;
            let id = pool.next_id();
            let pkt = pool.boxed(Packet::data(
                id,
                fid,
                f.spec.src,
                f.spec.dst,
                f.bytes_sent,
                payload,
                now,
            ));
            f.bytes_sent += payload as u64;
            // Pace on wire bytes at the CC rate.
            let rate = clamp_rate(f.cc.rate_bps(), f.path.line_rate_bps);
            let interval = ((pkt.size as f64 * 8.0 * SEC as f64) / rate) as Time;
            f.next_avail = now.max(f.next_avail) + interval.max(1);
            f.cc.on_sent(pkt.size as u64, now);
            self.rr_cursor = (idx + 1) % n;
            return HostTx::Packet(pkt);
        }
        match earliest {
            Some(t) => HostTx::WakeAt(t),
            None => HostTx::Idle,
        }
    }

    /// Process an arriving packet addressed to this host.
    ///
    /// Takes the packet mutably so the INT echo can move the cold stack
    /// out of a data packet into its ACK instead of copying it.
    pub fn on_packet(&mut self, pkt: &mut Packet, now: Time, pool: &mut PktPool) -> HostOutput {
        match pkt.kind {
            PacketKind::Data => self.on_data(pkt, now, pool),
            PacketKind::Ack => self.on_ack(pkt, now),
            PacketKind::Cnp => self.on_cnp(pkt, now),
            PacketKind::SwitchInt => self.on_switch_int(pkt, now),
        }
    }

    fn on_data(&mut self, pkt: &mut Packet, now: Time, pool: &mut PktPool) -> HostOutput {
        let mut out = HostOutput::default();
        let Some(rf) = self.recv.get_mut(pkt.flow) else {
            debug_assert!(false, "data for unknown flow {}", pkt.flow);
            return out;
        };
        // Cumulative in-order reassembly: accept the head, ignore holes
        // (the lossless fabric makes reordering/loss rare; go-back-N at
        // the sender recovers the exceptions).
        if pkt.seq == rf.expected {
            rf.expected += pkt.payload as u64;
            self.delivered_bytes += pkt.payload as u64;
        }
        let fields = rf.cc.on_data(pkt, now);
        let mut ack = Packet::ack_for(pool.next_id(), pkt, rf.expected);
        if fields.echo_int {
            // Move, don't copy: the data packet's box is about to be
            // recycled, so the ACK takes ownership of the INT stack.
            ack.int = pkt.int.take();
        }
        ack.mlcc = fields.mlcc;
        out.ack = Some(ack);
        if fields.send_cnp {
            out.cnp = Some(Packet::cnp(pool.next_id(), pkt.flow, pkt.dst, pkt.src));
        }
        if !rf.complete && rf.expected >= rf.spec.size_bytes {
            rf.complete = true;
            out.completed = Some(FctRecord {
                flow: rf.spec.id,
                src: rf.spec.src,
                dst: rf.spec.dst,
                size_bytes: rf.spec.size_bytes,
                start: rf.spec.start,
                finish: now,
                cross_dc: rf.path.cross_dc,
            });
        }
        out
    }

    fn on_ack(&mut self, pkt: &Packet, now: Time) -> HostOutput {
        let mut out = HostOutput::default();
        let Some(f) = self.send.get_mut(pkt.flow) else {
            return out;
        };
        if f.failed {
            // An abandoned flow ignores stragglers: accepting one would
            // re-arm supervision on a flow already reported Failed.
            return out;
        }
        let progressed = pkt.seq > f.bytes_acked;
        if progressed {
            f.bytes_acked = pkt.seq;
            f.stall_checks = 0;
        }
        // A time-inverted echo (send timestamp ahead of the arrival
        // clock) means the fabric delivered a packet before it was sent;
        // presenting it clamped to zero would poison RTT estimators, so
        // the sample is skipped instead — and flagged loudly in debug.
        debug_assert!(
            now >= pkt.ts_sent,
            "flow {:?}: ACK echoes send timestamp {} ahead of now {}",
            pkt.flow,
            pkt.ts_sent,
            now
        );
        let view = AckView {
            seq: pkt.seq,
            ecn_echo: pkt.ecn_echo,
            rtt_sample: now.checked_sub(pkt.ts_sent),
            int: pkt.int(),
            r_dqm_bps: pkt.mlcc.r_dqm_bps(),
            now,
        };
        f.cc.on_ack(&view);
        if !f.done && f.bytes_acked >= f.spec.size_bytes {
            f.done = true;
            out.sender_done = true;
        }
        // RTO supervision. Progress resets the exponential backoff; if
        // the pending check was scheduled under backoff and now sits
        // beyond one base interval, pull it in so the *next* stall is
        // detected at base cadence. Re-arm a dead chain unconditionally
        // (a live flow must always have a check pending).
        if !f.done {
            if progressed {
                f.rto_shift = 0;
            }
            let want = now + f.rto_interval();
            let pull_in = progressed && f.rto_at.is_some_and(|t| t > want);
            if f.rto_at.is_none() || pull_in {
                f.rto_at = Some(want);
                out.rto_check = Some((f.spec.id, want));
            }
        }
        Self::sync_timer(f, &mut out);
        out
    }

    fn on_cnp(&mut self, pkt: &Packet, now: Time) -> HostOutput {
        let mut out = HostOutput::default();
        if let Some(f) = self.send.get_mut(pkt.flow) {
            f.cc.on_cnp(now);
            Self::sync_timer(f, &mut out);
        }
        out
    }

    fn on_switch_int(&mut self, pkt: &Packet, now: Time) -> HostOutput {
        let mut out = HostOutput::default();
        if let Some(f) = self.send.get_mut(pkt.flow) {
            f.cc.on_switch_int(pkt.int(), now);
            Self::sync_timer(f, &mut out);
        }
        out
    }

    /// A CC timer event fired for `flow` at `at`.
    pub fn on_cc_timer(&mut self, flow: FlowId, at: Time) -> HostOutput {
        let mut out = HostOutput::default();
        let Some(f) = self.send.get_mut(flow) else {
            return out;
        };
        if f.timer_at != Some(at) {
            return out; // stale event
        }
        f.timer_at = None;
        f.cc.on_timer(at);
        Self::sync_timer(f, &mut out);
        out
    }

    fn sync_timer(f: &mut SendFlow, out: &mut HostOutput) {
        let want = if f.done { None } else { f.cc.next_timer() };
        if want != f.timer_at {
            if let Some(t) = want {
                out.timer = Some((f.spec.id, t));
            }
            f.timer_at = want;
        }
    }

    /// Arm the RTO check chain for a freshly started flow. Returns the
    /// absolute time of the first check (always `Some` for a live flow).
    pub fn arm_rto(&mut self, flow: FlowId, now: Time) -> Option<Time> {
        let f = self.send.get_mut(flow)?;
        if f.done {
            return None;
        }
        let at = now + f.rto_interval();
        f.rto_at = Some(at);
        Some(at)
    }

    /// An RTO check event fired at `now`. Returns
    /// `(verdict, next check time)`; the caller kicks the uplink on
    /// [`RtoVerdict::Retransmit`], records the failure on
    /// [`RtoVerdict::GiveUp`], and schedules the next check.
    ///
    /// Stale events (superseded by a pulled-in check after ACK
    /// progress) are identified by the `rto_at` mirror and ignored. A
    /// no-progress interval with bytes outstanding triggers a go-back-N
    /// rewind and doubles the interval, up to [`MAX_RTO_SHIFT`]; the
    /// chain re-arms itself as long as the flow is live, so a flow that
    /// went idle behind a flap window keeps being supervised. With the
    /// give-up policy armed, a flow that exhausts its deadline or sees
    /// `giveup_rto_limit` consecutive no-progress checks at max backoff
    /// is abandoned instead: the chain ends (next time `None`) and the
    /// flow neither sends nor reacts to stragglers again.
    pub fn on_rto_check(&mut self, flow: FlowId, now: Time) -> (RtoVerdict, Option<Time>) {
        let (limit, deadline) = (self.giveup_rto_limit, self.flow_deadline);
        let Some(f) = self.send.get_mut(flow) else {
            return (RtoVerdict::None, None);
        };
        if f.rto_at != Some(now) {
            return (RtoVerdict::None, None); // stale event
        }
        f.rto_at = None;
        if f.done || f.failed {
            return (RtoVerdict::None, None);
        }
        // The absolute deadline outranks everything else: it fires even
        // for a flow making (too slow) progress.
        if deadline > 0 && now >= f.spec.start.saturating_add(deadline) {
            f.failed = true;
            return (RtoVerdict::GiveUp(FailReason::Deadline), None);
        }
        let progressed = f.bytes_acked > f.rto_progress;
        f.rto_progress = f.bytes_acked;
        let mut verdict = RtoVerdict::None;
        if !progressed && f.inflight() > 0 {
            // Already backed off to the cap and still nothing moved: one
            // more strike toward giving up.
            if f.rto_shift >= MAX_RTO_SHIFT {
                f.stall_checks += 1;
                if limit > 0 && f.stall_checks >= limit {
                    f.failed = true;
                    return (RtoVerdict::GiveUp(FailReason::RtoGiveUp), None);
                }
            }
            // No progress for a full RTO with bytes outstanding: rewind
            // and back off exponentially.
            f.bytes_sent = f.bytes_acked;
            f.next_avail = now;
            f.retransmits += 1;
            f.rto_shift = (f.rto_shift + 1).min(MAX_RTO_SHIFT);
            verdict = RtoVerdict::Retransmit;
        }
        let at = now + f.rto_interval();
        f.rto_at = Some(at);
        (verdict, Some(at))
    }

    /// Current RTO interval of a flow still under supervision.
    pub fn needs_rto(&self, flow: FlowId) -> Option<Time> {
        self.send
            .get(flow)
            .filter(|f| !f.done && !f.failed)
            .map(|f| f.rto_interval())
    }

    /// Abandon a live sending flow from outside (the watchdog's
    /// stall-failure path): it stops sending, ignores stragglers, and
    /// its RTO chain dies at the next (now stale) check. No-op on a
    /// flow that is already done or failed.
    pub fn abandon_flow(&mut self, flow: FlowId) {
        if let Some(f) = self.send.get_mut(flow) {
            if !f.done && !f.failed {
                f.failed = true;
                f.rto_at = None;
            }
        }
    }

    /// Remove completed flows from the round-robin ring (cheap GC called
    /// opportunistically by the simulator).
    ///
    /// The cursor keeps its position relative to the *surviving* entries:
    /// resetting it to the ring head on every completion would hand the
    /// next transmission to the earliest-registered flow each time a
    /// short flow finished, skewing the arbiter against late arrivals.
    pub fn gc_finished(&mut self) {
        let old_cursor = self.rr_cursor;
        let mut kept = 0;
        let mut kept_before_cursor = 0;
        for i in 0..self.rr.len() {
            let f = self.rr[i];
            if self.send.get(f).is_some_and(|s| !s.done && !s.failed) {
                self.rr[kept] = f;
                if i < old_cursor {
                    kept_before_cursor += 1;
                }
                kept += 1;
            }
        }
        self.rr.truncate(kept);
        // A cursor past the last survivor wraps to the ring head.
        self.rr_cursor = if kept == 0 {
            0
        } else {
            kept_before_cursor % kept
        };
    }

    /// Total go-back-N retransmissions across all sending flows.
    pub fn total_retransmits(&self) -> u64 {
        self.send.values().map(|f| f.retransmits).sum()
    }

    /// Per-flow transfer-state invariants (drain-time audit). Note that
    /// `bytes_acked > bytes_sent` is *transiently* legal — an RTO rewind
    /// pulls `bytes_sent` back while a fully-acking ACK is in flight —
    /// so only size bounds and completion exactness are asserted.
    #[cfg(feature = "audit")]
    pub fn audit_check(&self) {
        for f in self.send.values() {
            let size = f.spec.size_bytes;
            assert!(
                f.bytes_sent <= size && f.bytes_acked <= size,
                "AUDIT VIOLATION: host {:?} flow {:?} sent {} / acked {} \
                 beyond flow size {}",
                self.id,
                f.spec.id,
                f.bytes_sent,
                f.bytes_acked,
                size
            );
            assert!(
                !f.done || f.bytes_acked == size,
                "AUDIT VIOLATION: host {:?} flow {:?} done with only {}/{} acked",
                self.id,
                f.spec.id,
                f.bytes_acked,
                size
            );
            assert!(
                !(f.done && f.failed),
                "AUDIT VIOLATION: host {:?} flow {:?} both done and failed",
                self.id,
                f.spec.id
            );
        }
        for rf in self.recv.values() {
            let size = rf.spec.size_bytes;
            assert!(
                rf.expected <= size,
                "AUDIT VIOLATION: host {:?} flow {:?} received {} beyond size {}",
                self.id,
                rf.spec.id,
                rf.expected,
                size
            );
            assert!(
                !rf.complete || rf.expected == size,
                "AUDIT VIOLATION: host {:?} flow {:?} complete with only {}/{}",
                self.id,
                rf.spec.id,
                rf.expected,
                size
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedRateCc;
    use crate::units::{GBPS, US};

    fn spec(id: u32, size: u64) -> FlowSpec {
        FlowSpec {
            id: FlowId(id),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: size,
            start: 0,
        }
    }

    fn path() -> FlowPath {
        FlowPath {
            base_rtt: 10 * US,
            src_dc_rtt: 10 * US,
            dst_dc_rtt: 10 * US,
            cross_dc: false,
            line_rate_bps: 25 * GBPS,
            bottleneck_bps: 25 * GBPS,
            hops: 2,
        }
    }

    fn host_with_flow(rate: f64, size: u64) -> Host {
        let mut h = Host::new(NodeId(0), LinkId(0), 1000);
        h.add_send_flow(spec(0, size), path(), Box::new(FixedRateCc::new(rate)), 0);
        h
    }

    #[test]
    fn paces_at_cc_rate() {
        let mut h = host_with_flow(1e9, 10_000);
        let mut pool = PktPool::default();
        let p1 = match h.next_data_packet(0, &mut pool) {
            HostTx::Packet(p) => p,
            _ => panic!("expected packet"),
        };
        assert_eq!(p1.seq, 0);
        assert_eq!(p1.payload, 1000);
        // Immediately asking again: pacing blocks until size*8/rate.
        match h.next_data_packet(0, &mut pool) {
            HostTx::WakeAt(t) => {
                let expect = tx_time(p1.size as u64, 1_000_000_000);
                assert_eq!(t, expect);
            }
            _ => panic!("expected WakeAt"),
        }
    }

    #[test]
    fn last_packet_is_short() {
        let mut h = host_with_flow(25e9, 2500);
        let mut pool = PktPool::default();
        let sizes: Vec<u32> = (0..3)
            .map(|i| match h.next_data_packet(i * 1000 * US, &mut pool) {
                HostTx::Packet(p) => p.payload,
                _ => panic!("expected packet"),
            })
            .collect();
        assert_eq!(sizes, vec![1000, 1000, 500]);
        assert!(matches!(
            h.next_data_packet(10 * MS, &mut pool),
            HostTx::Idle
        ));
    }

    #[test]
    fn window_blocks_and_ack_unblocks() {
        let mut h = Host::new(NodeId(0), LinkId(0), 1000);
        h.add_send_flow(
            spec(0, 100_000),
            path(),
            Box::new(FixedRateCc::with_window(25e9, 1500)),
            0,
        );
        let mut pool = PktPool::default();
        // First packet fits the 1500-byte window.
        let p1 = match h.next_data_packet(0, &mut pool) {
            HostTx::Packet(p) => p,
            _ => panic!(),
        };
        // 1000 in flight, window 1500 → second allowed...
        let now = 1000 * US;
        let _p2 = match h.next_data_packet(now, &mut pool) {
            HostTx::Packet(p) => p,
            _ => panic!(),
        };
        // ...2000 in flight ≥ 1500 → blocked (Idle: window, not pacing).
        assert!(matches!(h.next_data_packet(now, &mut pool), HostTx::Idle));
        // ACK the first packet: window opens again.
        let data = p1;
        let ack = Packet::ack_for(99, &data, 1000);
        h.on_ack(&ack, now);
        assert!(matches!(
            h.next_data_packet(2 * now, &mut pool),
            HostTx::Packet(_)
        ));
    }

    #[test]
    fn receiver_acks_cumulatively_and_completes() {
        let mut h = Host::new(NodeId(1), LinkId(1), 1000);
        let s = FlowSpec {
            id: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 2000,
            start: 5 * US,
        };
        h.add_recv_flow(s, path(), Box::new(crate::cc::PlainReceiver));
        let mut pool = PktPool::default();
        let mut d1 = Packet::data(1, FlowId(0), NodeId(0), NodeId(1), 0, 1000, 0);
        let out1 = h.on_packet(&mut d1, 10 * US, &mut pool);
        assert_eq!(out1.ack.expect("data is acked").seq, 1000);
        assert!(out1.cnp.is_none());
        assert!(out1.completed.is_none());
        let mut d2 = Packet::data(2, FlowId(0), NodeId(0), NodeId(1), 1000, 1000, 0);
        let out2 = h.on_packet(&mut d2, 20 * US, &mut pool);
        let rec = out2.completed.expect("flow completed");
        assert_eq!(rec.size_bytes, 2000);
        assert_eq!(rec.start, 5 * US);
        assert_eq!(rec.finish, 20 * US);
    }

    #[test]
    fn out_of_order_data_is_not_acked_forward() {
        let mut h = Host::new(NodeId(1), LinkId(1), 1000);
        h.add_recv_flow(spec(0, 3000), path(), Box::new(crate::cc::PlainReceiver));
        let mut pool = PktPool::default();
        // Packet with seq 1000 arrives first: expected stays 0.
        let mut d = Packet::data(1, FlowId(0), NodeId(0), NodeId(1), 1000, 1000, 0);
        let out = h.on_packet(&mut d, 0, &mut pool);
        assert_eq!(
            out.ack.expect("hole is still acked").seq,
            0,
            "hole → cumulative ack stays at 0"
        );
    }

    #[test]
    fn rto_rewinds_on_stall() {
        let mut h = host_with_flow(25e9, 10_000);
        let mut pool = PktPool::default();
        // Send three packets, ack nothing.
        for _ in 0..3 {
            match h.next_data_packet(h.send_flow(FlowId(0)).unwrap().next_avail, &mut pool) {
                HostTx::Packet(_) => {}
                _ => panic!(),
            }
        }
        assert_eq!(h.send_flow(FlowId(0)).unwrap().bytes_sent, 3000);
        // First check records progress baseline (bytes_acked==0 initially
        // equals rto_progress==0 → "no progress" with inflight → rewind).
        let at = h.arm_rto(FlowId(0), 0).unwrap();
        let (verdict, next) = h.on_rto_check(FlowId(0), at);
        assert_eq!(verdict, RtoVerdict::Retransmit);
        assert!(next.is_some(), "chain must re-arm after a rewind");
        assert_eq!(h.send_flow(FlowId(0)).unwrap().bytes_sent, 0);
        assert_eq!(h.send_flow(FlowId(0)).unwrap().retransmits, 1);
    }

    #[test]
    fn rto_stale_events_are_ignored() {
        let mut h = host_with_flow(25e9, 10_000);
        let mut pool = PktPool::default();
        let _ = h.next_data_packet(0, &mut pool);
        let at = h.arm_rto(FlowId(0), 0).unwrap();
        // An event at a time the mirror doesn't expect is stale: no
        // rewind, no rescheduling (the real chain stays pending).
        let (verdict, next) = h.on_rto_check(FlowId(0), at + 1);
        assert_eq!(verdict, RtoVerdict::None);
        assert!(next.is_none());
        assert_eq!(h.send_flow(FlowId(0)).unwrap().rto_at, Some(at));
        // The genuine event still fires.
        let (verdict, _) = h.on_rto_check(FlowId(0), at);
        assert_eq!(verdict, RtoVerdict::Retransmit);
    }

    #[test]
    fn rto_backs_off_exponentially_and_caps() {
        let mut h = host_with_flow(25e9, 10_000);
        let mut pool = PktPool::default();
        let _ = h.next_data_packet(0, &mut pool);
        let base = h.send_flow(FlowId(0)).unwrap().rto_base;
        let mut at = h.arm_rto(FlowId(0), 0).unwrap();
        assert_eq!(at, base);
        let mut intervals = Vec::new();
        for _ in 0..7 {
            let (verdict, next) = h.on_rto_check(FlowId(0), at);
            assert_eq!(verdict, RtoVerdict::Retransmit, "stalled flow rewinds");
            let next = next.unwrap();
            intervals.push(next - at);
            // Go-back-N resend so bytes stay in flight for the next check.
            match h.next_data_packet(at, &mut pool) {
                HostTx::Packet(_) => {}
                _ => panic!("rewind must make the flow sendable again"),
            }
            at = next;
        }
        // Doubling per stall, capped at 16× base.
        let want: Vec<Time> = vec![
            2 * base,
            4 * base,
            8 * base,
            16 * base,
            16 * base,
            16 * base,
            16 * base,
        ];
        assert_eq!(intervals, want);
    }

    #[test]
    fn ack_progress_resets_backoff_and_pulls_in_check() {
        let mut h = host_with_flow(25e9, 10_000);
        let mut pool = PktPool::default();
        let p1 = match h.next_data_packet(0, &mut pool) {
            HostTx::Packet(p) => p,
            _ => panic!(),
        };
        let mut at = h.arm_rto(FlowId(0), 0).unwrap();
        // Three stalls (resending after each rewind): shift = 3, next
        // check far out.
        for _ in 0..3 {
            let (verdict, next) = h.on_rto_check(FlowId(0), at);
            assert_eq!(verdict, RtoVerdict::Retransmit);
            match h.next_data_packet(at, &mut pool) {
                HostTx::Packet(_) => {}
                _ => panic!(),
            }
            at = next.unwrap();
        }
        assert_eq!(h.send_flow(FlowId(0)).unwrap().rto_shift, 3);
        // Progress: backoff resets and the distant check is pulled in
        // (the ACK lands more than one base interval before the
        // backed-off check, so a base-cadence check beats it).
        let now = at - 2 * h.send_flow(FlowId(0)).unwrap().rto_base;
        let ack = Packet::ack_for(99, &p1, 1000);
        let out = h.on_ack(&ack, now);
        let f = h.send_flow(FlowId(0)).unwrap();
        assert_eq!(f.rto_shift, 0);
        assert_eq!(out.rto_check, Some((FlowId(0), now + f.rto_base)));
        assert_eq!(f.rto_at, Some(now + f.rto_base));
        // The old (superseded) event is now stale.
        let (verdict, next) = h.on_rto_check(FlowId(0), at);
        assert_eq!(verdict, RtoVerdict::None);
        assert!(next.is_none());
    }

    /// With the give-up policy armed, a flow that keeps striking out at
    /// max backoff is abandoned with a dead RTO chain — and stragglers
    /// can no longer resurrect it.
    #[test]
    fn giveup_fires_after_limit_strikes_at_max_shift() {
        let mut h = host_with_flow(25e9, 10_000);
        h.set_giveup(3, 0);
        let mut pool = PktPool::default();
        let p1 = match h.next_data_packet(0, &mut pool) {
            HostTx::Packet(p) => p,
            _ => panic!(),
        };
        let mut at = h.arm_rto(FlowId(0), 0).unwrap();
        let mut strikes = 0;
        let reason = loop {
            let (verdict, next) = h.on_rto_check(FlowId(0), at);
            match verdict {
                RtoVerdict::Retransmit => {
                    if h.send_flow(FlowId(0)).unwrap().rto_shift >= MAX_RTO_SHIFT {
                        strikes += 1;
                    }
                    match h.next_data_packet(at, &mut pool) {
                        HostTx::Packet(_) => {}
                        _ => panic!("rewound flow must resend"),
                    }
                    at = next.unwrap();
                }
                RtoVerdict::GiveUp(r) => break r,
                RtoVerdict::None => panic!("no stale events in this loop"),
            }
            assert!(strikes < 10, "give-up never fired");
        };
        assert_eq!(reason, FailReason::RtoGiveUp);
        let f = h.send_flow(FlowId(0)).unwrap();
        assert!(f.failed && !f.done);
        assert_eq!(f.stall_checks, 3);
        assert!(f.rto_at.is_none(), "chain must end on give-up");
        assert!(h.needs_rto(FlowId(0)).is_none());
        assert_eq!(h.active_send_flows(), 0);
        // A straggler ACK does not resurrect the abandoned flow.
        let ack = Packet::ack_for(99, &p1, 1000);
        let out = h.on_ack(&ack, at + MS);
        assert!(out.rto_check.is_none() && !out.sender_done);
        assert!(!h.send_flow(FlowId(0)).unwrap().done);
        // And GC removes it from the arbiter ring.
        h.gc_finished();
        assert!(matches!(
            h.next_data_packet(at + 2 * MS, &mut pool),
            HostTx::Idle
        ));
    }

    #[test]
    fn progress_resets_the_giveup_counter() {
        let mut h = host_with_flow(25e9, 10_000);
        h.set_giveup(2, 0);
        let mut pool = PktPool::default();
        let p1 = match h.next_data_packet(0, &mut pool) {
            HostTx::Packet(p) => p,
            _ => panic!(),
        };
        let mut at = h.arm_rto(FlowId(0), 0).unwrap();
        // Drive to max shift plus one strike (one short of the limit).
        for _ in 0..MAX_RTO_SHIFT + 1 {
            let (verdict, next) = h.on_rto_check(FlowId(0), at);
            assert_eq!(verdict, RtoVerdict::Retransmit);
            match h.next_data_packet(at, &mut pool) {
                HostTx::Packet(_) => {}
                _ => panic!(),
            }
            at = next.unwrap();
        }
        assert_eq!(h.send_flow(FlowId(0)).unwrap().stall_checks, 1);
        // Progress wipes the strike count.
        let ack = Packet::ack_for(99, &p1, 1000);
        let out = h.on_ack(&ack, at - 1);
        assert_eq!(h.send_flow(FlowId(0)).unwrap().stall_checks, 0);
        if let Some((_, t)) = out.rto_check {
            at = t;
        }
        let (verdict, _) = h.on_rto_check(FlowId(0), at);
        assert_eq!(
            verdict,
            RtoVerdict::None,
            "the progressed interval is not a strike"
        );
    }

    #[test]
    fn deadline_fires_even_with_progress() {
        let mut h = host_with_flow(25e9, 1_000_000);
        h.set_giveup(0, 10 * MS);
        let mut pool = PktPool::default();
        let mut at = h.arm_rto(FlowId(0), 0).unwrap();
        let mut acked = 0u64;
        let reason = loop {
            assert!(at < SEC, "deadline never fired");
            // Keep the flow trickling: progress before every check.
            let _ = h.next_data_packet(h.send_flow(FlowId(0)).unwrap().next_avail, &mut pool);
            acked += 1000;
            let d = Packet::data(1, FlowId(0), NodeId(0), NodeId(1), 0, 1000, 0);
            let ack = Packet::ack_for(2, &d, acked);
            let out = h.on_ack(&ack, at - 1);
            if let Some((_, t)) = out.rto_check {
                at = t;
            }
            match h.on_rto_check(FlowId(0), at) {
                (RtoVerdict::GiveUp(r), next) => {
                    assert!(next.is_none());
                    break r;
                }
                (_, Some(t)) => at = t,
                (v, None) => panic!("chain died without give-up: {v:?}"),
            }
        };
        assert_eq!(reason, FailReason::Deadline);
        assert!(at >= 10 * MS, "deadline cannot fire early");
        let f = h.send_flow(FlowId(0)).unwrap();
        assert!(f.failed);
        assert_eq!(f.bytes_acked, acked, "partial bytes preserved");
    }

    #[test]
    fn rto_check_always_pending_while_unacked() {
        // Regression: the check chain must survive arbitrary interleaving
        // of checks and ACKs — a live flow always has rto_at set.
        let mut h = host_with_flow(25e9, 3000);
        let mut pool = PktPool::default();
        for _ in 0..3 {
            let _ = h.next_data_packet(h.send_flow(FlowId(0)).unwrap().next_avail, &mut pool);
        }
        let mut at = h.arm_rto(FlowId(0), 0).unwrap();
        let mut acked = 0u64;
        for round in 0..30u64 {
            let f = h.send_flow(FlowId(0)).unwrap();
            if f.done {
                break;
            }
            assert!(
                f.rto_at.is_some(),
                "round {round}: live flow lost RTO supervision"
            );
            let (_, next) = h.on_rto_check(FlowId(0), at);
            let Some(t) = next else { break };
            at = t;
            if round % 3 == 2 && acked < 3000 {
                // Partial progress via a synthetic cumulative ACK.
                acked += 1000;
                let d = Packet::data(1, FlowId(0), NodeId(0), NodeId(1), 0, 1000, 0);
                let ack = Packet::ack_for(50 + round, &d, acked);
                let out = h.on_ack(&ack, at - 1);
                // An emitted rto_check supersedes our local `at`.
                if let Some((_, t)) = out.rto_check {
                    at = t;
                }
            }
        }
        // Fully acked → done → supervision ends.
        assert!(h.send_flow(FlowId(0)).unwrap().done);
        assert!(h.needs_rto(FlowId(0)).is_none());
    }

    #[test]
    fn gc_removes_done_flows() {
        let mut h = host_with_flow(25e9, 1000);
        let mut pool = PktPool::default();
        let p = match h.next_data_packet(0, &mut pool) {
            HostTx::Packet(p) => p,
            _ => panic!(),
        };
        let ack = Packet::ack_for(9, &p, 1000);
        h.on_ack(&ack, 100);
        assert_eq!(h.active_send_flows(), 0);
        h.gc_finished();
        assert!(matches!(h.next_data_packet(200, &mut pool), HostTx::Idle));
    }

    #[test]
    fn round_robin_between_flows() {
        let mut h = Host::new(NodeId(0), LinkId(0), 1000);
        h.add_send_flow(
            spec(0, 100_000),
            path(),
            Box::new(FixedRateCc::new(25e9)),
            0,
        );
        h.add_send_flow(
            spec(1, 100_000),
            path(),
            Box::new(FixedRateCc::new(25e9)),
            0,
        );
        let mut pool = PktPool::default();
        let mut seen = Vec::new();
        let mut now = 0;
        for _ in 0..4 {
            match h.next_data_packet(now, &mut pool) {
                HostTx::Packet(p) => seen.push(p.flow.0),
                HostTx::WakeAt(t) => {
                    now = t;
                    match h.next_data_packet(now, &mut pool) {
                        HostTx::Packet(p) => seen.push(p.flow.0),
                        _ => panic!(),
                    }
                }
                HostTx::Idle => panic!("flows should be active"),
            }
        }
        // Both flows get service in alternation.
        assert!(
            seen.windows(2).all(|w| w[0] != w[1]),
            "alternating: {seen:?}"
        );
    }

    /// Regression for the cursor-skew bug: `gc_finished` used to reset
    /// `rr_cursor` to 0 whenever any flow completed, handing the slot
    /// after every short-flow completion to the earliest-registered
    /// flow. Two long flows must keep alternating fairly while short
    /// flows churn through the ring.
    #[test]
    fn gc_preserves_round_robin_fairness_under_churn() {
        let mut h = Host::new(NodeId(0), LinkId(0), 1000);
        // Flow 0 is a short flow registered *first*, so the buggy reset
        // biases toward long flow 1 (the new ring head) after its
        // completion churns the ring.
        h.add_send_flow(spec(0, 1000), path(), Box::new(FixedRateCc::new(25e9)), 0);
        h.add_send_flow(
            spec(1, 1_000_000),
            path(),
            Box::new(FixedRateCc::new(25e9)),
            0,
        );
        h.add_send_flow(
            spec(2, 1_000_000),
            path(),
            Box::new(FixedRateCc::new(25e9)),
            0,
        );
        let mut pool = PktPool::default();
        let mut now = 0;
        let next = |h: &mut Host, now: &mut Time, pool: &mut PktPool| -> u32 {
            loop {
                match h.next_data_packet(*now, pool) {
                    HostTx::Packet(p) => return p.flow.0,
                    HostTx::WakeAt(t) => *now = t,
                    HostTx::Idle => panic!("long flows still active"),
                }
            }
        };
        let mut served: Vec<u32> = Vec::new();
        // One full round: 0 (short, completes), then the two long flows.
        assert_eq!(next(&mut h, &mut now, &mut pool), 0);
        served.push(next(&mut h, &mut now, &mut pool));
        // The short flow completes mid-round; GC churns the ring while
        // the cursor sits between the two long flows.
        let d = Packet::data(99, FlowId(0), NodeId(0), NodeId(1), 0, 1000, 0);
        let ack = Packet::ack_for(100, &d, 1000);
        let out = h.on_ack(&ack, now);
        assert!(out.sender_done);
        h.gc_finished();
        // More churn later in the test: register and complete another
        // short flow between long-flow transmissions.
        for round in 0..6 {
            served.push(next(&mut h, &mut now, &mut pool));
            if round == 2 {
                h.add_send_flow(spec(3, 1000), path(), Box::new(FixedRateCc::new(25e9)), now);
                assert_eq!(next(&mut h, &mut now, &mut pool), 3);
                let d = Packet::data(101, FlowId(3), NodeId(0), NodeId(1), 0, 1000, 0);
                let ack = Packet::ack_for(102, &d, 1000);
                assert!(h.on_ack(&ack, now).sender_done);
                h.gc_finished();
            }
        }
        // The two long flows alternate strictly: no double service after
        // either GC. (The buggy cursor reset serves flow 1 twice in a
        // row after flow 0 completes.)
        assert_eq!(served, vec![1, 2, 1, 2, 1, 2, 1]);
    }
}

//! Fabric invariant auditor (compiled behind `--features audit`).
//!
//! Every packet the simulator creates is tracked from birth (host NIC,
//! ACK/CNP generation, Switch-INT feedback) to death (delivery, buffer
//! overflow, injected fault), and the fabric's physics are asserted as
//! it runs:
//!
//! * **Byte conservation** — per flow, `injected == delivered +
//!   in-flight + dropped`, with drops split by cause (buffer vs fault).
//! * **PFC losslessness** — a lossless (PFC-enabled) switch never
//!   buffer-drops a data packet.
//! * **FIFO links** — packets arrive at the far end of every link in
//!   exactly the order they were put on the wire, at non-decreasing
//!   times (jitter is FIFO-clamped by the fault model; this checks it).
//! * **PFQ credit** — per-flow tokens never go negative, never exceed
//!   the burst cap, and the byte ledgers balance (checked in `pfq.rs`).
//! * **Monotonic event time** — the clock never runs backwards.
//! * **Pool accounting** — at drain, every `Box<Packet>` and `IntStack`
//!   the pool handed out is either recycled or found by a census of all
//!   queues and pending events; nothing leaks, nothing double-frees.
//! * **Buffer accounting** — each switch's shared-buffer `used` equals
//!   the bytes actually parked at its egresses.
//!
//! A violation is reported by panicking with an `AUDIT VIOLATION:`
//! message; the `fuzz_sim` harness catches the unwind, shrinks the
//! scenario, and prints a replayable reproduction.
//!
//! The auditor is observation-only: it draws no randomness and schedules
//! no events, so enabling the feature leaves seeded runs bit-identical.
//! With the feature off every hook compiles to nothing.

use std::collections::VecDeque;

use crate::event::Event;
use crate::packet::Packet;
use crate::pfc::PfcAction;
use crate::sim::{Liveness, Simulator};
use crate::types::{FlowId, LinkId, NodeId};
use crate::units::Time;

/// Deliberate invariant breakers, used to prove the auditor catches
/// real violations (`fuzz_sim` demo tests and `tests` below). Never set
/// on normal runs; `None` keeps every data path untouched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Chaos {
    /// Suppress every PFC pause the fabric tries to assert: under
    /// incast, a lossless switch then overflows and buffer-drops, which
    /// the losslessness invariant flags.
    SkipPfcPause,
    /// After this many processed events, steal one queued packet from
    /// the first non-empty egress FIFO and drop its box on the floor:
    /// the flow's byte conservation, the pool census, and (at a switch
    /// egress) the shared-buffer accounting all break at drain.
    LeakQueuedPacket { after_events: u64 },
    /// Swallow the liveness watchdog's verdict: the stall is detected
    /// but never reported and no flow is failed. A genuinely stalled
    /// run then opens a window past the stall deadline with no report —
    /// which the finalize-time watchdog cross-check flags.
    MuteWatchdog,
}

/// Per-flow packet/byte ledger, one per flow id (control packets are
/// tagged with their flow, so ACK/CNP/Switch-INT traffic is conserved
/// under the same flow's ledger as its data).
#[derive(Clone, Copy, Default, Debug)]
pub struct FlowLedger {
    pub injected_pkts: u64,
    pub injected_bytes: u64,
    pub delivered_pkts: u64,
    pub delivered_bytes: u64,
    pub buffer_drop_pkts: u64,
    pub buffer_drop_bytes: u64,
    pub fault_drop_pkts: u64,
    pub fault_drop_bytes: u64,
    pub blackhole_drop_pkts: u64,
    pub blackhole_drop_bytes: u64,
}

impl FlowLedger {
    /// Element-wise sum: a cross-shard flow's ledger is the sum of its
    /// shards' ledgers.
    pub(crate) fn add(&mut self, o: &FlowLedger) {
        self.injected_pkts += o.injected_pkts;
        self.injected_bytes += o.injected_bytes;
        self.delivered_pkts += o.delivered_pkts;
        self.delivered_bytes += o.delivered_bytes;
        self.buffer_drop_pkts += o.buffer_drop_pkts;
        self.buffer_drop_bytes += o.buffer_drop_bytes;
        self.fault_drop_pkts += o.fault_drop_pkts;
        self.fault_drop_bytes += o.fault_drop_bytes;
        self.blackhole_drop_pkts += o.blackhole_drop_pkts;
        self.blackhole_drop_bytes += o.blackhole_drop_bytes;
    }

    /// Flow `i`'s conservation: everything injected was delivered,
    /// dropped (by cause), or is still in flight (`seen_*`).
    pub(crate) fn assert_conserved(&self, i: usize, seen_pkts: u64, seen_bytes: u64) {
        let pkts = self.delivered_pkts
            + self.buffer_drop_pkts
            + self.fault_drop_pkts
            + self.blackhole_drop_pkts
            + seen_pkts;
        let bytes = self.delivered_bytes
            + self.buffer_drop_bytes
            + self.fault_drop_bytes
            + self.blackhole_drop_bytes
            + seen_bytes;
        assert!(
            self.injected_pkts == pkts && self.injected_bytes == bytes,
            "AUDIT VIOLATION: conservation broken for flow {i}: \
             injected {}p/{}B but delivered {}p/{}B + buffer-dropped \
             {}p/{}B + fault-dropped {}p/{}B + black-holed {}p/{}B \
             + in-flight {}p/{}B",
            self.injected_pkts,
            self.injected_bytes,
            self.delivered_pkts,
            self.delivered_bytes,
            self.buffer_drop_pkts,
            self.buffer_drop_bytes,
            self.fault_drop_pkts,
            self.fault_drop_bytes,
            self.blackhole_drop_pkts,
            self.blackhole_drop_bytes,
            seen_pkts,
            seen_bytes
        );
    }
}

/// Per-link wire mirror: ids of packets currently between serialization
/// and arrival, in the order they were scheduled.
#[derive(Default, Debug)]
struct WireFifo {
    expect: VecDeque<u64>,
    last_arrival: Time,
}

/// The auditor state hanging off [`Simulator`] when the `audit` feature
/// is enabled.
#[derive(Default)]
pub struct Auditor {
    flows: Vec<FlowLedger>,
    wire: Vec<WireFifo>,
    /// Deliberate invariant breaker for auditor self-tests.
    pub chaos: Option<Chaos>,
    chaos_fired: bool,
    /// Shard-mode drain stash: `(ledger, in-flight pkts, in-flight
    /// bytes)` per flow. Cross-shard flows inject in one shard and
    /// deliver in another, so per-flow conservation only balances
    /// globally — [`crate::shard::run_sharded`] sums these over shards
    /// and asserts the total.
    pub shard_census: Vec<(FlowLedger, u64, u64)>,
    /// The last window the liveness watchdog judged while armed: its
    /// start time and the snapshot it saw (fabric-wide when sharded).
    pub(crate) watched: Option<(Time, Liveness)>,
}

impl Auditor {
    pub fn new(n_links: usize) -> Self {
        Auditor {
            flows: Vec::new(),
            wire: (0..n_links).map(|_| WireFifo::default()).collect(),
            chaos: None,
            chaos_fired: false,
            shard_census: Vec::new(),
            watched: None,
        }
    }

    /// Read access to a flow's ledger (diagnostics and tests).
    pub fn ledger(&self, flow: FlowId) -> FlowLedger {
        self.flows.get(flow.index()).copied().unwrap_or_default()
    }

    /// Reserve wire-mirror capacity so steady-state tracking allocates
    /// nothing once the in-flight population has been explored (keeps
    /// the allocation gate green with the auditor compiled in).
    pub fn prewarm(&mut self, per_link: usize) {
        for w in &mut self.wire {
            w.expect.reserve(per_link.saturating_sub(w.expect.len()));
        }
    }

    fn ledger_mut(&mut self, flow: FlowId) -> &mut FlowLedger {
        let i = flow.index();
        if i >= self.flows.len() {
            self.flows.resize(i + 1, FlowLedger::default());
        }
        &mut self.flows[i]
    }

    /// A packet was born (host data, ACK/CNP, or Switch-INT feedback).
    pub(crate) fn on_born(&mut self, pkt: &Packet) {
        let led = self.ledger_mut(pkt.flow);
        led.injected_pkts += 1;
        led.injected_bytes += pkt.size as u64;
    }

    /// A packet reached its sink host and is about to be recycled.
    pub(crate) fn on_delivered(&mut self, pkt: &Packet) {
        let led = self.ledger_mut(pkt.flow);
        led.delivered_pkts += 1;
        led.delivered_bytes += pkt.size as u64;
    }

    /// A packet was discarded by an injected link fault.
    pub(crate) fn on_fault_drop(&mut self, pkt: &Packet) {
        let led = self.ledger_mut(pkt.flow);
        led.fault_drop_pkts += 1;
        led.fault_drop_bytes += pkt.size as u64;
    }

    /// A packet died at (or inside) a crashed node — its own ledger
    /// category, so the census splits loss by cause.
    pub(crate) fn on_blackhole(&mut self, pkt: &Packet) {
        let led = self.ledger_mut(pkt.flow);
        led.blackhole_drop_pkts += 1;
        led.blackhole_drop_bytes += pkt.size as u64;
    }

    /// An arrival was scheduled: the packet is now on `link`'s wire.
    pub(crate) fn on_wire(&mut self, link: LinkId, pkt: &Packet) {
        self.wire[link.index()].expect.push_back(pkt.id);
    }

    /// A packet arrived at the far end of `link`: it must be the oldest
    /// one on the wire, at a non-regressing time that never precedes
    /// the packet's own send timestamp (the receive side computes RTT
    /// samples as `now - ts_sent`; an inverted pair would silently feed
    /// garbage into every delay-based controller).
    pub(crate) fn on_arrival(&mut self, link: LinkId, pkt: &Packet, now: Time) {
        assert!(
            now >= pkt.ts_sent,
            "AUDIT VIOLATION: packet {} arrived on link {:?} at {now}, \
             before its own send timestamp {}",
            pkt.id,
            link,
            pkt.ts_sent
        );
        let w = &mut self.wire[link.index()];
        assert!(
            now >= w.last_arrival,
            "AUDIT VIOLATION: arrival time regressed on link {:?} \
             ({now} < {})",
            link,
            w.last_arrival
        );
        w.last_arrival = now;
        match w.expect.pop_front() {
            Some(id) if id == pkt.id => {}
            Some(id) => panic!(
                "AUDIT VIOLATION: FIFO order violated on link {:?}: \
                 expected packet {id}, got {}",
                link, pkt.id
            ),
            None => panic!(
                "AUDIT VIOLATION: packet {} arrived on link {:?} with \
                 nothing on the wire",
                pkt.id, link
            ),
        }
    }

    /// Chaos shim on the PFC pause decision (identity unless
    /// [`Chaos::SkipPfcPause`] is armed).
    pub(crate) fn chaos_pfc_action(&self, act: PfcAction) -> PfcAction {
        if matches!(self.chaos, Some(Chaos::SkipPfcPause)) {
            PfcAction::None
        } else {
            act
        }
    }
}

impl Simulator {
    /// Per-event audit work, called at the top of [`Simulator::step`]:
    /// the clock must be monotonic, and an armed leak chaos steals its
    /// packet here.
    pub(crate) fn audit_on_event(&mut self, t: Time) {
        assert!(
            t >= self.now,
            "AUDIT VIOLATION: event time went backwards ({t} < {})",
            self.now
        );
        if let Some(Chaos::LeakQueuedPacket { after_events }) = self.audit.chaos {
            if !self.audit.chaos_fired && self.out.events_processed >= after_events {
                for lk in &mut self.links {
                    if let Some(p) = lk.queues.dequeue() {
                        drop(p); // the pool never gets this box back
                        self.audit.chaos_fired = true;
                        break;
                    }
                }
            }
        }
    }

    /// A packet with no route is a routing-table violation outright.
    pub(crate) fn audit_no_route(&self, pkt: &Packet, node: NodeId) {
        panic!(
            "AUDIT VIOLATION: no route for packet {} (flow {:?}) at {:?}",
            pkt.id, pkt.flow, node
        );
    }

    /// Finalize-time watchdog cross-check: the last window the watchdog
    /// judged armed must not have opened past its deadline without a
    /// report — catches a muted or suppressed watchdog (see
    /// [`Chaos::MuteWatchdog`]). The snapshot is the one the window
    /// function saw, fabric-wide in a sharded run, so the check holds
    /// at every shard count.
    pub(crate) fn audit_watchdog_check(&self) {
        let Some((gmin, live)) = self.audit.watched else {
            return;
        };
        if let Some(deadline) = self.watchdog_deadline(&live) {
            assert!(
                gmin <= deadline,
                "AUDIT VIOLATION: no receiver progress since {} (window {}, next event {gmin}) \
                 with {} unfinished flows, but the watchdog never reported",
                live.progress_at,
                self.cfg.watchdog_window,
                self.unfinished(&live)
            );
        }
    }

    /// A switch buffer refused a packet: record the drop in the flow's
    /// ledger and flag it immediately if the switch claims losslessness.
    pub(crate) fn audit_on_buffer_drop(&mut self, node: NodeId, pkt: &Packet) {
        let led = self.audit.ledger_mut(pkt.flow);
        led.buffer_drop_pkts += 1;
        led.buffer_drop_bytes += pkt.size as u64;
        let lossless = self.nodes[node.index()]
            .as_switch()
            .is_some_and(|s| s.pfc.enabled);
        if lossless && pkt.is_data() {
            panic!(
                "AUDIT VIOLATION: lossless (PFC-enabled) switch {:?} \
                 buffer-dropped data packet {} of flow {:?}",
                node, pkt.id, pkt.flow
            );
        }
    }

    /// The drain-time audit, run from `finalize()`: a full census of
    /// every place a packet can legally live (egress FIFOs, per-flow
    /// queues, in-flight arrivals) reconciled against the per-flow
    /// ledgers, the pool's outstanding-box counters, the wire mirrors,
    /// the switches' buffer accounting, and the per-module self-checks.
    pub(crate) fn audit_drain_check(&mut self) {
        let nf = self.audit.flows.len().max(self.flows.len());
        self.audit.flows.resize(nf, FlowLedger::default());
        let mut seen_pkts = vec![0u64; nf];
        let mut seen_bytes = vec![0u64; nf];
        let mut live_boxes: i64 = 0;
        let mut live_stacks: i64 = 0;
        let mut pending_arrivals: u64 = 0;
        {
            let mut visit = |p: &Packet| {
                let i = p.flow.index();
                assert!(
                    i < nf,
                    "AUDIT VIOLATION: live packet {} belongs to \
                     unregistered flow {:?}",
                    p.id,
                    p.flow
                );
                seen_pkts[i] += 1;
                seen_bytes[i] += p.size as u64;
                live_boxes += 1;
                if p.int.is_some() {
                    live_stacks += 1;
                }
            };
            for lk in &self.links {
                lk.audit_for_each_queued(&mut visit);
            }
            self.events.for_each_pending(|_, ev| {
                if let Event::Arrival { packet, .. } = ev {
                    pending_arrivals += 1;
                    visit(packet);
                }
            });
        }

        // Per-flow byte/packet conservation. A shard only sees its side
        // of cross-shard flows (bytes born here, delivered elsewhere),
        // so in shard mode the ledgers are stashed for the global
        // cross-shard reconciliation in `shard::run_sharded` instead of
        // being asserted locally.
        if self.shard.is_some() {
            let census: Vec<_> = self
                .audit
                .flows
                .iter()
                .enumerate()
                .map(|(i, led)| (*led, seen_pkts[i], seen_bytes[i]))
                .collect();
            self.audit.shard_census = census;
        } else {
            for (i, led) in self.audit.flows.iter().enumerate() {
                led.assert_conserved(i, seen_pkts[i], seen_bytes[i]);
            }
        }

        // Pool census: outstanding boxes must all be findable.
        assert_eq!(
            self.pkt_pool.outstanding_packets(),
            live_boxes,
            "AUDIT VIOLATION: packet-box leak: pool has {} boxes \
             outstanding but the census found {}",
            self.pkt_pool.outstanding_packets(),
            live_boxes
        );
        assert_eq!(
            self.pkt_pool.outstanding_int_stacks(),
            live_stacks,
            "AUDIT VIOLATION: INT-stack leak: pool has {} stacks \
             outstanding but the census found {} riding live packets",
            self.pkt_pool.outstanding_int_stacks(),
            live_stacks
        );

        // Wire mirrors must exactly cover the pending arrivals.
        let on_wire: u64 = self.audit.wire.iter().map(|w| w.expect.len() as u64).sum();
        assert_eq!(
            on_wire, pending_arrivals,
            "AUDIT VIOLATION: wire mirror out of sync: {on_wire} packets \
             tracked on wires vs {pending_arrivals} pending arrivals"
        );

        // Drop ledgers cross-checked against the engine's own counters.
        let ledger_buf: u64 = self.audit.flows.iter().map(|l| l.buffer_drop_pkts).sum();
        let switch_buf: u64 = self
            .nodes
            .iter()
            .filter_map(|n| n.as_switch())
            .map(|s| s.buffer.dropped_packets)
            .sum();
        assert_eq!(
            ledger_buf, switch_buf,
            "AUDIT VIOLATION: buffer-drop ledger ({ledger_buf}) disagrees \
             with switch counters ({switch_buf})"
        );
        let ledger_fault: u64 = self.audit.flows.iter().map(|l| l.fault_drop_pkts).sum();
        let link_fault: u64 = self
            .links
            .iter()
            .filter_map(|l| l.faults.as_ref())
            .map(|f| f.drops)
            .sum();
        assert_eq!(
            ledger_fault, link_fault,
            "AUDIT VIOLATION: fault-drop ledger ({ledger_fault}) disagrees \
             with link fault counters ({link_fault})"
        );
        let ledger_bh: u64 = self.audit.flows.iter().map(|l| l.blackhole_drop_pkts).sum();
        assert_eq!(
            ledger_bh, self.out.blackhole_drops,
            "AUDIT VIOLATION: blackhole ledger ({ledger_bh}) disagrees \
             with the engine counter ({})",
            self.out.blackhole_drops
        );

        // Shared-buffer accounting per switch.
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(sw) = n.as_switch() {
                let queued: u64 = self
                    .links
                    .iter()
                    .filter(|l| l.src.index() == i)
                    .map(|l| l.queued_bytes())
                    .sum();
                sw.audit_check_buffer(queued);
            }
        }

        // Module self-checks: PFQ credit/byte ledgers, fault
        // bookkeeping, host transfer state.
        for lk in &self.links {
            if let Some(pfq) = &lk.pfq {
                pfq.audit_check();
            }
            if let Some(fs) = &lk.faults {
                fs.audit_check();
            }
        }
        for n in &self.nodes {
            if let Some(h) = n.as_host() {
                h.audit_check();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::NoCcFactory;
    use crate::config::SimConfig;
    use crate::link::LinkOpts;
    use crate::pfc::PfcConfig;
    use crate::topology::{NetBuilder, Network};
    use crate::units::{GBPS, MS, SEC, US};

    /// h0/h2 — s — h1 with a configurable shared buffer.
    fn incast_net(buffer: u64) -> (Network, NodeId, NodeId, NodeId) {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let s = b.add_switch(buffer, PfcConfig::dc_switch());
        for h in [h0, h1, h2] {
            b.connect(h, s, 10 * GBPS, 1 * US, LinkOpts::default());
        }
        (b.build(), h0, h1, h2)
    }

    #[test]
    fn clean_incast_run_passes_every_invariant() {
        let (net, h0, h1, h2) = incast_net(200_000);
        let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
        sim.add_flow(h0, h1, 2_000_000, 0);
        sim.add_flow(h2, h1, 2_000_000, 0);
        // `run_until_flows_complete` runs the full drain check.
        assert!(sim.run_until_flows_complete());
        assert!(sim.total_pfc_pauses() > 0, "incast must trigger PFC");
        // The run stops at the last FCT with trailing ACKs still in
        // flight, so delivered can lag injected — the drain check above
        // already proved the difference is exactly the in-flight set.
        let led = sim.audit.ledger(FlowId(0));
        assert!(led.injected_pkts > 0 && led.delivered_pkts <= led.injected_pkts);
        assert_eq!(led.buffer_drop_pkts + led.fault_drop_pkts, 0);
    }

    #[test]
    fn faulted_run_conserves_bytes_split_by_cause() {
        let (net, h0, h1, _) = incast_net(22_000_000);
        let cfg = SimConfig {
            stop_time: 2 * SEC,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
        // The h0→h1 data path crosses LinkId(0) then LinkId(3).
        sim.inject_link_faults(LinkId(3), crate::fault::FaultProfile::uniform_loss(0.02))
            .expect("valid link fault");
        sim.add_flow(h0, h1, 500_000, 0);
        assert!(sim.run_until_flows_complete());
        assert!(sim.out.fault_drops > 0);
        let led = sim.audit.ledger(FlowId(0));
        assert_eq!(led.fault_drop_pkts, sim.out.fault_drops);
        assert!(led.injected_pkts >= led.delivered_pkts + led.fault_drop_pkts);
        assert_eq!(led.buffer_drop_pkts, 0);
    }

    #[test]
    fn chaos_skip_pfc_pause_is_caught() {
        let (net, h0, h1, h2) = incast_net(200_000);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
            sim.audit.chaos = Some(Chaos::SkipPfcPause);
            sim.add_flow(h0, h1, 2_000_000, 0);
            sim.add_flow(h2, h1, 2_000_000, 0);
            sim.run_until_flows_complete();
        }));
        let msg = panic_text(caught.expect_err("suppressed PFC must overflow the buffer"));
        assert!(
            msg.contains("AUDIT VIOLATION") && msg.contains("lossless"),
            "unexpected violation: {msg}"
        );
    }

    #[test]
    fn chaos_leaked_packet_is_caught_at_drain() {
        // The incast keeps the switch egress toward h1 backlogged, so
        // the leak chaos always finds a queued packet to steal.
        let (net, h0, h1, h2) = incast_net(200_000);
        let cfg = SimConfig {
            stop_time: 100 * MS,
            ..SimConfig::default()
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
            sim.audit.chaos = Some(Chaos::LeakQueuedPacket { after_events: 100 });
            sim.add_flow(h0, h1, 500_000, 0);
            sim.add_flow(h2, h1, 500_000, 0);
            sim.run_until_flows_complete();
        }));
        let msg = panic_text(caught.expect_err("a stolen packet must break conservation"));
        assert!(
            msg.contains("AUDIT VIOLATION"),
            "unexpected violation: {msg}"
        );
    }

    fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
        match e.downcast::<String>() {
            Ok(s) => *s,
            Err(e) => e
                .downcast::<&'static str>()
                .map(|s| s.to_string())
                .unwrap_or_else(|_| "<non-string panic>".into()),
        }
    }
}

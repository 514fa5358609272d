//! The simulator core: event dispatch, forwarding, and the DCI-switch
//! data-plane behaviours (near-source Switch-INT feedback, per-flow
//! queueing with credit-controlled dequeue).

use crate::cc::{CcEnv, CcFactory};
use crate::config::{ConfigError, SimConfig};
use crate::event::{boundary_seq, Event, EventQueue};
use crate::fault::{FaultProfile, FaultState, NodeFault};
use crate::flow::{FailReason, FctRecord, FlowOutcome, FlowPath, FlowSpec, OutcomeRecord};
use crate::host::{HostTx, RtoVerdict};
use crate::int::IntHop;
use crate::monitor::{MonitorLog, MonitorSpec, Sample};
use crate::node::Node;
use crate::packet::{Packet, PacketKind, PktPool, CONTROL_PACKET_BYTES};
use crate::pfc::PfcAction;
use crate::pfq::PfqDequeue;
use crate::rng::{SimRng, Xoshiro256StarStar};
use crate::routing::RoutingTables;
use crate::topology::Network;
use crate::trace::{Trace, TraceEvent};
use crate::types::{FlowId, LinkId, NodeId, Priority};
use crate::units::{tx_time, Time, US};

/// The liveness watchdog's diagnostic: the run made no receiver
/// progress for a full detection window while flows were outstanding.
/// Deterministic — a stalled run produces the identical report at
/// every shard count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogReport {
    /// When the stall was declared: `last_progress_at + window`.
    pub stalled_at: Time,
    /// Last instant any receiver advanced its in-order byte count.
    pub last_progress_at: Time,
    /// The configured detection window.
    pub window: Time,
    /// Flows neither completed nor given up at declaration.
    pub unfinished_flows: u32,
    /// In-order bytes delivered fabric-wide at declaration.
    pub delivered_bytes: u64,
    /// PFC pause transitions observed fabric-wide at declaration.
    pub pfc_pauses: u64,
}

/// The inputs the liveness watchdog judges — last receiver progress,
/// in-order bytes delivered, completions, sender give-ups and PFC pause
/// transitions — for one engine or, in a sharded run, the whole fabric
/// (see [`Self::merge`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Liveness {
    pub progress_at: Time,
    pub delivered: u64,
    pub completed: u64,
    pub giveups: u64,
    pub pfc_pauses: u64,
}

impl Liveness {
    /// Combine two engines' snapshots: progress is the later of the two,
    /// the counters add. `Liveness::default()` is the identity.
    pub fn merge(self, o: Liveness) -> Liveness {
        Liveness {
            progress_at: self.progress_at.max(o.progress_at),
            delivered: self.delivered + o.delivered,
            completed: self.completed + o.completed,
            giveups: self.giveups + o.giveups,
            pfc_pauses: self.pfc_pauses + o.pfc_pauses,
        }
    }
}

/// Everything a run produces.
#[derive(Default)]
pub struct SimOutput {
    /// Completion records, in completion order.
    pub fcts: Vec<FctRecord>,
    /// One terminal outcome per registered flow — completed or failed
    /// with a typed reason and partial byte count — in `(ended, flow)`
    /// order. Populated at finalize; a run never leaves a flow
    /// unaccounted (flows still in flight at `stop_time` fail with
    /// [`FailReason::Unfinished`]).
    pub outcomes: Vec<OutcomeRecord>,
    /// The liveness watchdog's verdict, if it declared a global stall
    /// (requires `cfg.watchdog_window > 0`).
    pub watchdog: Option<WatchdogReport>,
    /// (time, switch) of every PFC pause transition.
    pub pfc_events: Vec<(Time, NodeId)>,
    /// Periodic samples.
    pub monitor: MonitorLog,
    pub events_processed: u64,
    /// Total events ever scheduled (≥ `events_processed`; the rest were
    /// still pending at finalize).
    pub events_scheduled: u64,
    /// High-water mark of the event queue.
    pub peak_queue_depth: u64,
    pub finished_at: Time,
    /// Shared-buffer overflow drops at switches (congestion loss),
    /// aggregated at finalize. Zero on a lossless (PFC) fabric even
    /// when fault injection is active.
    pub buffer_drops: u64,
    /// Packets discarded by injected link faults (random loss, burst
    /// loss, down links), aggregated at finalize.
    pub fault_drops: u64,
    /// Packets whose arrival was delayed by injected jitter.
    pub fault_jittered: u64,
    /// Down transitions of fault-injected links that actually fired.
    pub link_flaps: u64,
    pub retransmits: u64,
    /// Data packets CE-marked at switch enqueue.
    pub ecn_marks: u64,
    /// Packets discarded at (or inside) a crashed node: arrivals at a
    /// down host or switch, and the buffered packets a switch drains
    /// when it dies. Distinct from `fault_drops` (wire-level link
    /// faults).
    pub blackhole_drops: u64,
    /// Telemetry actions suppressed by a control-plane outage: INT hop
    /// insertions skipped and Switch-INT feedback opportunities not
    /// taken while dark.
    pub int_suppressed: u64,
}

impl SimOutput {
    /// All packet loss, regardless of cause.
    #[inline]
    pub fn total_dropped(&self) -> u64 {
        self.buffer_drops + self.fault_drops + self.blackhole_drops
    }

    /// Outcome records of flows that did not complete.
    pub fn failed(&self) -> impl Iterator<Item = &OutcomeRecord> {
        self.outcomes.iter().filter(|o| o.outcome.is_failed())
    }
}

/// A flow's terminal state: the per-flow slot behind
/// [`SimOutput::outcomes`].
#[derive(Clone, Copy)]
struct FlowEnd {
    ended: Time,
    outcome: FlowOutcome,
    acked: u64,
}

/// The simulator.
pub struct Simulator {
    pub now: Time,
    pub cfg: SimConfig,
    pub(crate) events: EventQueue,
    pub nodes: Vec<Node>,
    pub links: Vec<Link2>,
    pub(crate) routes: RoutingTables,
    pub hosts: Vec<NodeId>,
    pub flows: Vec<FlowSpec>,
    /// Resolved path of each registered flow, parallel to `flows`.
    pub(crate) paths: Vec<FlowPath>,
    factory: Box<dyn CcFactory>,
    /// Per-link ECN samplers: each egress draws from its own substream
    /// keyed by `(cfg.seed ⊕ ECN_STREAM_SALT, link id)`, so the draw
    /// sequence a link sees depends only on that link's enqueue history —
    /// never on interleaving with other links. That independence is what
    /// lets a sharded run reproduce the single-threaded mark pattern.
    ecn_rngs: Vec<Xoshiro256StarStar>,
    /// Shard context when this simulator runs as one shard of a
    /// [`crate::shard::run_sharded`] run; `None` in ordinary runs.
    pub(crate) shard: Option<crate::shard::ShardCtx>,
    /// Packet-id source plus the recycled heap boxes (packets and INT
    /// stacks) that make the steady-state data path allocation-free: a
    /// packet lives in exactly one box from birth at the host NIC to
    /// recycling at its sink.
    pub pkt_pool: PktPool,
    pub out: SimOutput,
    /// Node-level fault table, replicated on every shard so down-state
    /// queries ([`Self::node_is_down`]) answer identically everywhere;
    /// the crash/restart *actions* (buffer drain, traces) are events
    /// owned by the crashed node's shard.
    node_faults: Vec<NodeFault>,
    /// Control-plane outage windows `[from, until)` — queried per
    /// telemetry action, never event-driven, so they replicate freely.
    ctrl_outages: Vec<(Time, Time)>,
    /// Per-flow end-state slots, parallel to `flows`. A completion
    /// replaces an earlier failure (see [`Self::note_flow_end`]).
    flow_end: Vec<Option<FlowEnd>>,
    /// `Some` slots in `flow_end` — the run-loop termination count.
    ended_count: usize,
    /// Flows whose *sender* saw its final ACK, parallel to `flows`.
    /// Survives send-state GC; the finalize backfill uses it to avoid
    /// mislabeling a delivered cross-shard flow as unfinished.
    sender_done: Vec<bool>,
    /// Monotone count of sender-side give-ups (never decremented, even
    /// if a straggling completion later supersedes the failure): one
    /// half of the watchdog's progress metric.
    pub(crate) giveup_count: u64,
    /// Sim time of the last in-order byte delivered at any receiver
    /// this engine owns.
    pub(crate) last_progress_at: Time,
    /// In-order bytes delivered at receivers this engine owns.
    pub(crate) delivered_total: u64,
    /// Optional flight recorder (see [`crate::trace`]). Off by default.
    pub trace: Option<Trace>,
    /// Fabric invariant auditor (see [`crate::audit`]). Observation-only:
    /// it draws no randomness and schedules nothing, so seeded runs stay
    /// bit-identical with the feature on or off.
    #[cfg(feature = "audit")]
    pub audit: crate::audit::Auditor,
}

// The link type is defined in `link.rs`; alias locally for brevity.
use crate::link::Link as Link2;

/// Mixed into the simulation seed before deriving the per-link ECN
/// substreams, so they can never collide with the fault substreams (or
/// any other consumer keyed off the raw seed).
const ECN_STREAM_SALT: u64 = 0x00EC_117E_57A7_5EED;

impl Simulator {
    /// Create a simulator over a built network, panicking on degenerate
    /// inputs (see [`crate::config::validate`]). Use [`Self::try_new`]
    /// to handle the error instead.
    pub fn new(net: Network, cfg: SimConfig, factory: Box<dyn CcFactory>) -> Self {
        match Self::try_new(net, cfg, factory) {
            Ok(sim) => sim,
            Err(e) => panic!("invalid simulation config: {e}"),
        }
    }

    /// Fallible constructor: rejects zero-byte MTUs, empty or host-less
    /// topologies, links slower than the pacing floor, and inverted ECN
    /// thresholds with a typed [`ConfigError`] instead of running a
    /// nonsensical fabric.
    pub fn try_new(
        net: Network,
        cfg: SimConfig,
        factory: Box<dyn CcFactory>,
    ) -> Result<Self, ConfigError> {
        crate::config::validate(&cfg, &net)?;
        #[cfg(feature = "audit")]
        let n_links = net.links.len();
        let ecn_rngs = (0..net.links.len() as u64)
            .map(|l| Xoshiro256StarStar::substream(cfg.seed ^ ECN_STREAM_SALT, l))
            .collect();
        let mut sim = Simulator {
            now: 0,
            ecn_rngs,
            shard: None,
            cfg,
            events: EventQueue::new(),
            nodes: net.nodes,
            links: net.links,
            routes: net.routes,
            hosts: net.hosts,
            flows: Vec::new(),
            paths: Vec::new(),
            factory,
            pkt_pool: PktPool::default(),
            out: SimOutput::default(),
            node_faults: Vec::new(),
            ctrl_outages: Vec::new(),
            flow_end: Vec::new(),
            ended_count: 0,
            sender_done: Vec::new(),
            giveup_count: 0,
            last_progress_at: 0,
            delivered_total: 0,
            trace: None,
            #[cfg(feature = "audit")]
            audit: crate::audit::Auditor::new(n_links),
        };
        if sim.cfg.monitor_interval > 0 {
            sim.events.schedule(0, Event::MonitorTick);
        }
        let (limit, deadline) = (sim.cfg.giveup_rto_limit, sim.cfg.flow_deadline);
        for n in &mut sim.nodes {
            if let Some(h) = n.as_host_mut() {
                h.set_giveup(limit, deadline);
            }
        }
        Ok(sim)
    }

    /// What the monitor samples (set before running).
    pub fn set_monitor(&mut self, spec: MonitorSpec) {
        self.out.monitor = MonitorLog::new(spec);
    }

    /// Attach a flight recorder with the given ring capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// Pre-provision the allocation-sensitive engine structures: spare
    /// packet/INT boxes in the pool, room for `pending_events` pending
    /// events in the event queue, ring capacity in every per-egress
    /// priority queue (`pending_events` per class also bounds the worst
    /// single-egress burst), and ring capacity in every per-flow queue
    /// that already exists. Allocation-budget tests call this (optionally
    /// after a warmup run has created the flows' PFQ state) so the
    /// measured steady-state window performs zero allocator calls.
    /// Purely a capacity hint: event order and results are unaffected.
    pub fn prewarm(&mut self, n_packets: usize, n_stacks: usize, pending_events: usize) {
        self.pkt_pool.prewarm(n_packets, n_stacks);
        self.events.prewarm(pending_events);
        #[cfg(feature = "audit")]
        self.audit.prewarm(pending_events);
        for lk in &mut self.links {
            lk.queues.reserve(pending_events);
            if let Some(pfq) = &mut lk.pfq {
                pfq.reserve_queues(n_packets);
            }
        }
    }

    /// Attach a fault profile to one link (call before running).
    ///
    /// The link gets its own RNG substream keyed by `(cfg.seed, link)`,
    /// so injecting faults here never perturbs draws anywhere else —
    /// see [`crate::fault`] for the full determinism contract. Inert
    /// profiles are ignored entirely. An invalid profile returns its
    /// [`FaultProfile::validate`] error, and a link the network lacks
    /// returns [`ConfigError::NoSuchLink`].
    pub fn inject_link_faults(
        &mut self,
        link: LinkId,
        profile: FaultProfile,
    ) -> Result<(), ConfigError> {
        profile.validate()?;
        let Some(lk) = self.links.get(link.index()) else {
            return Err(ConfigError::NoSuchLink { link });
        };
        // In shard mode only the owner of the link's egress serializes
        // onto it; other shards ignore the profile entirely so flap
        // events and drop counters are not double-counted.
        if !profile.is_active() || !self.owns_node(lk.src) {
            return Ok(());
        }
        for w in &profile.flaps {
            self.events
                .schedule(w.down_at, Event::LinkFault { link, down: true });
            self.events
                .schedule(w.up_at, Event::LinkFault { link, down: false });
        }
        let st = FaultState::new(profile, self.cfg.seed, link.0 as u64);
        self.links[link.index()].faults = Some(Box::new(st));
        Ok(())
    }

    /// Schedule a node-level fault — a host or switch crash, with an
    /// optional restart (call before running).
    ///
    /// The fault table is replicated on every shard (down-state queries
    /// must answer identically everywhere), but the crash/restart
    /// *actions* — buffer drain, trace records — are events owned by
    /// the crashed node's shard, so they fire exactly once per run at
    /// any shard count. An invalid window returns its
    /// [`NodeFault::validate`] error, and a node the network lacks
    /// returns [`ConfigError::NoSuchNode`].
    pub fn inject_node_fault(&mut self, fault: NodeFault) -> Result<(), ConfigError> {
        fault.validate()?;
        if fault.node.index() >= self.nodes.len() {
            return Err(ConfigError::NoSuchNode { node: fault.node });
        }
        if self.owns_node(fault.node) {
            for (at, down) in [(Some(fault.down_at), true), (fault.up_at, false)] {
                if let Some(at) = at {
                    let node = fault.node;
                    self.events.schedule(at, Event::NodeFault { node, down });
                }
            }
        }
        self.node_faults.push(fault);
        Ok(())
    }

    /// Make the fabric's telemetry control plane dark over
    /// `[from, until)`: no INT hop records are inserted and no
    /// Switch-INT feedback is generated anywhere while dark. Data,
    /// ACKs, and PFQ credit stamps still flow — they are data-plane
    /// state. Purely table-driven (no events), so the window
    /// replicates freely across shards; each suppression is counted
    /// once, at the egress that would have telemetered. An empty window
    /// returns [`ConfigError::InvertedFlapWindow`].
    pub fn inject_ctrl_outage(&mut self, from: Time, until: Time) -> Result<(), ConfigError> {
        if from >= until {
            return Err(ConfigError::InvertedFlapWindow {
                down_at: from,
                up_at: until,
            });
        }
        self.ctrl_outages.push((from, until));
        Ok(())
    }

    /// Whether the telemetry control plane is dark at `now`.
    #[inline]
    pub fn ctrl_dark(&self, now: Time) -> bool {
        self.ctrl_outages.iter().any(|&(f, u)| f <= now && now < u)
    }

    /// Whether node-fault injection has `node` crashed at `now` —
    /// inclusive of `down_at`, exclusive of `up_at`. Answered from the
    /// replicated fault table (never from event state), so any shard
    /// can ask about any node and all agree, independent of same-time
    /// event ordering.
    #[inline]
    pub fn node_is_down(&self, node: NodeId, now: Time) -> bool {
        self.node_faults
            .iter()
            .any(|nf| nf.node == node && nf.down_at <= now && nf.up_at.is_none_or(|u| now < u))
    }

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if let Some(tr) = &mut self.trace {
            tr.record(self.now, ev);
        }
    }

    /// Register a flow; it starts at `start`. Panics on degenerate
    /// specs — use [`Self::try_add_flow`] for the typed error.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, size_bytes: u64, start: Time) -> FlowId {
        match self.try_add_flow(src, dst, size_bytes, start) {
            Ok(id) => id,
            Err(e) => panic!("flow {src} → {dst}: {e}"),
        }
    }

    /// Fallible flow registration: rejects self-flows, zero-byte flows,
    /// endpoints that are not hosts, and pairs with no route between
    /// them with a typed [`ConfigError`].
    ///
    /// The receive side (resolved path + receiver CC) is installed
    /// eagerly here rather than at the `FlowStart` event: registration
    /// has no observable side effect before the first data packet
    /// lands, and it means a shard that owns only the destination of a
    /// cross-shard flow never needs to see the source's events.
    pub fn try_add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size_bytes: u64,
        start: Time,
    ) -> Result<FlowId, ConfigError> {
        if src == dst {
            return Err(ConfigError::SelfFlow { node: src });
        }
        if size_bytes == 0 {
            return Err(ConfigError::EmptyFlow { src, dst });
        }
        for ep in [src, dst] {
            if self
                .nodes
                .get(ep.index())
                .is_none_or(|n| n.as_host().is_none())
            {
                return Err(ConfigError::NonHostFlowEndpoint { node: ep });
            }
        }
        if self.routes.candidates(src, dst).is_empty() {
            return Err(ConfigError::NoRoute { src, dst });
        }
        let id = FlowId(self.flows.len() as u32);
        let spec = FlowSpec {
            id,
            src,
            dst,
            size_bytes,
            start,
        };
        self.flows.push(spec);
        self.flow_end.push(None);
        self.sender_done.push(false);
        let path = self.resolve_path(&spec);
        self.paths.push(path);
        let env = CcEnv {
            flow: spec,
            path,
            mtu_bytes: self.cfg.mtu_payload,
        };
        let receiver = self.factory.receiver(&env);
        if let Some(h) = self.nodes[spec.dst.index()].as_host_mut() {
            h.add_recv_flow(spec, path, receiver);
        }
        if self.owns_node(src) {
            self.events.schedule(start, Event::FlowStart(id));
        }
        Ok(id)
    }

    /// Whether this simulator is responsible for `node`'s events: always
    /// true in ordinary runs, and true exactly for the owned partition
    /// when running as a shard.
    #[inline]
    pub fn owns_node(&self, node: NodeId) -> bool {
        match &self.shard {
            None => true,
            Some(sh) => sh.owns(node),
        }
    }

    /// Install the shard context. Must precede flow registration (flow
    /// start scheduling is ownership-gated) and rules out the periodic
    /// monitor, which samples state a single shard does not own.
    pub fn set_shard(&mut self, ctx: crate::shard::ShardCtx) {
        assert_eq!(
            self.cfg.monitor_interval, 0,
            "the periodic monitor is unsupported in sharded runs"
        );
        assert!(self.flows.is_empty(), "set_shard must precede add_flow");
        self.shard = Some(ctx);
    }

    /// Deliver a boundary packet exported by a peer shard (at a window
    /// barrier): adopt the box into this shard's pool, record the wire
    /// crossing, and schedule the arrival under its content-derived key.
    pub fn deliver_boundary(&mut self, bp: crate::shard::BoundaryPacket) {
        self.pkt_pool.adopt(&bp.packet);
        self.schedule_arrival(bp.at, Some(bp.seq), bp.link, bp.packet);
    }

    /// Hop-by-hop links a flow will take (ECMP-resolved).
    pub fn resolve_path_links(&self, spec: &FlowSpec) -> Vec<LinkId> {
        let mut cur = spec.src;
        let mut path = Vec::new();
        while cur != spec.dst {
            let l = self
                .routes
                .pick(cur, spec.dst, spec.id)
                .unwrap_or_else(|| panic!("no route {} → {}", cur, spec.dst));
            path.push(l);
            cur = self.links[l.index()].dst;
            assert!(path.len() < 32, "routing loop {} → {}", spec.src, spec.dst);
        }
        path
    }

    fn resolve_path(&self, spec: &FlowSpec) -> FlowPath {
        let links = self.resolve_path_links(spec);
        let mtu_wire = self.cfg.mtu_wire() as u64;
        let mut fwd: Time = 0;
        let mut rev: Time = 0;
        let mut cross = false;
        let mut lh_idx = None;
        let mut bottleneck = u64::MAX;
        for (i, &l) in links.iter().enumerate() {
            let lk = &self.links[l.index()];
            fwd += lk.delay + tx_time(mtu_wire, lk.bandwidth);
            rev += lk.delay + tx_time(CONTROL_PACKET_BYTES as u64, lk.bandwidth);
            bottleneck = bottleneck.min(lk.bandwidth);
            if lk.opts.long_haul {
                cross = true;
                lh_idx = Some(i);
            }
        }
        let base_rtt = fwd + rev;
        let (src_dc_rtt, dst_dc_rtt) = match lh_idx {
            Some(i) => {
                let seg = |l: &LinkId| {
                    let lk = &self.links[l.index()];
                    2 * lk.delay
                        + tx_time(mtu_wire, lk.bandwidth)
                        + tx_time(CONTROL_PACKET_BYTES as u64, lk.bandwidth)
                };
                let s: Time = links[..i].iter().map(seg).sum();
                let d: Time = links[i + 1..].iter().map(seg).sum();
                (s.max(US), d.max(US))
            }
            None => (base_rtt, base_rtt),
        };
        FlowPath {
            base_rtt,
            src_dc_rtt,
            dst_dc_rtt,
            cross_dc: cross,
            line_rate_bps: self.links[links[0].index()].bandwidth,
            bottleneck_bps: bottleneck,
            hops: links.len() as u32,
        }
    }

    // -----------------------------------------------------------------
    // Run control
    // -----------------------------------------------------------------

    /// Run until the event queue drains or `stop_time` passes.
    pub fn run(&mut self) {
        self.run_plain(Time::MAX, |_| false);
        self.finalize();
    }

    /// Run until every registered flow has reached a terminal outcome —
    /// completed *or* failed (give-up policy, deadline, crash,
    /// watchdog) — or `stop_time` passes. Returns true when every flow
    /// **completed**; the per-flow verdicts are in
    /// [`SimOutput::outcomes`] either way.
    pub fn run_until_flows_complete(&mut self) -> bool {
        self.run_plain(Time::MAX, |s| s.ended_count >= s.flows.len());
        self.finalize();
        self.out.fcts.len() == self.flows.len()
    }

    /// Run every pending event with `t < until` (and within
    /// `stop_time`), without finalizing.
    pub fn run_window(&mut self, until: Time) {
        self.run_plain(until, |_| false);
    }

    /// Whether a pending event within `stop_time` remains.
    pub fn has_runnable_events(&mut self) -> bool {
        self.next_runnable(Time::MAX) != Time::MAX
    }

    /// Earliest pending event time that is before `until` and within
    /// `stop_time`, or `Time::MAX` when there is none.
    pub(crate) fn next_runnable(&mut self, until: Time) -> Time {
        let until = until.min(self.cfg.stop_time.saturating_add(1));
        self.events
            .peek_time()
            .filter(|&t| t < until)
            .unwrap_or(Time::MAX)
    }

    /// This engine's own liveness counters.
    pub(crate) fn liveness(&self) -> Liveness {
        Liveness {
            progress_at: self.last_progress_at,
            delivered: self.delivered_total,
            completed: self.out.fcts.len() as u64,
            giveups: self.giveup_count,
            pfc_pauses: self.out.pfc_events.len() as u64,
        }
    }

    /// The plain engine: the one-shard case of [`Self::drive`], with an
    /// infinite lookahead and its own counters as the snapshot.
    fn run_plain(&mut self, until: Time, done: impl Fn(&Self) -> bool) {
        self.drive(until, Time::MAX, done, |sim| {
            (sim.next_runnable(until), sim.liveness())
        });
    }

    /// The one run loop, shared by the plain engine and every shard.
    /// Each pass `sync`s — the next runnable time `gmin` (`Time::MAX`:
    /// none before `until`) and the liveness snapshot to judge, this
    /// engine's own or the fabric-wide one a shard reads at its barrier
    /// — opens a window at `gmin`, and runs the events before its end.
    /// `done` ends the run early; it is checked between events.
    pub(crate) fn drive(
        &mut self,
        until: Time,
        lookahead: Time,
        done: impl Fn(&Self) -> bool,
        mut sync: impl FnMut(&mut Self) -> (Time, Liveness),
    ) {
        while !done(self) {
            let (gmin, live) = sync(self);
            let Some(end) = self.open_window(gmin, live, lookahead) else {
                break;
            };
            let end = end.min(until);
            while !done(self) && self.next_runnable(end) != Time::MAX {
                self.step();
            }
        }
    }

    /// Open the window at `gmin`, judging liveness from `live`: its end
    /// (exclusive) is `lookahead` past `gmin`, or `None` when nothing is
    /// runnable. While the watchdog is armed, `gmin` past its deadline
    /// declares the stall at exactly the deadline; otherwise the window
    /// is capped at `deadline + 1`, so the next one opens — and the
    /// watchdog looks again — once every event up to the deadline has
    /// run. Windows only partition event processing, so caps are
    /// observationally neutral.
    pub(crate) fn open_window(
        &mut self,
        gmin: Time,
        live: Liveness,
        lookahead: Time,
    ) -> Option<Time> {
        if gmin == Time::MAX {
            return None;
        }
        let end = gmin.saturating_add(lookahead);
        let Some(deadline) = self.watchdog_deadline(&live) else {
            return Some(end);
        };
        #[cfg(feature = "audit")]
        {
            self.audit.watched = Some((gmin, live));
        }
        if gmin <= deadline {
            return Some(end.min(deadline + 1));
        }
        self.declare_stall(WatchdogReport {
            stalled_at: deadline,
            last_progress_at: live.progress_at,
            window: self.cfg.watchdog_window,
            unfinished_flows: self.unfinished(&live) as u32,
            delivered_bytes: live.delivered,
            pfc_pauses: live.pfc_pauses,
        });
        Some(end)
    }

    /// The watchdog's stall deadline `progress_at + watchdog_window`
    /// while it is armed, unreported, and `live` leaves flows
    /// unfinished. Computed only here, for the window function and the
    /// audit cross-check alike.
    pub(crate) fn watchdog_deadline(&self, live: &Liveness) -> Option<Time> {
        let window = self.cfg.watchdog_window;
        let armed = window > 0 && self.out.watchdog.is_none() && self.unfinished(live) > 0;
        armed.then(|| live.progress_at + window)
    }

    /// Aggregate the run's counters and write every flow's outcome.
    pub(crate) fn finalize(&mut self) {
        #[cfg(feature = "audit")]
        self.audit_drain_check();
        self.out.finished_at = self.now;
        self.out.events_scheduled = self.events.scheduled_total();
        self.out.peak_queue_depth = self.events.peak_len() as u64;
        self.out.buffer_drops = self
            .nodes
            .iter()
            .filter_map(|n| n.as_switch())
            .map(|s| s.buffer.dropped_packets)
            .sum();
        self.out.fault_drops = 0;
        self.out.fault_jittered = 0;
        for lk in &self.links {
            if let Some(fs) = &lk.faults {
                self.out.fault_drops += fs.drops;
                self.out.fault_jittered += fs.jittered;
            }
        }
        self.out.retransmits = self
            .nodes
            .iter()
            .filter_map(|n| n.as_host())
            .map(|h| h.total_retransmits())
            .sum();
        self.backfill_unfinished();
        self.out.outcomes.clear();
        for (i, end) in self.flow_end.iter().enumerate() {
            let Some(e) = end else { continue };
            let spec = self.flows[i];
            self.out.outcomes.push(OutcomeRecord {
                flow: spec.id,
                src: spec.src,
                dst: spec.dst,
                size_bytes: spec.size_bytes,
                // A completion is noted with the full size acknowledged.
                bytes_acked: e.acked,
                start: spec.start,
                ended: e.ended,
                outcome: e.outcome,
            });
        }
        self.out.outcomes.sort_by_key(|r| (r.ended, r.flow.0));
        #[cfg(feature = "audit")]
        self.audit_watchdog_check();
    }

    /// Close out every flow with no recorded end: it neither completed
    /// nor failed before the run stopped. Only the shard owning the
    /// sender reports — the shard owning the receiver of a delivered
    /// cross-shard flow holds the completion record instead, and the
    /// merge keeps completions over failures.
    fn backfill_unfinished(&mut self) {
        for i in 0..self.flows.len() {
            let spec = self.flows[i];
            if self.flow_end[i].is_none() && !self.sender_done[i] && self.owns_node(spec.src) {
                // Stamped at stop_time (not this engine's final `now`)
                // so every shard count writes the identical record.
                self.record_failure(spec.id, FailReason::Unfinished, self.cfg.stop_time);
            }
        }
    }

    /// Flows not yet accounted finished in `live`: registered, minus
    /// receiver completions, minus sender give-ups. Every shard count
    /// judges the same monotone counters, so every run reaches the
    /// identical verdict. (A flow whose receiver completes *after* its
    /// sender gave up is counted by both counters and the metric
    /// under-counts by one — deterministically, and only in a corner no
    /// healthy run reaches.)
    pub(crate) fn unfinished(&self, live: &Liveness) -> u64 {
        (self.flows.len() as u64).saturating_sub(live.completed + live.giveups)
    }

    /// Write a flow's end-state slot. First writer wins, with one
    /// exception: a receiver-side completion replaces an earlier
    /// sender-side failure — every byte was delivered; the sender
    /// merely gave up before the last ACK reached it. Failures never
    /// replace a completion.
    fn note_flow_end(&mut self, flow: FlowId, ended: Time, outcome: FlowOutcome, acked: u64) {
        let slot = &mut self.flow_end[flow.index()];
        let write = match slot {
            None => {
                self.ended_count += 1;
                true
            }
            Some(e) => e.outcome.is_failed() && outcome == FlowOutcome::Completed,
        };
        if write {
            *slot = Some(FlowEnd {
                ended,
                outcome,
                acked,
            });
        }
    }

    /// Record a sender-side failure: trace it and write the outcome slot
    /// (unless the receiver already completed the flow — completion
    /// wins). The trace record is stamped at `ended`, not the engine
    /// clock: during a sharded stall declaration each shard's local
    /// `now` differs, but the failure instant is a property of the
    /// scenario.
    fn record_failure(&mut self, flow: FlowId, reason: FailReason, ended: Time) {
        let src = self.flows[flow.index()].src;
        let acked = self.nodes[src.index()]
            .as_host()
            .and_then(|h| h.send_flow(flow))
            .map_or(0, |f| f.bytes_acked);
        if let Some(tr) = &mut self.trace {
            tr.record(
                ended,
                TraceEvent::FlowFailed {
                    flow,
                    reason,
                    acked,
                },
            );
        }
        self.note_flow_end(flow, ended, FlowOutcome::Failed(reason), acked);
    }

    /// [`Self::record_failure`], then prune the dead send state.
    fn fail_flow(&mut self, flow: FlowId, reason: FailReason, ended: Time) {
        self.record_failure(flow, reason, ended);
        let src = self.flows[flow.index()].src;
        if let Some(h) = self.nodes[src.index()].as_host_mut() {
            h.gc_finished();
        }
    }

    /// Declare a global stall: record the watchdog report and fail
    /// every unfinished started flow this engine owns, at the stall
    /// time. The run then *continues* — remaining events (timers,
    /// stragglers) still execute, so event accounting matches across
    /// engines; the failed flows just no longer send.
    fn declare_stall(&mut self, report: WatchdogReport) {
        #[cfg(feature = "audit")]
        if matches!(self.audit.chaos, Some(crate::audit::Chaos::MuteWatchdog)) {
            return; // sabotage shim: swallow the verdict (fuzzer bait)
        }
        debug_assert!(self.out.watchdog.is_none(), "the watchdog fires once");
        self.out.watchdog = Some(report);
        for i in 0..self.flows.len() {
            let spec = self.flows[i];
            if self.flow_end[i].is_some() || self.sender_done[i] {
                continue; // already ended, or delivered (record at dst)
            }
            if !self.owns_node(spec.src) {
                continue; // the owning shard fails it, same report
            }
            if spec.start > report.stalled_at {
                continue; // not yet started at the stall point
            }
            if let Some(h) = self.nodes[spec.src.index()].as_host_mut() {
                h.abandon_flow(spec.id);
            }
            self.fail_flow(spec.id, FailReason::Stalled, report.stalled_at);
        }
    }

    /// Process one event: the raw primitive under the run loop, also
    /// driven directly by callers that step a fixed event count. The
    /// watchdog only looks between the run loop's windows.
    pub fn step(&mut self) {
        let Some((t, ev)) = self.events.pop() else {
            return;
        };
        debug_assert!(t >= self.now, "time went backwards");
        #[cfg(feature = "audit")]
        self.audit_on_event(t);
        self.now = t;
        self.out.events_processed += 1;
        match ev {
            Event::FlowStart(f) => self.handle_flow_start(f),
            Event::Arrival { link, packet } => self.handle_arrival(link, packet),
            Event::TxComplete { link } => {
                self.links[link.index()].busy = false;
                self.try_start_tx(link);
            }
            Event::HostWake { node } => {
                let h = self.nodes[node.index()].as_host_mut().expect("host");
                h.wake_at.take_if(|w| *w == t);
                let uplink = h.uplink;
                self.try_start_tx(uplink);
            }
            Event::PfqWake { link } => {
                self.links[link.index()].pfq_wake_at.take_if(|w| *w == t);
                self.try_start_tx(link);
            }
            Event::CcTimer { node, flow } => self.handle_cc_timer(node, flow),
            Event::RtoCheck { node, flow } => self.handle_rto(node, flow),
            Event::MonitorTick => self.handle_monitor(),
            Event::PfcUpdate { link, paused } => {
                self.links[link.index()]
                    .queues
                    .set_paused(Priority::Data, paused);
                if !paused {
                    self.try_start_tx(link);
                }
            }
            Event::LinkFault { link, down } => {
                if let Some(fs) = self.links[link.index()].faults.as_mut() {
                    fs.down = down;
                }
                if down {
                    self.out.link_flaps += 1;
                    self.record(TraceEvent::LinkDown { link });
                } else {
                    self.record(TraceEvent::LinkUp { link });
                    // Anything queued behind the dead serializer may flow
                    // again (the serializer itself kept draining — down
                    // only black-holes the wire — but a kick is harmless
                    // and covers links that went idle while dark).
                    self.try_start_tx(link);
                }
            }
            Event::NodeFault { node, down } => self.handle_node_fault(node, down),
        }
    }

    // -----------------------------------------------------------------
    // Event handlers
    // -----------------------------------------------------------------

    /// A node crashes or restarts. On crash, everything parked at the
    /// dead node's egresses is drained and black-holed (a dead switch
    /// holds no buffers), with full dequeue-side accounting so the
    /// shared buffer and PFC watermarks are clean for a restart.
    /// Packets already on the wire still *arrive* — and die there,
    /// because [`Self::handle_arrival`] black-holes anything addressed
    /// to a down node. On restart every egress gets a kick; host CC
    /// and RTO machinery kept ticking while down, so senders resume
    /// (or give up) naturally.
    fn handle_node_fault(&mut self, node: NodeId, down: bool) {
        if down {
            self.record(TraceEvent::NodeDown { node });
            let mut drained: Vec<Box<Packet>> = Vec::new();
            for l in 0..self.links.len() {
                if self.links[l].src == node {
                    self.links[l].drain_queued(|p| drained.push(p));
                }
            }
            for pkt in drained {
                self.note_dequeue(node, pkt.size as u64, pkt.is_data(), pkt.in_link);
                self.blackhole(pkt, node);
            }
        } else {
            self.record(TraceEvent::NodeUp { node });
            for l in 0..self.links.len() {
                if self.links[l].src == node {
                    self.try_start_tx(LinkId(l as u32));
                }
            }
        }
    }

    /// Discard a packet that hit (or was buffered inside) a crashed
    /// node.
    fn blackhole(&mut self, pkt: Box<Packet>, at: NodeId) {
        self.out.blackhole_drops += 1;
        #[cfg(feature = "audit")]
        self.audit.on_blackhole(&pkt);
        self.record(TraceEvent::PacketBlackholed { flow: pkt.flow, at });
        self.pkt_pool.put(pkt);
    }

    fn handle_flow_start(&mut self, fid: FlowId) {
        let spec = self.flows[fid.index()];
        self.record(TraceEvent::FlowStarted {
            flow: fid,
            src: spec.src,
            dst: spec.dst,
            size_bytes: spec.size_bytes,
        });
        let path = self.paths[fid.index()];
        let env = CcEnv {
            flow: spec,
            path,
            mtu_bytes: self.cfg.mtu_payload,
        };
        let sender = self.factory.sender(&env);
        let (timer, uplink, rto_at) = {
            let h = self.nodes[spec.src.index()]
                .as_host_mut()
                .expect("flow source is a host");
            let timer = h.add_send_flow(spec, path, sender, self.now);
            let rto_at = h.arm_rto(fid, self.now);
            (timer, h.uplink, rto_at)
        };
        self.schedule_host_timers(spec.src, timer, rto_at.map(|at| (fid, at)));
        self.try_start_tx(uplink);
    }

    fn handle_arrival(&mut self, link: LinkId, packet: Box<Packet>) {
        #[cfg(feature = "audit")]
        self.audit.on_arrival(link, &packet, self.now);
        let dst = self.links[link.index()].dst;
        if self.node_is_down(dst, self.now) {
            self.blackhole(packet, dst);
            return;
        }
        if self.nodes[dst.index()].is_host() {
            self.host_arrival(dst, packet);
        } else {
            self.switch_arrival(dst, link, packet);
        }
    }

    fn host_arrival(&mut self, node: NodeId, mut pkt: Box<Packet>) {
        let now = self.now;
        let (out, uplink, progress) = {
            let h = self.nodes[node.index()].as_host_mut().expect("host");
            let before = h.delivered_bytes;
            let out = h.on_packet(&mut pkt, now, &mut self.pkt_pool);
            if out.sender_done {
                h.gc_finished();
            }
            (out, h.uplink, h.delivered_bytes - before)
        };
        // Watchdog food: any in-order receiver advance is progress.
        if progress > 0 {
            self.delivered_total += progress;
            self.last_progress_at = now;
        }
        let done_flow = if out.sender_done {
            Some(pkt.flow)
        } else {
            None
        };
        // The arrival box dies at its sink; recycle it first so the ACK
        // it usually provokes is boxed into the very same allocation.
        #[cfg(feature = "audit")]
        self.audit.on_delivered(&pkt);
        self.pkt_pool.put(pkt);
        if let Some(f) = done_flow {
            self.sender_done[f.index()] = true;
        }
        for reply in [out.ack, out.cnp].into_iter().flatten() {
            let b = self.pkt_pool.boxed(reply);
            #[cfg(feature = "audit")]
            self.audit.on_born(&b);
            self.links[uplink.index()].queues.enqueue(b);
        }
        self.schedule_host_timers(node, out.timer, out.rto_check);
        if let Some(rec) = out.completed {
            self.record(TraceEvent::FlowCompleted {
                flow: rec.flow,
                fct: rec.fct(),
            });
            self.note_flow_end(rec.flow, rec.finish, FlowOutcome::Completed, rec.size_bytes);
            self.out.fcts.push(rec);
        }
        self.try_start_tx(uplink);
    }

    fn switch_arrival(&mut self, node: NodeId, in_link: LinkId, mut pkt: Box<Packet>) {
        let now = self.now;
        let pfq_enabled = self.cfg.dci.pfq_enabled;

        // Receiver-side DCI: data from the long haul goes to its PFQ.
        if pfq_enabled && pkt.is_data() && self.links[in_link.index()].opts.long_haul {
            // "Erase and reinsert the INT information" (§3.2.2): the
            // sender-side records were already consumed by the
            // near-source loop; the stack restarts here. Its box goes
            // back to the pool rather than dying with the packet.
            if let Some(s) = pkt.int.take() {
                self.pkt_pool.put_int(s);
            }
            let Some((egress, pkt)) = self.admit(node, Some(in_link), pkt) else {
                return;
            };
            let flow = pkt.flow;
            self.nodes[node.index()]
                .as_switch_mut()
                .and_then(|sw| sw.dci.as_mut())
                .expect("dci role")
                .pfq_link
                .insert(flow, egress);
            let created = self.links[egress.index()]
                .pfq
                .as_mut()
                .expect("PFQ on DCI toward-DC egress")
                .enqueue(pkt, now);
            if created {
                self.record(TraceEvent::PfqCreated { flow, link: egress });
            }
            self.try_start_tx(egress);
            return;
        }

        // Receiver-side DCI: ACKs heading out the long haul carry the
        // credit counter C_R and the dequeue rate R_credit (Algorithm 1)
        // to the flow's PFQ.
        if pfq_enabled && pkt.kind == PacketKind::Ack {
            let pfq_link = self.nodes[node.index()]
                .as_switch()
                .and_then(|sw| sw.dci.as_ref())
                .and_then(|d| d.pfq_link.get(pkt.flow))
                .copied()
                .filter(|_| {
                    let egress = self.routes.pick(node, pkt.dst, pkt.flow);
                    egress.is_some_and(|e| self.links[e.index()].opts.long_haul)
                });
            if let Some(pl) = pfq_link {
                let mut kick = false;
                if let Some(pfq) = self.links[pl.index()].pfq.as_mut() {
                    if let Some(cr) = pkt.mlcc.c_r() {
                        pfq.set_credit(pkt.flow, cr, now);
                    }
                    if let Some(r) = pkt.mlcc.r_credit_bps() {
                        pfq.set_rate(pkt.flow, r, now);
                        kick = true;
                    }
                }
                if kick {
                    self.try_start_tx(pl);
                }
            }
        }

        self.forward_from(node, Some(in_link), pkt);
    }

    /// Normal store-and-forward at a switch (also used for locally
    /// generated Switch-INT feedback, with `in_link = None`).
    fn forward_from(&mut self, node: NodeId, in_link: Option<LinkId>, pkt: Box<Packet>) {
        let Some((egress, mut pkt)) = self.admit(node, in_link, pkt) else {
            return;
        };
        if pkt.is_data() {
            // ECN at enqueue, on the egress data queue depth, with the
            // egress port's marking profile. The uniform sample is drawn
            // only when the marking probability is nonzero, so runs with
            // ECN disabled (or queues below Kmin throughout) consume no
            // RNG state and stay bitwise-identical to marking-enabled
            // topologies under the same seed.
            let qlen = self.links[egress.index()].data_queued_bytes();
            let p = self.links[egress.index()].ecn.mark_probability(qlen);
            if p > 0.0 && self.ecn_rngs[egress.index()].gen_f64() < p {
                pkt.ecn = true;
                self.out.ecn_marks += 1;
            }
        }
        self.links[egress.index()].queues.enqueue(pkt);
        self.try_start_tx(egress);
    }

    /// Switch admission, shared by store-and-forward and the
    /// receiver-DCI per-flow queues: route the packet, charge it to its
    /// ingress's headroom or to the shared pool (dropping it when the
    /// pool refuses), and run PFC ingress accounting. Returns the egress
    /// and the packet, tagged with its ingress, unless it was dropped.
    fn admit(
        &mut self,
        node: NodeId,
        in_link: Option<LinkId>,
        mut pkt: Box<Packet>,
    ) -> Option<(LinkId, Box<Packet>)> {
        let Some(egress) = self.routes.pick(node, pkt.dst, pkt.flow) else {
            #[cfg(feature = "audit")]
            self.audit_no_route(&pkt, node);
            debug_assert!(false, "no route {} → {}", node, pkt.dst);
            self.pkt_pool.put(pkt);
            return None;
        };
        let size = pkt.size as u64;
        let data_in = in_link.filter(|_| pkt.is_data());
        let sw = self.nodes[node.index()].as_switch_mut().expect("switch");
        // Headroom charging is decided before admission: a data packet
        // landing on an ingress that has paused its upstream is the
        // in-flight tail of the pause loop and draws on the dedicated
        // reservation (guaranteed admission) instead of the shared pool.
        let headroom = data_in.is_some_and(|il| sw.charges_headroom(il, size));
        if headroom {
            sw.buffer.admit_headroom(size);
        } else if !sw.buffer.admit(size, pkt.is_data()) {
            #[cfg(feature = "audit")]
            self.audit_on_buffer_drop(node, &pkt);
            self.record(TraceEvent::PacketDropped {
                flow: pkt.flow,
                at: node,
            });
            self.pkt_pool.put(pkt);
            return None;
        }
        pkt.in_link = in_link;
        let Some(il) = data_in else {
            return Some((egress, pkt));
        };
        // PFC ingress accounting. Headroom-charged bytes skip the
        // threshold check: the ingress is already paused, and the charge
        // must not re-trigger Pause or move the DT math.
        let (cap, used) = (sw.buffer.shared_capacity(), sw.buffer.shared_used());
        let ingress = sw.ingress.get_or_default(il);
        if headroom {
            ingress.on_enqueue_headroom(size);
            return Some((egress, pkt));
        }
        let act = ingress.on_enqueue(size, &sw.pfc, cap, used, self.now);
        // Chaos shim (identity unless a fuzz test armed it).
        #[cfg(feature = "audit")]
        let act = self.audit.chaos_pfc_action(act);
        if act == PfcAction::Pause {
            self.signal_pfc(node, il, true);
        }
        Some((egress, pkt))
    }

    /// Send a PFC Pause (`paused`) or Resume upstream from `node`'s
    /// `ingress`: trace it (a Pause also joins `pfc_events`) and flip the
    /// upstream egress's data class one link delay from now.
    fn signal_pfc(&mut self, node: NodeId, ingress: LinkId, paused: bool) {
        let now = self.now;
        if paused {
            self.out.pfc_events.push((now, node));
            self.record(TraceEvent::PfcPause { at: node, ingress });
        } else {
            self.record(TraceEvent::PfcResume { at: node, ingress });
        }
        let at = now + self.links[ingress.index()].delay;
        let update = Event::PfcUpdate {
            link: ingress,
            paused,
        };
        self.events.schedule(at, update);
    }

    /// Try to start serializing the next packet on `l`, in four stages:
    /// pick it, stamp it, let a sender-side DCI strip its feedback, and
    /// put it on the wire. The feedback is forwarded last.
    fn try_start_tx(&mut self, l: LinkId) {
        let src = self.links[l.index()].src;
        // A crashed node serializes nothing: its queues were drained at
        // crash time, its hosts generate nothing, and the restart event
        // kicks every egress back to life.
        if self.links[l.index()].busy || self.node_is_down(src, self.now) {
            return;
        }
        let Some((mut pkt, from_pfq)) = self.next_packet(l) else {
            return;
        };
        self.note_dequeue(src, pkt.size as u64, pkt.is_data(), pkt.in_link);
        let dark = self.ctrl_dark(self.now);
        self.stamp(l, &mut pkt, from_pfq, dark);
        let feedback = self.near_source_feedback(l, &mut pkt, dark);
        self.transmit(l, pkt);
        if let Some(fb) = feedback {
            let b = self.pkt_pool.boxed(fb);
            #[cfg(feature = "audit")]
            self.audit.on_born(&b);
            self.forward_from(src, None, b);
        }
    }

    /// Source selection: the egress FIFO first; then, unless PFC has
    /// paused the data class, the link's per-flow queues and the source
    /// host's on-demand data, each of which re-arms its wake-up when
    /// nothing is eligible yet. The flag marks a PFQ departure.
    fn next_packet(&mut self, l: LinkId) -> Option<(Box<Packet>, bool)> {
        let now = self.now;
        let lk = &mut self.links[l.index()];
        if let Some(p) = lk.queues.dequeue() {
            return Some((p, false));
        }
        if lk.queues.is_paused(Priority::Data) {
            return None;
        }
        if let Some(pfq) = lk.pfq.as_mut() {
            match pfq.dequeue(now) {
                PfqDequeue::Packet(p) => return Some((p, true)),
                PfqDequeue::NextAt(t) => {
                    let wake = Event::PfqWake { link: l };
                    rearm(&mut self.events, &mut lk.pfq_wake_at, now, t, wake);
                }
                PfqDequeue::Empty => {}
            }
        }
        let src = lk.src;
        let Node::Host(h) = &mut self.nodes[src.index()] else {
            return None;
        };
        match h.next_data_packet(now, &mut self.pkt_pool) {
            HostTx::Packet(p) => {
                #[cfg(feature = "audit")]
                self.audit.on_born(&p);
                Some((p, false))
            }
            HostTx::WakeAt(t) => {
                let wake = Event::HostWake { node: src };
                rearm(&mut self.events, &mut h.wake_at, now, t, wake);
                None
            }
            HostTx::Idle => None,
        }
    }

    /// INT/credit stamping at serialization start: push this egress's
    /// INT hop onto data, unless the control plane is dark, and stamp a
    /// PFQ departure with its queue's credit C_D (Algorithm 1), which is
    /// data-plane state and survives an outage.
    fn stamp(&mut self, l: LinkId, pkt: &mut Packet, from_pfq: bool, dark: bool) {
        let lk = &self.links[l.index()];
        if pkt.is_data() {
            if dark {
                self.out.int_suppressed += 1;
            } else {
                let qlen = if from_pfq {
                    lk.pfq
                        .as_ref()
                        .and_then(|p| p.get(pkt.flow))
                        .map_or(0, |s| s.bytes())
                } else {
                    lk.queues.bytes(Priority::Data)
                };
                let hop = IntHop {
                    hop_id: lk.id.0,
                    ts: self.now,
                    qlen_bytes: qlen,
                    tx_bytes: lk.tx_bytes,
                    link_bps: lk.bandwidth,
                    is_dci: lk.opts.long_haul || from_pfq,
                };
                let pool = &mut self.pkt_pool;
                pkt.int.get_or_insert_with(|| pool.take_int()).push(hop);
            }
        }
        if from_pfq {
            pkt.mlcc
                .set_c_d(lk.pfq.as_ref().and_then(|p| p.c_d(pkt.flow)));
        }
    }

    /// Near-source feedback at the sender-side DCI (§3.2.1): data leaving
    /// the datacenter has its INT stack stripped, and the stack rides a
    /// Switch-INT packet back to the sender once the flow's feedback
    /// interval has passed. A dark control plane generates nothing and
    /// leaves the pacing state untouched: the switch's telemetry agent
    /// is down, not merely rate-limited.
    fn near_source_feedback(&mut self, l: LinkId, pkt: &mut Packet, dark: bool) -> Option<Packet> {
        let lk = &self.links[l.index()];
        if !pkt.is_data() || !self.cfg.dci.near_source_enabled || !lk.opts.long_haul {
            return None;
        }
        let (now, at) = (self.now, lk.src);
        let dci = self.nodes[at.index()].as_switch_mut()?.dci.as_mut()?;
        // Strip the stack by move: either it rides the feedback packet
        // or its box goes straight back to the pool.
        let stack = pkt.int.take();
        if dark {
            self.out.int_suppressed += 1;
        } else if dci.switch_int_due(pkt.flow, now) {
            let id = self.pkt_pool.next_id();
            return Some(Packet::switch_int(id, pkt.flow, at, pkt.src, stack));
        }
        if let Some(s) = stack {
            self.pkt_pool.put_int(s);
        }
        None
    }

    /// Wire dispatch: the serializer runs for the packet's full wire
    /// time, the link's faults decide what the far end sees, and a
    /// surviving packet is scheduled to arrive, on this engine or, when
    /// another shard owns the far end, through this shard's outbox.
    fn transmit(&mut self, l: LinkId, pkt: Box<Packet>) {
        let now = self.now;
        let lk = &mut self.links[l.index()];
        lk.tx_bytes += pkt.size as u64;
        lk.busy = true;
        let ser = lk.ser_time(pkt.size as u64);
        self.events
            .schedule(now + ser, Event::TxComplete { link: l });
        let mut arrival = Some(now + ser + lk.delay);
        if let Some(fs) = lk.faults.as_mut() {
            if fs.down {
                // Black hole: data and control alike die on a dark wire.
                fs.down_drop();
                arrival = None;
            } else if fs.loses() {
                arrival = None;
            } else {
                arrival = arrival.map(|t| fs.jittered_arrival(t));
            }
        }
        let Some(at) = arrival else {
            #[cfg(feature = "audit")]
            self.audit.on_fault_drop(&pkt);
            self.record(TraceEvent::PacketLost {
                flow: pkt.flow,
                link: l,
            });
            self.pkt_pool.put(pkt);
            return;
        };
        // Long-haul arrivals tie-break by (link, wire seq) instead of
        // insertion order, so the same-instant order is a function of
        // the packet itself and every shard count reproduces it.
        let seq = lk.opts.long_haul.then(|| {
            lk.wire_seq += 1;
            boundary_seq(l, lk.wire_seq - 1)
        });
        let dst = lk.dst;
        if self.owns_node(dst) {
            self.schedule_arrival(at, seq, l, pkt);
            return;
        }
        // Cross-shard: the destination shard adopts the box at the next
        // barrier and schedules its arrival (outbox order preserves
        // per-link FIFO); the pool's outstanding count moves with it.
        self.pkt_pool.export(&pkt);
        let shard = self
            .shard
            .as_mut()
            .expect("non-owned link dst implies shard mode");
        shard.outbox.push(crate::shard::BoundaryPacket {
            at,
            link: l,
            seq: seq.expect("shard boundaries are long-haul links"),
            packet: pkt,
        });
    }

    /// Schedule a packet's arrival at the far end of `link`, under its
    /// content-derived tie-break key when it crossed a long haul.
    fn schedule_arrival(&mut self, at: Time, seq: Option<u64>, link: LinkId, packet: Box<Packet>) {
        #[cfg(feature = "audit")]
        self.audit.on_wire(link, &packet);
        let ev = Event::Arrival { link, packet };
        match seq {
            Some(seq) => self.events.schedule_with_seq(at, seq, ev),
            None => self.events.schedule(at, ev),
        }
    }

    /// Dequeue-side bookkeeping shared by the serializer and the crash
    /// drain: release the shared buffer at a switch egress and run PFC
    /// ingress accounting, signalling Resume upstream when the pause
    /// threshold clears.
    fn note_dequeue(&mut self, src: NodeId, size: u64, is_data: bool, in_link: Option<LinkId>) {
        let Some(sw) = self.nodes[src.index()].as_switch_mut() else {
            return;
        };
        let data_in = in_link.filter(|_| is_data);
        // Headroom drains first (the Broadcom MMU convention): the
        // headroom-charged part of this departure is returned to the
        // reservation, the rest to the shared pool.
        let from_hr = data_in
            .and_then(|il| sw.ingress.get(il))
            .map_or(0, |st| st.hr_bytes.min(size));
        sw.buffer.release(size);
        if from_hr > 0 {
            sw.buffer.release_headroom(from_hr);
        }
        let Some(il) = data_in else {
            return;
        };
        let (cap, used) = (sw.buffer.shared_capacity(), sw.buffer.shared_used());
        let act = sw
            .ingress
            .get_or_default(il)
            .on_dequeue(size, from_hr, &sw.pfc, cap, used, self.now);
        if act == PfcAction::Resume {
            self.signal_pfc(src, il, false);
        }
    }

    fn handle_cc_timer(&mut self, node: NodeId, flow: FlowId) {
        let now = self.now;
        let (out, uplink) = {
            let Some(h) = self.nodes[node.index()].as_host_mut() else {
                return;
            };
            let out = h.on_cc_timer(flow, now);
            (out, h.uplink)
        };
        self.schedule_host_timers(node, out.timer, out.rto_check);
        self.try_start_tx(uplink);
    }

    /// Schedule the CC timer and RTO check a host handler asked for.
    fn schedule_host_timers(
        &mut self,
        node: NodeId,
        timer: Option<(FlowId, Time)>,
        rto_check: Option<(FlowId, Time)>,
    ) {
        if let Some((flow, at)) = timer {
            self.events.schedule(at, Event::CcTimer { node, flow });
        }
        if let Some((flow, at)) = rto_check {
            self.events.schedule(at, Event::RtoCheck { node, flow });
        }
    }

    fn handle_rto(&mut self, node: NodeId, flow: FlowId) {
        let now = self.now;
        let (verdict, next, uplink) = {
            let Some(h) = self.nodes[node.index()].as_host_mut() else {
                return;
            };
            let (verdict, next) = h.on_rto_check(flow, now);
            (verdict, next, h.uplink)
        };
        match verdict {
            RtoVerdict::None => {}
            RtoVerdict::Retransmit => {
                let from_seq = self.nodes[node.index()]
                    .as_host()
                    .and_then(|h| h.send_flow(flow))
                    .map_or(0, |f| f.bytes_acked);
                self.record(TraceEvent::Retransmit { flow, from_seq });
                self.try_start_tx(uplink);
            }
            RtoVerdict::GiveUp(reason) => {
                // A flow that starves while one of its endpoints is
                // crashed failed *because of* the crash; report the
                // cause, not the symptom. The check reads the
                // replicated fault table, so every shard names the
                // same reason even when it owns only one endpoint.
                let spec = self.flows[flow.index()];
                let reason = if self.node_is_down(spec.src, now) || self.node_is_down(spec.dst, now)
                {
                    FailReason::HostCrash
                } else {
                    reason
                };
                self.giveup_count += 1;
                self.fail_flow(flow, reason, now);
            }
        }
        if let Some(at) = next {
            self.events.schedule(at, Event::RtoCheck { node, flow });
        }
    }

    fn handle_monitor(&mut self) {
        let now = self.now;
        // Pre-size every per-sample vector from the spec: a sample's
        // shape is fully known up front, so collection never reallocates
        // mid-push.
        let n_q = self.out.monitor.spec.queues.len();
        let n_f = self.out.monitor.spec.flows.len();
        let mut s = Sample {
            t: now,
            queue_bytes: Vec::with_capacity(n_q),
            flow_rx_bytes: Vec::with_capacity(n_f),
            pfq_per_flow: Vec::new(),
        };
        // Sample against the spec without holding a borrow on out.monitor.
        for i in 0..n_q {
            let q = self.out.monitor.spec.queues[i];
            s.queue_bytes.push(self.links[q.index()].queued_bytes());
        }
        for i in 0..n_f {
            let f = self.out.monitor.spec.flows[i];
            let dst = self.flows[f.index()].dst;
            let b = self.nodes[dst.index()]
                .as_host()
                .and_then(|h| h.recv_flow(f))
                .map_or(0, |r| r.expected);
            s.flow_rx_bytes.push(b);
        }
        if let Some(pl) = self.out.monitor.spec.pfq_link {
            if let Some(pfq) = self.links[pl.index()].pfq.as_ref() {
                s.pfq_per_flow = pfq.per_flow_bytes().collect();
            }
        }
        self.out.monitor.samples.push(s);
        let next = now + self.cfg.monitor_interval;
        if next <= self.cfg.stop_time {
            self.events.schedule(next, Event::MonitorTick);
        }
    }

    // -----------------------------------------------------------------
    // Introspection helpers for scenarios and tests
    // -----------------------------------------------------------------

    /// Total bytes delivered to all receivers.
    pub fn total_delivered(&self) -> u64 {
        self.flows
            .iter()
            .filter_map(|f| {
                self.nodes[f.dst.index()]
                    .as_host()
                    .and_then(|h| h.recv_flow(f.id))
                    .map(|r| r.expected)
            })
            .sum()
    }

    /// Total PFC pauses across all switches.
    pub fn total_pfc_pauses(&self) -> u64 {
        self.nodes
            .iter()
            .filter_map(|n| n.as_switch())
            .map(|s| s.pfc_pause_count())
            .sum()
    }

    /// The resolved path of a flow, if it is registered.
    pub fn flow_path(&self, f: FlowId) -> Option<FlowPath> {
        self.paths.get(f.index()).copied()
    }
}

/// The wake-up rule shared by the PFQ and host pacers: arm `slot` for
/// `at` and schedule `wake`, unless a pending wake-up (one still in the
/// future) already fires no later.
fn rearm(events: &mut EventQueue, slot: &mut Option<Time>, now: Time, at: Time, wake: Event) {
    if slot.is_none_or(|w| w <= now || w > at) {
        *slot = Some(at);
        events.schedule(at, wake);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{FixedRateCc, NoCcFactory, ReceiverCc, SenderCc};
    use crate::link::LinkOpts;
    use crate::pfc::PfcConfig;
    use crate::topology::NetBuilder;
    use crate::units::{GBPS, MS, US};

    /// h0 — s — h1, both links 10 Gbps / 1 µs.
    fn line_net() -> Network {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let s = b.add_switch(22_000_000, PfcConfig::dc_switch());
        b.connect(h0, s, 10 * GBPS, 1 * US, LinkOpts::default());
        b.connect(h1, s, 10 * GBPS, 1 * US, LinkOpts::default());
        b.build()
    }

    /// h0 — s1 — … — s(L−1) — h1: `hops` links of 10 Gbps / 1 µs.
    fn chain_net(hops: usize) -> Network {
        let mut b = NetBuilder::new();
        let (h0, h1) = (b.add_host(), b.add_host());
        let mut prev = h0;
        for _ in 1..hops {
            let s = b.add_switch(22_000_000, PfcConfig::dc_switch());
            b.connect(prev, s, 10 * GBPS, 1 * US, LinkOpts::default());
            prev = s;
        }
        b.connect(prev, h1, 10 * GBPS, 1 * US, LinkOpts::default());
        b.build()
    }

    #[test]
    fn single_flow_completes_with_expected_fct() {
        // Store-and-forward closed form for a lone uncontrolled flow of n
        // packets over L equal links of rate R and delay d. The source
        // sends n−1 full packets back to back and then the last one. Each
        // later hop is still serializing the next-to-last packet when the
        // last one lands, so it adds one full-packet time T (or the last
        // packet's own time t when it is the only one). Then come t and
        // L propagation delays: (n−1)·T + (L−1)·(n>1 ? T : t) + t + L·d.
        let (rate, delay) = (10 * GBPS, 1 * US);
        let full = tx_time(1048, rate);
        for hops in [2u64, 3, 4] {
            for size in [1u64, 1000, 99_500, 100_000] {
                let mut sim = Simulator::new(
                    chain_net(hops as usize),
                    SimConfig::default(),
                    Box::new(NoCcFactory),
                );
                sim.add_flow(NodeId(0), NodeId(1), size, 0);
                assert!(sim.run_until_flows_complete());
                let n = size.div_ceil(1000);
                let last = tx_time(size - (n - 1) * 1000 + 48, rate);
                let lead = if n > 1 { full } else { last };
                let want = (n - 1) * full + (hops - 1) * lead + last + hops * delay;
                assert_eq!(sim.out.fcts[0].fct(), want, "{hops} links, {size} B");
                assert_eq!(sim.out.total_dropped(), 0);
                assert_eq!(sim.out.retransmits, 0);
            }
        }
    }

    #[test]
    fn self_flow_is_rejected_loudly() {
        // A src == dst flow has no path; it must die at add_flow with a
        // message naming the host, not as an index panic deep in
        // route resolution (found by fuzz_sim seed 9).
        let net = line_net();
        let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.add_flow(NodeId(0), NodeId(0), 1000, 0);
        }))
        .expect_err("src == dst must be rejected");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("source and destination"), "got: {msg}");
    }

    #[test]
    fn zero_byte_flow_is_rejected() {
        // A zero-byte flow would "complete" without ever sending and
        // wedge completion accounting (found by fuzz_sim size shrink).
        let mut sim = Simulator::new(line_net(), SimConfig::default(), Box::new(NoCcFactory));
        assert_eq!(
            sim.try_add_flow(NodeId(0), NodeId(1), 0, 0),
            Err(ConfigError::EmptyFlow {
                src: NodeId(0),
                dst: NodeId(1)
            })
        );
        assert!(sim.flows.is_empty(), "rejected flow must not register");
    }

    #[test]
    fn switch_flow_endpoint_is_rejected() {
        // NodeId(2) is the switch in line_net: it can neither source nor
        // sink a flow, and pre-validation used to index into host state.
        let mut sim = Simulator::new(line_net(), SimConfig::default(), Box::new(NoCcFactory));
        assert_eq!(
            sim.try_add_flow(NodeId(0), NodeId(2), 1000, 0),
            Err(ConfigError::NonHostFlowEndpoint { node: NodeId(2) })
        );
        assert_eq!(
            sim.try_add_flow(NodeId(2), NodeId(1), 1000, 0),
            Err(ConfigError::NonHostFlowEndpoint { node: NodeId(2) })
        );
    }

    #[test]
    fn out_of_range_flow_endpoint_is_rejected() {
        let mut sim = Simulator::new(line_net(), SimConfig::default(), Box::new(NoCcFactory));
        assert_eq!(
            sim.try_add_flow(NodeId(0), NodeId(99), 1000, 0),
            Err(ConfigError::NonHostFlowEndpoint { node: NodeId(99) })
        );
    }

    #[test]
    fn unroutable_flow_is_rejected() {
        // h0 — s0 — h2 and h1 — s1, with no link between the switches:
        // h0 → h1 has no route, and registration must say so with a typed
        // error before it touches any per-flow state.
        let mut b = NetBuilder::new();
        let (h0, h1, h2) = (b.add_host(), b.add_host(), b.add_host());
        let s0 = b.add_switch(22_000_000, PfcConfig::dc_switch());
        let s1 = b.add_switch(22_000_000, PfcConfig::dc_switch());
        for (h, s) in [(h0, s0), (h2, s0), (h1, s1)] {
            b.connect(h, s, 10 * GBPS, 1 * US, LinkOpts::default());
        }
        let mut sim = Simulator::new(b.build(), SimConfig::default(), Box::new(NoCcFactory));
        sim.add_flow(h0, h2, 5_000, 0);
        assert_eq!(
            sim.try_add_flow(h0, h1, 1000, 0),
            Err(ConfigError::NoRoute { src: h0, dst: h1 })
        );
        assert_eq!((sim.flows.len(), sim.paths.len()), (1, 1));
        sim.add_flow(h2, h0, 5_000, 0);
        assert!(sim.run_until_flows_complete());
        assert_eq!(sim.out.fcts.len(), 2);
    }

    #[test]
    fn byte_conservation_across_flows() {
        let net = line_net();
        let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
        let sizes = [5_000u64, 42_000, 99_999];
        for (i, &s) in sizes.iter().enumerate() {
            sim.add_flow(NodeId(0), NodeId(1), s, (i as u64) * 10 * US);
        }
        assert!(sim.run_until_flows_complete());
        assert_eq!(sim.total_delivered(), sizes.iter().sum::<u64>());
    }

    #[test]
    fn two_senders_one_receiver_share_bottleneck() {
        // h0 and h2 both send to h1 at line rate: the s→h1 link is the
        // bottleneck; PFC keeps everything lossless, so both flows
        // complete and deliver all bytes.
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let s = b.add_switch(22_000_000, PfcConfig::dc_switch());
        for h in [h0, h1, h2] {
            b.connect(h, s, 10 * GBPS, 1 * US, LinkOpts::default());
        }
        let net = b.build();
        let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
        sim.add_flow(h0, h1, 500_000, 0);
        sim.add_flow(h2, h1, 500_000, 0);
        assert!(sim.run_until_flows_complete());
        assert_eq!(sim.out.buffer_drops, 0, "lossless fabric");
        // Two 10G senders into one 10G sink: finishing takes at least
        // 2 × 500 KB at 10 Gbps.
        let min_time = tx_time(2 * 500_000, 10 * GBPS);
        assert!(sim.out.finished_at >= min_time);
    }

    #[test]
    fn pfc_triggers_under_incast() {
        // Small switch buffer forces PFC pauses under 2:1 incast.
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let s = b.add_switch(200_000, PfcConfig::dc_switch());
        // 200 KB shared buffer; marking off so only PFC acts.
        for h in [h0, h1, h2] {
            b.connect(h, s, 10 * GBPS, 1 * US, LinkOpts::default());
        }
        let net = b.build();
        let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
        sim.add_flow(h0, h1, 2_000_000, 0);
        sim.add_flow(h2, h1, 2_000_000, 0);
        assert!(sim.run_until_flows_complete());
        assert!(sim.total_pfc_pauses() > 0, "incast must trigger PFC");
        assert_eq!(sim.out.buffer_drops, 0, "PFC prevents loss");
        assert!(!sim.out.pfc_events.is_empty());
    }

    #[test]
    fn drops_without_pfc_then_rto_recovers() {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let s = b.add_switch(100_000, PfcConfig::disabled());
        for h in [h0, h1, h2] {
            b.connect(h, s, 10 * GBPS, 1 * US, LinkOpts::default());
        }
        let net = b.build();
        let cfg = SimConfig {
            stop_time: 200 * MS,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
        sim.add_flow(h0, h1, 1_000_000, 0);
        sim.add_flow(h2, h1, 1_000_000, 0);
        let done = sim.run_until_flows_complete();
        assert!(sim.out.buffer_drops > 0, "no PFC → overflow drops");
        assert!(done, "go-back-N still completes the flows");
        assert!(sim.out.retransmits > 0);
    }

    #[test]
    fn ecn_marks_build_up_under_congestion() {
        // Receiver counts marked packets via a probe ReceiverCc.
        use std::cell::Cell;
        use std::rc::Rc;

        struct CountingReceiver(Rc<Cell<u64>>);
        impl ReceiverCc for CountingReceiver {
            fn on_data(&mut self, pkt: &Packet, _now: Time) -> crate::cc::AckFields {
                if pkt.ecn {
                    self.0.set(self.0.get() + 1);
                }
                crate::cc::AckFields::default()
            }
        }
        struct ProbeFactory(Rc<Cell<u64>>);
        impl CcFactory for ProbeFactory {
            fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
                Box::new(FixedRateCc::new(env.path.line_rate_bps as f64))
            }
            fn receiver(&self, _env: &CcEnv) -> Box<dyn ReceiverCc> {
                Box::new(CountingReceiver(self.0.clone()))
            }
            fn name(&self) -> &'static str {
                "probe"
            }
        }

        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let s = b.add_switch(22_000_000, PfcConfig::dc_switch());
        for h in [h0, h1, h2] {
            b.connect(h, s, 10 * GBPS, 1 * US, LinkOpts::default());
        }
        let net = b.build();
        let marks = Rc::new(Cell::new(0));
        let mut sim = Simulator::new(
            net,
            SimConfig::default(),
            Box::new(ProbeFactory(marks.clone())),
        );
        sim.add_flow(h0, h1, 2_000_000, 0);
        sim.add_flow(h2, h1, 2_000_000, 0);
        assert!(sim.run_until_flows_complete());
        assert!(marks.get() > 0, "standing queue must produce CE marks");
    }

    #[test]
    fn below_kmin_egress_draws_no_ecn_sample() {
        // h0 and h2 fan in on h1 at line rate, so the s→h1 egress queues
        // past Kmax and marks; h3's lone flow to h4 never queues the s→h4
        // egress anywhere near Kmin. The marking path draws its uniform
        // only when the marking probability is nonzero, so the quiet
        // egress's sampler must still be the fresh substream.
        let mut b = NetBuilder::new();
        let hosts: Vec<NodeId> = (0..5).map(|_| b.add_host()).collect();
        let s = b.add_switch(22_000_000, PfcConfig::dc_switch());
        let to_host: Vec<LinkId> = hosts
            .iter()
            .map(|&h| b.connect(h, s, 10 * GBPS, 1 * US, LinkOpts::default()).1)
            .collect();
        let cfg = SimConfig::default();
        let mut sim = Simulator::new(b.build(), cfg, Box::new(NoCcFactory));
        sim.add_flow(hosts[0], hosts[1], 2_000_000, 0);
        sim.add_flow(hosts[2], hosts[1], 2_000_000, 0);
        sim.add_flow(hosts[3], hosts[4], 2_000_000, 0);
        assert!(sim.run_until_flows_complete());
        assert!(sim.out.ecn_marks > 0, "the incast egress must mark");
        let fresh =
            |l: LinkId| Xoshiro256StarStar::substream(cfg.seed ^ ECN_STREAM_SALT, l.0 as u64);
        let (quiet, marking) = (to_host[4], to_host[1]);
        assert_eq!(sim.ecn_rngs[quiet.index()], fresh(quiet), "below Kmin");
        assert_ne!(sim.ecn_rngs[marking.index()], fresh(marking), "marking");
    }

    #[test]
    fn monitor_collects_samples() {
        let net = line_net();
        let cfg = SimConfig {
            monitor_interval: 10 * US,
            stop_time: 1 * MS,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
        let uplink = sim.nodes[0].as_host().unwrap().uplink;
        sim.set_monitor(crate::monitor::MonitorSpec {
            queues: vec![uplink],
            flows: vec![FlowId(0)],
            ..crate::monitor::MonitorSpec::default()
        });
        sim.add_flow(NodeId(0), NodeId(1), 100_000, 0);
        sim.run();
        assert!(sim.out.monitor.samples.len() >= 50);
        // Flow progress is monotone in the samples.
        let rx: Vec<u64> = sim
            .out
            .monitor
            .samples
            .iter()
            .map(|s| s.flow_rx_bytes[0])
            .collect();
        assert!(rx.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rx.last().unwrap(), 100_000);
    }

    #[test]
    fn path_resolution_intra_dc() {
        let net = line_net();
        let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
        let f = sim.add_flow(NodeId(0), NodeId(1), 1000, 0);
        sim.run_until_flows_complete();
        let p = sim.flow_path(f).unwrap();
        assert!(!p.cross_dc);
        assert_eq!(p.hops, 2);
        assert_eq!(p.line_rate_bps, 10 * GBPS);
        assert_eq!(p.bottleneck_bps, 10 * GBPS);
        assert_eq!(p.base_rtt, p.src_dc_rtt);
        // Base RTT: 2 links of 1 µs each way + serialization.
        assert!(
            p.base_rtt > 4 * US && p.base_rtt < 10 * US,
            "{}",
            p.base_rtt
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let net = line_net();
            let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
            sim.add_flow(NodeId(0), NodeId(1), 250_000, 0);
            sim.run_until_flows_complete();
            (sim.out.fcts[0].fct(), sim.out.events_processed)
        };
        assert_eq!(run(), run());
    }

    // -----------------------------------------------------------------
    // The window function
    // -----------------------------------------------------------------

    const WD: Time = 10 * MS;
    /// Last progress 5 ms in, so the watchdog deadline is 15 ms.
    const LIVE: Liveness = Liveness {
        progress_at: 5 * MS,
        delivered: 7,
        completed: 0,
        giveups: 0,
        pfc_pauses: 2,
    };
    const DEADLINE: Time = 5 * MS + WD;

    /// `line_net` with the given watchdog window and one flow registered.
    fn watched_sim(window: Time) -> Simulator {
        let cfg = SimConfig {
            watchdog_window: window,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(line_net(), cfg, Box::new(NoCcFactory));
        sim.add_flow(NodeId(0), NodeId(1), 100_000, 0);
        sim
    }

    /// Open one window on a fresh `watched_sim`: its end and any report.
    fn open(
        window: Time,
        gmin: Time,
        live: Liveness,
        lookahead: Time,
    ) -> (Option<Time>, Option<WatchdogReport>) {
        let mut sim = watched_sim(window);
        (sim.open_window(gmin, live, lookahead), sim.out.watchdog)
    }

    #[test]
    fn window_at_the_deadline_is_capped_one_past_it() {
        assert_eq!(
            open(WD, DEADLINE, LIVE, Time::MAX),
            (Some(DEADLINE + 1), None)
        );
        assert_eq!(open(WD, 5 * MS, LIVE, MS), (Some(6 * MS), None));
    }

    #[test]
    fn window_one_past_the_deadline_declares_the_stall_at_it() {
        let report = WatchdogReport {
            stalled_at: DEADLINE,
            last_progress_at: 5 * MS,
            window: WD,
            unfinished_flows: 1,
            delivered_bytes: 7,
            pfc_pauses: 2,
        };
        let got = open(WD, DEADLINE + 1, LIVE, Time::MAX);
        assert_eq!(got, (Some(Time::MAX), Some(report)));
    }

    #[test]
    fn no_unfinished_flow_leaves_the_window_uncapped() {
        let done = Liveness {
            completed: 1,
            ..LIVE
        };
        assert_eq!(open(WD, DEADLINE, done, Time::MAX), (Some(Time::MAX), None));
        assert_eq!(
            open(WD, DEADLINE + 1, done, MS),
            (Some(DEADLINE + 1 + MS), None)
        );
    }

    #[test]
    fn disarmed_watchdog_never_caps() {
        assert_eq!(
            open(0, DEADLINE + 1, LIVE, Time::MAX),
            (Some(Time::MAX), None)
        );
        assert_eq!(open(0, DEADLINE, LIVE, MS), (Some(DEADLINE + MS), None));
        assert_eq!(open(0, Time::MAX, LIVE, MS), (None, None));
    }

    #[test]
    fn flows_added_between_runs_are_counted() {
        let mut sim = watched_sim(WD);
        assert!(sim.run_until_flows_complete());
        assert!(sim.out.watchdog.is_none());
        // A second flow toward a receiver that crashes for good: only the
        // watchdog can end it, and its report must count it.
        let start = sim.now + US;
        sim.inject_node_fault(NodeFault::crash(NodeId(1), start))
            .expect("valid node fault");
        sim.add_flow(NodeId(0), NodeId(1), 100_000, start);
        assert!(!sim.run_until_flows_complete());
        let r = sim.out.watchdog.expect("the stranded flow stalls the run");
        assert_eq!(r.unfinished_flows, 1);
        assert_eq!(r.stalled_at, r.last_progress_at + WD);
        assert_eq!(
            sim.out.outcomes[1].outcome,
            FlowOutcome::Failed(FailReason::Stalled)
        );
    }

    // -----------------------------------------------------------------
    // Fault injection
    // -----------------------------------------------------------------

    use crate::fault::{FaultProfile, GilbertElliott};
    use crate::units::SEC;

    /// In `line_net`, the data path h0→h1 crosses LinkId(0) (h0→s) and
    /// LinkId(3) (s→h1); ACKs return over LinkId(2) and LinkId(1).
    const DATA_LAST_HOP: LinkId = LinkId(3);

    fn fault_sim() -> Simulator {
        Simulator::new(line_net(), SimConfig::default(), Box::new(NoCcFactory))
    }

    #[test]
    fn invalid_link_fault_profile_is_refused() {
        let err = fault_sim().inject_link_faults(DATA_LAST_HOP, FaultProfile::uniform_loss(1.5));
        assert_eq!(
            err,
            Err(ConfigError::FaultProbability {
                knob: "loss",
                bits: 1.5f64.to_bits(),
            })
        );
    }

    #[test]
    fn link_fault_on_a_missing_link_is_refused() {
        let link = LinkId(4);
        let err = fault_sim().inject_link_faults(link, FaultProfile::uniform_loss(0.1));
        assert_eq!(err, Err(ConfigError::NoSuchLink { link }));
    }

    #[test]
    fn inverted_node_fault_is_refused() {
        let fault = NodeFault::restart(NodeId(1), 2 * MS, MS);
        assert_eq!(
            fault_sim().inject_node_fault(fault),
            Err(ConfigError::InvertedFlapWindow {
                down_at: 2 * MS,
                up_at: MS,
            })
        );
    }

    #[test]
    fn node_fault_on_a_missing_node_is_refused() {
        let node = NodeId(3);
        assert_eq!(
            fault_sim().inject_node_fault(NodeFault::crash(node, MS)),
            Err(ConfigError::NoSuchNode { node })
        );
    }

    #[test]
    fn empty_ctrl_outage_is_refused() {
        let mut sim = fault_sim();
        for (from, until) in [(MS, MS), (2 * MS, MS)] {
            assert_eq!(
                sim.inject_ctrl_outage(from, until),
                Err(ConfigError::InvertedFlapWindow {
                    down_at: from,
                    up_at: until,
                })
            );
        }
        assert!(!sim.ctrl_dark(MS), "a refused window leaves no outage");
    }

    #[test]
    fn inert_profile_is_never_attached() {
        let run = |inject: bool| {
            let net = line_net();
            let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
            if inject {
                sim.inject_link_faults(DATA_LAST_HOP, FaultProfile::default())
                    .expect("valid link fault");
                assert!(
                    sim.links[DATA_LAST_HOP.index()].faults.is_none(),
                    "inert profile must not allocate fault state"
                );
            }
            sim.add_flow(NodeId(0), NodeId(1), 250_000, 0);
            sim.run_until_flows_complete();
            (sim.out.fcts[0].fct(), sim.out.events_processed)
        };
        assert_eq!(run(true), run(false), "default profile is a no-op");
    }

    #[test]
    fn uniform_loss_forces_retransmission_but_flow_completes() {
        let net = line_net();
        let cfg = SimConfig {
            stop_time: 2 * SEC,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
        sim.enable_trace(1 << 16);
        sim.inject_link_faults(DATA_LAST_HOP, FaultProfile::uniform_loss(0.02))
            .expect("valid link fault");
        sim.add_flow(NodeId(0), NodeId(1), 500_000, 0);
        assert!(
            sim.run_until_flows_complete(),
            "2% WAN loss must not strand the flow"
        );
        assert!(sim.out.fault_drops > 0, "losses must actually occur");
        assert_eq!(sim.out.buffer_drops, 0, "no congestion loss here");
        assert!(sim.out.retransmits > 0, "recovery is via go-back-N");
        assert_eq!(sim.total_delivered(), 500_000);
        // Every fault drop leaves a PacketLost trace record.
        let lost = sim
            .trace
            .as_ref()
            .unwrap()
            .count(|e| matches!(e, TraceEvent::PacketLost { .. }));
        assert_eq!(lost as u64, sim.out.fault_drops);
    }

    #[test]
    fn link_flap_delays_but_never_strands() {
        let clean_fct = {
            let net = line_net();
            let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
            sim.add_flow(NodeId(0), NodeId(1), 500_000, 0);
            assert!(sim.run_until_flows_complete());
            sim.out.fcts[0].fct()
        };
        let net = line_net();
        let cfg = SimConfig {
            stop_time: 2 * SEC,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
        sim.enable_trace(1 << 16);
        let down_at = 100 * US;
        let up_at = 3 * MS;
        sim.inject_link_faults(DATA_LAST_HOP, FaultProfile::flap(down_at, up_at))
            .expect("valid link fault");
        sim.add_flow(NodeId(0), NodeId(1), 500_000, 0);
        assert!(
            sim.run_until_flows_complete(),
            "a mid-transfer flap delays the flow but must not strand it"
        );
        assert_eq!(sim.out.link_flaps, 1);
        assert!(sim.out.fault_drops > 0, "packets sent while dark are lost");
        let fct = sim.out.fcts[0].fct();
        assert!(
            fct > up_at && fct > clean_fct,
            "fct {fct} vs clean {clean_fct}"
        );
        let tr = sim.trace.as_ref().unwrap();
        assert_eq!(tr.count(|e| matches!(e, TraceEvent::LinkDown { .. })), 1);
        assert_eq!(tr.count(|e| matches!(e, TraceEvent::LinkUp { .. })), 1);
    }

    #[test]
    fn faulted_runs_are_bitwise_deterministic() {
        let run = || {
            let net = line_net();
            let cfg = SimConfig {
                seed: 7,
                stop_time: 2 * SEC,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(net, cfg, Box::new(NoCcFactory));
            sim.inject_link_faults(
                DATA_LAST_HOP,
                FaultProfile::uniform_loss(0.01)
                    .with_jitter(5 * US)
                    .with_gilbert(GilbertElliott::bursty(0.02, 0.3, 0.5)),
            )
            .expect("valid link fault");
            // Independent loss on the reverse (ACK) direction too.
            sim.inject_link_faults(LinkId(2), FaultProfile::uniform_loss(0.005))
                .expect("valid link fault");
            sim.add_flow(NodeId(0), NodeId(1), 500_000, 0);
            assert!(sim.run_until_flows_complete());
            (
                sim.out.fcts[0].fct(),
                sim.out.events_processed,
                sim.out.fault_drops,
                sim.out.fault_jittered,
                sim.out.retransmits,
            )
        };
        let a = run();
        assert_eq!(a, run(), "same seed → bit-identical faulted run");
        assert!(a.2 > 0 && a.3 > 0, "faults and jitter both exercised");
    }

    #[test]
    fn faults_on_untraversed_link_do_not_perturb_the_run() {
        // In line_net all four links carry either the flow's data or its
        // ACKs, so attach a third (idle) host and fault *its* links: a
        // heavy loss+jitter profile there must not move the flow by one
        // picosecond (per-link RNG substreams are fully isolated).
        let run = |faults: bool| {
            let mut b = NetBuilder::new();
            let h0 = b.add_host();
            let h1 = b.add_host();
            let h2 = b.add_host();
            let s = b.add_switch(22_000_000, PfcConfig::dc_switch());
            b.connect(h0, s, 10 * GBPS, 1 * US, LinkOpts::default());
            b.connect(h1, s, 10 * GBPS, 1 * US, LinkOpts::default());
            let (idle_up, idle_down) = b.connect(h2, s, 10 * GBPS, 1 * US, LinkOpts::default());
            let mut sim = Simulator::new(b.build(), SimConfig::default(), Box::new(NoCcFactory));
            if faults {
                for l in [idle_up, idle_down] {
                    sim.inject_link_faults(l, FaultProfile::uniform_loss(0.5).with_jitter(50 * US))
                        .expect("valid link fault");
                }
            }
            sim.add_flow(h0, h1, 250_000, 0);
            sim.run_until_flows_complete();
            (sim.out.fcts[0].fct(), sim.out.events_processed)
        };
        assert_eq!(run(true), run(false));
    }
}

//! Sharded multi-core execution with deterministic DCI lookahead.
//!
//! A cross-datacenter fabric decomposes naturally at its long-haul
//! links: removing them leaves connected components (one per DC) whose
//! only interaction is packets crossing a link with millisecond-scale
//! propagation delay. That delay is *lookahead* in the classical
//! conservative parallel-DES sense: an event processed at time `t` in
//! one component cannot affect another component before `t + L`, where
//! `L` is the minimum cross-component link delay (serialization and
//! jitter only add to it, and the fault model's jitter is FIFO-clamped
//! and strictly additive — see [`crate::fault`]).
//!
//! [`run_sharded`] exploits this: each shard owns one or more
//! components and runs an ordinary [`Simulator`] over them — its own
//! timing wheel, DenseMap slabs, and packet pool — advancing through
//! windows `[G, G + L)` where `G` is the global minimum pending event
//! time. At each window barrier shards exchange *boundary packets*
//! (arrivals whose long-haul link lands in another shard) through
//! per-direction queues.
//!
//! # Why the merged run is bit-identical at every shard count
//!
//! Three mechanisms, all active at shard count 1 too, make the total
//! order of observable records a pure function of the scenario:
//!
//! 1. **Content-derived boundary keys.** Long-haul arrivals tie-break
//!    by `boundary_seq(link, wire_seq)` — a key derived from the link
//!    and the per-link serialization ordinal — instead of the queue's
//!    insertion counter (see [`crate::event::boundary_seq`]). The
//!    single-threaded engine uses the same keys, so same-instant
//!    cross-shard orderings never depend on which queue an event was
//!    inserted into, or when.
//! 2. **Per-link RNG substreams.** ECN marking and fault draws key off
//!    `(salted seed, link id)`, so a link's draw sequence depends only
//!    on its own traffic history — which is per-component and therefore
//!    identical however components are grouped onto threads.
//! 3. **Canonical merge order.** Per-shard output streams are merged
//!    by `(time, component-of-record)` with a stable sort; within one
//!    `(time, component)` bucket the shard-local order is kept, and a
//!    component's local order is exactly the single-threaded order by
//!    (1) and (2). The same canonicalization is applied to a plain
//!    single-threaded run, so goldens compare equal across counts.
//!
//! The one engine statistic deliberately *excluded* from cross-count
//! equality is `peak_queue_depth`: the high-water mark of each shard's
//! event queue is an execution artifact, not a property of the
//! simulated fabric.
//!
//! # Safety of the window protocol
//!
//! Induction over barriers: at a window start every pending event is
//! `≥ G` (initially true; maintained because a window processes
//! everything `< G + L`, local scheduling happens at `now ≥ G`, and a
//! boundary packet sent at `s ≥ G` arrives at
//! `s + ser + delay ≥ s + L ≥ G + L`, i.e. never inside a window any
//! shard has already processed). Boundary packets are published before
//! one barrier and drained after it; votes to continue are published
//! before a second barrier, so every thread computes the same global
//! minimum and the same termination decision.

use std::sync::{Barrier, Mutex};

use crate::flow::FlowSpec;
use crate::link::Link;
use crate::packet::Packet;
use crate::sim::{Liveness, SimOutput, Simulator};
use crate::trace::{TraceEvent, TraceRecord};
use crate::types::{LinkId, NodeId};
use crate::units::Time;

/// A packet crossing a shard boundary: an arrival on a long-haul link
/// whose destination lives in another shard. Exported by the sending
/// shard's serializer, delivered (and re-adopted into the pool) by the
/// owning shard at the next window barrier.
pub struct BoundaryPacket {
    /// Arrival time at the far end (fault jitter already applied).
    pub at: Time,
    pub link: LinkId,
    /// Content-derived tie-break key ([`crate::event::boundary_seq`]).
    pub seq: u64,
    pub packet: Box<Packet>,
}

/// Shard context installed on a [`Simulator`] running as one shard.
pub struct ShardCtx {
    /// Owning shard of every node.
    pub part: Vec<u32>,
    /// This shard's id.
    pub own: u32,
    /// Boundary packets produced during the current window, drained to
    /// the exchange queues at the barrier.
    pub outbox: Vec<BoundaryPacket>,
}

impl ShardCtx {
    /// Whether this shard owns `node`'s events.
    #[inline]
    pub fn owns(&self, node: NodeId) -> bool {
        self.part[node.index()] == self.own
    }
}

/// Connected components of the topology over the non-long-haul links,
/// plus the lookahead window.
///
/// Returns `(component id per node, lookahead)` where components are
/// numbered by first appearance in node-id order (deterministic), and
/// the lookahead is the minimum propagation delay over links whose
/// endpoints fall in different components ([`Time::MAX`] when the
/// components are fully independent). Every cross-component link is
/// long-haul by construction: non-long-haul links union their
/// endpoints.
pub fn partition_components(links: &[Link], n_nodes: usize) -> (Vec<u32>, Time) {
    let mut parent: Vec<usize> = (0..n_nodes).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    for lk in links {
        if !lk.opts.long_haul {
            let a = find(&mut parent, lk.src.index());
            let b = find(&mut parent, lk.dst.index());
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    let mut comp = vec![u32::MAX; n_nodes];
    let mut next = 0u32;
    for i in 0..n_nodes {
        let r = find(&mut parent, i);
        if comp[r] == u32::MAX {
            comp[r] = next;
            next += 1;
        }
        comp[i] = comp[r];
    }
    let mut lookahead = Time::MAX;
    for lk in links {
        if comp[lk.src.index()] != comp[lk.dst.index()] {
            debug_assert!(lk.opts.long_haul, "cross-component link must be long-haul");
            lookahead = lookahead.min(lk.delay);
        }
    }
    (comp, lookahead)
}

/// The merged result of a sharded (or canonicalized single-threaded)
/// run.
pub struct ShardedOutput {
    /// Merged statistics. Scalar counters are sums over shards,
    /// `finished_at` is the maximum, and record streams (`fcts`,
    /// `pfc_events`) are in canonical `(time, component)` order.
    /// `peak_queue_depth` is the per-shard maximum and is NOT
    /// comparable across shard counts.
    pub out: SimOutput,
    /// Flight-recorder records in canonical order (empty unless a trace
    /// capacity was requested).
    pub trace: Vec<TraceRecord>,
    /// Number of topology components (independent of the shard count).
    pub partitions: u32,
}

/// Everything one shard thread hands back to the merge.
struct ShardResult {
    out: SimOutput,
    trace: Vec<TraceRecord>,
    flows: Vec<FlowSpec>,
    link_src: Vec<NodeId>,
    comp: Vec<u32>,
    #[cfg(feature = "audit")]
    census: Vec<(crate::audit::FlowLedger, u64, u64)>,
}

/// Shared cross-thread state for the window protocol.
struct Exchange {
    /// `queues[dst * shards + src]`: boundary packets from `src` to
    /// `dst`, drained by `dst` in fixed `src` order.
    queues: Vec<Mutex<Vec<BoundaryPacket>>>,
    /// Per shard, republished at every barrier: its next runnable event
    /// time (`Time::MAX` = none within `stop_time`) and its liveness
    /// snapshot. Every shard folds the same published values into the
    /// same `gmin` and fabric-wide snapshot, so every shard opens the
    /// same window and reaches the same watchdog verdict.
    published: Vec<Mutex<(Time, Liveness)>>,
    barrier: Barrier,
}

impl Exchange {
    /// One barrier phase for shard `sidx` of `s`: hand the last window's
    /// boundary packets to their owners, take delivery of this shard's,
    /// publish its state, and read everyone's back as the next window's
    /// `(gmin, fabric-wide liveness)`.
    fn sync(&self, sim: &mut Simulator, sidx: usize, s: usize) -> (Time, Liveness) {
        // Publish, then rendezvous so every send is visible before
        // anyone drains.
        let shard = sim.shard.as_mut().expect("shard ctx");
        for bp in std::mem::take(&mut shard.outbox) {
            let d = shard.part[sim.links[bp.link.index()].dst.index()] as usize;
            self.queues[d * s + sidx]
                .lock()
                .expect("queue poisoned")
                .push(bp);
        }
        self.barrier.wait();
        // Drain in fixed source order; per-link FIFO within a queue is
        // the publish order, which is the serialization order.
        for src in 0..s {
            let drained =
                std::mem::take(&mut *self.queues[sidx * s + src].lock().expect("queue poisoned"));
            for bp in drained {
                sim.deliver_boundary(bp);
            }
        }
        *self.published[sidx].lock().expect("slot poisoned") =
            (sim.next_runnable(Time::MAX), sim.liveness());
        self.barrier.wait();
        self.published
            .iter()
            .map(|m| *m.lock().expect("slot poisoned"))
            .fold((Time::MAX, Liveness::default()), |(g, all), (t, live)| {
                (g.min(t), all.merge(live))
            })
    }
}

/// Run a scenario sharded across `n_shards` threads and merge the
/// results into canonical order.
///
/// `build` constructs the simulator (topology + config + CC factory);
/// `setup` applies everything else — fault injection, flow
/// registration — to the freshly built simulator. Both run once per
/// shard thread: a [`Simulator`] never crosses threads, so the CC
/// plumbing needs no `Send`. Both closures MUST be deterministic
/// functions of the scenario (each shard must see the identical
/// topology and flow list; ownership gating inside the simulator does
/// the rest).
///
/// `n_shards` must not exceed the number of topology components (a
/// component is the indivisible unit of work). `n_shards == 1` still
/// exercises the full window/barrier protocol on one thread; use
/// [`run_single_canonical`] for the plain engine with only the
/// canonical ordering applied.
pub fn run_sharded<B, S>(
    n_shards: u32,
    trace_capacity: Option<usize>,
    build: B,
    setup: S,
) -> ShardedOutput
where
    B: Fn() -> Simulator + Sync,
    S: Fn(&mut Simulator) + Sync,
{
    assert!(n_shards >= 1, "need at least one shard");
    let s = n_shards as usize;
    let ex = Exchange {
        queues: (0..s * s).map(|_| Mutex::new(Vec::new())).collect(),
        published: (0..s).map(|_| Mutex::default()).collect(),
        barrier: Barrier::new(s),
    };
    let results: Vec<ShardResult> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..n_shards)
            .map(|me| {
                let (ex, build, setup) = (&ex, &build, &setup);
                sc.spawn(move || run_one_shard(me, n_shards, trace_capacity, build, setup, ex))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    merge(results)
}

/// Run the plain single-threaded engine and put its output in the same
/// canonical order [`run_sharded`] produces — the golden baseline the
/// sharded runs are compared against.
pub fn run_single_canonical<B, S>(
    trace_capacity: Option<usize>,
    build: B,
    setup: S,
) -> ShardedOutput
where
    B: Fn() -> Simulator,
    S: Fn(&mut Simulator),
{
    let mut sim = build();
    if let Some(c) = trace_capacity {
        sim.enable_trace(c);
    }
    let (comp, _) = partition_components(&sim.links, sim.nodes.len());
    setup(&mut sim);
    sim.run();
    merge(vec![ShardResult::take(&mut sim, comp)])
}

impl ShardResult {
    /// Move a finalized engine's results out for the merge.
    fn take(sim: &mut Simulator, comp: Vec<u32>) -> Self {
        ShardResult {
            trace: sim
                .trace
                .take()
                .map(|t| t.records().copied().collect())
                .unwrap_or_default(),
            flows: sim.flows.clone(),
            link_src: sim.links.iter().map(|l| l.src).collect(),
            comp,
            #[cfg(feature = "audit")]
            census: std::mem::take(&mut sim.audit.shard_census),
            out: std::mem::take(&mut sim.out),
        }
    }
}

fn run_one_shard<B, S>(
    me: u32,
    n_shards: u32,
    trace_capacity: Option<usize>,
    build: &B,
    setup: &S,
    ex: &Exchange,
) -> ShardResult
where
    B: Fn() -> Simulator + Sync,
    S: Fn(&mut Simulator) + Sync,
{
    let mut sim = build();
    if let Some(c) = trace_capacity {
        sim.enable_trace(c);
    }
    let (comp, lookahead) = partition_components(&sim.links, sim.nodes.len());
    let n_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
    assert!(
        n_shards <= n_comp,
        "{n_shards} shards but the topology only has {n_comp} \
         long-haul-separated partition(s)"
    );
    assert!(
        n_shards == 1 || lookahead > 0,
        "cross-shard links must have nonzero delay (lookahead window)"
    );
    let part: Vec<u32> = comp.iter().map(|&c| c % n_shards).collect();
    sim.set_shard(ShardCtx {
        part,
        own: me,
        outbox: Vec::new(),
    });
    setup(&mut sim);
    // The shared run loop, with the lookahead window and the barrier as
    // its sync step. Every shard reads the same published state, so
    // every shard opens the same window, reaches the same watchdog
    // verdict, and stops on the same pass.
    let (sidx, s) = (me as usize, n_shards as usize);
    sim.drive(Time::MAX, lookahead, |_| false, |sim| ex.sync(sim, sidx, s));
    sim.finalize();
    ShardResult::take(&mut sim, comp)
}

/// Component of record for the canonical merge: the component whose
/// shard emitted the record, derived from the record itself so the key
/// is independent of the shard count.
fn trace_component(ev: &TraceEvent, flows: &[FlowSpec], link_src: &[NodeId], comp: &[u32]) -> u32 {
    match ev {
        TraceEvent::FlowStarted { src, .. } => comp[src.index()],
        TraceEvent::FlowCompleted { flow, .. } => comp[flows[flow.index()].dst.index()],
        TraceEvent::PacketDropped { at, .. }
        | TraceEvent::PfcPause { at, .. }
        | TraceEvent::PfcResume { at, .. } => comp[at.index()],
        TraceEvent::Retransmit { flow, .. } | TraceEvent::FlowFailed { flow, .. } => {
            comp[flows[flow.index()].src.index()]
        }
        TraceEvent::NodeDown { node } | TraceEvent::NodeUp { node } => comp[node.index()],
        TraceEvent::PacketBlackholed { at, .. } => comp[at.index()],
        TraceEvent::PfqCreated { link, .. }
        | TraceEvent::PacketLost { link, .. }
        | TraceEvent::LinkDown { link }
        | TraceEvent::LinkUp { link } => comp[link_src[link.index()].index()],
    }
}

/// Stable-sort the timestamped record streams into `(time, component)`
/// order. Within one bucket the pre-sort order is kept — per-shard
/// local event order, which per component equals the single-threaded
/// order.
fn canonicalize(
    out: &mut SimOutput,
    trace: &mut [TraceRecord],
    flows: &[FlowSpec],
    link_src: &[NodeId],
    comp: &[u32],
) {
    out.fcts.sort_by_key(|r| (r.finish, comp[r.dst.index()]));
    out.pfc_events.sort_by_key(|&(t, n)| (t, comp[n.index()]));
    out.outcomes.sort_by_key(|r| (r.ended, r.flow.0));
    trace.sort_by_key(|r| (r.t, trace_component(&r.event, flows, link_src, comp)));
}

/// Merge per-engine results — one per shard, or a plain run's alone —
/// into canonical order.
fn merge(mut results: Vec<ShardResult>) -> ShardedOutput {
    let flows = std::mem::take(&mut results[0].flows);
    let link_src = std::mem::take(&mut results[0].link_src);
    let comp = std::mem::take(&mut results[0].comp);
    let partitions = comp.iter().copied().max().map_or(0, |m| m + 1);
    let results_watchdog = results[0].out.watchdog;

    #[cfg(feature = "audit")]
    audit_merged_conservation(&results);

    let mut out = SimOutput {
        // Only a plain run samples: shards refuse the monitor.
        monitor: std::mem::take(&mut results[0].out.monitor),
        ..SimOutput::default()
    };
    let mut trace: Vec<TraceRecord> = Vec::new();
    for r in &mut results {
        out.fcts.append(&mut r.out.fcts);
        out.pfc_events.append(&mut r.out.pfc_events);
        out.outcomes.append(&mut r.out.outcomes);
        trace.append(&mut r.trace);
        out.events_processed += r.out.events_processed;
        out.events_scheduled += r.out.events_scheduled;
        out.peak_queue_depth = out.peak_queue_depth.max(r.out.peak_queue_depth);
        out.finished_at = out.finished_at.max(r.out.finished_at);
        out.buffer_drops += r.out.buffer_drops;
        out.fault_drops += r.out.fault_drops;
        out.fault_jittered += r.out.fault_jittered;
        out.blackhole_drops += r.out.blackhole_drops;
        out.int_suppressed += r.out.int_suppressed;
        out.link_flaps += r.out.link_flaps;
        out.retransmits += r.out.retransmits;
        out.ecn_marks += r.out.ecn_marks;
        // The stall verdict is a consensus decision: either every
        // shard declared with the identical report or none did.
        assert_eq!(
            r.out.watchdog, results_watchdog,
            "shard watchdog verdicts diverge"
        );
    }
    out.watchdog = results_watchdog;
    // A cross-shard flow whose receiver completed but whose sender
    // never learned (ACK path dead at the end of the run) yields two
    // records: Completed at the destination shard, Failed at the
    // source. Completion wins — every byte arrived — exactly as the
    // single-threaded engine's end-slot replacement resolves it.
    out.outcomes
        .sort_by_key(|r| (r.flow.0, r.outcome.is_failed()));
    out.outcomes.dedup_by_key(|r| r.flow.0);
    canonicalize(&mut out, &mut trace, &flows, &link_src, &comp);
    ShardedOutput {
        out,
        trace,
        partitions,
    }
}

/// Per-shard drain checks cannot verify per-flow conservation for
/// cross-shard flows (bytes are born in one shard and delivered in
/// another); each shard stashes its ledger-plus-census instead, and the
/// global sum must balance here.
#[cfg(feature = "audit")]
fn audit_merged_conservation(results: &[ShardResult]) {
    let nf = results.iter().map(|r| r.census.len()).max().unwrap_or(0);
    let mut tot = vec![(crate::audit::FlowLedger::default(), 0, 0); nf];
    for r in results {
        for (t, (led, seen_pkts, seen_bytes)) in tot.iter_mut().zip(&r.census) {
            t.0.add(led);
            t.1 += seen_pkts;
            t.2 += seen_bytes;
        }
    }
    for (i, (led, seen_pkts, seen_bytes)) in tot.iter().enumerate() {
        led.assert_conserved(i, *seen_pkts, *seen_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::NoCcFactory;
    use crate::config::SimConfig;
    use crate::link::LinkOpts;
    use crate::pfc::PfcConfig;
    use crate::topology::NetBuilder;
    use crate::units::{GBPS, MS, US};

    /// Two 2-host islands joined by a long-haul pair:
    /// (h0, h1 — s0) ═ (s1 — h2, h3). Terminating the long haul makes s0
    /// and s1 DCIs, with the DCI ECN profile on every egress; under
    /// `NoCcFactory` and baseline DCI features the role changes nothing.
    fn two_island_sim() -> Simulator {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let h3 = b.add_host();
        let s0 = b.add_switch(32_000_000, PfcConfig::disabled());
        let s1 = b.add_switch(32_000_000, PfcConfig::disabled());
        for h in [h0, h1] {
            b.connect(h, s0, 10 * GBPS, 1 * US, LinkOpts::default());
        }
        for h in [h2, h3] {
            b.connect(h, s1, 10 * GBPS, 1 * US, LinkOpts::default());
        }
        b.connect(s0, s1, 10 * GBPS, 1 * MS, LinkOpts { long_haul: true });
        let cfg = SimConfig {
            stop_time: 400 * MS,
            ..SimConfig::default()
        };
        Simulator::new(b.build(), cfg, Box::new(NoCcFactory))
    }

    #[test]
    fn partition_splits_at_long_haul_only() {
        let sim = two_island_sim();
        let (comp, lookahead) = partition_components(&sim.links, sim.nodes.len());
        // h0, h1, s0 in component 0; h2, h3, s1 in component 1.
        assert_eq!(comp, vec![0, 0, 1, 1, 0, 1]);
        assert_eq!(lookahead, 1 * MS);
    }

    #[test]
    fn single_component_topology_is_one_partition() {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let s = b.add_switch(1 << 20, PfcConfig::dc_switch());
        b.connect(h0, s, GBPS, US, LinkOpts::default());
        b.connect(h1, s, GBPS, US, LinkOpts::default());
        let net = b.build();
        let (comp, lookahead) = partition_components(&net.links, net.nodes.len());
        assert!(comp.iter().all(|&c| c == 0));
        assert_eq!(lookahead, Time::MAX, "no cross-component links");
    }

    /// Cross-island flows in both directions plus one local flow per
    /// island, staggered starts; optionally with loss and jitter on the
    /// long-haul pair (links 8, s0→s1, and 9, s1→s0).
    fn setup_cross_flows(sim: &mut Simulator, faulted: bool) {
        for l in [LinkId(8), LinkId(9)].into_iter().filter(|_| faulted) {
            assert!(sim.links[l.index()].opts.long_haul);
            let profile = crate::fault::FaultProfile::uniform_loss(0.02).with_jitter(5 * US);
            sim.inject_link_faults(l, profile)
                .expect("valid link fault");
        }
        sim.add_flow(NodeId(0), NodeId(2), 300_000, 0);
        sim.add_flow(NodeId(3), NodeId(1), 200_000, 50 * US);
        sim.add_flow(NodeId(0), NodeId(1), 150_000, 20 * US);
        sim.add_flow(NodeId(2), NodeId(3), 150_000, 30 * US);
    }

    /// Runs at 1 and 2 shards must reproduce the canonical plain run.
    fn assert_sharded_matches_golden(faulted: bool) {
        let setup = |sim: &mut Simulator| setup_cross_flows(sim, faulted);
        let base = run_single_canonical(Some(1 << 16), two_island_sim, setup);
        assert_eq!(base.partitions, 2);
        assert_eq!(
            base.out.fault_drops > 0,
            faulted,
            "faults fire iff injected"
        );
        assert!(faulted || base.out.fcts.len() == 4, "all flows complete");
        let stats = |o: &SimOutput| {
            let fcts: Vec<_> = o.fcts.iter().map(|r| (r.flow, r.finish)).collect();
            let drops = (o.buffer_drops, o.fault_drops, o.fault_jittered);
            let events = (o.events_processed, o.events_scheduled, o.finished_at);
            (fcts, drops, events, o.ecn_marks, o.retransmits)
        };
        for shards in [1u32, 2] {
            let sh = run_sharded(shards, Some(1 << 16), two_island_sim, setup);
            assert_eq!(sh.partitions, 2);
            assert_eq!(
                stats(&sh.out),
                stats(&base.out),
                "{shards}-shard stats diverge"
            );
            assert_eq!(sh.trace, base.trace, "{shards}-shard trace diverges");
        }
    }

    #[test]
    fn sharded_run_matches_single_threaded_golden() {
        assert_sharded_matches_golden(false);
    }

    #[test]
    fn sharded_run_matches_golden_under_faults() {
        assert_sharded_matches_golden(true);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn more_shards_than_partitions_is_rejected() {
        run_sharded(3, None, two_island_sim, |_| {});
    }
}

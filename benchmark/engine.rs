//! The three in-process workloads, built only from the public API of
//! `netsim`, `workload`, `mlcc-core` and `cc-baselines` — never from the
//! `mlcc_bench` scenario layer, so a refactor of that layer is measured
//! by this benchmark instead of breaking it.
//!
//! Each rep is one closed-loop batch job: generate the inputs from the
//! seed, build the fabric, register flows, run to completion. Every
//! phase runs inside a span of the rep's [`Scope`], which both times it
//! and, on a traced pass, records it.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use cc_baselines::DcqcnFactory;
use mlcc_core::MlccFactory;
use netsim::alloc::CountingAlloc;
use netsim::prelude::*;
use simstats::json::Value;
use workload::{
    CollectiveOp, CollectiveSchedule, FlowRequest, TrafficClass, TrafficGen, TrafficMix,
};

use crate::cpu::cpu_seconds;
use crate::digest::outcome_digest;
use crate::timed_cc::{CcStats, Hook, TimedCcFactory};
use crate::trace::Scope;

/// Servers per leaf on the two-DC fabric: 8 × 4 leaves × 2 DCs = 64 hosts.
const TWO_DC_SERVERS_PER_LEAF: usize = 8;
/// Flows arrive over this window; the run then drains to completion.
const TWO_DC_ARRIVALS: Time = 6 * MS;
/// Hard stop well past the last completion, so no flow is cut off.
const TWO_DC_STOP: Time = 150 * MS;
const TWO_DC_INTRA_LOAD: f64 = 0.5;
const TWO_DC_CROSS_LOAD: f64 = 0.2;
/// Threads of the sharded variant: one shard per datacenter.
const SHARDS: u32 = 2;

/// Seed of the traffic trace and the base rank placement. The
/// benchmark's `--seed` relabels hosts by a symmetry of the fabric and
/// seeds the engine (ECN marking), so every seed does the same amount of
/// work: drawing the trace itself per seed would make the work, and so
/// every host-time metric, swing by ±10% with the heavy-tailed Hadoop
/// sizes.
const TRAFFIC_SEED: u64 = 7;
/// RNG substream of the host relabelling.
const RELABEL_STREAM: u64 = 0xbe7c;

/// Lockstep training iterations on the fat-tree; each runs a ring and
/// then a tree allreduce.
const FAT_TREE_ITERATIONS: usize = 8;
const FAT_TREE_BYTES_PER_RANK: u64 = 1_000_000;
const FAT_TREE_STOP: Time = 10 * SEC;

/// An in-process workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    TwoDcHadoop,
    TwoDcHadoopMc2,
    FatTreeLockstepDcqcn,
}

impl Engine {
    pub fn name(self) -> &'static str {
        match self {
            Engine::TwoDcHadoop => "two_dc_hadoop",
            Engine::TwoDcHadoopMc2 => "two_dc_hadoop_mc2",
            Engine::FatTreeLockstepDcqcn => "fat_tree_lockstep_dcqcn",
        }
    }

    /// Wall seconds of one rep, set-up to teardown, on the 2-vCPU host
    /// this benchmark was defined on. It only sets how many reps a run
    /// times; a faster or slower build times the same count.
    pub fn nominal_rep_s(self) -> f64 {
        match self {
            Engine::TwoDcHadoopMc2 => 0.55,
            _ => 1.0,
        }
    }

    /// Engine threads the workload runs on.
    pub fn threads(self) -> u32 {
        match self {
            Engine::TwoDcHadoopMc2 => SHARDS,
            _ => 1,
        }
    }

    /// Propagation plus MTU serialization delay of every link, the delay
    /// mix the event-queue hold model draws from.
    pub fn link_delays(self) -> Vec<Time> {
        let net = match self {
            Engine::FatTreeLockstepDcqcn => FatTreeTopology::build(FatTreeParams::default()).net,
            _ => TwoDcTopology::build(two_dc_params()).net,
        };
        let mtu_wire = SimConfig::default().mtu_wire() as u64;
        net.links
            .iter()
            .map(|l| l.delay + tx_time(mtu_wire, l.bandwidth))
            .collect()
    }
}

/// What one rep measured and produced. Times are wall seconds; the
/// per-layer ones are the sum over that layer's spans in the rep.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub digest: u64,
    pub flows: u64,
    pub failed: u64,
    /// Critical path before the engine loop starts.
    pub setup_s: f64,
    /// The engine loop (for lockstep: every registration and run call).
    pub run_s: f64,
    pub generate_s: f64,
    pub build_s: f64,
    pub new_s: f64,
    pub add_flow_s: f64,
    pub add_flow_calls: u64,
    pub run_calls: u64,
    pub links: u64,
    pub partitions: u64,
    pub events: u64,
    pub events_scheduled: u64,
    pub peak_queue_depth: u64,
    pub sim_time: Time,
    pub ecn_marks: u64,
    pub pfc_pauses: u64,
    pub buffer_drops: u64,
    pub retransmits: u64,
    /// Live heap high-water mark over setup and run, above the
    /// benchmark's own allocations at rep start.
    pub peak_heap_bytes: u64,
    /// Allocator calls during the engine span.
    pub alloc_calls: u64,
    /// Process CPU seconds during the engine span, and its wall time.
    pub cpu_s: f64,
    pub engine_wall_s: f64,
    /// Hook counts and busy time; zero unless the rep was traced.
    pub cc: CcStats,
}

impl Rep {
    fn record_output(&mut self, out: &SimOutput) {
        self.digest = outcome_digest(&out.outcomes);
        let completed = out
            .outcomes
            .iter()
            .filter(|o| o.outcome == FlowOutcome::Completed)
            .count() as u64;
        self.failed = self.flows.saturating_sub(completed);
        self.events = out.events_processed;
        self.events_scheduled = out.events_scheduled;
        self.peak_queue_depth = out.peak_queue_depth;
        self.sim_time = out.finished_at;
        self.ecn_marks = out.ecn_marks;
        self.pfc_pauses = out.pfc_events.len() as u64;
        self.buffer_drops = out.buffer_drops;
        self.retransmits = out.retransmits;
    }
}

/// Run one rep of `w` at `seed`. A traced scope also wraps the CC
/// factory in [`TimedCcFactory`] and attaches its counts to the engine
/// span.
pub fn rep(w: Engine, seed: u64, scope: &Scope) -> Result<Rep, String> {
    let sink = scope
        .is_traced()
        .then(|| Arc::new(Mutex::new(CcStats::default())));
    let heap_base = CountingAlloc::live_bytes();
    CountingAlloc::reset_peak();
    let (mut rep, engine_span) = match w {
        Engine::TwoDcHadoop => two_dc_single(seed, scope, sink.as_ref())?,
        Engine::TwoDcHadoopMc2 => two_dc_sharded(seed, scope, sink.as_ref())?,
        Engine::FatTreeLockstepDcqcn => fat_tree_lockstep(seed, scope, sink.as_ref())?,
    };
    rep.peak_heap_bytes = CountingAlloc::peak_bytes().saturating_sub(heap_base);
    if let Some(sink) = sink {
        // Every simulator is gone, so every tally has reached the sink.
        rep.cc = *sink.lock().expect("CC stats sink poisoned");
        let mut attrs = vec![
            ("cc.calls".to_string(), Value::from(rep.cc.total_calls())),
            ("cc.busy_ns".to_string(), Value::from(rep.cc.busy_ns)),
        ];
        for h in Hook::ALL {
            attrs.push((
                format!("cc.{}.calls", h.name()),
                Value::from(rep.cc.calls(h)),
            ));
        }
        scope.annotate(engine_span, attrs);
    }
    Ok(rep)
}

fn cc_factory(inner: Box<dyn CcFactory>, sink: Option<&Arc<Mutex<CcStats>>>) -> Box<dyn CcFactory> {
    match sink {
        Some(s) => Box::new(TimedCcFactory::new(inner, Arc::clone(s))),
        None => inner,
    }
}

/// CPU seconds and allocator calls at one instant, to difference around
/// the engine span.
struct Meter {
    cpu: f64,
    allocs: u64,
}

impl Meter {
    fn now() -> Meter {
        Meter {
            cpu: cpu_seconds().map_or(0.0, |c| c.0),
            allocs: CountingAlloc::alloc_calls(),
        }
    }

    fn finish(self, rep: &mut Rep, wall_s: f64) {
        let end = Meter::now();
        rep.cpu_s = end.cpu - self.cpu;
        rep.alloc_calls = end.allocs - self.allocs;
        rep.engine_wall_s = wall_s;
    }
}

fn register(sim: &mut Simulator, requests: &[FlowRequest]) -> Result<(), String> {
    for r in requests {
        sim.try_add_flow(r.src, r.dst, r.size_bytes, r.start)
            .map_err(|e| format!("flow {} → {}: {e}", r.src, r.dst))?;
    }
    Ok(())
}

fn partitions(net: &Network) -> u64 {
    let (comp, _) = partition_components(&net.links, net.nodes.len());
    comp.iter().copied().max().map_or(0, |m| u64::from(m) + 1)
}

/// A seeded symmetry of the fabric: hosts grouped as
/// `groups[top][switch][i]` (DC or pod, then leaf or edge switch) are
/// relabelled by shuffling the top groups, the switches within each, and
/// the hosts under each switch. Every flow keeps its hop count and its
/// intra-rack / intra-DC character, so a seed changes which links carry
/// the traffic and how ECMP hashes it, not how much work there is.
/// Returns the new label of every node id (non-hosts map to themselves).
fn relabel_hosts(groups: &[Vec<Vec<NodeId>>], n_nodes: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = Xoshiro256StarStar::substream(seed, RELABEL_STREAM);
    let mut shuffled = |n: usize| {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, rng.gen_index(i + 1));
        }
        p
    };
    let mut map: Vec<NodeId> = (0..n_nodes as u32).map(NodeId).collect();
    let tops = shuffled(groups.len());
    for (g, &tg) in tops.iter().enumerate() {
        let switches = shuffled(groups[g].len());
        for (s, &ts) in switches.iter().enumerate() {
            let hosts = shuffled(groups[g][s].len());
            for (h, &th) in hosts.iter().enumerate() {
                map[groups[g][s][h].index()] = groups[tg][ts][th];
            }
        }
    }
    map
}

// ---------------------------------------------------------------------
// Two-DC Hadoop mix (the paper's Fig. 11 configuration at 64 hosts).
// ---------------------------------------------------------------------

fn two_dc_params() -> TwoDcParams {
    TwoDcParams {
        servers_per_leaf: TWO_DC_SERVERS_PER_LEAF,
        long_haul_delay: 3 * MS,
        ..TwoDcParams::default()
    }
}

fn two_dc_config(seed: u64) -> SimConfig {
    SimConfig {
        stop_time: TWO_DC_STOP,
        monitor_interval: 0,
        dci: DciFeatures::mlcc(),
        seed,
        ..SimConfig::default()
    }
}

/// Intra-DC traffic in each DC plus cross-DC traffic both ways, the
/// cross load given as a share of the long-haul link. The trace is drawn
/// at [`TRAFFIC_SEED`] and placed on the fabric by the `seed`'s host
/// relabelling.
fn two_dc_requests(topo: &TwoDcTopology, seed: u64) -> Vec<FlowRequest> {
    let p = topo.params;
    let mut gen = TrafficGen::new(TRAFFIC_SEED, p.server_link);
    let mut requests = Vec::new();
    for dc in 0..2 {
        let servers = topo.dc_servers(dc);
        let class = TrafficClass {
            senders: servers.clone(),
            receivers: servers,
            load: TWO_DC_INTRA_LOAD,
            mix: TrafficMix::Hadoop,
        };
        requests.extend(gen.generate(&class, 0, TWO_DC_ARRIVALS));
    }
    for (src_dc, dst_dc) in [(0, 1), (1, 0)] {
        let senders = topo.dc_servers(src_dc);
        let load = TWO_DC_CROSS_LOAD * p.long_haul_link as f64
            / (senders.len() as f64 * p.server_link as f64);
        let class = TrafficClass {
            senders,
            receivers: topo.dc_servers(dst_dc),
            load: load.min(1.0),
            mix: TrafficMix::Hadoop,
        };
        requests.extend(gen.generate(&class, 0, TWO_DC_ARRIVALS));
    }
    let map = relabel_hosts(&topo.servers, topo.net.nodes.len(), seed);
    for r in &mut requests {
        r.src = map[r.src.index()];
        r.dst = map[r.dst.index()];
    }
    requests
}

fn two_dc_single(
    seed: u64,
    scope: &Scope,
    sink: Option<&Arc<Mutex<CcStats>>>,
) -> Result<(Rep, Option<u32>), String> {
    let build = scope.span("build", |_| TwoDcTopology::build(two_dc_params()));
    let topo = build.value;
    let gen = scope.span("generate", |_| two_dc_requests(&topo, seed));
    let requests = gen.value;
    let mut rep = Rep {
        flows: requests.len() as u64,
        links: topo.net.links.len() as u64,
        partitions: partitions(&topo.net),
        ..Rep::default()
    };
    let factory = cc_factory(Box::new(MlccFactory::default()), sink);
    let new = scope.span("try_new", |_| {
        Simulator::try_new(topo.net, two_dc_config(seed), factory)
    });
    let mut sim = new.value.map_err(|e| format!("Simulator::try_new: {e}"))?;
    let reg = scope.span("add_flows", |_| register(&mut sim, &requests));
    reg.value?;

    let meter = Meter::now();
    let run = scope.span("run_until_flows_complete", |_| {
        sim.run_until_flows_complete()
    });
    meter.finish(&mut rep, run.secs);
    rep.record_output(&sim.out);
    drop(sim);

    rep.generate_s = gen.secs;
    rep.build_s = build.secs;
    rep.new_s = new.secs;
    rep.add_flow_s = reg.secs;
    rep.add_flow_calls = rep.flows;
    rep.run_calls = 1;
    rep.setup_s = build.secs + gen.secs + new.secs + reg.secs;
    rep.run_s = run.secs;
    Ok((rep, run.span))
}

/// Wall seconds one shard thread spent in a set-up phase.
struct ShardPhase {
    thread: ThreadId,
    phase: &'static str,
    secs: f64,
}

fn two_dc_sharded(
    seed: u64,
    scope: &Scope,
    sink: Option<&Arc<Mutex<CcStats>>>,
) -> Result<(Rep, Option<u32>), String> {
    // The calling thread builds the fabric once to learn host ids for
    // the generator; each shard then builds its own copy.
    let build = scope.span("build", |_| TwoDcTopology::build(two_dc_params()));
    let gen = scope.span("generate", |_| two_dc_requests(&build.value, seed));
    let requests = gen.value;
    let mut rep = Rep {
        flows: requests.len() as u64,
        links: build.value.net.links.len() as u64,
        partitions: partitions(&build.value.net),
        ..Rep::default()
    };
    drop(build.value);

    let phases: Mutex<Vec<ShardPhase>> = Mutex::new(Vec::new());
    let note = |phase, secs| {
        phases
            .lock()
            .expect("shard phase log poisoned")
            .push(ShardPhase {
                thread: std::thread::current().id(),
                phase,
                secs,
            });
    };
    let meter = Meter::now();
    let sharded = scope.span("run_sharded", |s| {
        let build_shard = || {
            let topo = s.span("build", |_| TwoDcTopology::build(two_dc_params()));
            let factory = cc_factory(Box::new(MlccFactory::default()), sink);
            let new = s.span("try_new", |_| {
                Simulator::try_new(topo.value.net, two_dc_config(seed), factory)
                    .expect("two_dc_hadoop_mc2: the two-DC config is valid")
            });
            note("build", topo.secs);
            note("try_new", new.secs);
            new.value
        };
        let setup_shard = |sim: &mut Simulator| {
            let reg = s.span("add_flows", |_| register(sim, &requests));
            reg.value
                .expect("two_dc_hadoop_mc2: generated flows are valid");
            note("add_flows", reg.secs);
        };
        run_sharded(SHARDS, None, build_shard, setup_shard)
    });
    meter.finish(&mut rep, sharded.secs);
    rep.record_output(&sharded.value.out);
    drop(sharded.value);

    let phases = phases.into_inner().expect("shard phase log poisoned");
    let mut threads: Vec<ThreadId> = Vec::new();
    for p in &phases {
        if !threads.contains(&p.thread) {
            threads.push(p.thread);
        }
    }
    let slowest_setup = threads
        .iter()
        .map(|t| {
            phases
                .iter()
                .filter(|p| p.thread == *t)
                .map(|p| p.secs)
                .sum()
        })
        .fold(0.0, f64::max);
    let phase_sum = |name| {
        phases
            .iter()
            .filter(|p| p.phase == name)
            .map(|p| p.secs)
            .sum::<f64>()
    };

    rep.generate_s = gen.secs;
    rep.build_s = build.secs + phase_sum("build");
    rep.new_s = phase_sum("try_new");
    rep.add_flow_s = phase_sum("add_flows");
    rep.add_flow_calls = rep.flows * u64::from(SHARDS);
    rep.run_calls = 1;
    rep.setup_s = build.secs + gen.secs + slowest_setup;
    rep.run_s = sharded.secs - slowest_setup;
    Ok((rep, sharded.span))
}

// ---------------------------------------------------------------------
// Lockstep collectives on the k=4 fat-tree under DCQCN.
// ---------------------------------------------------------------------

/// Rank → host placement: a Fisher–Yates shuffle at [`TRAFFIC_SEED`]
/// (substream 1), relabelled by the `seed`'s symmetry of the fat-tree.
fn place_ranks(topo: &FatTreeTopology, seed: u64) -> Vec<NodeId> {
    let mut rng = Xoshiro256StarStar::substream(TRAFFIC_SEED, 1);
    let mut ranks = topo.hosts.clone();
    for i in (1..ranks.len()).rev() {
        ranks.swap(i, rng.gen_index(i + 1));
    }
    let per_edge = topo.params.hosts_per_edge;
    let groups: Vec<Vec<Vec<NodeId>>> = topo
        .hosts
        .chunks(per_edge * topo.edges[0].len())
        .map(|pod| pod.chunks(per_edge).map(<[NodeId]>::to_vec).collect())
        .collect();
    let map = relabel_hosts(&groups, topo.net.nodes.len(), seed);
    ranks.iter().map(|h| map[h.index()]).collect()
}

fn fat_tree_lockstep(
    seed: u64,
    scope: &Scope,
    sink: Option<&Arc<Mutex<CcStats>>>,
) -> Result<(Rep, Option<u32>), String> {
    let build = scope.span(
        "build",
        |_| FatTreeTopology::build(FatTreeParams::default()),
    );
    let topo = build.value;
    let gen = scope.span("generate", |_| {
        let ranks = place_ranks(&topo, seed);
        let schedules = [CollectiveOp::RingAllreduce, CollectiveOp::TreeAllreduce]
            .map(|op| CollectiveSchedule::new(op, ranks.len(), FAT_TREE_BYTES_PER_RANK));
        (ranks, schedules)
    });
    let (ranks, schedules) = gen.value;
    let mut rep = Rep {
        flows: (FAT_TREE_ITERATIONS * schedules.iter().map(|s| s.total_transfers()).sum::<usize>())
            as u64,
        links: topo.net.links.len() as u64,
        partitions: partitions(&topo.net),
        ..Rep::default()
    };
    let cfg = SimConfig {
        stop_time: FAT_TREE_STOP,
        dci: DciFeatures::baseline(),
        seed,
        ..SimConfig::default()
    };
    let factory = cc_factory(Box::new(DcqcnFactory::default()), sink);
    let new = scope.span("try_new", |_| Simulator::try_new(topo.net, cfg, factory));
    let mut sim = new.value.map_err(|e| format!("Simulator::try_new: {e}"))?;

    // Each step's transfers are registered at the barrier and run to
    // completion before the next step: flows join mid-run and the
    // engine finalizes once per step.
    let (mut add_s, mut run_calls) = (0.0, 0);
    let meter = Meter::now();
    let lockstep = scope.span("lockstep", |s| {
        let mut barrier = US;
        for _ in 0..FAT_TREE_ITERATIONS {
            for step in schedules.iter().flat_map(|sched| &sched.steps) {
                let reg = s.span("add_flows", |_| {
                    step.iter().try_for_each(|&(a, b, bytes)| {
                        sim.try_add_flow(ranks[a], ranks[b], bytes, barrier)
                            .map(|_| ())
                            .map_err(|e| format!("rank {a} → {b}: {e}"))
                    })
                });
                reg.value?;
                add_s += reg.secs;
                s.span("run_until_flows_complete", |_| {
                    sim.run_until_flows_complete()
                });
                run_calls += 1;
                barrier = sim.now.max(barrier + 1);
            }
        }
        Ok::<(), String>(())
    });
    lockstep.value?;
    meter.finish(&mut rep, lockstep.secs);
    rep.record_output(&sim.out);
    drop(sim);

    rep.generate_s = gen.secs;
    rep.build_s = build.secs;
    rep.new_s = new.secs;
    rep.add_flow_s = add_s;
    rep.add_flow_calls = rep.flows;
    rep.run_calls = run_calls;
    rep.setup_s = build.secs + gen.secs + new.secs;
    rep.run_s = lockstep.secs;
    Ok((rep, lockstep.span))
}

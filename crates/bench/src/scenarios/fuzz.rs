//! Deterministic scenario fuzzer over the invariant auditor.
//!
//! [`FuzzSpec`] is a tiny, fully serializable scenario description: a
//! seed plus the handful of knobs it expands into — topology shape,
//! workload mix, CC-algorithm assignment, and a WAN fault profile for
//! the long haul. [`FuzzSpec::generate`] synthesizes one from a bare
//! seed; [`run_spec`] builds and runs the scenario with every
//! `AUDIT VIOLATION` (or any other engine panic) captured instead of
//! aborting the sweep.
//!
//! On a violation, [`shrink`] greedily minimizes the reproduction:
//! halve the flow count, the host count, and the duration, and drop
//! fault clauses one at a time, keeping each candidate only if it still
//! violates. Because every random attribute is drawn from a substream
//! keyed by `(seed, attribute)` — never from one shared sequence — a
//! shrunk spec replays the *same* surviving flows and fault parameters,
//! so shrinking converges instead of chasing a moving target.
//!
//! The `fuzz_sim` binary drives sweeps and prints violations as
//! replayable `--replay <spec>` command lines; [`parse_spec`] and
//! [`FuzzSpec`]'s `Display` impl define that round-trippable format.
//!
//! Compile with `--features audit` to arm the invariant checks; without
//! the feature the fuzzer still runs scenarios but only catches
//! outright panics.

use std::panic::{catch_unwind, AssertUnwindSafe};

use netsim::prelude::*;
use netsim::rng::{SimRng, Xoshiro256StarStar};

use crate::algo::Algo;

/// Fault clauses a spec can apply to the long haul, one bit each.
pub const FAULT_LOSS_FWD: u8 = 1 << 0;
pub const FAULT_LOSS_REV: u8 = 1 << 1;
pub const FAULT_JITTER_FWD: u8 = 1 << 2;
pub const FAULT_JITTER_REV: u8 = 1 << 3;
pub const FAULT_GILBERT: u8 = 1 << 4;
pub const FAULT_FLAP: u8 = 1 << 5;
const FAULT_BITS: [u8; 6] = [
    FAULT_LOSS_FWD,
    FAULT_LOSS_REV,
    FAULT_JITTER_FWD,
    FAULT_JITTER_REV,
    FAULT_GILBERT,
    FAULT_FLAP,
];

/// Node-fault clauses a spec can apply, one bit each. The crash bits
/// pick their victim and timing from the `(seed, 3)` substream — see
/// `FuzzSpec::node_fault_plan`.
pub const NF_HOST_CRASH: u8 = 1 << 0;
/// Turns the crashes into crash-restarts (no effect on its own).
pub const NF_RESTART: u8 = 1 << 1;
pub const NF_SWITCH_CRASH: u8 = 1 << 2;
/// A fabric-wide control-plane outage window (all INT goes dark).
pub const NF_CTRL_OUTAGE: u8 = 1 << 3;
const NF_BITS: [u8; 4] = [NF_HOST_CRASH, NF_RESTART, NF_SWITCH_CRASH, NF_CTRL_OUTAGE];

/// Give-up-policy clauses, one bit each; parameters come from the
/// `(seed, 4)` substream — see `FuzzSpec::giveup_plan`.
pub const GV_RTO: u8 = 1 << 0;
pub const GV_DEADLINE: u8 = 1 << 1;
pub const GV_WATCHDOG: u8 = 1 << 2;
const GV_BITS: [u8; 3] = [GV_RTO, GV_DEADLINE, GV_WATCHDOG];

/// Deliberate invariant breakers (demo/negative tests only — never
/// produced by [`FuzzSpec::generate`]).
pub const CHAOS_NONE: u8 = 0;
pub const CHAOS_SKIP_PFC: u8 = 1;
pub const CHAOS_LEAK: u8 = 2;
/// Suppress the liveness watchdog's stall report (the auditor must
/// notice the missing report at finalize).
pub const CHAOS_MUTE_WATCHDOG: u8 = 3;

/// One fuzz scenario, small enough to print as a replay command.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FuzzSpec {
    /// Master seed: every random attribute below derives from it.
    pub seed: u64,
    /// Index into [`Algo::ALL`].
    pub algo: u8,
    /// 0 = dumbbell testbed, 1 = two-DC fabric, 2 = k=4 fat-tree,
    /// 3 = three spine-leaf islands meshed by DCI long hauls.
    pub topo: u8,
    /// Servers per rack (two-DC / multi-island), per ToR (dumbbell),
    /// or per edge switch (fat-tree).
    pub hosts: u32,
    /// Number of flows.
    pub flows: u32,
    /// Stop time in milliseconds.
    pub stop_ms: u32,
    /// Set of `FAULT_*` clauses applied to the long haul (on the
    /// fat-tree, which has no WAN, they hit the first agg↔core pair).
    pub fault_mask: u8,
    /// 0 = random pairs, 1 = incast onto the first server, 2 =
    /// ring-collective neighbor rounds, 3 = all-to-all shift rounds.
    pub wl: u8,
    /// Intra-DC switch buffer override in KB (0 = topology default).
    pub buf_kb: u32,
    /// Set of `NF_*` node-fault clauses.
    pub nf: u8,
    /// Set of `GV_*` give-up-policy clauses.
    pub gv: u8,
    /// `CHAOS_*` invariant breaker (demo tests only).
    pub chaos: u8,
    /// PFC headroom clause for the intra-DC switches: 0 = auto-size
    /// from the upstream link (`headroom_bytes: None`), 1 = legacy
    /// no-headroom model (`Some(0)`), n ≥ 2 = static `Some(n · 1024)`
    /// per ingress port.
    pub hr: u32,
}

impl FuzzSpec {
    /// Expand a bare seed into a scenario. Every knob comes from its
    /// own substream so later shrinking never re-rolls unrelated
    /// attributes.
    pub fn generate(seed: u64) -> FuzzSpec {
        let mut shape = Xoshiro256StarStar::substream(seed, 1);
        let mut spec = FuzzSpec {
            seed,
            algo: shape.gen_range(0..Algo::ALL.len() as u64) as u8,
            topo: shape.gen_range(0..2) as u8,
            hosts: 1 + shape.gen_range(0..3) as u32,
            flows: 1 + shape.gen_range(0..12) as u32,
            stop_ms: 20 + shape.gen_range(0..40) as u32,
            fault_mask: shape.gen_range(0..64) as u8,
            wl: u8::from(shape.gen_range(0..4) == 0),
            buf_kb: 0,
            // The node-fault and give-up draws are APPENDED to the
            // shape stream, so older seeds keep their original shape
            // attributes bit-for-bit. Most node-faulted specs cannot
            // complete every flow; that is the point — the engine must
            // still terminate, conserve, and type every outcome.
            nf: shape.gen_range(0..16) as u8,
            gv: shape.gen_range(0..8) as u8,
            chaos: CHAOS_NONE,
            hr: 0,
        };
        // Appended draws, same discipline: half the seeds upgrade to
        // the multipath topologies (fat-tree, island mesh) and half to
        // the collective workloads; a draw below 2 keeps the original
        // attribute so earlier seeds' dumbbell/two-DC coverage remains.
        let topo_ext = shape.gen_range(0..4) as u8;
        if topo_ext >= 2 {
            spec.topo = topo_ext;
        }
        let wl_ext = shape.gen_range(0..4) as u8;
        if wl_ext >= 2 {
            spec.wl = wl_ext;
        }
        // Headroom clause from its own `(seed, 5)` substream (the shape
        // stream above is untouched, so every older seed keeps its
        // shape bit-for-bit). Both parameters are drawn unconditionally
        // in fixed order: most seeds run the auto-sized model, one in
        // eight keeps the legacy no-headroom mode, one in eight pins a
        // small static per-port reservation.
        let mut hrs = Xoshiro256StarStar::substream(seed, 5);
        let mode = hrs.gen_range(0..8);
        let kb = 2 + hrs.gen_range(0..62);
        spec.hr = match mode {
            0..=5 => 0,
            6 => 1,
            _ => kb as u32,
        };
        spec
    }

    fn algo(&self) -> Algo {
        Algo::ALL[self.algo as usize % Algo::ALL.len()]
    }

    /// Fault parameters for a clause, drawn from fixed substreams of
    /// the master seed — independent of which clauses are enabled.
    fn fault_profiles(&self) -> [FaultProfile; 2] {
        let mut draws = Xoshiro256StarStar::substream(self.seed, 2);
        // Draw every parameter unconditionally, in a fixed order, so
        // dropping one clause leaves the others' values untouched.
        let loss_fwd = 0.001 + draws.gen_f64() * 0.009;
        let loss_rev = 0.001 + draws.gen_f64() * 0.009;
        let jit_fwd = 1 + draws.gen_range(0..50) as Time * US;
        let jit_rev = 1 + draws.gen_range(0..50) as Time * US;
        let ge = GilbertElliott::bursty(
            0.0005 + draws.gen_f64() * 0.002,
            0.05 + draws.gen_f64() * 0.2,
            0.2 + draws.gen_f64() * 0.5,
        );
        let down_at = (1 + draws.gen_range(0..8)) as Time * MS;
        let flap = FlapWindow {
            down_at,
            up_at: down_at + (1 + draws.gen_range(0..3)) as Time * MS,
        };
        let mut fwd = FaultProfile::default();
        let mut rev = FaultProfile::default();
        if self.fault_mask & FAULT_LOSS_FWD != 0 {
            fwd.loss = loss_fwd;
        }
        if self.fault_mask & FAULT_LOSS_REV != 0 {
            rev.loss = loss_rev;
        }
        if self.fault_mask & FAULT_JITTER_FWD != 0 {
            fwd.jitter_max = jit_fwd;
        }
        if self.fault_mask & FAULT_JITTER_REV != 0 {
            rev.jitter_max = jit_rev;
        }
        if self.fault_mask & FAULT_GILBERT != 0 {
            fwd.gilbert = Some(ge);
        }
        if self.fault_mask & FAULT_FLAP != 0 {
            fwd.flaps.push(flap);
        }
        [fwd, rev]
    }

    /// Node-fault victims and timing from the `(seed, 3)` substream.
    /// Picks are raw draws reduced modulo the candidate count at apply
    /// time; every parameter is drawn unconditionally so dropping one
    /// `NF_*` clause never re-rolls the others.
    fn node_fault_plan(&self) -> NodeFaultPlan {
        let mut draws = Xoshiro256StarStar::substream(self.seed, 3);
        NodeFaultPlan {
            host_pick: draws.gen_range(0..1 << 16) as usize,
            switch_pick: draws.gen_range(0..1 << 16) as usize,
            down_at: (1 + draws.gen_range(0..8)) as Time * MS,
            outage: (2 + draws.gen_range(0..8)) as Time * MS,
            ctrl_from: (1 + draws.gen_range(0..8)) as Time * MS,
            ctrl_len: (1 + draws.gen_range(0..10)) as Time * MS,
        }
    }

    /// Give-up-policy parameters from the `(seed, 4)` substream:
    /// `(rto strike limit, flow deadline, watchdog window)`.
    fn giveup_plan(&self) -> (u32, Time, Time) {
        let mut draws = Xoshiro256StarStar::substream(self.seed, 4);
        let rto = 3 + draws.gen_range(0..5) as u32;
        let deadline = (10 + draws.gen_range(0..40)) as Time * MS;
        let window = (5 + draws.gen_range(0..25)) as Time * MS;
        (rto, deadline, window)
    }

    /// Expand the `hr` clause into the [`PfcConfig::headroom_bytes`]
    /// knob applied to the intra-DC switches.
    fn headroom(&self) -> Option<u64> {
        match self.hr {
            0 => None,
            1 => Some(0),
            n => Some(n as u64 * 1024),
        }
    }
}

/// Expanded node-fault parameters (see [`FuzzSpec::node_fault_plan`]).
struct NodeFaultPlan {
    host_pick: usize,
    switch_pick: usize,
    /// Crash instant for both crash kinds.
    down_at: Time,
    /// Outage length when `NF_RESTART` is set.
    outage: Time,
    ctrl_from: Time,
    ctrl_len: Time,
}

/// Replay format: `key=value` pairs, comma-separated, no spaces.
impl std::fmt::Display for FuzzSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={},algo={},topo={},hosts={},flows={},stop_ms={},\
             faults={},wl={},buf_kb={},nf={},gv={},chaos={},hr={}",
            self.seed,
            self.algo,
            self.topo,
            self.hosts,
            self.flows,
            self.stop_ms,
            self.fault_mask,
            self.wl,
            self.buf_kb,
            self.nf,
            self.gv,
            self.chaos,
            self.hr
        )
    }
}

/// Parse the `--replay` spec format [`FuzzSpec`]'s `Display` impl writes.
pub fn parse_spec(s: &str) -> Result<FuzzSpec, String> {
    let mut spec = FuzzSpec {
        seed: 0,
        algo: 0,
        topo: 0,
        hosts: 1,
        flows: 1,
        stop_ms: 20,
        fault_mask: 0,
        wl: 0,
        buf_kb: 0,
        nf: 0,
        gv: 0,
        chaos: CHAOS_NONE,
        hr: 0,
    };
    for kv in s.split(',') {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad spec clause {kv:?} (want key=value)"))?;
        let v = v.trim();
        let parse = |what: &str| -> Result<u64, String> {
            v.parse::<u64>()
                .map_err(|e| format!("bad {what} value {v:?}: {e}"))
        };
        match k.trim() {
            "seed" => spec.seed = parse("seed")?,
            "algo" => spec.algo = parse("algo")? as u8,
            "topo" => spec.topo = parse("topo")? as u8,
            "hosts" => spec.hosts = parse("hosts")?.max(1) as u32,
            "flows" => spec.flows = parse("flows")?.max(1) as u32,
            "stop_ms" => spec.stop_ms = parse("stop_ms")?.max(1) as u32,
            "faults" => spec.fault_mask = parse("faults")? as u8,
            "wl" => spec.wl = parse("wl")? as u8,
            "buf_kb" => spec.buf_kb = parse("buf_kb")? as u32,
            "nf" => spec.nf = parse("nf")? as u8,
            "gv" => spec.gv = parse("gv")? as u8,
            "chaos" => spec.chaos = parse("chaos")? as u8,
            "hr" => spec.hr = parse("hr")? as u32,
            other => return Err(format!("unknown spec key {other:?}")),
        }
    }
    Ok(spec)
}

/// What one scenario run produced.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Panic message if the auditor (or anything else) fired.
    pub violation: Option<String>,
    /// All flows finished before the stop time.
    pub completed: bool,
    pub flows: usize,
    pub fcts: usize,
    /// Flows with a typed `Failed` verdict (give-up policy engaged).
    pub failed: usize,
    /// The liveness watchdog declared a global stall.
    pub watchdog_fired: bool,
    pub events: u64,
    pub pfc_pauses: u64,
    pub buffer_drops: u64,
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    match e.downcast::<String>() {
        Ok(s) => *s,
        Err(e) => e
            .downcast::<&'static str>()
            .map(|s| s.to_string())
            .unwrap_or_else(|_| "<non-string panic payload>".into()),
    }
}

/// Abort a scenario whose input the engine refused. The panic is tagged
/// so a refused input never counts as a reproduction.
fn reject<T>(e: netsim::config::ConfigError) -> T {
    panic!("CONFIG REJECTED: {e}")
}

/// Build and run one spec, capturing any panic as a violation.
pub fn run_spec(spec: &FuzzSpec) -> FuzzOutcome {
    let spec = *spec;
    let run = move || -> FuzzOutcome {
        let (net, long_haul, servers, switches) = build_net(&spec);
        let (gv_rto, gv_deadline, gv_window) = spec.giveup_plan();
        let cfg = SimConfig {
            stop_time: spec.stop_ms as Time * MS,
            dci: spec.algo().dci_features(),
            seed: spec.seed,
            giveup_rto_limit: if spec.gv & GV_RTO != 0 { gv_rto } else { 0 },
            flow_deadline: if spec.gv & GV_DEADLINE != 0 {
                gv_deadline
            } else {
                0
            },
            watchdog_window: if spec.gv & GV_WATCHDOG != 0 {
                gv_window
            } else {
                0
            },
            ..SimConfig::default()
        };
        // Distinguish "the validator refused this input" from an engine
        // invariant firing: a rejected config or fault never ran, so it
        // must not count as a reproduction during shrinking.
        let mut sim = Simulator::try_new(net, cfg, spec.algo().factory()).unwrap_or_else(reject);
        #[cfg(feature = "audit")]
        {
            sim.audit.chaos = match spec.chaos {
                CHAOS_SKIP_PFC => Some(netsim::audit::Chaos::SkipPfcPause),
                CHAOS_LEAK => Some(netsim::audit::Chaos::LeakQueuedPacket {
                    after_events: 10_000,
                }),
                CHAOS_MUTE_WATCHDOG => Some(netsim::audit::Chaos::MuteWatchdog),
                _ => None,
            };
        }
        let profiles = spec.fault_profiles();
        for (i, profile) in profiles.into_iter().enumerate() {
            sim.inject_link_faults(long_haul[i], profile)
                .unwrap_or_else(reject);
        }
        let plan = spec.node_fault_plan();
        let mk_fault = |victim: NodeId| {
            if spec.nf & NF_RESTART != 0 {
                NodeFault::restart(victim, plan.down_at, plan.down_at + plan.outage)
            } else {
                NodeFault::crash(victim, plan.down_at)
            }
        };
        if spec.nf & NF_HOST_CRASH != 0 {
            sim.inject_node_fault(mk_fault(servers[plan.host_pick % servers.len()]))
                .unwrap_or_else(reject);
        }
        if spec.nf & NF_SWITCH_CRASH != 0 {
            sim.inject_node_fault(mk_fault(switches[plan.switch_pick % switches.len()]))
                .unwrap_or_else(reject);
        }
        if spec.nf & NF_CTRL_OUTAGE != 0 {
            sim.inject_ctrl_outage(plan.ctrl_from, plan.ctrl_from + plan.ctrl_len)
                .unwrap_or_else(reject);
        }
        let n = spec.flows as usize;
        for i in 0..n {
            // Per-flow substream: shrinking the flow count replays the
            // surviving flows bit-identically.
            let mut fr = Xoshiro256StarStar::substream(spec.seed, 0x100 + i as u64);
            let (src, dst, size, start) = match spec.wl {
                1 => {
                    // Incast: distinct sources fan in on servers[0] in a
                    // synchronized burst. Sources rotate round-robin over
                    // the remaining servers (a function of the flow index
                    // only, so shrinking the flow count keeps the survivors'
                    // endpoints), and sizes get a floor that sustains the
                    // overlap long enough to fill switch buffers.
                    let src = servers[1 + i % (servers.len() - 1)];
                    let size = 100_000 + fr.gen_range(0..400_000);
                    (src, servers[0], size, 0)
                }
                2 => {
                    // Ring collective: round r of neighbor transfers,
                    // rounds staggered rather than barriered so faults
                    // can land mid-round. Endpoints are a function of
                    // the flow index only (shrink-stable).
                    let n = servers.len();
                    let (rank, round) = (i % n, i / n);
                    let size = 50_000 + fr.gen_range(0..200_000);
                    let start = round as Time * 500 * US;
                    (servers[rank], servers[(rank + 1) % n], size, start)
                }
                3 => {
                    // All-to-all: round r shifts every rank's target by
                    // 1 + (r mod (n−1)) — the linear-shift schedule.
                    let n = servers.len();
                    let (rank, round) = (i % n, i / n);
                    let shift = 1 + round % (n - 1).max(1);
                    let size = 50_000 + fr.gen_range(0..200_000);
                    let start = round as Time * 500 * US;
                    (servers[rank], servers[(rank + shift) % n], size, start)
                }
                _ => {
                    // Random pairs staggered across the first 4 ms. A dst
                    // draw that collides with src steps to the next server,
                    // so src == dst (no path at all) can never be emitted.
                    let si = fr.gen_range(0..servers.len() as u64) as usize;
                    let mut di = fr.gen_range(0..servers.len() as u64) as usize;
                    if di == si {
                        di = (si + 1) % servers.len();
                    }
                    let (src, dst) = (servers[si], servers[di]);
                    let size = 10_000 + fr.gen_range(0..400_000);
                    let start = fr.gen_range(0..4_000) as Time * US;
                    (src, dst, size, start)
                }
            };
            sim.add_flow(src, dst, size, start);
        }
        let completed = sim.run_until_flows_complete();
        FuzzOutcome {
            violation: None,
            completed,
            flows: n,
            fcts: sim.out.fcts.len(),
            failed: sim.out.failed().count(),
            watchdog_fired: sim.out.watchdog.is_some(),
            events: sim.out.events_processed,
            pfc_pauses: sim.total_pfc_pauses(),
            buffer_drops: sim.out.buffer_drops,
        }
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(out) => out,
        Err(e) => FuzzOutcome {
            violation: Some(panic_text(e)),
            completed: false,
            flows: spec.flows as usize,
            fcts: 0,
            failed: 0,
            watchdog_fired: false,
            events: 0,
            pfc_pauses: 0,
            buffer_drops: 0,
        },
    }
}

/// Topology expansion: network, the long-haul link pair, the server
/// list flows draw endpoints from, and the intra-DC switches the
/// switch-crash clause picks its victim from.
fn build_net(spec: &FuzzSpec) -> (Network, [LinkId; 2], Vec<NodeId>, Vec<NodeId>) {
    match spec.topo {
        0 => {
            let mut params = DumbbellParams {
                servers_per_tor: spec.hosts as usize,
                ..DumbbellParams::default()
            };
            if spec.buf_kb > 0 {
                params.tor_buffer = spec.buf_kb as u64 * 1024;
            }
            params.pfc.headroom_bytes = spec.headroom();
            let topo = DumbbellTopology::build(params);
            let servers: Vec<NodeId> = topo.servers.iter().flatten().copied().collect();
            (topo.net, topo.long_haul, servers, topo.tors.to_vec())
        }
        1 => {
            let mut params = TwoDcParams {
                servers_per_leaf: spec.hosts as usize,
                leaves_per_dc: 2,
                ..TwoDcParams::default()
            };
            if spec.buf_kb > 0 {
                params.dc_switch_buffer = spec.buf_kb as u64 * 1024;
            }
            params.pfc.headroom_bytes = spec.headroom();
            let topo = TwoDcTopology::build(params);
            let servers = topo.net.hosts.clone();
            let switches: Vec<NodeId> = topo.leaves.iter().flatten().copied().collect();
            (topo.net, topo.long_haul, servers, switches)
        }
        2 => {
            let mut params = FatTreeParams {
                hosts_per_edge: spec.hosts as usize,
                ..FatTreeParams::default()
            };
            if spec.buf_kb > 0 {
                params.switch_buffer = spec.buf_kb as u64 * 1024;
            }
            params.pfc.headroom_bytes = spec.headroom();
            let topo = FatTreeTopology::build(params);
            let servers = topo.hosts.clone();
            let switches = topo.pod_switches();
            // No WAN in a fat-tree: the fault clauses target the first
            // agg↔core pair, the closest analog of a flaky trunk.
            (topo.net, topo.agg_core_links[0], servers, switches)
        }
        _ => {
            let mut params = MultiDcParams::default();
            params.dc.servers_per_leaf = spec.hosts as usize;
            if spec.buf_kb > 0 {
                params.dc.dc_switch_buffer = spec.buf_kb as u64 * 1024;
            }
            params.dc.pfc.headroom_bytes = spec.headroom();
            let topo = MultiDcTopology::build(params);
            let servers: Vec<NodeId> = topo.servers.iter().flatten().copied().collect();
            let switches: Vec<NodeId> = topo.island_switches.iter().flatten().copied().collect();
            let lh = topo.long_haul_pair(0, 1);
            (topo.net, lh, servers, switches)
        }
    }
}

/// Greedy minimization: keep applying the first size reduction that
/// still violates until none does. A candidate the config validator or
/// a fault injection rejects (`CONFIG REJECTED`) is not a reproduction —
/// the engine never ran — so shrinking skips it rather than slipping onto
/// a different failure class.
pub fn shrink(mut spec: FuzzSpec) -> FuzzSpec {
    loop {
        let mut improved = false;
        for cand in candidates(&spec) {
            let still_violates = run_spec(&cand)
                .violation
                .is_some_and(|m| !m.starts_with("CONFIG REJECTED"));
            if still_violates {
                spec = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return spec;
        }
    }
}

fn candidates(s: &FuzzSpec) -> Vec<FuzzSpec> {
    let mut v = Vec::new();
    if s.flows > 1 {
        v.push(FuzzSpec {
            flows: s.flows / 2,
            ..*s
        });
    }
    if s.hosts > 1 {
        v.push(FuzzSpec {
            hosts: s.hosts / 2,
            ..*s
        });
    }
    if s.stop_ms > 5 {
        v.push(FuzzSpec {
            stop_ms: s.stop_ms / 2,
            ..*s
        });
    }
    for bit in FAULT_BITS {
        if s.fault_mask & bit != 0 {
            v.push(FuzzSpec {
                fault_mask: s.fault_mask & !bit,
                ..*s
            });
        }
    }
    for bit in NF_BITS {
        if s.nf & bit != 0 {
            v.push(FuzzSpec {
                nf: s.nf & !bit,
                ..*s
            });
        }
    }
    for bit in GV_BITS {
        if s.gv & bit != 0 {
            v.push(FuzzSpec {
                gv: s.gv & !bit,
                ..*s
            });
        }
    }
    // Headroom shrink bits: first try the auto-sized default, then the
    // legacy no-headroom model (static reservations are the least
    // common clause, so removing them simplifies the reproduction).
    if s.hr != 0 {
        v.push(FuzzSpec { hr: 0, ..*s });
    }
    if s.hr > 1 {
        v.push(FuzzSpec { hr: 1, ..*s });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_format_round_trips() {
        for seed in [0u64, 1, 17, 0xDEAD_BEEF] {
            let mut spec = FuzzSpec::generate(seed);
            spec.buf_kb = 384;
            spec.nf = NF_HOST_CRASH | NF_RESTART;
            spec.gv = GV_WATCHDOG;
            spec.chaos = CHAOS_LEAK;
            spec.hr = 48;
            let parsed = parse_spec(&spec.to_string()).expect("own format parses");
            assert_eq!(parsed, spec);
        }
        // Pre-`hr` replay lines still parse, defaulting to the auto
        // model (a missing clause must never change the parse).
        let old = parse_spec(
            "seed=7,algo=0,topo=1,hosts=2,flows=8,stop_ms=40,\
             faults=0,wl=1,buf_kb=0,nf=0,gv=0,chaos=0",
        )
        .expect("pre-hr replay lines parse");
        assert_eq!(old.hr, 0);
        assert!(parse_spec("seed=1,bogus=2").is_err());
        assert!(parse_spec("no-equals").is_err());
    }

    #[test]
    fn headroom_draws_leave_old_seed_shapes_intact() {
        // The `hr` clause draws from `(seed, 5)`, not the shape stream,
        // so every pre-headroom attribute of an old seed is unchanged —
        // these values were printed by the pre-headroom generator.
        let s7 = FuzzSpec::generate(7);
        assert_eq!(
            (
                s7.algo,
                s7.topo,
                s7.hosts,
                s7.flows,
                s7.stop_ms,
                s7.fault_mask,
                s7.wl,
                s7.nf,
                s7.gv
            ),
            (2, 3, 2, 7, 53, 55, 0, 13, 5),
            "seed 7 shape drifted: {s7}"
        );
        // The hr distribution covers all three modes across seeds.
        let specs: Vec<FuzzSpec> = (1..=64).map(FuzzSpec::generate).collect();
        assert!(specs.iter().any(|s| s.hr == 0), "no auto-headroom seed");
        assert!(specs.iter().any(|s| s.hr == 1), "no legacy seed");
        assert!(specs.iter().any(|s| s.hr >= 2), "no static-headroom seed");
    }

    #[test]
    fn generated_specs_run_clean() {
        // A handful of seeds inline; the fuzz_sim binary sweeps more.
        for seed in 1..=4u64 {
            let spec = FuzzSpec::generate(seed);
            let out = run_spec(&spec);
            assert!(
                out.violation.is_none(),
                "seed {seed} violated: {:?}\nreplay: {spec}",
                out.violation
            );
        }
    }

    #[test]
    fn generated_specs_cover_the_multipath_spec_space() {
        let specs: Vec<FuzzSpec> = (1..=64u64).map(FuzzSpec::generate).collect();
        for (what, pred) in [
            (
                "fat-tree",
                &(|s: &FuzzSpec| s.topo == 2) as &dyn Fn(&FuzzSpec) -> bool,
            ),
            ("multi-island", &|s: &FuzzSpec| s.topo == 3),
            ("ring workload", &|s: &FuzzSpec| s.wl == 2),
            ("all-to-all workload", &|s: &FuzzSpec| s.wl == 3),
            ("legacy dumbbell", &|s: &FuzzSpec| s.topo == 0),
        ] {
            assert!(specs.iter().any(pred), "no {what} spec in 64 seeds");
        }
        // One representative of each new topology runs clean, faults
        // and all (a 500-seed audited sweep per topology backs this).
        for topo in [2u8, 3] {
            let spec = specs.iter().find(|s| s.topo == topo).copied().unwrap();
            let out = run_spec(&spec);
            assert!(
                out.violation.is_none(),
                "topo {topo} violated: {:?}\nreplay: {spec}",
                out.violation
            );
        }
    }

    #[test]
    fn shrinking_a_clean_spec_is_identity() {
        let spec = FuzzSpec::generate(2);
        assert_eq!(shrink(spec), spec);
    }

    /// The ISSUE's demo: deliberately suppress PFC pauses on a
    /// small-buffer incast, watch the losslessness invariant fire, and
    /// shrink to a minimal replayable reproduction.
    ///
    /// The buffer is squeezed to the smallest size the *clean* control
    /// run sustains. Since the ECMP hash folds in the destination, the
    /// incast engages both spines, and the in-flight bytes landing
    /// during the pause propagation delay come from two ingress ports
    /// instead of one polarized port — the switch model reserves no
    /// dedicated per-port PFC headroom, so 192 KB (the pre-fix
    /// squeeze) now overflows even with PFC working as designed.
    #[cfg(feature = "audit")]
    #[test]
    fn seeded_pfc_fault_is_caught_and_shrunk() {
        let spec = FuzzSpec {
            seed: 7,
            algo: 0, // DCQCN: ECN-paced, still bursts before control engages
            topo: 1,
            hosts: 2,
            flows: 8,
            stop_ms: 40,
            fault_mask: 0,
            wl: 1, // incast onto one server
            buf_kb: 256,
            nf: 0,
            gv: 0,
            chaos: CHAOS_SKIP_PFC,
            // Legacy no-headroom model: auto-sizing would reserve more
            // than this squeezed buffer even holds, and the chaos demo
            // is about suppressed pauses, not the headroom fix.
            hr: 1,
        };
        let out = run_spec(&spec);
        let msg = out.violation.expect("suppressed PFC must be caught");
        assert!(
            msg.contains("AUDIT VIOLATION") && msg.contains("lossless"),
            "unexpected violation: {msg}"
        );
        let small = shrink(spec);
        let again = run_spec(&small);
        assert!(
            again.violation.is_some(),
            "shrunk spec must still violate: {small}"
        );
        assert!(small.flows <= spec.flows && small.stop_ms <= spec.stop_ms);
        // And the minimal reproduction round-trips through the replay
        // format the binary prints.
        assert_eq!(parse_spec(&small.to_string()).unwrap(), small);
        // Sanity: the same scenario with PFC left alone is lossless.
        let clean = run_spec(&FuzzSpec {
            chaos: CHAOS_NONE,
            ..spec
        });
        assert!(clean.violation.is_none(), "{:?}", clean.violation);
    }

    /// Sabotage the liveness watchdog: find a spec whose clean run
    /// genuinely stalls (the watchdog fires), then prove that muting
    /// the watchdog on the *same* spec is caught by the audit layer's
    /// finalize check instead of silently losing the stall report.
    #[cfg(feature = "audit")]
    #[test]
    fn muted_watchdog_is_caught() {
        let stalled = (1..40u64)
            .map(|seed| FuzzSpec {
                // Incast with a host crash and the watchdog armed: the
                // dead receiver strands the batch and the stall report
                // is the only terminal verdict path.
                wl: 1,
                nf: NF_HOST_CRASH,
                gv: GV_WATCHDOG,
                ..FuzzSpec::generate(seed)
            })
            .find(|spec| {
                let out = run_spec(spec);
                out.violation.is_none() && out.watchdog_fired
            })
            .expect("some seed in 1..40 must stall into the watchdog");
        let muted = run_spec(&FuzzSpec {
            chaos: CHAOS_MUTE_WATCHDOG,
            ..stalled
        });
        let msg = muted.violation.expect("a muted watchdog must be caught");
        assert!(
            msg.contains("watchdog never reported"),
            "unexpected violation: {msg}"
        );
    }

    #[cfg(feature = "audit")]
    #[test]
    fn seeded_leak_fault_is_caught() {
        let spec = FuzzSpec {
            seed: 9,
            algo: 0,
            topo: 1,
            hosts: 2,
            flows: 8,
            stop_ms: 40,
            fault_mask: 0,
            wl: 1,
            buf_kb: 192,
            nf: 0,
            gv: 0,
            chaos: CHAOS_LEAK,
            hr: 1, // legacy model: auto headroom exceeds the 192 KB squeeze
        };
        let out = run_spec(&spec);
        let msg = out.violation.expect("a leaked packet must be caught");
        assert!(msg.contains("AUDIT VIOLATION"), "unexpected: {msg}");
    }

    /// The PR 8 two-spine incast, promoted from the shrunk
    /// `seeded_pfc_fault_is_caught_and_shrunk` finding into a pinned
    /// regression with checked-in `--replay` lines. `hr=1` replays the
    /// pre-headroom switch model: PFC pauses fire at the dynamic
    /// threshold but nothing absorbs the in-flight tail that lands
    /// during pause propagation, and with the incast spread over both
    /// spines the squeezed 192 KB buffer overflows — real data drops at
    /// a PFC-enabled switch. `hr=0` (auto-sized headroom) makes the
    /// same incast lossless by construction; the buffer rises to 512 KB
    /// because the reservation itself (≈ 271 KB on a leaf, ≈ 381 KB on
    /// a spine) must fit alongside a working shared pool.
    #[test]
    fn headroom_regression_two_spine_incast() {
        const PRE_FIX: &str = "seed=7,algo=0,topo=1,hosts=2,flows=8,stop_ms=40,\
                               faults=0,wl=1,buf_kb=192,nf=0,gv=0,chaos=0,hr=1";
        const POST_FIX: &str = "seed=7,algo=0,topo=1,hosts=2,flows=8,stop_ms=40,\
                                faults=0,wl=1,buf_kb=512,nf=0,gv=0,chaos=0,hr=0";
        let pre = parse_spec(PRE_FIX).expect("checked-in replay line parses");
        let out = run_spec(&pre);
        // Without the audit feature the run completes and reports the
        // drops; with it the losslessness invariant fires first.
        #[cfg(feature = "audit")]
        {
            let msg = out
                .violation
                .expect("pre-headroom model must violate losslessness");
            assert!(
                msg.contains("AUDIT VIOLATION") && msg.contains("lossless"),
                "unexpected violation: {msg}"
            );
        }
        #[cfg(not(feature = "audit"))]
        assert!(
            out.buffer_drops > 0,
            "pre-headroom model must drop at the PFC-enabled switches"
        );

        let post = parse_spec(POST_FIX).expect("checked-in replay line parses");
        let out = run_spec(&post);
        assert!(
            out.violation.is_none(),
            "auto headroom must be lossless: {:?}",
            out.violation
        );
        assert_eq!(out.buffer_drops, 0, "auto headroom must not drop");
    }
}

//! Golden determinism guarantees: the zero-dependency policy exists so
//! that identical seeds give bitwise-identical runs, across processes,
//! toolchains, and time. These tests pin that contract.

use mlcc_core::MlccFactory;
use netsim::prelude::*;
use workload::{TrafficClass, TrafficGen, TrafficMix};

/// Everything a run produces that determinism must cover.
#[derive(Debug, PartialEq)]
struct Golden {
    events: u64,
    ecn_marks: u64,
    pfc_events: usize,
    /// (flow id, fct) per completion, in completion order.
    fcts: Vec<(u32, Time)>,
    delivered: u64,
}

/// A seeded congested scenario on the two-DC fabric: generated Hadoop
/// traffic inside DC 0 plus cross-DC flows, MLCC everywhere, enough
/// pressure that ECN marking and the credit loop actually engage.
fn congested_run(seed: u64) -> Golden {
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        ..TwoDcParams::default()
    });
    let cfg = SimConfig {
        stop_time: 120 * MS,
        dci: DciFeatures::mlcc(),
        seed,
        ..SimConfig::default()
    };
    let mut gen = TrafficGen::new(seed, 25 * GBPS);
    let servers = topo.dc_servers(0);
    let mut reqs = gen.generate(
        &TrafficClass {
            senders: servers.clone(),
            receivers: servers,
            load: 0.5,
            mix: TrafficMix::Hadoop,
        },
        0,
        2 * MS,
    );
    reqs.extend(gen.generate(
        &TrafficClass {
            senders: topo.dc_servers(0),
            receivers: topo.dc_servers(1),
            load: 0.2,
            mix: TrafficMix::Hadoop,
        },
        0,
        2 * MS,
    ));
    let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));
    for r in &reqs {
        sim.add_flow(r.src, r.dst, r.size_bytes, r.start);
    }
    sim.run_until_flows_complete();
    Golden {
        events: sim.out.events_processed,
        ecn_marks: sim.out.ecn_marks,
        pfc_events: sim.out.pfc_events.len(),
        fcts: sim.out.fcts.iter().map(|r| (r.flow.0, r.fct())).collect(),
        delivered: sim.total_delivered(),
    }
}

#[test]
fn golden_same_seed_identical_everything() {
    // Twice via completely fresh Simulators (and once more to catch any
    // order-dependent process state: allocator layout, hash seeds, ...).
    let a = congested_run(7);
    let b = congested_run(7);
    let c = congested_run(7);
    assert!(!a.fcts.is_empty(), "scenario must complete flows");
    assert_eq!(a, b, "identical seed must replay the run exactly");
    assert_eq!(b, c, "third in-process run must match too");
}

#[test]
fn golden_different_seed_different_run() {
    // The seed must actually matter: different traffic, different trace.
    let a = congested_run(7);
    let d = congested_run(8);
    assert_ne!(a.fcts, d.fcts, "different seeds must give different runs");
}

/// A line network under 2:1 incast; marking pressure is real (the
/// shared 10 Gbps sink queues deeply).
fn incast_run(seed: u64) -> (u64, u64, Vec<Time>) {
    let mut b = NetBuilder::new();
    let h0 = b.add_host();
    let h1 = b.add_host();
    let h2 = b.add_host();
    let s = b.add_switch(22_000_000, PfcConfig::dc_switch());
    for h in [h0, h1, h2] {
        b.connect(h, s, 10 * GBPS, US, LinkOpts::default());
    }
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(b.build(), cfg, Box::new(NoCcFactory));
    sim.add_flow(h0, h1, 2_000_000, 0);
    sim.add_flow(h2, h1, 2_000_000, 0);
    assert!(sim.run_until_flows_complete());
    (
        sim.out.events_processed,
        sim.out.ecn_marks,
        sim.out.fcts.iter().map(|r| r.fct()).collect(),
    )
}

#[test]
fn ecn_mark_counter_is_deterministic() {
    let a = incast_run(11);
    let b = incast_run(11);
    assert_eq!(a, b);
    assert!(a.1 > 0);
}

// ---------------------------------------------------------------------
// Golden determinism gate: full SimOutput + trace, faulted and
// fault-free. Pinned across the timing-wheel scheduler and dense
// flow-table swap — any behavioral drift in either shows up here as a
// run-to-run or field-level mismatch.
// ---------------------------------------------------------------------

/// Every scalar and sequence a run produces, including the flight
/// recorder — the widest equality net the simulator offers.
#[derive(Debug, PartialEq)]
struct FullGolden {
    events_processed: u64,
    events_scheduled: u64,
    peak_queue_depth: u64,
    finished_at: Time,
    buffer_drops: u64,
    fault_drops: u64,
    fault_jittered: u64,
    link_flaps: u64,
    retransmits: u64,
    ecn_marks: u64,
    pfc_events: Vec<(Time, u32)>,
    fcts: Vec<(u32, Time, Time)>,
    trace: Vec<TraceRecord>,
}

fn full_golden(sim: &Simulator) -> FullGolden {
    FullGolden {
        events_processed: sim.out.events_processed,
        events_scheduled: sim.out.events_scheduled,
        peak_queue_depth: sim.out.peak_queue_depth,
        finished_at: sim.out.finished_at,
        buffer_drops: sim.out.buffer_drops,
        fault_drops: sim.out.fault_drops,
        fault_jittered: sim.out.fault_jittered,
        link_flaps: sim.out.link_flaps,
        retransmits: sim.out.retransmits,
        ecn_marks: sim.out.ecn_marks,
        pfc_events: sim.out.pfc_events.iter().map(|&(t, n)| (t, n.0)).collect(),
        fcts: sim
            .out
            .fcts
            .iter()
            .map(|r| (r.flow.0, r.start, r.finish))
            .collect(),
        trace: sim
            .trace
            .as_ref()
            .expect("trace enabled")
            .records()
            .copied()
            .collect(),
    }
}

/// A dumbbell scenario with the flight recorder on; `faulted` adds loss
/// and jitter to both long-haul directions so the recovery path (RTO
/// rewinds, retransmits, jittered arrivals) is exercised too.
fn traced_run(faulted: bool, seed: u64) -> FullGolden {
    let topo = DumbbellTopology::build(DumbbellParams::default());
    let cfg = SimConfig {
        stop_time: 20 * SEC,
        dci: DciFeatures::mlcc(),
        seed,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));
    sim.enable_trace(100_000);
    if faulted {
        let profile = FaultProfile::uniform_loss(0.01).with_jitter(5 * US);
        for l in topo.long_haul {
            sim.inject_link_faults(l, profile.clone())
                .expect("valid link fault");
        }
    }
    for side in 0..2 {
        let senders = &topo.servers[side];
        let receivers = &topo.servers[1 - side];
        for i in 0..2 {
            sim.add_flow(
                senders[i % senders.len()],
                receivers[i % receivers.len()],
                500_000,
                (i as Time) * 100 * US,
            );
        }
    }
    sim.run_until_flows_complete();
    full_golden(&sim)
}

#[test]
fn golden_gate_fault_free_scenario_replays_bit_identical() {
    let a = traced_run(false, 3);
    let b = traced_run(false, 3);
    assert!(!a.fcts.is_empty(), "scenario must complete flows");
    assert!(!a.trace.is_empty(), "trace must have recorded events");
    assert_eq!(a.fault_drops, 0, "fault-free run must not drop");
    assert_eq!(a, b, "fault-free SimOutput + trace must replay exactly");
}

#[test]
fn golden_gate_faulted_scenario_replays_bit_identical() {
    let a = traced_run(true, 3);
    let b = traced_run(true, 3);
    assert!(!a.fcts.is_empty(), "scenario must complete flows");
    assert!(a.fault_drops > 0, "faulted run must exercise the loss path");
    assert_eq!(a, b, "faulted SimOutput + trace must replay exactly");
}

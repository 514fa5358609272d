//! Integration: deterministic WAN fault injection end to end — every
//! algorithm survives lossy long hauls, a mid-transfer DCI flap delays
//! but never strands a flow, and faulted runs replay bit-for-bit.

use cc_baselines::{DcqcnFactory, HpccFactory, PowerTcpFactory, TimelyFactory};
use mlcc_core::MlccFactory;
use netsim::prelude::*;

/// The five evaluated algorithms, constructed without the bench crate
/// (root integration tests sit below it in the dependency graph).
const ALGOS: [&str; 5] = ["dcqcn", "timely", "hpcc", "powertcp", "mlcc"];

fn factory(name: &str) -> (Box<dyn CcFactory>, DciFeatures) {
    match name {
        "dcqcn" => (Box::new(DcqcnFactory), DciFeatures::baseline()),
        "timely" => (Box::new(TimelyFactory), DciFeatures::baseline()),
        "hpcc" => (Box::new(HpccFactory), DciFeatures::baseline()),
        "powertcp" => (Box::new(PowerTcpFactory), DciFeatures::baseline()),
        "mlcc" => (Box::new(MlccFactory::default()), DciFeatures::mlcc()),
        other => panic!("unknown algorithm {other}"),
    }
}

/// One cross-DC transfer in each direction on the dumbbell, with the
/// given fault profile on both long-haul directions.
fn run_dumbbell(algo: &str, profile: FaultProfile, flow_bytes: u64, seed: u64) -> Simulator {
    let topo = DumbbellTopology::build(DumbbellParams::default());
    let (servers, long_haul) = (topo.servers, topo.long_haul);
    let (fac, dci) = factory(algo);
    let cfg = SimConfig {
        stop_time: 10 * SEC,
        dci,
        seed,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, fac);
    for l in long_haul {
        sim.inject_link_faults(l, profile.clone())
            .expect("valid link fault");
    }
    sim.add_flow(servers[0][0], servers[1][0], flow_bytes, 0);
    sim.add_flow(servers[1][1], servers[0][1], flow_bytes, 0);
    sim
}

#[test]
fn all_algorithms_complete_under_wan_loss() {
    for loss in [0.001, 0.01] {
        for algo in ALGOS {
            let mut sim = run_dumbbell(algo, FaultProfile::uniform_loss(loss), 500_000, 3);
            assert!(
                sim.run_until_flows_complete(),
                "{algo} stranded a flow at {:.1}% WAN loss",
                loss * 100.0
            );
            assert_eq!(sim.out.fcts.len(), 2, "{algo} at loss {loss}");
            assert_eq!(
                sim.out.buffer_drops, 0,
                "{algo}: lossless fabric must not add congestion drops"
            );
            if loss >= 0.01 {
                assert!(
                    sim.out.fault_drops > 0,
                    "{algo}: 1% loss over ~1000 packets must drop something"
                );
                assert!(sim.out.retransmits > 0, "{algo}: recovery must engage");
            }
        }
    }
}

#[test]
fn dci_flap_delays_but_never_strands() {
    let clean = {
        let mut sim = run_dumbbell("mlcc", FaultProfile::default(), 2_000_000, 5);
        assert!(sim.run_until_flows_complete());
        sim.out.fcts.iter().map(|f| f.fct()).max().unwrap()
    };

    // Take the long haul down mid-transfer, restore it well after the
    // clean completion time: recovery has to finish the transfer on the
    // other side of a 5 ms black hole.
    let (down_at, up_at) = (50 * US, 5 * MS);
    assert!(clean < up_at, "flap window must straddle the clean FCT");
    let mut sim = run_dumbbell("mlcc", FaultProfile::flap(down_at, up_at), 2_000_000, 5);
    assert!(
        sim.run_until_flows_complete(),
        "flap must delay, not strand"
    );
    assert_eq!(sim.out.link_flaps, 2, "both long-haul directions flapped");
    assert!(
        sim.out.fault_drops > 0,
        "the down window black-holes traffic"
    );
    assert!(sim.out.retransmits > 0);
    let worst = sim.out.fcts.iter().map(|f| f.fct()).max().unwrap();
    assert!(worst > clean, "flapped FCT {worst} vs clean {clean}");
    assert!(
        sim.out.fcts.iter().all(|f| f.finish > up_at),
        "flows can only finish after the link came back"
    );
}

#[test]
fn faulted_golden_replay_is_bit_identical() {
    let profile = FaultProfile::uniform_loss(0.005)
        .with_jitter(10 * US)
        .with_gilbert(GilbertElliott::bursty(0.02, 0.3, 0.5));
    let run = |seed| {
        let mut p = profile.clone();
        p.flaps.push(FlapWindow {
            down_at: 300 * US,
            up_at: 800 * US,
        });
        let mut sim = run_dumbbell("mlcc", p, 1_000_000, seed);
        assert!(sim.run_until_flows_complete());
        let fcts: Vec<(FlowId, Time, Time)> = sim
            .out
            .fcts
            .iter()
            .map(|f| (f.flow, f.start, f.finish))
            .collect();
        (
            fcts,
            sim.out.events_processed,
            sim.out.fault_drops,
            sim.out.fault_jittered,
            sim.out.link_flaps,
            sim.out.retransmits,
            sim.now,
        )
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a, b, "same seed, same faults, same bits");
    assert!(a.2 > 0, "the cocktail must actually drop packets");
    // A different seed must draw a different fault realization — the
    // per-link substreams are seeded from the simulation seed.
    let c = run(10);
    assert_ne!(
        (a.1, a.2, a.3),
        (c.1, c.2, c.3),
        "different seed, different realization"
    );
}

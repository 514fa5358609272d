//! Integration: the full workload→simulation→statistics pipeline runs
//! for every algorithm and produces sane numbers.

use mlcc_bench::Algo;
use mlcc_core::MlccFactory;
use netsim::cc::CcFactory;
use netsim::prelude::*;
use simstats::FctBreakdown;
use workload::{offered_load, TrafficClass, TrafficGen, TrafficMix};

fn pipeline(f: Box<dyn CcFactory>, dci: DciFeatures) -> (FctBreakdown, usize, usize) {
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        ..TwoDcParams::default()
    });
    let cfg = SimConfig {
        stop_time: 300 * MS,
        dci,
        seed: 5,
        ..SimConfig::default()
    };
    let window = 4 * MS;
    let mut gen = TrafficGen::new(5, 25 * GBPS);
    let mut reqs = Vec::new();
    for dc in 0..2 {
        let servers = topo.dc_servers(dc);
        reqs.extend(gen.generate(
            &TrafficClass {
                senders: servers.clone(),
                receivers: servers,
                load: 0.3,
                mix: TrafficMix::Hadoop,
            },
            0,
            window,
        ));
    }
    let senders = topo.dc_servers(0);
    let cross_load = 0.1 * 100.0 / (senders.len() as f64 * 25.0);
    reqs.extend(gen.generate(
        &TrafficClass {
            senders,
            receivers: topo.dc_servers(1),
            load: cross_load,
            mix: TrafficMix::Hadoop,
        },
        0,
        window,
    ));
    let mut sim = Simulator::new(topo.net, cfg, f);
    for r in &reqs {
        sim.add_flow(r.src, r.dst, r.size_bytes, r.start);
    }
    sim.run_until_flows_complete();
    (
        FctBreakdown::new(&sim.out.fcts),
        sim.out.fcts.len(),
        reqs.len(),
    )
}

#[test]
fn every_baseline_completes_the_workload() {
    for b in Algo::BASELINES {
        let (stats, done, total) = pipeline(b.factory(), b.dci_features());
        assert_eq!(done, total, "{} must complete all flows", b.name());
        assert!(stats.all.avg_us > 0.0);
        assert!(stats.all.p999_us >= stats.all.p99_us);
        assert!(stats.all.p99_us >= stats.all.p50_us);
    }
}

#[test]
fn mlcc_completes_the_workload() {
    let (stats, done, total) = pipeline(Box::new(MlccFactory::default()), DciFeatures::mlcc());
    assert_eq!(done, total);
    // Cross flows carry at least the 3 ms one-way long-haul delay (FCT
    // is measured from sender start to receiver completion).
    assert!(stats.cross_dc.avg_us > 3_000.0, "{}", stats.cross_dc.avg_us);
    // Intra flows are orders of magnitude faster on average.
    assert!(stats.intra_dc.avg_us < stats.cross_dc.avg_us);
}

#[test]
fn generated_load_matches_target() {
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 4,
        ..TwoDcParams::default()
    });
    let servers = topo.dc_servers(0);
    let n = servers.len();
    let mut gen = TrafficGen::new(17, 25 * GBPS);
    let window = 200 * MS;
    let flows = gen.generate(
        &TrafficClass {
            senders: servers.clone(),
            receivers: servers,
            load: 0.5,
            mix: TrafficMix::WebSearch,
        },
        0,
        window,
    );
    let load = offered_load(&flows, n, 25 * GBPS, window);
    assert!((load - 0.5).abs() < 0.1, "offered {load}");
}

#[test]
fn fct_has_physical_floor() {
    // No flow can complete faster than its base RTT + serialization.
    let (stats, _, _) = pipeline(Box::new(MlccFactory::default()), DciFeatures::mlcc());
    // Smallest possible intra flow: ~1 packet, ~25 µs round trip.
    assert!(
        stats.intra_dc.p50_us * 1.0 >= 10.0,
        "p50 {}",
        stats.intra_dc.p50_us
    );
}

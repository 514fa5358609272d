//! Property-based integration invariants: randomized flow sets through
//! the real simulator preserve bytes, complete under lossless operation,
//! and replay deterministically. Flow sets are generated by the in-repo
//! seeded PRNG, so every "random" case is reproducible by construction.

use mlcc_core::MlccFactory;
use netsim::prelude::*;
use netsim::rng::{SimRng, Xoshiro256StarStar};

fn run_flows(flows: &[(u8, u8, u32, u8)], mlcc: bool, seed: u64) -> (u64, u64, Vec<Time>) {
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        ..TwoDcParams::default()
    });
    let all: Vec<NodeId> = topo
        .dc_servers(0)
        .into_iter()
        .chain(topo.dc_servers(1))
        .collect();
    let cfg = SimConfig {
        stop_time: 500 * MS,
        dci: if mlcc {
            DciFeatures::mlcc()
        } else {
            DciFeatures::baseline()
        },
        seed,
        ..SimConfig::default()
    };
    let factory: Box<dyn netsim::cc::CcFactory> = if mlcc {
        Box::new(MlccFactory::default())
    } else {
        Box::new(NoCcFactory)
    };
    let mut sim = Simulator::new(topo.net, cfg, factory);
    let mut total = 0u64;
    for &(s, d, size, start_ms) in flows {
        let src = all[s as usize % all.len()];
        let mut dst = all[d as usize % all.len()];
        if dst == src {
            dst = all[(d as usize + 1) % all.len()];
        }
        let size = (size % 2_000_000).max(1) as u64;
        total += size;
        sim.add_flow(src, dst, size, start_ms as Time % 4 * MS);
    }
    sim.run_until_flows_complete();
    let fcts = sim.out.fcts.iter().map(|r| r.fct()).collect();
    (total, sim.total_delivered(), fcts)
}

/// Draw a random flow set: (src sel, dst sel, size, start ms) tuples in
/// the same shape the old proptest strategy produced.
fn random_flows(rng: &mut Xoshiro256StarStar, max_len: u64) -> Vec<(u8, u8, u32, u8)> {
    let n = rng.gen_range(1..max_len) as usize;
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..256) as u8,
                rng.gen_range(0..256) as u8,
                rng.gen_range(0..u32::MAX as u64 + 1) as u32,
                rng.gen_range(0..256) as u8,
            )
        })
        .collect()
}

/// Every byte injected is delivered, whatever the random flow mix, under
/// MLCC on the full two-DC fabric (seeded-loop property test, 8 cases).
#[test]
fn mlcc_conserves_bytes() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x1117A);
    for case in 0..8 {
        let flows = random_flows(&mut rng, 10);
        let (total, delivered, fcts) = run_flows(&flows, true, 3);
        assert_eq!(total, delivered, "case {case}: {flows:?}");
        assert_eq!(fcts.len(), flows.len(), "case {case}");
        for f in &fcts {
            assert!(*f > 0);
        }
    }
}

/// Determinism: identical inputs and seed give identical completion
/// times, event for event (seeded-loop property test, 4 cases).
#[test]
fn runs_are_deterministic() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xDE7);
    for case in 0..4 {
        let flows = random_flows(&mut rng, 6);
        let seed = rng.gen_range(0..4);
        let a = run_flows(&flows, true, seed);
        let b = run_flows(&flows, true, seed);
        assert_eq!(a, b, "case {case}: {flows:?} seed {seed}");
    }
}

/// Losslessness across every congestion-control algorithm: on the
/// fault-free two-DC fabric, DCQCN, Timely, HPCC, PowerTCP, and MLCC all
/// finish a mixed intra/cross-DC flow set with zero buffer drops, and
/// every flow's acked byte count equals its size (an [`FctRecord`] is
/// only emitted once the sender has every byte acknowledged, so a
/// record per flow with the right `size_bytes` is exactly that claim).
#[test]
fn every_algorithm_is_lossless_on_the_clean_fabric() {
    use cc_baselines::{DcqcnFactory, HpccFactory, PowerTcpFactory, TimelyFactory};

    type MakeFactory = fn() -> Box<dyn netsim::cc::CcFactory>;
    let algos: [(&str, MakeFactory, bool); 5] = [
        ("dcqcn", || Box::new(DcqcnFactory), false),
        ("timely", || Box::new(TimelyFactory), false),
        ("hpcc", || Box::new(HpccFactory), false),
        ("powertcp", || Box::new(PowerTcpFactory), false),
        ("mlcc", || Box::new(MlccFactory::default()), true),
    ];
    for (name, make, mlcc) in algos {
        let topo = TwoDcTopology::build(TwoDcParams {
            servers_per_leaf: 2,
            ..TwoDcParams::default()
        });
        let cfg = SimConfig {
            stop_time: 500 * MS,
            dci: if mlcc {
                DciFeatures::mlcc()
            } else {
                DciFeatures::baseline()
            },
            ..SimConfig::default()
        };
        // Intra-DC pair, cross-DC pair each way, and a 2:1 cross-DC
        // incast onto one receiver — enough contention to exercise ECN,
        // PFC headroom, and (for MLCC) the credit loop.
        let flows = [
            (topo.server(1, 0), topo.server(2, 0), 800_000u64),
            (topo.server(3, 0), topo.server(7, 0), 1_200_000),
            (topo.server(7, 1), topo.server(3, 1), 1_200_000),
            (topo.server(4, 0), topo.server(8, 0), 600_000),
            (topo.server(5, 0), topo.server(8, 0), 600_000),
        ];
        let mut sim = Simulator::new(topo.net, cfg, make());
        let mut sizes = Vec::new();
        for (src, dst, size) in flows {
            let id = sim.add_flow(src, dst, size, 0);
            sizes.push((id, size));
        }
        assert!(
            sim.run_until_flows_complete(),
            "{name}: every flow must finish within the stop time"
        );
        assert_eq!(sim.out.buffer_drops, 0, "{name}: fabric must be lossless");
        assert_eq!(sim.out.fault_drops, 0, "{name}: no faults were injected");
        assert_eq!(sim.out.fcts.len(), sizes.len(), "{name}");
        for (id, size) in sizes {
            let rec = sim
                .out
                .fcts
                .iter()
                .find(|r| r.flow == id)
                .unwrap_or_else(|| panic!("{name}: flow {id:?} has no FCT record"));
            assert_eq!(
                rec.size_bytes, size,
                "{name}: flow {id:?} acked {} of {} bytes",
                rec.size_bytes, size
            );
        }
    }
}

#[test]
fn uncontrolled_traffic_also_conserves_bytes() {
    // Even without congestion control (worst case for buffers), the
    // deep DCI buffer and PFC hold the fabric lossless for a moderate
    // flow set, and go-back-N covers any residual drop.
    let flows = [
        (0u8, 9u8, 900_000u32, 0u8),
        (1, 9, 700_000, 1),
        (2, 10, 500_000, 0),
    ];
    let (total, delivered, _) = run_flows(&flows, false, 1);
    assert_eq!(total, delivered);
}

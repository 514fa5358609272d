//! Losslessness by construction: with auto-sized per-ingress PFC
//! headroom, a PFC-enabled switch never buffer-drops a data packet —
//! the audited runtime invariant restated as a universally-quantified
//! property test over randomized incasts, plus the pinned two-spine
//! 192 KB regression that motivated the headroom model (PR 8's ECMP fix
//! spread a two-DC incast over both spines and the pre-headroom model
//! dropped).

use netsim::node::Node;
use netsim::prelude::*;
use netsim::rng::{SimRng, Xoshiro256StarStar};
use netsim::units::bytes_in;

const MTU_WIRE: u64 = 1048;

/// Property: sweep randomized incast fan-in × link delay × link rate ×
/// shared-pool margin. The buffer is sized as `sum(auto headroom) +
/// margin`, so every case gives the shared pool only the margin — the
/// dynamic threshold must fire Xoff early enough and the reservation
/// must absorb every in-flight tail, or a drop shows up. 24 seeded
/// cases, reproducible by construction.
#[test]
fn auto_headroom_makes_random_incasts_lossless() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x4EAD_0011);
    for case in 0..24 {
        let fan_in = 2 + rng.gen_range(0..15) as usize; // 2..=16 senders
        let delay = (1 + rng.gen_range(0..10)) * US; // 1..=10 µs
        let bw = (10 + rng.gen_range(0..31)) * GBPS; // 10..=40 Gbps
        let margin = 32_768 + rng.gen_range(0..224) * 1024; // 32..256 KB
        let ports = fan_in as u64 + 1; // senders + the receiver's uplink
        let headroom = PfcConfig::auto_headroom_bytes(bw, delay, MTU_WIRE);
        let buffer = ports * headroom + margin;

        let mut b = NetBuilder::new();
        let receiver = b.add_host();
        let sw = b.add_switch(buffer, PfcConfig::dc_switch());
        b.connect(receiver, sw, bw, delay, LinkOpts::default());
        let senders: Vec<_> = (0..fan_in)
            .map(|_| {
                let h = b.add_host();
                b.connect(h, sw, bw, delay, LinkOpts::default());
                h
            })
            .collect();
        let cfg = SimConfig {
            stop_time: 2 * SEC,
            seed: case,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(b.build(), cfg, Box::new(NoCcFactory));
        for s in &senders {
            let size = 100_000 + rng.gen_range(0..200_000);
            sim.add_flow(*s, receiver, size, 0);
        }
        let ctx = format!(
            "case {case}: fan_in {fan_in}, delay {delay}, bw {bw}, \
             margin {margin}, buffer {buffer}"
        );
        assert!(sim.run_until_flows_complete(), "{ctx}: must complete");
        assert_eq!(sim.out.buffer_drops, 0, "{ctx}: must be lossless");
        assert!(
            sim.total_pfc_pauses() > 0,
            "{ctx}: the incast must actually engage PFC"
        );
    }
}

/// Build-time auto-sizing against hand-computed `2·delay·rate + 2 MTU`
/// sums: on the paper's two-DC fabric a leaf sees its servers at
/// 25 G / 1 µs and its spines at 100 G / 5 µs, and `Some(0)` reserves
/// nothing at all.
#[test]
fn build_time_resolution_reserves_expected_totals() {
    let params = TwoDcParams {
        servers_per_leaf: 2,
        leaves_per_dc: 2,
        ..TwoDcParams::default()
    };
    let topo = TwoDcTopology::build(params);
    let server_hr = bytes_in(2 * US, 25 * GBPS) + 2 * MTU_WIRE;
    let fabric_hr = bytes_in(2 * (5 * US), 100 * GBPS) + 2 * MTU_WIRE;
    let leaf_expected = 2 * server_hr + 2 * fabric_hr;
    let leaf = topo.leaves[0][0];
    match &topo.net.nodes[leaf.index()] {
        Node::Switch(sw) => {
            assert_eq!(
                sw.buffer.headroom_reserved(),
                leaf_expected,
                "leaf reservation must equal the per-port sum"
            );
        }
        _ => panic!("leaf id must be a switch"),
    }
    // DCI switches run PFC-disabled: no reservation ever.
    match &topo.net.nodes[topo.dcis[0].index()] {
        Node::Switch(sw) => assert_eq!(sw.buffer.headroom_reserved(), 0),
        _ => panic!("dci id must be a switch"),
    }
    // The legacy Some(0) model reserves nothing anywhere.
    let legacy = TwoDcTopology::build(TwoDcParams {
        pfc: PfcConfig::dc_switch().without_headroom(),
        ..params
    });
    for n in &legacy.net.nodes {
        if let Node::Switch(sw) = n {
            assert_eq!(sw.buffer.headroom_reserved(), 0);
        }
    }
}

/// The PR 8 two-spine incast: 8 flows from every other server fan in on
/// one receiver across a 192 KB-buffer fabric whose ECMP spreads the
/// load over both spines. Returns the run's buffer drops.
fn two_spine_incast(pfc: PfcConfig, buffer: u64) -> u64 {
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        leaves_per_dc: 2,
        dc_switch_buffer: buffer,
        pfc,
        ..TwoDcParams::default()
    });
    let all: Vec<NodeId> = topo
        .dc_servers(0)
        .into_iter()
        .chain(topo.dc_servers(1))
        .collect();
    let cfg = SimConfig {
        stop_time: 40 * MS,
        seed: 7,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, Box::new(NoCcFactory));
    for i in 0..8usize {
        let src = all[1 + i % (all.len() - 1)];
        sim.add_flow(src, all[0], 150_000 + 37_000 * i as u64, 0);
    }
    sim.run_until_flows_complete();
    sim.out.buffer_drops
}

/// Pre-fix (`Some(0)`, the legacy shared-pool-only model) the 192 KB
/// squeeze drops even though PFC fires as designed; post-fix (`None`,
/// auto-sized headroom — the buffer grows to 512 KB because the leaf
/// reservation alone is ≈ 271 KB) the same incast is lossless.
#[test]
fn two_spine_192kb_incast_flips_from_dropping_to_lossless() {
    // Under the audit feature the pre-fix run panics at the drop (the
    // losslessness invariant fires before the counter is returned).
    #[cfg(feature = "audit")]
    {
        let r = std::panic::catch_unwind(|| {
            two_spine_incast(PfcConfig::dc_switch().without_headroom(), 192 * 1024)
        });
        let msg = match r {
            Err(e) => e
                .downcast::<String>()
                .map(|s| *s)
                .unwrap_or_else(|_| String::new()),
            Ok(drops) => panic!("expected an audit panic, got {drops} drops"),
        };
        assert!(
            msg.contains("lossless"),
            "unexpected audit violation: {msg}"
        );
    }
    #[cfg(not(feature = "audit"))]
    {
        let pre = two_spine_incast(PfcConfig::dc_switch().without_headroom(), 192 * 1024);
        assert!(pre > 0, "pre-headroom model must drop at 192 KB");
    }
    let post = two_spine_incast(PfcConfig::dc_switch(), 512 * 1024);
    assert_eq!(post, 0, "auto-sized headroom must be lossless at 512 KB");
}

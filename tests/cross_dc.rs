//! Integration: the full MLCC cross-datacenter pipeline on the Fig. 1
//! topology — credit loop, PFQ, near-source feedback, DQM — all engaged.

use mlcc_core::MlccFactory;
use netsim::monitor::MonitorSpec;
use netsim::prelude::*;

fn small_two_dc() -> TwoDcTopology {
    TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        ..TwoDcParams::default()
    })
}

/// A hand-built two-DC line: (h0, h1) — tor0 — dci0 ═ dci1 — tor1 —
/// (h2, h3). Only the long-haul flag says where the datacenters meet;
/// the receiver-side per-flow queues sit on each DCI's egress to its ToR.
struct HandBuilt {
    net: Network,
    hosts: [NodeId; 4],
    dcis: [NodeId; 2],
    dci_to_tor: [LinkId; 2],
}

fn hand_built() -> HandBuilt {
    let mut b = NetBuilder::new();
    let hosts = [b.add_host(), b.add_host(), b.add_host(), b.add_host()];
    let mut dcis = Vec::new();
    let mut dci_to_tor = Vec::new();
    for side in 0..2 {
        let tor = b.add_switch(22_000_000, PfcConfig::dc_switch());
        let dci = b.add_switch(128_000_000, PfcConfig::disabled());
        for &h in &hosts[2 * side..2 * side + 2] {
            b.connect(h, tor, 25 * GBPS, US, LinkOpts::default());
        }
        let (_, d2t) = b.connect(tor, dci, 100 * GBPS, 5 * US, LinkOpts::default());
        b.enable_pfq(d2t, 25 * GBPS);
        dcis.push(dci);
        dci_to_tor.push(d2t);
    }
    let long_haul = LinkOpts { long_haul: true };
    b.connect(dcis[0], dcis[1], 100 * GBPS, MS, long_haul);
    HandBuilt {
        net: b.build(),
        hosts,
        dcis: [dcis[0], dcis[1]],
        dci_to_tor: [dci_to_tor[0], dci_to_tor[1]],
    }
}

#[test]
fn dci_roles_derive_from_the_long_haul_flag() {
    let f = hand_built();
    let is_dci = |n: NodeId| f.dcis.contains(&n);
    for node in &f.net.nodes {
        if let Some(sw) = node.as_switch() {
            assert_eq!(sw.dci.is_some(), is_dci(sw.id), "DCI role of {}", sw.id);
        }
    }
    for l in &f.net.links {
        let want = if is_dci(l.src) {
            EcnConfig::dci_switch()
        } else {
            EcnConfig::dc_switch(l.bandwidth)
        };
        assert_eq!(l.ecn, want, "ECN profile of {} → {}", l.src, l.dst);
    }
}

#[test]
fn derived_dci_roles_run_both_mlcc_loops() {
    let f = hand_built();
    let cfg = SimConfig {
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(f.net, cfg, Box::new(MlccFactory::default()));
    let flow = sim.add_flow(f.hosts[0], f.hosts[2], 1_000_000, 0);
    assert!(sim.run_until_flows_complete());
    let dci = |n: NodeId| sim.nodes[n.index()].as_switch().unwrap().dci.as_ref();
    let sent = dci(f.dcis[0]).map_or(0, |d| d.switch_int_sent);
    assert!(
        sent > 0,
        "the sender-side DCI must emit Switch-INT feedback"
    );
    let rx_dci = dci(f.dcis[1]).expect("receiver-side DCI role");
    assert_eq!(rx_dci.pfq_link.get(flow), Some(&f.dci_to_tor[1]));
    let pfq = sim.links[f.dci_to_tor[1].index()].pfq.as_ref().unwrap();
    let queued = pfq.get(flow).map_or(0, |q| q.enqueued_bytes);
    assert!(
        queued >= 1_000_000,
        "all data must pass the receiver-side PFQ"
    );
}

#[test]
fn mlcc_cross_flow_completes_and_uses_pfq() {
    let topo = small_two_dc();
    let pfq_links = topo.dci_to_spine[1].clone();
    let src = topo.server(1, 0);
    let dst = topo.server(5, 0);
    let cfg = SimConfig {
        stop_time: 200 * MS,
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));
    let f = sim.add_flow(src, dst, 5_000_000, 0);
    assert!(sim.run_until_flows_complete());
    let path = sim.flow_path(f).unwrap();
    assert!(path.cross_dc);
    assert!(path.base_rtt > 6 * MS, "cross path pays 2×3 ms propagation");
    // The PFQ on the receiver-side DCI saw the flow's bytes.
    let pfq_bytes: u64 = pfq_links
        .iter()
        .filter_map(|l| sim.links[l.index()].pfq.as_ref())
        .map(|p| p.get(f).map_or(0, |st| st.enqueued_bytes))
        .sum();
    assert!(
        pfq_bytes >= 5_000_000,
        "all data must pass the per-flow queue (saw {pfq_bytes})"
    );
    // The sender-side DCI emitted Switch-INT feedback.
    let si = sim.nodes[topo.dcis[0].index()]
        .as_switch()
        .and_then(|s| s.dci.as_ref())
        .map_or(0, |d| d.switch_int_sent);
    assert!(si > 0, "near-source loop must emit Switch-INT packets");
    assert_eq!(sim.out.buffer_drops, 0);
}

#[test]
fn baseline_mode_bypasses_pfq() {
    let topo = small_two_dc();
    let pfq_links = topo.dci_to_spine[1].clone();
    let src = topo.server(1, 0);
    let dst = topo.server(5, 0);
    let cfg = SimConfig {
        stop_time: 200 * MS,
        dci: DciFeatures::baseline(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, Box::new(NoCcFactory));
    let f = sim.add_flow(src, dst, 1_000_000, 0);
    assert!(sim.run_until_flows_complete());
    let pfq_bytes: u64 = pfq_links
        .iter()
        .filter_map(|l| sim.links[l.index()].pfq.as_ref())
        .map(|p| p.get(f).map_or(0, |st| st.enqueued_bytes))
        .sum();
    assert_eq!(pfq_bytes, 0, "baseline DCI must use plain FIFO queues");
    let si = sim.nodes[topo.dcis[0].index()]
        .as_switch()
        .and_then(|s| s.dci.as_ref())
        .map_or(0, |d| d.switch_int_sent);
    assert_eq!(si, 0, "baseline DCI must not emit Switch-INT");
}

#[test]
fn mlcc_incast_keeps_dci_queue_bounded() {
    // 4 cross flows into one receiver: the PFQ + credit loop must keep
    // the standing DCI queue far below what the baselines accumulate
    // (Fig. 4 shows baselines oscillating in the tens of MB).
    let topo = small_two_dc();
    let dci_links = topo.dci_to_spine[1].clone();
    let dst = topo.server(5, 0);
    let srcs = [
        topo.server(1, 0),
        topo.server(1, 1),
        topo.server(2, 0),
        topo.server(2, 1),
    ];
    // The 4:1 incast parks ~50 MB at the DCI during the first cross-DC
    // RTT; DQM's drain authority is bounded (−25% of R_credit), so give
    // it time to work the backlog down to the D_t ballpark.
    let cfg = SimConfig {
        stop_time: 200 * MS,
        monitor_interval: 500 * US,
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));
    for s in srcs {
        sim.add_flow(s, dst, 1 << 30, MS);
    }
    sim.set_monitor(MonitorSpec {
        queues: dci_links,
        flows: Vec::new(),
        pfq_link: None,
    });
    sim.run();
    let series = sim.out.monitor.queue_sum_series();
    let n = series.len();
    let tail_avg = series[n - n / 4..].iter().map(|x| x.1).sum::<u64>() / (n / 4).max(1) as u64;
    assert!(
        tail_avg < 8_000_000,
        "DQM must keep the standing DCI queue small (tail avg {} MB)",
        tail_avg as f64 / 1e6
    );
    // PFC may fire while the initial line-rate burst is being reined in,
    // but steady state must be PFC-free (the paper's central claim).
    let late_pfc = sim
        .out
        .pfc_events
        .iter()
        .filter(|&&(t, _)| t > 100 * MS)
        .count();
    assert_eq!(late_pfc, 0, "no PFC once MLCC has converged");
}

#[test]
fn mlcc_many_flows_byte_conservation() {
    let topo = small_two_dc();
    let cfg = SimConfig {
        stop_time: 400 * MS,
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let dc0 = topo.dc_servers(0);
    let dc1 = topo.dc_servers(1);
    let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));
    let mut total = 0;
    for i in 0..6 {
        let size = 200_000 + 137_000 * i as u64;
        total += size;
        sim.add_flow(
            dc0[i % dc0.len()],
            dc1[(i + 1) % dc1.len()],
            size,
            i as Time * MS,
        );
    }
    assert!(sim.run_until_flows_complete(), "all cross flows complete");
    assert_eq!(sim.total_delivered(), total);
    assert_eq!(sim.out.buffer_drops, 0);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let topo = small_two_dc();
        let cfg = SimConfig {
            stop_time: 200 * MS,
            dci: DciFeatures::mlcc(),
            seed: 99,
            ..SimConfig::default()
        };
        let (s1, s2, d) = (topo.server(1, 0), topo.server(2, 0), topo.server(5, 0));
        let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));
        sim.add_flow(s1, d, 2_000_000, 0);
        sim.add_flow(s2, d, 2_000_000, 0);
        sim.run_until_flows_complete();
        (
            sim.out.fcts.iter().map(|r| r.fct()).collect::<Vec<_>>(),
            sim.out.events_processed,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn hybrid_dcqcn_under_mlcc_loops_completes() {
    // §5 compatibility: a legacy DCQCN sender ceilinged by R̄_DQM, with
    // the MLCC receiver loops driving the DCI PFQ.
    use cc_baselines::DcqcnFactory;
    use mlcc_core::HybridFactory;

    let topo = small_two_dc();
    let (src, dst) = (topo.server(1, 0), topo.server(5, 0));
    let pfq_links = topo.dci_to_spine[1].clone();
    let cfg = SimConfig {
        stop_time: 300 * MS,
        dci: DciFeatures {
            near_source_enabled: false,
            ..DciFeatures::mlcc()
        },
        ..SimConfig::default()
    };
    let factory = HybridFactory::new(DcqcnFactory);
    let mut sim = Simulator::new(topo.net, cfg, Box::new(factory));
    let f = sim.add_flow(src, dst, 3_000_000, 0);
    assert!(sim.run_until_flows_complete());
    // The flow went through the credit-paced PFQ.
    let pfq_bytes: u64 = pfq_links
        .iter()
        .filter_map(|l| sim.links[l.index()].pfq.as_ref())
        .map(|p| p.get(f).map_or(0, |st| st.enqueued_bytes))
        .sum();
    assert!(pfq_bytes >= 3_000_000);
    assert_eq!(sim.out.buffer_drops, 0);
}

#[test]
fn receiver_dci_pfq_overflow_drops_and_recovers() {
    // Every DCI buffer in the paper's fabrics is 128 MB, so only a
    // shrunken one reaches the receiver-side DCI's admission drop. At
    // 24 KB the per-flow queues overflow under two 2 MB MLCC flows: the
    // receiving DCI drops, and go-back-N still completes both flows.
    let topo = DumbbellTopology::build(DumbbellParams {
        dci_buffer: 24_000,
        ..DumbbellParams::default()
    });
    let rx_dci = topo.dcis[1];
    let cfg = SimConfig {
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));
    sim.enable_trace(1 << 16);
    for i in 0..2 {
        sim.add_flow(topo.servers[0][i], topo.servers[1][i], 2_000_000, 0);
    }
    assert!(sim.run_until_flows_complete(), "every flow must complete");
    assert!(sim.out.buffer_drops > 0, "the DCI buffer must overflow");
    let dropped_at_rx_dci = sim
        .trace
        .as_ref()
        .unwrap()
        .count(|e| matches!(e, TraceEvent::PacketDropped { at, .. } if *at == rx_dci));
    assert!(dropped_at_rx_dci > 0, "no drop at the receiver-side DCI");
}

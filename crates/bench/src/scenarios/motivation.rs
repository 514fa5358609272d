//! Figs. 2–4: the motivation experiments (§2.2).
//!
//! These run the paper's three probes of what goes wrong when intra-DC
//! congestion control meets cross-DC RTTs: PFC storms at the receiver
//! datacenter (Exp. 1), intra/cross unfairness at the sender datacenter
//! (Exp. 2), and multi-megabyte oscillating queues at the receiver-side
//! DCI switch (Exp. 3).

#![allow(clippy::needless_range_loop)] // index i pairs srcs[i] with receivers[i]

use netsim::monitor::MonitorSpec;
use netsim::prelude::*;

use crate::algo::Algo;

/// Output of a motivation run.
pub struct MotivationResult {
    /// Average throughput of the first flow group (bits/s series).
    pub group_a_gbps: Vec<(Time, f64)>,
    /// Average throughput of the second flow group.
    pub group_b_gbps: Vec<(Time, f64)>,
    /// Monitored queue (bytes).
    pub queue: Vec<(Time, u64)>,
    /// PFC pause events (time, switch).
    pub pfc_events: Vec<(Time, NodeId)>,
    pub pfc_total: u64,
}

fn avg_series(per_flow: &[Vec<(Time, f64)>]) -> Vec<(Time, f64)> {
    if per_flow.is_empty() || per_flow[0].is_empty() {
        return Vec::new();
    }
    let n = per_flow[0].len();
    (0..n)
        .map(|i| {
            let t = per_flow[0][i].0;
            let sum: f64 = per_flow.iter().map(|s| s[i].1).sum();
            (t, sum / per_flow.len() as f64)
        })
        .collect()
}

fn build(algo: Algo, duration: Time, params: TwoDcParams) -> (TwoDcTopology, SimConfig) {
    let topo = TwoDcTopology::build(params);
    let cfg = SimConfig {
        stop_time: duration,
        monitor_interval: 50 * US,
        dci: algo.dci_features(),
        seed: 1,
        ..SimConfig::default()
    };
    (topo, cfg)
}

/// Watch `monitor` while running `sim` to its stop time. The eight
/// monitored flows form two groups of four, averaged per group.
fn finish(mut sim: Simulator, monitor: MonitorSpec) -> MotivationResult {
    sim.set_monitor(monitor);
    sim.run();
    let per_flow: Vec<Vec<(Time, f64)>> =
        (0..8).map(|i| sim.out.monitor.flow_throughput(i)).collect();
    MotivationResult {
        group_a_gbps: avg_series(&per_flow[..4]),
        group_b_gbps: avg_series(&per_flow[4..]),
        queue: sim.out.monitor.queue_sum_series(),
        pfc_events: sim.out.pfc_events.clone(),
        pfc_total: sim.total_pfc_pauses(),
    }
}

/// Experiment 1 (Fig. 2): at 1 ms four Rack-5 servers send to four
/// Rack-6 servers (intra-DC in the receiver datacenter); at 2 ms four
/// Rack-1 servers (remote DC) send to the same receivers. The arriving
/// cross-DC burst overwhelms the shallow-buffered receiver-side switches
/// and triggers PFC.
pub fn experiment1(algo: Algo, duration: Time) -> MotivationResult {
    // Shallow receiver-DC switches are the point of this experiment.
    // The default 22 MB shared buffer is sized for 32 servers per leaf;
    // at this scenario's 4-server scale the same per-port pressure
    // means 22 MB x 4/32 = 2.75 MB. That keeps the dynamic PFC Xoff
    // (alpha/(1+alpha) of the free pool) below the queue the cross-DC
    // burst builds during its ~6 ms of uncontrolled arrival, which is
    // what lets DCQCN's control lag trigger receiver-DC PFC at all:
    // with the full 22 MB the post-PR-1 ECN calibration throttles the
    // senders before any ingress ever reaches Xoff.
    let (topo, cfg) = build(
        algo,
        duration,
        TwoDcParams {
            servers_per_leaf: 4,
            spines_per_dc: 2,
            dc_switch_buffer: 2_750_000,
            ..TwoDcParams::default()
        },
    );
    let receivers: Vec<NodeId> = (0..4).map(|i| topo.server(6, i)).collect();
    // Bottleneck: the Rack-6 leaf's downlinks to its servers.
    let leaf6 = topo.leaves[1][1];
    let down_links: Vec<LinkId> = receivers
        .iter()
        .map(|&r| {
            let host = topo.net.nodes[r.index()].as_host().unwrap();
            topo.net.links[host.uplink.index()].reverse
        })
        .collect();
    let pfc_watch = vec![leaf6, topo.spines[1][0]];
    let mut sim = Simulator::new(topo.net, cfg, algo.factory());
    // Intra-DC flows first (monitored group A), then the cross-DC ones.
    let mut flows = Vec::new();
    for i in 0..4 {
        flows.push(sim.add_flow(topo.servers[1][0][i], receivers[i], 2_000_000_000, MS));
    }
    for i in 0..4 {
        flows.push(sim.add_flow(topo.servers[0][0][i], receivers[i], 2_000_000_000, 2 * MS));
    }
    finish(
        sim,
        MonitorSpec {
            queues: down_links,
            flows,
            pfc_switches: pfc_watch,
            pfq_link: None,
            fault_links: Vec::new(),
        },
    )
}

/// Experiment 2 (Fig. 3): at 1 ms four Rack-1 servers talk to Rack 2
/// (intra-DC); from 2 ms four *other* Rack-1 servers start cross-DC
/// flows to Rack 5, staggered 0.5 ms apart. The shared Rack-1 uplink
/// congests and the long-RTT flows squeeze the short-RTT ones.
pub fn experiment2(algo: Algo, duration: Time) -> MotivationResult {
    // A single spine makes the Rack-1 uplink (100 Gbps) a genuine
    // 2:1-oversubscribed sender-side bottleneck for the 8 × 25 Gbps
    // flows, independent of ECMP hashing luck.
    let (topo, cfg) = build(
        algo,
        duration,
        TwoDcParams {
            servers_per_leaf: 8,
            spines_per_dc: 1,
            ..TwoDcParams::default()
        },
    );
    // Watch the rack-1 uplinks (the ECMP candidates toward the remote
    // DC are exactly the leaf→spine links).
    let leaf1 = topo.leaves[0][0];
    let up_links: Vec<LinkId> = topo
        .net
        .routes
        .candidates(leaf1, topo.server(5, 0))
        .to_vec();
    let mut sim = Simulator::new(topo.net, cfg, algo.factory());
    let mut flows = Vec::new();
    for i in 0..4 {
        flows.push(sim.add_flow(
            topo.servers[0][0][i],
            topo.servers[0][1][i],
            2_000_000_000,
            MS,
        ));
    }
    for i in 0..4 {
        flows.push(sim.add_flow(
            topo.servers[0][0][4 + i],
            topo.servers[1][0][i],
            2_000_000_000,
            2 * MS + i as Time * 500 * US,
        ));
    }
    finish(
        sim,
        MonitorSpec {
            queues: up_links,
            flows,
            pfc_switches: vec![leaf1],
            pfq_link: None,
            fault_links: Vec::new(),
        },
    )
}

/// Experiment 3 (Fig. 4): eight cross-DC flows (four from Rack 1, four
/// from Rack 4) all target one Rack-6 server. The 25 Gbps receiver
/// downlink backpressures through PFC into the deep-buffered
/// receiver-side DCI switch, whose queue oscillates with the ECN duty
/// cycle.
pub fn experiment3(algo: Algo, duration: Time) -> MotivationResult {
    let (topo, cfg) = build(
        algo,
        duration,
        TwoDcParams {
            servers_per_leaf: 4,
            spines_per_dc: 2,
            ..TwoDcParams::default()
        },
    );
    let receiver = topo.server(6, 0);
    let dci_links = topo.dci_to_spine[1].clone();
    let mut sim = Simulator::new(topo.net, cfg, algo.factory());
    let mut flows = Vec::new();
    for i in 0..4 {
        flows.push(sim.add_flow(topo.servers[0][0][i], receiver, 2_000_000_000, MS));
    }
    for i in 0..4 {
        flows.push(sim.add_flow(topo.servers[0][3][i], receiver, 2_000_000_000, MS));
    }
    finish(
        sim,
        MonitorSpec {
            queues: dci_links.clone(),
            flows,
            pfc_switches: vec![topo.dcis[1]],
            pfq_link: Some(dci_links[0]),
            fault_links: Vec::new(),
        },
    )
}

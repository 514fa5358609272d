//! Figs. 7–10: convergence and DCI buffer occupancy of MLCC.
//!
//! Four cross-DC flows share a bottleneck either in the sender-side
//! datacenter (a 50 Gbps leaf uplink, Fig. 7) or in the receiver-side
//! datacenter (two 25 Gbps server downlinks shared two-ways, fair share
//! 12.5 Gbps — the setup behind Figs. 8 and 9). Flows start either
//! simultaneously or staggered.

use mlcc_core::MlccParams;
use netsim::monitor::MonitorSpec;
use netsim::prelude::*;
use simstats::jain_index;

use crate::algo::Algo;

/// What a convergence run produces.
pub struct ConvergenceResult {
    /// Per-flow throughput series (bits/s) at the receiver.
    pub flow_throughput: Vec<Vec<(Time, f64)>>,
    /// Total queue at the receiver-side DCI egresses (bytes).
    pub dci_queue: Vec<(Time, u64)>,
    /// Per-flow PFQ occupancy snapshots (flow, bytes) over time.
    pub pfq_series: Vec<(Time, Vec<(FlowId, u64)>)>,
    /// Jain fairness index over the last quarter of the run.
    pub jain_final: f64,
    /// Mean per-flow throughput over the last quarter (bits/s).
    pub final_rates: Vec<f64>,
    pub pfc_pauses: u64,
}

/// Where the bottleneck sits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bottleneck {
    /// Fig. 7: a 50 Gbps sender-side leaf uplink shared by 4 × 25 Gbps.
    SenderSide,
    /// Figs. 8/9: receiver 25 Gbps downlinks shared 2-way (12.5 G fair).
    ReceiverSide,
}

/// The four-flow fabric for `bottleneck` (4 servers per leaf, one spine
/// per DC) loaded into a simulator running `algo` under `cfg` — MLCC
/// with `mlcc_params`. Returns the simulator, the four (source,
/// destination) pairs and the receiver-side DCI egress links.
fn setup(
    algo: Algo,
    mlcc_params: MlccParams,
    bottleneck: Bottleneck,
    cfg: SimConfig,
) -> (Simulator, [(NodeId, NodeId); 4], Vec<LinkId>) {
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 4,
        spines_per_dc: 1,
        fabric_link: match bottleneck {
            Bottleneck::SenderSide => 50 * GBPS,
            Bottleneck::ReceiverSide => 100 * GBPS,
        },
        ..TwoDcParams::default()
    });
    let pairs = match bottleneck {
        // 4 servers of rack 1 → 4 servers of rack 5.
        Bottleneck::SenderSide => [0, 1, 2, 3].map(|i| (topo.server(1, i), topo.server(5, i))),
        // rack1 s0,s1 → rack5 s0; rack2 s0,s1 → rack5 s1.
        Bottleneck::ReceiverSide => [(1, 0, 0), (1, 1, 0), (2, 0, 1), (2, 1, 1)]
            .map(|(rack, s, d)| (topo.server(rack, s), topo.server(5, d))),
    };
    let dci_links = topo.dci_to_spine[1].clone();
    let factory = if algo == Algo::Mlcc {
        Algo::mlcc_with(mlcc_params)
    } else {
        algo.factory()
    };
    (Simulator::new(topo.net, cfg, factory), pairs, dci_links)
}

/// Run the 4-flow convergence scenario.
pub fn run(
    algo: Algo,
    bottleneck: Bottleneck,
    simultaneous: bool,
    duration: Time,
    mlcc_params: MlccParams,
) -> ConvergenceResult {
    let cfg = SimConfig {
        stop_time: duration,
        monitor_interval: 50 * US,
        dci: algo.dci_features(),
        seed: 1,
        ..SimConfig::default()
    };
    let (mut sim, pairs, dci_links) = setup(algo, mlcc_params, bottleneck, cfg);
    let mut flows = Vec::new();
    for (i, (src, dst)) in pairs.into_iter().enumerate() {
        let start = if simultaneous {
            MS
        } else {
            MS + i as Time * 2 * MS
        };
        // Long-running flows: effectively infinite for the window.
        flows.push(sim.add_flow(src, dst, 4_000_000_000, start));
    }
    sim.set_monitor(MonitorSpec {
        queues: dci_links.clone(),
        flows: flows.clone(),
        pfq_link: Some(dci_links[0]),
    });
    sim.run();

    let flow_throughput: Vec<Vec<(Time, f64)>> = (0..flows.len())
        .map(|i| sim.out.monitor.flow_throughput(i))
        .collect();
    let dci_queue = sim.out.monitor.queue_sum_series();
    let pfq_series = sim
        .out
        .monitor
        .samples
        .iter()
        .map(|s| (s.t, s.pfq_per_flow.clone()))
        .collect();
    // Fairness over the tail of the run.
    let final_rates: Vec<f64> = flow_throughput
        .iter()
        .map(|series| {
            let n = series.len();
            let tail = &series[n - n / 4..];
            tail.iter().map(|x| x.1).sum::<f64>() / tail.len().max(1) as f64
        })
        .collect();
    ConvergenceResult {
        jain_final: jain_index(&final_rates),
        final_rates,
        flow_throughput,
        dci_queue,
        pfq_series,
        pfc_pauses: sim.total_pfc_pauses(),
    }
}

/// Fig. 10 variant: finite staggered flows so the queue drains as they
/// complete. Returns the DCI queue series and how many flows completed.
pub fn sequential_burst(algo: Algo, mlcc_params: MlccParams) -> (Vec<(Time, u64)>, usize) {
    let cfg = SimConfig {
        stop_time: 120 * MS,
        monitor_interval: 100 * US,
        dci: algo.dci_features(),
        seed: 2,
        ..SimConfig::default()
    };
    let (mut sim, pairs, dci_links) = setup(algo, mlcc_params, Bottleneck::ReceiverSide, cfg);
    for (i, (src, dst)) in pairs.into_iter().enumerate() {
        // 60 MB each, staggered 5 ms apart: later flows end later, so
        // the queue steps down as flows drain.
        sim.add_flow(src, dst, 60_000_000, MS + i as Time * 5 * MS);
    }
    sim.set_monitor(MonitorSpec {
        queues: dci_links,
        flows: Vec::new(),
        pfq_link: None,
    });
    sim.run_until_flows_complete();
    (sim.out.monitor.queue_sum_series(), sim.out.fcts.len())
}

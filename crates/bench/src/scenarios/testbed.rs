//! Fig. 16: the testbed experiment, reproduced on a simulated dumbbell.
//!
//! The paper's physical testbed (2 × P4 ToR, 2 × DCI, 4 servers with
//! 100 Gbps NICs, XDP-based MLCC) is replaced by the same dumbbell in
//! `netsim` — see DESIGN.md's substitution table. Hadoop-mix traffic runs
//! both within each side and across the long haul; the reported quantity
//! is the DCQCN→MLCC average-FCT improvement.

use netsim::prelude::*;
use workload::TrafficMix;

use super::{run_flows, two_sided_requests, RunSummary};
use crate::algo::Algo;

/// Run the dumbbell testbed workload for one algorithm.
pub fn run(algo: Algo, load: f64, duration: Time, seed: u64) -> RunSummary {
    let params = DumbbellParams::default();
    let topo = DumbbellTopology::build(params);
    let cfg = SimConfig {
        stop_time: duration + 100 * MS,
        monitor_interval: 0,
        dci: algo.dci_features(),
        seed,
        ..SimConfig::default()
    };
    // Cross traffic, both directions, at half the intra load (the links
    // are all 100 Gbps here, so the per-sender definition is fine).
    let requests = two_sided_requests(
        seed,
        params.nic_link,
        &[topo.servers[0].clone(), topo.servers[1].clone()],
        load,
        load / 2.0,
        TrafficMix::Hadoop,
        duration,
    );
    run_flows(Simulator::new(topo.net, cfg, algo.factory()), &requests)
}

//! Figs. 11–15: large-scale mixed-workload simulations.
//!
//! Two traffic classes share the Fig. 1 fabric: intra-DC flows inside
//! each datacenter (load as a fraction of server NIC capacity) and
//! cross-DC flows in both directions (load as a fraction of the
//! long-haul capacity, which is what makes 20–50% feasible against a
//! single 100 Gbps interconnect).

use netsim::prelude::*;
use workload::TrafficMix;

use super::{run_flows, two_sided_requests, RunSummary};
use crate::algo::Algo;

/// Configuration of one large-scale run.
#[derive(Clone, Copy, Debug)]
pub struct LargeScaleConfig {
    pub servers_per_leaf: usize,
    /// Window during which new flows arrive.
    pub duration: Time,
    /// Extra drain time allowed after the arrival window.
    pub drain: Time,
    /// Intra-DC load as a fraction of aggregate server capacity.
    pub intra_load: f64,
    /// Cross-DC load as a fraction of long-haul capacity (per direction).
    pub cross_load: f64,
    pub mix: TrafficMix,
    pub long_haul_delay: Time,
    pub seed: u64,
}

impl LargeScaleConfig {
    /// Heavy load (Fig. 11): 50% intra + 20% cross.
    pub fn heavy(mix: TrafficMix) -> Self {
        LargeScaleConfig {
            servers_per_leaf: 2,
            duration: 20 * MS,
            drain: 150 * MS,
            intra_load: 0.5,
            cross_load: 0.2,
            mix,
            long_haul_delay: 3 * MS,
            seed: 7,
        }
    }

    /// Light load (Fig. 12): 30% intra + 10% cross.
    pub fn light(mix: TrafficMix) -> Self {
        LargeScaleConfig {
            intra_load: 0.3,
            cross_load: 0.1,
            ..LargeScaleConfig::heavy(mix)
        }
    }

    /// The `--full` variant: 8 servers per leaf instead of 2 (64
    /// servers in all; the paper's fabric has 32 per leaf) and a 40 ms
    /// arrival window instead of 20 ms.
    pub fn full(mut self) -> Self {
        self.servers_per_leaf = 8;
        self.duration = 40 * MS;
        self
    }
}

/// Run one algorithm over one workload configuration.
pub fn run(algo: Algo, cfg: LargeScaleConfig) -> RunSummary {
    run_custom(algo.factory(), algo.dci_features(), cfg)
}

/// Run an arbitrary factory/DCI-feature combination (ablations).
pub fn run_custom(
    factory: Box<dyn CcFactory>,
    dci: DciFeatures,
    cfg: LargeScaleConfig,
) -> RunSummary {
    let params = TwoDcParams {
        servers_per_leaf: cfg.servers_per_leaf,
        long_haul_delay: cfg.long_haul_delay,
        ..TwoDcParams::default()
    };
    let topo = TwoDcTopology::build(params);
    let sim_cfg = SimConfig {
        stop_time: cfg.duration + cfg.drain,
        monitor_interval: 0,
        dci,
        seed: cfg.seed,
        ..SimConfig::default()
    };
    let dcs = [topo.dc_servers(0), topo.dc_servers(1)];
    // Translate "fraction of long-haul" into the generator's per-sender
    // load definition (both DCs have the same number of senders).
    let cross_load = cfg.cross_load * params.long_haul_link as f64
        / (dcs[0].len() as f64 * params.server_link as f64);
    let requests = two_sided_requests(
        cfg.seed,
        params.server_link,
        &dcs,
        cfg.intra_load,
        cross_load.min(1.0),
        cfg.mix,
        cfg.duration,
    );
    run_flows(Simulator::new(topo.net, sim_cfg, factory), &requests)
}

//! Figs. 11–15: large-scale mixed-workload simulations.
//!
//! Two traffic classes share the Fig. 1 fabric: intra-DC flows inside
//! each datacenter (load as a fraction of server NIC capacity) and
//! cross-DC flows in both directions (load as a fraction of the
//! long-haul capacity, which is what makes 20–50% feasible against a
//! single 100 Gbps interconnect).

use netsim::prelude::*;
use simstats::{TextTable, SIZE_BUCKETS};
use workload::TrafficMix;

use super::{run_flows, run_parallel, two_sided_requests, RunSummary};
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

/// Every algorithm on every mix (`TrafficMix::ALL × Algo::ALL`), the
/// job grid of Figs. 11, 12 and 15.
pub struct MixGrid(Vec<(TrafficMix, Algo, RunSummary)>);

impl MixGrid {
    /// Run the grid in parallel, configuring each cell by its mix.
    pub fn run(cfg: impl Fn(TrafficMix) -> LargeScaleConfig) -> Self {
        let mut jobs = Vec::new();
        for mix in TrafficMix::ALL {
            for algo in Algo::ALL {
                let c = cfg(mix);
                jobs.push(move || (mix, algo, run(algo, c)));
            }
        }
        MixGrid(run_parallel(jobs))
    }

    /// The run of `algo` on `mix`.
    pub fn get(&self, mix: TrafficMix, algo: Algo) -> &RunSummary {
        let cell = self.0.iter().find(|(m, a, _)| *m == mix && *a == algo);
        &cell.expect("the grid covers every cell").2
    }

    /// One row per algorithm on `mix`, in `Algo::ALL` order: its name,
    /// then `cells` of its run.
    pub fn table(
        &self,
        mix: TrafficMix,
        headers: Vec<&str>,
        cells: impl Fn(&RunSummary) -> Vec<String>,
    ) -> TextTable {
        let mut t = TextTable::new(headers);
        for algo in Algo::ALL {
            let mut row = vec![algo.name().to_string()];
            row.extend(cells(self.get(mix, algo)));
            t.row(row);
        }
        t
    }

    /// The average-FCT table of Figs. 12 and 15.
    pub fn avg_table(&self, mix: TrafficMix) -> TextTable {
        let headers = vec!["algorithm", "intra avg", "cross avg", "done"];
        self.table(mix, headers, |r| {
            vec![
                format!("{:.1}", r.breakdown.intra_dc.avg_us),
                format!("{:.1}", r.breakdown.cross_dc.avg_us),
                format!("{}/{}", r.flows_completed, r.flows_total),
            ]
        })
    }

    /// MLCC's average-FCT reduction against `base` on `mix`, per class,
    /// as one comment line.
    pub fn vs_line(&self, mix: TrafficMix, base: Algo) -> String {
        let (m, b) = (
            &self.get(mix, Algo::Mlcc).breakdown,
            &self.get(mix, base).breakdown,
        );
        format!(
            "# MLCC vs {} ({}): intra {:+.1}%  cross {:+.1}%",
            base.name(),
            mix.name(),
            (1.0 - m.intra_dc.avg_us / b.intra_dc.avg_us) * 100.0,
            (1.0 - m.cross_dc.avg_us / b.cross_dc.avg_us) * 100.0,
        )
    }
}

/// Every algorithm on one configuration, in `Algo::ALL` order, run in
/// parallel.
pub fn run_algos(cfg: LargeScaleConfig) -> Vec<(Algo, RunSummary)> {
    run_parallel(
        Algo::ALL
            .map(|algo| move || (algo, run(algo, cfg)))
            .to_vec(),
    )
}

/// The 99.9th-percentile FCT (µs) of each run by flow size, as
/// `p (count)` per bucket, for the intra-DC and then the cross-DC class:
/// the tables of Figs. 13 and 14.
pub fn tail_by_size(runs: &[(Algo, RunSummary)]) -> [(&'static str, TextTable); 2] {
    let mut headers = vec!["algorithm"];
    headers.extend(SIZE_BUCKETS.iter().map(|&(_, label)| label));
    let table = |cross: bool| {
        let mut t = TextTable::new(headers.clone());
        for (algo, r) in runs {
            let b = &r.breakdown;
            let buckets = if cross {
                &b.cross_by_size
            } else {
                &b.intra_by_size
            };
            let mut row = vec![algo.name().to_string()];
            row.extend(buckets.iter().map(|&(_, p, n)| match n {
                0 => "-".to_string(),
                _ => format!("{p:.0} ({n})"),
            }));
            t.row(row);
        }
        t
    };
    [("intra-DC", table(false)), ("cross-DC", table(true))]
}

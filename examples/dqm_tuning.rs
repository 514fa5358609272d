//! DQM parameter exploration: how θ (the drain-time budget) and D_t (the
//! target queueing delay) shape the receiver-side DCI queue.
//!
//! ```sh
//! cargo run --release --example dqm_tuning
//! ```

use mlcc_core::{MlccFactory, MlccParams};
use netsim::monitor::MonitorSpec;
use netsim::prelude::*;

/// Run 4 cross-DC flows into two shared receivers and report the DCI
/// queue trajectory statistics.
fn run(params: MlccParams) -> (f64, f64) {
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 4,
        spines_per_dc: 1,
        ..TwoDcParams::default()
    });
    let dci_links = topo.dci_to_spine[1].clone();
    let cfg = SimConfig {
        stop_time: 80 * MS,
        monitor_interval: 100 * US,
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let srcs = [
        topo.server(1, 0),
        topo.server(1, 1),
        topo.server(2, 0),
        topo.server(2, 1),
    ];
    let dsts = [
        topo.server(5, 0),
        topo.server(5, 0),
        topo.server(5, 1),
        topo.server(5, 1),
    ];
    let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::new(params)));
    for i in 0..4 {
        sim.add_flow(srcs[i], dsts[i], 1 << 32, MS);
    }
    sim.set_monitor(MonitorSpec {
        queues: dci_links,
        flows: Vec::new(),
        pfq_link: None,
    });
    sim.run();
    let series = sim.out.monitor.queue_sum_series();
    let peak = series.iter().map(|x| x.1).max().unwrap_or(0) as f64 / 1e6;
    let tail = {
        let n = series.len();
        let t = &series[n - n / 5..];
        t.iter().map(|x| x.1).sum::<u64>() as f64 / t.len() as f64 / 1e6
    };
    (peak, tail)
}

fn main() {
    println!("theta_ms,d_t_ms,peak_mb,settled_mb");
    let mut settled_by_dt = Vec::new();
    for theta_ms in [6u64, 18, 30] {
        for dt_ms in [1u64, 3] {
            let params = MlccParams {
                theta: theta_ms * MS,
                d_t: dt_ms * MS,
                ..MlccParams::default()
            };
            let (peak, tail) = run(params);
            println!("{theta_ms},{dt_ms},{peak:.1},{tail:.2}");
            if theta_ms == 18 {
                settled_by_dt.push((dt_ms, tail));
            }
        }
    }
    // A larger target delay should settle to a larger standing queue.
    settled_by_dt.sort_by_key(|&(dt, _)| dt);
    println!(
        "=> at theta=18ms, settled queue grows with D_t: {:?}",
        settled_by_dt
    );
}

//! Cross-DC vs intra-DC fairness: the paper's motivation, side by side.
//!
//! Four intra-DC flows and four cross-DC flows share a sender-side
//! bottleneck. Under DCQCN the long-RTT cross flows squeeze the intra
//! flows; under MLCC the near-source loop reacts within an intra-DC RTT
//! and the mix shares fairly.
//!
//! ```sh
//! cargo run --release --example cross_dc_fairness
//! ```

use cc_baselines::DcqcnFactory;
use mlcc_core::MlccFactory;
use netsim::cc::CcFactory;
use netsim::monitor::MonitorSpec;
use netsim::prelude::*;
use simstats::jain_index;

fn run(name: &str, factory: Box<dyn CcFactory>, dci: DciFeatures) -> (f64, f64, f64) {
    // Single spine → the rack-1 uplink is a genuine 2:1 bottleneck.
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 8,
        spines_per_dc: 1,
        ..TwoDcParams::default()
    });
    let cfg = SimConfig {
        stop_time: 30 * MS,
        monitor_interval: 100 * US,
        dci,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, factory);
    let mut flows = Vec::new();
    for i in 0..4 {
        flows.push(sim.add_flow(topo.servers[0][0][i], topo.servers[0][1][i], 1 << 30, MS));
    }
    for i in 0..4 {
        flows.push(sim.add_flow(
            topo.servers[0][0][4 + i],
            topo.servers[1][0][i],
            1 << 30,
            MS,
        ));
    }
    sim.set_monitor(MonitorSpec {
        queues: Vec::new(),
        flows: flows.clone(),
        pfq_link: None,
    });
    sim.run();
    // Average per-flow goodput over the second half of the run.
    let rates: Vec<f64> = (0..8)
        .map(|i| {
            let th = sim.out.monitor.flow_throughput(i);
            let tail = &th[th.len() / 2..];
            tail.iter().map(|x| x.1).sum::<f64>() / tail.len() as f64
        })
        .collect();
    let intra: f64 = rates[..4].iter().sum::<f64>() / 4.0;
    let cross: f64 = rates[4..].iter().sum::<f64>() / 4.0;
    let jain = jain_index(&rates);
    println!(
        "{name:8}  intra {:>8}  cross {:>8}  Jain {:.3}",
        fmt_bw(intra),
        fmt_bw(cross),
        jain
    );
    (intra, cross, jain)
}

fn main() {
    println!("8 flows over a 100 Gbps sender-side bottleneck (fair share 12.5 Gbps):");
    let (_, _, jain_dcqcn) = run("DCQCN", Box::new(DcqcnFactory), DciFeatures::baseline());
    let (mi, mc, jain_mlcc) = run(
        "MLCC",
        Box::new(MlccFactory::default()),
        DciFeatures::mlcc(),
    );

    assert!(
        jain_mlcc > jain_dcqcn,
        "MLCC must be fairer than DCQCN across the RTT mix"
    );
    assert!(mi > 0.0 && mc > 0.0);
    println!("=> MLCC's micro loops equalize flows that differ 300x in RTT");
}

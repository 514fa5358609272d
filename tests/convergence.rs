//! Integration: every algorithm shares a bottleneck fairly between two
//! long-lived equal-RTT flows and completes its transfers.

use cc_baselines::{DcqcnFactory, HpccFactory, PowerTcpFactory, TimelyFactory};
use mlcc_core::MlccFactory;
use netsim::cc::CcFactory;
use netsim::monitor::MonitorSpec;
use netsim::prelude::*;
use simstats::jain_index;

/// Two senders → one receiver through a single switch; measure tail
/// throughput fairness and utilization.
fn two_flow_share(factory: Box<dyn CcFactory>) -> (f64, f64) {
    let mut b = NetBuilder::new();
    let h0 = b.add_host();
    let h1 = b.add_host();
    let h2 = b.add_host();
    let s = b.add_switch(22_000_000, PfcConfig::dc_switch());
    for h in [h0, h1, h2] {
        b.connect(h, s, 10 * GBPS, US, LinkOpts::default());
    }
    let cfg = SimConfig {
        stop_time: 20 * MS,
        monitor_interval: 100 * US,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(b.build(), cfg, factory);
    let f0 = sim.add_flow(h0, h1, 1 << 30, 0);
    let f1 = sim.add_flow(h2, h1, 1 << 30, MS);
    sim.set_monitor(MonitorSpec {
        queues: Vec::new(),
        flows: vec![f0, f1],
        pfq_link: None,
    });
    sim.run();
    let rates: Vec<f64> = (0..2)
        .map(|i| {
            let th = sim.out.monitor.flow_throughput(i);
            let tail = &th[th.len() / 2..];
            tail.iter().map(|x| x.1).sum::<f64>() / tail.len() as f64
        })
        .collect();
    (jain_index(&rates), rates.iter().sum())
}

#[test]
fn dcqcn_two_flow_fairness() {
    let (jain, total) = two_flow_share(Box::new(DcqcnFactory));
    assert!(jain > 0.85, "jain {jain}");
    assert!(total > 0.5 * 10e9, "total {total:.3e}");
}

#[test]
fn timely_two_flow_fairness() {
    // TIMELY famously has no unique fairness fixed point (Zhu et al.,
    // "ECN or Delay", CoNEXT 2016): gradient-based control admits many
    // equilibria. We only require no starvation and decent utilization.
    let (jain, total) = two_flow_share(Box::new(TimelyFactory));
    assert!(jain > 0.55, "jain {jain}");
    assert!(total > 0.5 * 10e9, "total {total:.3e}");
}

#[test]
fn hpcc_two_flow_fairness() {
    let (jain, total) = two_flow_share(Box::new(HpccFactory));
    assert!(jain > 0.9, "jain {jain}");
    assert!(total > 0.6 * 10e9, "total {total:.3e}");
}

#[test]
fn powertcp_two_flow_fairness() {
    let (jain, total) = two_flow_share(Box::new(PowerTcpFactory));
    assert!(jain > 0.9, "jain {jain}");
    assert!(total > 0.6 * 10e9, "total {total:.3e}");
}

#[test]
fn mlcc_two_flow_fairness_intra_dc() {
    // Intra-DC MLCC runs the short end-to-end INT loop.
    let (jain, total) = two_flow_share(Box::new(MlccFactory::default()));
    assert!(jain > 0.9, "jain {jain}");
    assert!(total > 0.6 * 10e9, "total {total:.3e}");
}

//! A miniature version of the paper's large-scale evaluation: WebSearch
//! traffic at moderate load through the two-DC fabric, DCQCN vs MLCC,
//! reporting average and tail FCT per traffic class.
//!
//! ```sh
//! cargo run --release --example fct_sweep
//! ```

use cc_baselines::DcqcnFactory;
use mlcc_core::MlccFactory;
use netsim::cc::CcFactory;
use netsim::prelude::*;
use simstats::{FctBreakdown, TextTable};
use workload::{TrafficClass, TrafficGen, TrafficMix};

fn run(factory: Box<dyn CcFactory>, dci: DciFeatures) -> FctBreakdown {
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        ..TwoDcParams::default()
    });
    let cfg = SimConfig {
        stop_time: 150 * MS,
        dci,
        seed: 42,
        ..SimConfig::default()
    };
    let window = 15 * MS;
    let mut gen = TrafficGen::new(42, 25 * GBPS);
    let mut reqs = Vec::new();
    for dc in 0..2 {
        let servers = topo.dc_servers(dc);
        reqs.extend(gen.generate(
            &TrafficClass {
                senders: servers.clone(),
                receivers: servers,
                load: 0.4,
                mix: TrafficMix::WebSearch,
            },
            0,
            window,
        ));
    }
    // Cross traffic at 10% of the long-haul capacity, one class per
    // direction.
    for (a, b) in [(0usize, 1usize), (1, 0)] {
        let senders = topo.dc_servers(a);
        let load = 0.1 * 100.0 / (senders.len() as f64 * 25.0);
        reqs.extend(gen.generate(
            &TrafficClass {
                senders,
                receivers: topo.dc_servers(b),
                load,
                mix: TrafficMix::WebSearch,
            },
            0,
            window,
        ));
    }
    let mut sim = Simulator::new(topo.net, cfg, factory);
    for r in &reqs {
        sim.add_flow(r.src, r.dst, r.size_bytes, r.start);
    }
    sim.run_until_flows_complete();
    println!(
        "  ({} flows, {} completed, {} PFC pauses)",
        reqs.len(),
        sim.out.fcts.len(),
        sim.total_pfc_pauses()
    );
    FctBreakdown::new(&sim.out.fcts)
}

fn main() {
    println!("running DCQCN…");
    let dcqcn = run(Box::new(DcqcnFactory), DciFeatures::baseline());
    println!("running MLCC…");
    let mlcc = run(Box::new(MlccFactory::default()), DciFeatures::mlcc());

    let mut t = TextTable::new(vec![
        "class",
        "metric",
        "DCQCN (µs)",
        "MLCC (µs)",
        "MLCC wins",
    ]);
    for (class, d, m) in [
        ("intra-DC", &dcqcn.intra_dc, &mlcc.intra_dc),
        ("cross-DC", &dcqcn.cross_dc, &mlcc.cross_dc),
    ] {
        t.row(vec![
            class.to_string(),
            "avg".into(),
            format!("{:.1}", d.avg_us),
            format!("{:.1}", m.avg_us),
            format!("{}", m.avg_us < d.avg_us),
        ]);
        t.row(vec![
            class.to_string(),
            "p99.9".into(),
            format!("{:.1}", d.p999_us),
            format!("{:.1}", m.p999_us),
            format!("{}", m.p999_us < d.p999_us),
        ]);
    }
    println!("{}", t.render());
}

//! Hybrid compatibility study (§5 / conclusion): MLCC's receiver loops
//! governing a legacy DCQCN sender.
//!
//! Three configurations over the heavy-load Hadoop workload:
//! * plain DCQCN (no MLCC anywhere),
//! * DCQCN + MLCC loops (PFQ/credit at the DCI, DQM ceiling on cross
//!   senders, DCQCN logic otherwise),
//! * full MLCC.

use cc_baselines::DcqcnFactory;
use mlcc_bench::scenarios::large_scale::{run, run_custom, LargeScaleConfig};
use mlcc_bench::scenarios::{run_parallel, RunSummary};
use mlcc_bench::Algo;
use mlcc_core::{HybridFactory, MlccParams};
use netsim::config::DciFeatures;
use simstats::TextTable;
use workload::TrafficMix;

fn main() {
    let cfg = LargeScaleConfig::heavy(TrafficMix::Hadoop);
    let jobs: Vec<Box<dyn FnOnce() -> (&'static str, RunSummary) + Send>> = vec![
        Box::new(move || ("DCQCN", run(Algo::Dcqcn, cfg))),
        Box::new(move || {
            let summary = run_custom(
                Box::new(HybridFactory::new(
                    DcqcnFactory::default(),
                    MlccParams::default(),
                )),
                DciFeatures {
                    // The legacy sender ignores Switch-INT, so the
                    // near-source loop stays off.
                    near_source_enabled: false,
                    ..DciFeatures::mlcc()
                },
                cfg,
            );
            ("DCQCN + MLCC loops", summary)
        }),
        Box::new(move || ("MLCC", run(Algo::Mlcc, cfg))),
    ];
    let results = run_parallel(jobs);

    println!("# Hybrid: legacy DCQCN senders under MLCC's DCI loops (Hadoop, heavy load)");
    let mut t = TextTable::new(vec![
        "configuration",
        "intra avg (µs)",
        "cross avg (µs)",
        "cross p99.9",
        "pfc",
        "done",
    ]);
    for (label, r) in &results {
        t.row(vec![
            label.to_string(),
            format!("{:.1}", r.breakdown.intra_dc.avg_us),
            format!("{:.1}", r.breakdown.cross_dc.avg_us),
            format!("{:.1}", r.breakdown.cross_dc.p999_us),
            format!("{}", r.pfc_pauses),
            format!("{}/{}", r.flows_completed, r.flows_total),
        ]);
    }
    println!("{}", t.render());

    let plain = &results[0].1;
    let hybrid = &results[1].1;
    let full = &results[2].1;
    for (label, r) in &results {
        assert!(r.completed_all(), "{label} completes");
    }
    // The hybrid must not break DCQCN, and adding the loops should move
    // at least one headline metric toward full MLCC.
    let improves_intra = hybrid.breakdown.intra_dc.avg_us < plain.breakdown.intra_dc.avg_us;
    let improves_tail = hybrid.breakdown.cross_dc.p999_us < plain.breakdown.cross_dc.p999_us;
    let reduces_pfc = hybrid.pfc_pauses <= plain.pfc_pauses;
    println!(
        "# hybrid vs plain DCQCN: intra improved {improves_intra}, cross tail improved {improves_tail}, pfc {} → {}",
        plain.pfc_pauses, hybrid.pfc_pauses
    );
    assert!(
        improves_intra || improves_tail || reduces_pfc,
        "MLCC loops must help a legacy sender somewhere"
    );
    assert!(
        full.breakdown.intra_dc.avg_us <= hybrid.breakdown.intra_dc.avg_us * 1.1,
        "full MLCC should be at least comparable to the hybrid on intra"
    );
    println!("SHAPE OK: MLCC's loops compose with a legacy end-to-end CCA");
}

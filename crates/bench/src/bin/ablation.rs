//! Ablation study — which of MLCC's three loops buys what?
//!
//! Not a paper figure, but the design-choice study DESIGN.md calls for:
//! the large-scale heavy-load Hadoop scenario is rerun with each MLCC
//! mechanism removed in turn:
//!
//! * **full** — all loops on (the Fig. 11 configuration);
//! * **no near-source** — the sender-side DCI never emits Switch-INT, so
//!   the sender's only brake is R̄_DQM (one RTT_C old);
//! * **no DQM** — the receiver never advertises R̄_DQM, so nothing
//!   manages the DCI queue; cross senders run at the near-source rate
//!   alone;
//! * **no PFQ/credit** — the receiver-side DCI behaves like a plain FIFO
//!   deep-buffer switch (credit stamps never return, the receiver-driven
//!   loop is inert);
//! * **DCQCN** — baseline for reference.

use mlcc_bench::scenarios::large_scale::{run, run_custom, LargeScaleConfig};
use mlcc_bench::scenarios::{run_parallel, RunSummary};
use mlcc_bench::Algo;
use mlcc_core::MlccParams;
use netsim::config::DciFeatures;
use simstats::TextTable;
use workload::TrafficMix;

fn main() {
    let cfg = LargeScaleConfig::heavy(TrafficMix::Hadoop);
    let no_dqm = MlccParams {
        dqm_enabled: false,
        ..MlccParams::default()
    };
    let variants = [
        ("MLCC (full)", MlccParams::default(), DciFeatures::mlcc()),
        (
            "no near-source",
            MlccParams::default(),
            DciFeatures {
                near_source_enabled: false,
                ..DciFeatures::mlcc()
            },
        ),
        ("no DQM", no_dqm, DciFeatures::mlcc()),
        (
            "no PFQ/credit",
            MlccParams::default(),
            DciFeatures {
                pfq_enabled: false,
                ..DciFeatures::mlcc()
            },
        ),
    ];
    let mut jobs: Vec<Box<dyn FnOnce() -> (&'static str, RunSummary) + Send>> = Vec::new();
    for (label, params, dci) in variants {
        jobs.push(Box::new(move || {
            (label, run_custom(Algo::mlcc_with(params), dci, cfg))
        }));
    }
    jobs.push(Box::new(move || ("DCQCN", run(Algo::Dcqcn, cfg))));
    let results = run_parallel(jobs);

    println!("# MLCC ablation — Hadoop heavy load (50% intra + 20% cross)");
    let mut t = TextTable::new(vec![
        "variant",
        "intra avg (µs)",
        "cross avg (µs)",
        "intra p99.9",
        "cross p99.9",
        "pfc",
        "done",
    ]);
    for (label, r) in &results {
        t.row(vec![
            label.to_string(),
            format!("{:.1}", r.breakdown.intra_dc.avg_us),
            format!("{:.1}", r.breakdown.cross_dc.avg_us),
            format!("{:.1}", r.breakdown.intra_dc.p999_us),
            format!("{:.1}", r.breakdown.cross_dc.p999_us),
            format!("{}", r.pfc_pauses),
            format!("{}/{}", r.flows_completed, r.flows_total),
        ]);
    }
    println!("{}", t.render());

    let by = |label: &str| &results.iter().find(|(l, _)| *l == label).unwrap().1;
    let full = by("MLCC (full)");
    for (label, r) in &results {
        assert!(r.completed_all(), "{label} must complete");
    }
    // Each removed loop must cost something relative to the full design
    // on at least one of the headline metrics.
    for label in ["no near-source", "no DQM", "no PFQ/credit"] {
        let v = by(label);
        let worse_intra = v.breakdown.intra_dc.avg_us > full.breakdown.intra_dc.avg_us;
        let worse_cross = v.breakdown.cross_dc.avg_us > full.breakdown.cross_dc.avg_us;
        let worse_tail = v.breakdown.intra_dc.p999_us > full.breakdown.intra_dc.p999_us
            || v.breakdown.cross_dc.p999_us > full.breakdown.cross_dc.p999_us;
        println!(
            "# {label}: worse intra avg {worse_intra}, worse cross avg {worse_cross}, worse tail {worse_tail}"
        );
        assert!(
            worse_intra || worse_cross || worse_tail,
            "{label}: removing a loop should cost something"
        );
    }
    println!("SHAPE OK: every MLCC loop contributes to at least one headline metric");
}

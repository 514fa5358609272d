//! Fig. 11 — heavy-load large-scale simulation: average FCT of intra-DC
//! and cross-DC traffic for the five algorithms, under WebSearch and
//! Hadoop mixes (50% intra + 20% cross load).
//!
//! Pass `--full` for the larger topology (slower).

use mlcc_bench::scenarios::large_scale::{LargeScaleConfig, MixGrid};
use mlcc_bench::Algo;
use workload::TrafficMix;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let grid = MixGrid::run(|mix| {
        let cfg = LargeScaleConfig::heavy(mix);
        if full {
            cfg.full()
        } else {
            cfg
        }
    });

    for mix in TrafficMix::ALL {
        println!("# Fig 11 ({:?} + heavy load): average FCT (µs)", mix.name());
        let headers = vec![
            "algorithm",
            "intra avg",
            "cross avg",
            "intra p99.9",
            "cross p99.9",
            "done",
            "pfc",
        ];
        let t = grid.table(mix, headers, |r| {
            vec![
                format!("{:.1}", r.breakdown.intra_dc.avg_us),
                format!("{:.1}", r.breakdown.cross_dc.avg_us),
                format!("{:.1}", r.breakdown.intra_dc.p999_us),
                format!("{:.1}", r.breakdown.cross_dc.p999_us),
                format!("{}/{}", r.flows_completed, r.flows_total),
                format!("{}", r.pfc_pauses),
            ]
        });
        println!("{}", t.render());
    }

    // Shape checks: MLCC improves the intra-DC average FCT over every
    // baseline on both mixes (the paper's headline: up to 46% / 18%).
    for mix in TrafficMix::ALL {
        let mlcc = grid.get(mix, Algo::Mlcc);
        for b in Algo::BASELINES {
            println!("{}", grid.vs_line(mix, b));
            assert!(
                mlcc.breakdown.intra_dc.avg_us < grid.get(mix, b).breakdown.intra_dc.avg_us,
                "{}: MLCC must beat {} on intra-DC avg FCT",
                mix.name(),
                b.name()
            );
        }
        assert!(
            mlcc.flows_completed == mlcc.flows_total,
            "MLCC must complete all flows"
        );
    }
    println!("SHAPE OK: MLCC improves intra-DC average FCT over all baselines on both mixes");
}

//! Fig. 11 — heavy-load large-scale simulation: average FCT of intra-DC
//! and cross-DC traffic for the five algorithms, under WebSearch and
//! Hadoop mixes (50% intra + 20% cross load).
//!
//! Pass `--full` for the larger topology (slower).

use mlcc_bench::scenarios::large_scale::{run, LargeScaleConfig};
use mlcc_bench::scenarios::run_parallel;
use mlcc_bench::Algo;
use simstats::TextTable;
use workload::TrafficMix;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let mut jobs = Vec::new();
    for mix in TrafficMix::ALL {
        for algo in Algo::ALL {
            let cfg = if full {
                LargeScaleConfig::heavy(mix).full()
            } else {
                LargeScaleConfig::heavy(mix)
            };
            jobs.push(move || (mix, algo, run(algo, cfg)));
        }
    }
    let results = run_parallel(jobs);

    for mix in TrafficMix::ALL {
        println!("# Fig 11 ({:?} + heavy load): average FCT (µs)", mix.name());
        let mut t = TextTable::new(vec![
            "algorithm",
            "intra avg",
            "cross avg",
            "intra p99.9",
            "cross p99.9",
            "done",
            "pfc",
        ]);
        for (m, algo, r) in &results {
            if *m != mix {
                continue;
            }
            t.row(vec![
                algo.name().to_string(),
                format!("{:.1}", r.breakdown.intra_dc.avg_us),
                format!("{:.1}", r.breakdown.cross_dc.avg_us),
                format!("{:.1}", r.breakdown.intra_dc.p999_us),
                format!("{:.1}", r.breakdown.cross_dc.p999_us),
                format!("{}/{}", r.flows_completed, r.flows_total),
                format!("{}", r.pfc_pauses),
            ]);
        }
        println!("{}", t.render());
    }

    // Shape checks: MLCC improves the intra-DC average FCT over every
    // baseline on both mixes (the paper's headline: up to 46% / 18%).
    for mix in TrafficMix::ALL {
        let get = |a: Algo| {
            results
                .iter()
                .find(|(m, x, _)| *m == mix && *x == a)
                .map(|(_, _, r)| r)
                .unwrap()
        };
        let mlcc = get(Algo::Mlcc);
        for b in Algo::BASELINES {
            let base = get(b);
            println!(
                "# {} vs {} ({}): intra {:+.1}%  cross {:+.1}%",
                Algo::Mlcc.name(),
                b.name(),
                mix.name(),
                (1.0 - mlcc.breakdown.intra_dc.avg_us / base.breakdown.intra_dc.avg_us) * 100.0,
                (1.0 - mlcc.breakdown.cross_dc.avg_us / base.breakdown.cross_dc.avg_us) * 100.0,
            );
            assert!(
                mlcc.breakdown.intra_dc.avg_us < base.breakdown.intra_dc.avg_us,
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

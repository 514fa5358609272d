//! Fig. 15 — heavy load with the long-haul latency reduced to 1 ms:
//! shorter control loops help everyone, but MLCC's near-source feedback
//! and queue management still reduce the average FCT.

use mlcc_bench::scenarios::large_scale::{run, LargeScaleConfig};
use mlcc_bench::scenarios::run_parallel;
use mlcc_bench::Algo;
use netsim::units::MS;
use simstats::TextTable;
use workload::TrafficMix;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let mut jobs = Vec::new();
    for mix in TrafficMix::ALL {
        for algo in Algo::ALL {
            let mut cfg = LargeScaleConfig::heavy(mix);
            if full {
                cfg = cfg.full();
            }
            cfg.long_haul_delay = MS;
            jobs.push(move || (mix, algo, run(algo, cfg)));
        }
    }
    let results = run_parallel(jobs);

    for mix in TrafficMix::ALL {
        println!(
            "# Fig 15 ({} + heavy load, 1 ms long haul): average FCT (µs)",
            mix.name()
        );
        let mut t = TextTable::new(vec!["algorithm", "intra avg", "cross avg", "done"]);
        for (m, algo, r) in &results {
            if *m != mix {
                continue;
            }
            t.row(vec![
                algo.name().to_string(),
                format!("{:.1}", r.breakdown.intra_dc.avg_us),
                format!("{:.1}", r.breakdown.cross_dc.avg_us),
                format!("{}/{}", r.flows_completed, r.flows_total),
            ]);
        }
        println!("{}", t.render());
    }

    for mix in TrafficMix::ALL {
        let get = |a: Algo| {
            results
                .iter()
                .find(|(m, x, _)| *m == mix && *x == a)
                .map(|(_, _, r)| r)
                .unwrap()
        };
        let mlcc = get(Algo::Mlcc);
        let dcqcn = get(Algo::Dcqcn);
        println!(
            "# MLCC vs DCQCN ({}): intra {:+.1}%  cross {:+.1}%",
            mix.name(),
            (1.0 - mlcc.breakdown.intra_dc.avg_us / dcqcn.breakdown.intra_dc.avg_us) * 100.0,
            (1.0 - mlcc.breakdown.cross_dc.avg_us / dcqcn.breakdown.cross_dc.avg_us) * 100.0,
        );
        // Paper: with a 1 ms long haul MLCC still reduces intra-DC FCT
        // (22% for WebSearch vs DCQCN).
        assert!(
            mlcc.breakdown.intra_dc.avg_us < dcqcn.breakdown.intra_dc.avg_us,
            "{}: MLCC must still beat DCQCN on intra-DC avg FCT at 1 ms",
            mix.name()
        );
    }
    println!("SHAPE OK: MLCC keeps its intra-DC advantage when the long haul shrinks to 1 ms");
}

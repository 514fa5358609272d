//! Fig. 13 — heavy-load 99.9th-percentile FCT broken down by flow size,
//! intra-DC and cross-DC, for the five algorithms (WebSearch mix).
//!
//! Paper shape: MLCC cuts the intra-DC tail across nearly all sizes; for
//! cross-DC flows MLCC wins below ~5 MB and gives a little back on the
//! largest flows (its proactive derating trades elephant throughput for
//! mixed-traffic fairness).

use mlcc_bench::scenarios::large_scale::{run_algos, tail_by_size, LargeScaleConfig};
use mlcc_bench::Algo;
use workload::TrafficMix;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let mut cfg = LargeScaleConfig::heavy(TrafficMix::WebSearch);
    if full {
        cfg = cfg.full();
    }
    // Tail percentiles need more samples.
    cfg.duration *= 2;
    let results = run_algos(cfg);

    for (class, t) in tail_by_size(&results) {
        println!(
            "# Fig 13 ({class}): 99.9th percentile FCT (µs) by flow size, WebSearch heavy load"
        );
        println!("{}", t.render());
    }

    // Shape: for small flows (<10KB and 10-100KB buckets) MLCC's intra
    // tail must not be the worst of the five — small flows are exactly
    // what the fast loops protect.
    let tail_of = |a: Algo, bucket: usize| {
        results
            .iter()
            .find(|(x, _)| *x == a)
            .map(|(_, r)| r.breakdown.intra_by_size[bucket].1)
            .unwrap()
    };
    for bucket in 0..2 {
        let mlcc = tail_of(Algo::Mlcc, bucket);
        let worst = Algo::BASELINES
            .iter()
            .map(|&b| tail_of(b, bucket))
            .fold(0.0f64, f64::max);
        println!(
            "# bucket {}: MLCC intra p99.9 {:.0} µs vs worst baseline {:.0} µs",
            simstats::SIZE_BUCKETS[bucket].1,
            mlcc,
            worst
        );
        assert!(
            mlcc < worst,
            "MLCC must protect small intra flows better than the worst baseline"
        );
    }
    println!("SHAPE OK: MLCC cuts the small-flow intra-DC tail; big cross elephants pay a little");
}

//! Fig. 14 — light-load 99.9th-percentile FCT by flow size (WebSearch),
//! intra-DC and cross-DC. Same shape as Fig. 13 at lower load.

use mlcc_bench::scenarios::large_scale::{run_algos, tail_by_size, LargeScaleConfig};
use mlcc_bench::Algo;
use workload::TrafficMix;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let mut cfg = LargeScaleConfig::light(TrafficMix::WebSearch);
    if full {
        cfg = cfg.full();
    }
    // Tail percentiles need more samples.
    cfg.duration *= 2;
    let results = run_algos(cfg);

    for (class, t) in tail_by_size(&results) {
        println!(
            "# Fig 14 ({class}): 99.9th percentile FCT (µs) by flow size, WebSearch light load"
        );
        println!("{}", t.render());
    }

    // Shape: MLCC's average intra tail across the small-flow buckets is
    // not the worst of the five.
    let small_tail = |a: Algo| {
        let r = &results.iter().find(|(x, _)| *x == a).unwrap().1;
        (r.breakdown.intra_by_size[0].1 + r.breakdown.intra_by_size[1].1) / 2.0
    };
    let mlcc = small_tail(Algo::Mlcc);
    let worst = Algo::BASELINES
        .iter()
        .map(|&b| small_tail(b))
        .fold(0.0f64, f64::max);
    println!("# small-flow intra p99.9: MLCC {mlcc:.0} µs vs worst baseline {worst:.0} µs");
    assert!(
        mlcc < worst,
        "MLCC must protect small intra flows under light load"
    );
    println!("SHAPE OK: MLCC holds the small-flow intra-DC tail down under light load");
}

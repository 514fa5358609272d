//! Fig. 15 — heavy load with the long-haul latency reduced to 1 ms:
//! shorter control loops help everyone, but MLCC's near-source feedback
//! and queue management still reduce the average FCT.

use mlcc_bench::scenarios::large_scale::{LargeScaleConfig, MixGrid};
use mlcc_bench::Algo;
use netsim::units::MS;
use workload::TrafficMix;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let grid = MixGrid::run(|mix| {
        let mut cfg = LargeScaleConfig::heavy(mix);
        if full {
            cfg = cfg.full();
        }
        cfg.long_haul_delay = MS;
        cfg
    });

    for mix in TrafficMix::ALL {
        println!(
            "# Fig 15 ({} + heavy load, 1 ms long haul): average FCT (µs)",
            mix.name()
        );
        println!("{}", grid.avg_table(mix).render());
    }

    for mix in TrafficMix::ALL {
        println!("{}", grid.vs_line(mix, Algo::Dcqcn));
        // Paper: with a 1 ms long haul MLCC still reduces intra-DC FCT
        // (22% for WebSearch vs DCQCN).
        let intra = |a: Algo| grid.get(mix, a).breakdown.intra_dc.avg_us;
        assert!(
            intra(Algo::Mlcc) < intra(Algo::Dcqcn),
            "{}: MLCC must still beat DCQCN on intra-DC avg FCT at 1 ms",
            mix.name()
        );
    }
    println!("SHAPE OK: MLCC keeps its intra-DC advantage when the long haul shrinks to 1 ms");
}

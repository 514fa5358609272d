//! Fig. 16 — the testbed experiment on the simulated dumbbell: Hadoop
//! traffic, DCQCN vs MLCC, overall average FCT.
//!
//! The paper reports MLCC improving the overall average FCT by 19.3% on
//! their 100 Gbps P4/XDP testbed; we reproduce the same dumbbell and
//! workload in the simulator (see DESIGN.md, substitutions).

use mlcc_bench::scenarios::run_parallel;
use mlcc_bench::scenarios::testbed::run;
use mlcc_bench::Algo;
use netsim::units::MS;
use simstats::TextTable;

fn main() {
    let load = 0.4;
    let duration = 40 * MS;
    let results = run_parallel(
        [Algo::Dcqcn, Algo::Mlcc]
            .iter()
            .map(|&a| move || (a, run(a, load, duration, 11)))
            .collect(),
    );

    println!("# Fig 16: dumbbell testbed, Hadoop mix at 40% load");
    let mut t = TextTable::new(vec!["algorithm", "overall avg (µs)", "p99.9 (µs)", "done"]);
    for (algo, r) in &results {
        t.row(vec![
            algo.name().to_string(),
            format!("{:.1}", r.breakdown.all.avg_us),
            format!("{:.1}", r.breakdown.all.p999_us),
            format!("{}/{}", r.flows_completed, r.flows_total),
        ]);
    }
    println!("{}", t.render());

    let dcqcn = &results[0].1;
    let mlcc = &results[1].1;
    let gain = (1.0 - mlcc.breakdown.all.avg_us / dcqcn.breakdown.all.avg_us) * 100.0;
    println!("# MLCC improves the overall average FCT by {gain:+.1}% (paper: +19.3%)");
    assert_eq!(dcqcn.flows_completed, dcqcn.flows_total);
    assert_eq!(mlcc.flows_completed, mlcc.flows_total);
    assert!(
        mlcc.breakdown.all.avg_us < dcqcn.breakdown.all.avg_us,
        "MLCC must improve the overall average FCT on the dumbbell"
    );
    println!("SHAPE OK: MLCC beats DCQCN on the testbed dumbbell");
}

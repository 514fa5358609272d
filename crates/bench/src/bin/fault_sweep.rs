//! Fault sweep: MLCC vs DCQCN across WAN loss and jitter on the DCI link.
//!
//! Sweeps uniform loss 0–1% and delay jitter on both directions of the
//! dumbbell long haul, running the same cross-DC transfer batch per
//! cell. Asserts 100% completion everywhere (the hardened loss-recovery
//! path must never strand a flow at WAN-plausible loss rates) and
//! reports the average cross-DC FCT degradation relative to each
//! algorithm's clean cell.
//!
//! A permanent-failure column rides along: a mid-transfer link cut that
//! never heals and a host crash without restart. Those cells cannot
//! complete — the assertion flips to the *termination guarantee*: every
//! flow ends with a typed `Failed` verdict and zero flows hang.
//!
//! `--smoke` runs a reduced grid with smaller transfers for CI.

use mlcc_bench::scenarios::faults::{run_cell, FaultCell, PermFault};
use mlcc_bench::scenarios::{run_parallel, RunSummary};
use mlcc_bench::Algo;
use netsim::units::{Time, US};
use simstats::TextTable;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let losses: &[f64] = if smoke {
        &[0.0, 0.01]
    } else {
        &[0.0, 0.001, 0.005, 0.01]
    };
    let jitters: &[Time] = if smoke { &[0] } else { &[0, 20 * US] };
    let algos = [Algo::Mlcc, Algo::Dcqcn];

    let mut jobs: Vec<Box<dyn FnOnce() -> (FaultCell, RunSummary) + Send>> = Vec::new();
    for &algo in &algos {
        for &loss in losses {
            for &jitter in jitters {
                let cell = if smoke {
                    FaultCell::smoke(algo, loss, jitter)
                } else {
                    FaultCell::sweep(algo, loss, jitter)
                };
                jobs.push(Box::new(move || (cell, run_cell(cell))));
            }
        }
        // The unsurvivable column, one cell per permanent fault kind.
        for perm in [PermFault::LinkCut, PermFault::HostCrash] {
            let cell = if smoke {
                FaultCell::smoke(algo, 0.0, 0).with_perm(perm)
            } else {
                FaultCell::sweep(algo, 0.0, 0).with_perm(perm)
            };
            jobs.push(Box::new(move || (cell, run_cell(cell))));
        }
    }
    let results = run_parallel(jobs);

    println!(
        "# Fault sweep{}: cross-DC batch on the dumbbell, loss+jitter on both long-haul directions",
        if smoke { " (smoke)" } else { "" }
    );
    let mut t = TextTable::new(vec![
        "algo",
        "loss",
        "jitter (µs)",
        "perm",
        "done",
        "failed",
        "cross avg (µs)",
        "degradation",
        "fault drops",
        "retx",
    ]);
    for (cell, r) in &results {
        let (_, clean) = results
            .iter()
            .find(|(c, _)| {
                c.algo == cell.algo && c.loss == 0.0 && c.jitter == 0 && c.perm == PermFault::None
            })
            .expect("clean cell present");
        let (cross, degr) = if r.breakdown.cross_dc.count > 0 {
            let d = r.breakdown.cross_dc.avg_us / clean.breakdown.cross_dc.avg_us;
            (
                format!("{:.1}", r.breakdown.cross_dc.avg_us),
                format!("{d:.2}x"),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };
        t.row(vec![
            cell.algo.name().to_string(),
            format!("{:.2}%", cell.loss * 100.0),
            format!("{:.0}", cell.jitter as f64 / US as f64),
            cell.perm.label().to_string(),
            format!("{}/{}", r.flows_completed, r.flows_total),
            format!("{}", r.flows_failed),
            cross,
            degr,
            format!("{}", r.fault_drops),
            format!("{}", r.retransmits),
        ]);
    }
    println!("{}", t.render());

    for (cell, r) in &results {
        if cell.perm == PermFault::None {
            assert!(
                r.completed_all(),
                "{} stranded {} of {} flows at loss {:.2}% jitter {} µs",
                cell.algo.name(),
                r.flows_total - r.flows_completed,
                r.flows_total,
                cell.loss * 100.0,
                cell.jitter / US,
            );
            if cell.loss > 0.0 {
                assert!(
                    r.fault_drops > 0,
                    "lossy cell must actually lose packets ({})",
                    cell.algo.name()
                );
            }
        } else {
            // A permanent fault cannot be survived — it must be
            // *accounted for*: typed failures, no hung flows.
            assert!(
                r.flows_failed > 0,
                "{} {} cell failed nothing",
                cell.algo.name(),
                cell.perm.label()
            );
            assert_eq!(
                r.flows_completed + r.flows_failed,
                r.flows_total,
                "{} {} cell: completed + failed must cover every flow",
                cell.algo.name(),
                cell.perm.label()
            );
            assert_eq!(
                r.flows_hung,
                0,
                "{} {} cell left hung flows",
                cell.algo.name(),
                cell.perm.label()
            );
        }
    }
    let n_perm = results
        .iter()
        .filter(|(cell, _)| cell.perm != PermFault::None)
        .count();
    println!(
        "SHAPE OK: 100% completion across {} recoverable cells (loss ≤ 1%, jitter ≤ {} µs) \
         and typed termination across {} permanent-failure cells for MLCC and DCQCN",
        results.len() - n_perm,
        jitters.iter().max().unwrap() / US,
        n_perm,
    );
}

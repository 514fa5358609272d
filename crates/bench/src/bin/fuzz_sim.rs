//! Deterministic scenario fuzzer: random topologies, workloads, fault
//! profiles, and CC assignments, each run under the fabric invariant
//! auditor (`--features audit`).
//!
//! * `fuzz_sim [--seeds N] [--start S]` — sweep N seeds (default 200).
//! * `fuzz_sim --smoke` — a 30-seed CI sweep.
//! * `fuzz_sim --topo T` — force every spec onto topology T (0 =
//!   dumbbell, 1 = two-DC, 2 = fat-tree, 3 = multi-island) so a sweep
//!   concentrates on one fabric.
//! * `fuzz_sim --replay <spec>` — run one spec verbatim, loudly.
//!
//! On a violation the sweep shrinks the scenario to a minimal
//! reproduction and prints it as a replay command line, then exits
//! nonzero. Replay lines written before the `hr=` (PFC headroom)
//! clause existed still parse — the clause defaults to 0 (auto-sized
//! headroom); `hr=1` forces the legacy no-headroom model and `hr=N`
//! (N ≥ 2) pins an explicit N KiB per-ingress reservation. Shrinking
//! never follows a candidate that merely fails config validation or
//! fault injection (tagged `CONFIG REJECTED:`) instead of reproducing
//! the violation.

use mlcc_bench::scenarios::fuzz::{parse_spec, run_spec, shrink, FuzzOutcome, FuzzSpec};
use mlcc_bench::scenarios::run_parallel;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds: u64 = 200;
    let mut start: u64 = 1;
    let mut replay: Option<String> = None;
    let mut topo: Option<u8> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => seeds = 30,
            "--topo" => {
                i += 1;
                topo = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&t| t <= 3)
                        .unwrap_or_else(|| usage("--topo needs a number in 0..=3")),
                );
            }
            "--seeds" => {
                i += 1;
                seeds = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seeds needs a number"));
            }
            "--start" => {
                i += 1;
                start = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--start needs a number"));
            }
            "--replay" => {
                i += 1;
                replay = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--replay needs a spec")),
                );
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    #[cfg(not(feature = "audit"))]
    eprintln!(
        "warning: built without --features audit; invariant checks are \
         compiled out and only outright panics will be caught"
    );

    if let Some(spec) = replay {
        let spec = parse_spec(&spec).unwrap_or_else(|e| usage(&e));
        let out = run_spec(&spec);
        report_one(&spec, &out);
        std::process::exit(i32::from(out.violation.is_some()));
    }

    // Sweep. Violating runs panic under the hood; keep the default hook
    // quiet so a sweep over bad seeds doesn't spew 200 backtraces.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut ran: u64 = 0;
    let mut events: u64 = 0;
    let mut incomplete: u64 = 0;
    let mut failed: u64 = 0;
    let mut stalls: u64 = 0;
    let mut first_violation: Option<(FuzzSpec, FuzzOutcome)> = None;
    const CHUNK: u64 = 32;
    let mut base = start;
    while base < start + seeds && first_violation.is_none() {
        let n = CHUNK.min(start + seeds - base);
        let jobs: Vec<_> = (base..base + n)
            .map(|seed| {
                move || {
                    let mut spec = FuzzSpec::generate(seed);
                    if let Some(t) = topo {
                        spec.topo = t;
                    }
                    let out = run_spec(&spec);
                    (spec, out)
                }
            })
            .collect();
        for (spec, out) in run_parallel(jobs) {
            ran += 1;
            events += out.events;
            incomplete += u64::from(!out.completed);
            failed += out.failed as u64;
            stalls += u64::from(out.watchdog_fired);
            if out.violation.is_some() && first_violation.is_none() {
                first_violation = Some((spec, out));
            }
        }
        base += n;
    }

    match first_violation {
        None => {
            drop(std::panic::take_hook());
            std::panic::set_hook(prev_hook);
            println!(
                "fuzz_sim: {ran} seeds clean ({events} events total, \
                 {incomplete} runs hit the stop time with flows pending, \
                 {failed} typed flow failures, {stalls} watchdog stalls)"
            );
        }
        Some((spec, out)) => {
            let small = shrink(spec);
            drop(std::panic::take_hook());
            std::panic::set_hook(prev_hook);
            let small_out = run_spec(&small);
            println!("fuzz_sim: VIOLATION at seed {}", spec.seed);
            println!("  {}", out.violation.unwrap_or_default());
            println!("  original spec: {spec}");
            println!("  shrunk   spec: {small}");
            println!(
                "  replay: cargo run --release -p mlcc-bench --features audit \
                 --bin fuzz_sim -- --replay \"{small}\""
            );
            if let Some(v) = small_out.violation {
                println!("  shrunk violation: {v}");
            }
            std::process::exit(1);
        }
    }
}

fn report_one(spec: &FuzzSpec, out: &FuzzOutcome) {
    println!("spec: {spec}");
    match &out.violation {
        Some(v) => println!("VIOLATION: {v}"),
        None => println!(
            "clean: {}/{} flows finished ({} failed with a typed verdict{}), \
             {} events, {} pfc pauses, {} buffer drops",
            out.fcts,
            out.flows,
            out.failed,
            if out.watchdog_fired {
                ", watchdog stall reported"
            } else {
                ""
            },
            out.events,
            out.pfc_pauses,
            out.buffer_drops
        ),
    }
}

fn usage(err: &str) -> ! {
    eprintln!("fuzz_sim: {err}");
    eprintln!("usage: fuzz_sim [--seeds N] [--start S] [--smoke] [--topo 0..=3] [--replay <spec>]");
    std::process::exit(2);
}

//! Collective churn gate: synchronized all-to-all steps on a fat-tree —
//! mass flow registration and completion in lockstep, repeated — must
//! keep the round-robin arbiter fair and the steady-state event loop
//! allocation-free.
//!
//! Where `alloc_gate.rs` pins the zero-alloc property on long-lived
//! flows that never complete, this test pins it under the opposite
//! regime: every iteration registers 56 equal-size flows (7 concurrent
//! per sender — real work for the round-robin ring), drains them all to
//! completion, and immediately re-registers the next batch. Completion
//! is the churn-heavy path — FCT recording, send/recv-state teardown,
//! `gc_finished` ring compaction — and after warmup none of it may touch
//! the heap: the dense tables, pools, and rings must recycle in place.
//!
//! Registration itself (fresh `Box`ed flow state) and the FlowStart edge
//! are inherently allocating and stay outside the armed window; the
//! armed window covers everything from first data packet to the last
//! completion of each iteration.
//!
//! Lives in its own integration binary: the allocator counters are
//! process-global.

#[global_allocator]
static ALLOC: netsim::alloc::CountingAlloc = netsim::alloc::CountingAlloc;

use mlcc_core::MlccFactory;
use netsim::alloc::CountingAlloc;
use netsim::prelude::*;

/// k=4 fat-tree with one host per edge switch: 8 ranks.
const RANKS: usize = 8;
/// Flows per iteration: full all-to-all fan, 7 per sender.
const FLOWS_PER_ITER: usize = RANKS * (RANKS - 1);
const CHUNK: u64 = 100_000;

const WARMUP_ITERS: usize = 3;
const MEASURED_ITERS: usize = 3;

const POOL_PACKETS: usize = 16_384;
const POOL_INT_STACKS: usize = 2_048;
/// Pending-event reserve: 56 concurrent 100 KB flows keep ~1k
/// tx/arrival events in flight, and 2048 covers them.
const PENDING_EVENTS: usize = 2_048;

#[test]
fn lockstep_all_to_all_churn_is_fair_and_allocation_free() {
    let topo = FatTreeTopology::build(FatTreeParams {
        hosts_per_edge: 1,
        ..FatTreeParams::default()
    });
    let hosts = topo.hosts.clone();
    let cfg = SimConfig {
        stop_time: 100 * SEC, // never reached; iterations are drained
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));

    // Completion records must not grow the FCT vec inside an armed
    // window; reserve the whole run's worth up front.
    let total = (WARMUP_ITERS + MEASURED_ITERS) * FLOWS_PER_ITER;
    sim.out.fcts.reserve(total);
    sim.prewarm(POOL_PACKETS, POOL_INT_STACKS, PENDING_EVENTS);

    // Checked once up front: `var_os` allocates when the variable is
    // set, which would poison the per-iteration deltas.
    let trap = std::env::var_os("ALLOC_GATE_TRAP").is_some();
    let mut barrier = US;
    let mut expected = 0usize;
    for iter in 0..WARMUP_ITERS + MEASURED_ITERS {
        // Register the full fan at the barrier — every ordered pair,
        // identical size, identical start.
        let iter_first_fct = sim.out.fcts.len();
        for s in 0..RANKS {
            for d in 0..RANKS {
                if s != d {
                    sim.add_flow(hosts[s], hosts[d], CHUNK, barrier);
                }
            }
        }
        expected += FLOWS_PER_ITER;
        // Process the allocating FlowStart edge outside the armed
        // window, then re-reserve whatever the warmup iterations grew.
        sim.run_window(barrier + 1);
        if iter == WARMUP_ITERS {
            sim.prewarm(POOL_PACKETS, POOL_INT_STACKS, PENDING_EVENTS);
        }

        let armed = iter >= WARMUP_ITERS;
        let calls_before = CountingAlloc::alloc_calls();
        if armed && trap {
            CountingAlloc::trap_next_alloc();
        }
        while sim.out.fcts.len() < expected {
            assert!(
                sim.has_runnable_events(),
                "iteration {iter} stalled with {}/{expected} completions",
                sim.out.fcts.len()
            );
            sim.step();
        }
        if armed {
            let delta = CountingAlloc::alloc_calls() - calls_before;
            assert_eq!(
                delta, 0,
                "iteration {iter}: {delta} heap allocations during the \
                 drain of {FLOWS_PER_ITER} churning flows; a completion/\
                 teardown path (FCT recording, DenseMap removal, rr ring \
                 compaction, pool recycling) regressed (rerun with \
                 ALLOC_GATE_TRAP=1 RUST_BACKTRACE=1 for the first site)"
            );
        }

        // Round-robin fairness: the arbiter serves each sender's 7
        // concurrent equal-size flows in strict rotation, so within one
        // sender the slowest flow may not lag the fastest by more than
        // the cross-fabric contention spread. The band is deliberately
        // loose (3×) — ECMP can put two flows on one agg→core link —
        // but a skewed arbiter (e.g. the old cursor-reset bug starving
        // late registrants) blows past it immediately.
        let iter_fcts = &sim.out.fcts[iter_first_fct..];
        assert_eq!(iter_fcts.len(), FLOWS_PER_ITER);
        for (s, host) in hosts.iter().enumerate().take(RANKS) {
            let mut fastest = Time::MAX;
            let mut slowest = 0;
            for rec in iter_fcts.iter().filter(|r| r.src == *host) {
                let fct = rec.finish - rec.start;
                fastest = fastest.min(fct);
                slowest = slowest.max(fct);
            }
            assert!(
                slowest <= 3 * fastest,
                "iteration {iter}, sender {s}: FCT spread {} vs {} — \
                 round-robin fairness broke",
                to_micros(slowest),
                to_micros(fastest)
            );
        }

        barrier = sim.now + US;
    }

    // Full drain + finalize (allocates freely — the gate is off) so the
    // audit feature's conservation checks cover the whole churn run.
    assert!(sim.run_until_flows_complete(), "all churn flows complete");
    assert_eq!(sim.out.fcts.len(), total);
    assert!(
        sim.out.outcomes.iter().all(|o| !o.outcome.is_failed()),
        "no churn flow may fail"
    );
}

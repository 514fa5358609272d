//! Allocation gate: the steady-state event loop must not touch the heap.
//!
//! The zero-copy packet lifecycle keeps every in-flight packet in one
//! recycled `Box` (`Simulator::pkt_pool`), INT stacks in a second pool,
//! and all per-flow state in pre-grown dense tables. Once those pools
//! and tables are warm, processing an event — host TX, store-and-forward
//! hops, PFQ scheduling, INT stamping, ACK/CNP/Switch-INT generation,
//! the MLCC credit loop — is pure pointer motion and arithmetic.
//!
//! This test pins that property down with a counting global allocator:
//! after `Simulator::prewarm` plus a warmup phase long enough to start
//! every flow, fill the long-haul pipe, and explore the backlog
//! oscillation's high-water marks, a sustained measurement window must
//! perform **zero** allocator calls. Any new `Vec` growth, `Box::new`,
//! or hidden `format!` on the hot path turns a perf regression into a
//! test failure.
//!
//! The test lives in its own integration binary because the counters
//! are process-global: a parallel test harness would interleave its
//! allocations into the measured window.

#[global_allocator]
static ALLOC: netsim::alloc::CountingAlloc = netsim::alloc::CountingAlloc;

use mlcc_core::MlccFactory;
use netsim::alloc::CountingAlloc;
use netsim::prelude::*;

/// Flows large enough that none completes inside the test (completion
/// records and flow-state teardown would otherwise hit the allocator).
const ENDLESS: u64 = 1 << 40;

/// Spare packet boxes pre-provisioned beyond the initial population.
/// Must exceed the in-flight high-water mark: the long-haul pipe, every
/// FIFO and per-flow queue, plus ACK/CNP/Switch-INT return streams.
const POOL_PACKETS: usize = 32_768;
const POOL_INT_STACKS: usize = 4_096;
/// Pending-event reserve for the event queue (its node arena doubles
/// past this on its own during warmup).
const PENDING_EVENTS: usize = 512;

/// First warmup leg: starts all flows, fills the pipe, creates every
/// per-flow DCI queue (so the second `prewarm` can reserve their rings).
const WARMUP1_EVENTS: usize = 4_000_000;
/// Second leg: lets the credit-loop backlog oscillation explore its
/// high-water marks so the event arena and every ring reach their final
/// capacity.
const WARMUP2_EVENTS: usize = 6_000_000;

/// Events measured with the allocator armed.
const MEASURED_EVENTS: usize = 2_000_000;

#[test]
fn steady_state_event_loop_is_allocation_free() {
    // The Fig. 1 two-DC fabric with the full MLCC data plane engaged:
    // intra-DC flows exercise the FIFO + ECN + end-to-end INT path,
    // cross-DC flows in both directions exercise PFQ, credit stamping,
    // DQM, and near-source Switch-INT feedback. The long-haul delay is
    // shortened so the credit loop converges within a test-sized run.
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        long_haul_delay: 100 * US,
        ..TwoDcParams::default()
    });
    let cfg = SimConfig {
        stop_time: 100 * SEC, // never reached; the loop is step-bounded
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };

    // A fixed flow set, all starting at t=0, each server sending and
    // receiving at most one flow so every flow converges to a stable
    // rate (racks 1–4 are DC0, racks 5–8 DC1).
    let pairs = [
        // Intra-DC: distinct sender/receiver servers, distinct racks.
        (topo.server(1, 0), topo.server(2, 0)),
        (topo.server(2, 1), topo.server(1, 1)),
        (topo.server(5, 0), topo.server(6, 0)),
        (topo.server(6, 1), topo.server(5, 1)),
        // Cross-DC: 2 x 25G per direction over the 100G long haul.
        (topo.server(3, 0), topo.server(7, 0)),
        (topo.server(4, 0), topo.server(8, 0)),
        (topo.server(7, 1), topo.server(3, 1)),
        (topo.server(8, 1), topo.server(4, 1)),
    ];

    let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));
    for (src, dst) in pairs {
        sim.add_flow(src, dst, ENDLESS, 0);
    }

    sim.prewarm(POOL_PACKETS, POOL_INT_STACKS, PENDING_EVENTS);
    for _ in 0..WARMUP1_EVENTS {
        sim.step();
    }
    // The cross flows' per-flow DCI queues exist now; reserve their rings.
    sim.prewarm(POOL_PACKETS, POOL_INT_STACKS, PENDING_EVENTS);
    for _ in 0..WARMUP2_EVENTS {
        sim.step();
    }
    assert_eq!(
        sim.out.fcts.len(),
        0,
        "no flow may complete: completion records allocate"
    );

    let calls_before = CountingAlloc::alloc_calls();
    if std::env::var_os("ALLOC_GATE_TRAP").is_some() {
        CountingAlloc::trap_next_alloc();
    }
    for _ in 0..MEASURED_EVENTS {
        sim.step();
    }
    let delta = CountingAlloc::alloc_calls() - calls_before;

    assert!(
        sim.out.events_processed >= (WARMUP1_EVENTS + WARMUP2_EVENTS + MEASURED_EVENTS) as u64,
        "scenario drained early ({} events); the window must stay busy",
        sim.out.events_processed
    );
    assert_eq!(
        delta, 0,
        "steady-state event loop performed {delta} heap allocations \
         over {MEASURED_EVENTS} events; the packet/INT pools or a hot \
         path regressed (rerun with ALLOC_GATE_TRAP=1 RUST_BACKTRACE=1 \
         to see the first allocation site)"
    );

    // After 12M events every pool box has been through many in-flight
    // lifetimes (ECN marks, INT stacks, MLCC stamps, PFC ingress tags).
    // A box recycled now must still be indistinguishable from fresh —
    // recycling clears state, it doesn't launder it.
    use netsim::packet::{MlccFields, Packet};
    use netsim::types::{FlowId, NodeId};
    // Probe with a data packet — a CNP is born with ecn_echo set.
    let id = sim.pkt_pool.next_id();
    let q = sim.pkt_pool.boxed(Packet::data(
        id,
        FlowId(0),
        NodeId(0),
        NodeId(1),
        0,
        4096,
        0,
    ));
    assert!(q.int.is_none(), "recycled box kept a stale INT stack");
    assert_eq!(q.mlcc, MlccFields::default(), "stale MLCC fields survived");
    assert!(!q.ecn && !q.ecn_echo, "stale ECN state survived");
    assert!(q.in_link.is_none(), "stale ingress-link state survived");
    sim.pkt_pool.put(q);
}

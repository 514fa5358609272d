//! Micro rows: one layer's hot loop timed in isolation on its public
//! API, so a change to that layer shows up here even where the engine
//! runs dilute it. Each row returns ns per operation for each of
//! [`ROUNDS`] timed rounds, after one untimed round.

use std::hint::black_box;
use std::time::Instant;

use netsim::event::{Event, EventQueue};
use netsim::int::{HopHistory, IntHop, IntStack};
use netsim::packet::Packet;
use netsim::pfq::{PfqDequeue, PfqSet};
use netsim::prelude::*;

const ROUNDS: usize = 9;

fn ns_per_op(ops: usize, mut round: impl FnMut()) -> Vec<f64> {
    round();
    (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            round();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect()
}

/// Hold model of the event queue: `depth` pending events, then each op
/// pops the earliest and schedules it again one link delay later, the
/// delay drawn from `delays` (a workload's per-link delay mix).
pub fn event_hold_ns(depth: usize, delays: &[Time], seed: u64) -> Vec<f64> {
    const OPS: usize = 100_000;
    let mut rng = Xoshiro256StarStar::substream(seed, 0x401d);
    let draws: Vec<Time> = (0..4096)
        .map(|_| delays[rng.gen_index(delays.len())])
        .collect();
    let mut q = EventQueue::new();
    for i in 0..depth.max(1) {
        let node = NodeId(i as u32);
        q.schedule(draws[i % draws.len()], Event::HostWake { node });
    }
    let mut k = 0;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (t, ev) = q.pop().expect("the hold model keeps the queue full");
            k = (k + 1) % draws.len();
            q.schedule(t + draws[k], black_box(ev));
        }
    })
}

/// One enqueue plus one paced dequeue on a DCI per-flow queue set with
/// 16 active flows, packet boxes recycled as the engine's pool does.
pub fn pfq_op_ns() -> Vec<f64> {
    const FLOWS: u32 = 16;
    const PER_ROUND: usize = 2_048;
    let mtu_wire = SimConfig::default().mtu_wire();
    let mut set = PfqSet::new(100 * GBPS, mtu_wire);
    let mut spare: Vec<Box<Packet>> = (0..FLOWS)
        .map(|f| {
            Box::new(Packet::data(
                u64::from(f),
                FlowId(f),
                NodeId(0),
                NodeId(1),
                0,
                SimConfig::default().mtu_payload,
                0,
            ))
        })
        .collect();
    // Every flow earns one packet of credit per step at the 25 Gbps
    // initial PFQ rate, so each step drains what it enqueued.
    let step = tx_time(u64::from(mtu_wire) * 4, 25 * GBPS);
    let mut now = 0;
    ns_per_op(PER_ROUND * FLOWS as usize, || {
        for _ in 0..PER_ROUND {
            for pkt in spare.drain(..) {
                set.enqueue(pkt, now);
            }
            now += step;
            while let PfqDequeue::Packet(p) = set.dequeue(now) {
                spare.push(p);
            }
        }
        assert_eq!(spare.len(), FLOWS as usize, "every step drains its packets");
    })
}

/// Build a five-hop INT stack and fold it into a flow's hop history
/// (HPCC-style max utilization), as every INT-echo ACK does.
pub fn int_fold_ns() -> Vec<f64> {
    const OPS: usize = 100_000;
    let mut h = HopHistory::new();
    let mut ts: Time = 0;
    ns_per_op(OPS, || {
        let mut acc = 0u64;
        for _ in 0..OPS {
            ts += 1000;
            let mut s = IntStack::new();
            for hop in 0..5 {
                s.push(IntHop {
                    hop_id: hop,
                    ts,
                    qlen_bytes: 1000,
                    tx_bytes: ts,
                    link_bps: 100 * GBPS,
                    is_dci: false,
                });
            }
            acc ^= h
                .max_utilization(black_box(&s), 10 * US, |_| true)
                .map_or(0, f64::to_bits);
        }
        black_box(acc);
    })
}

//! Flight recorder: an optional, bounded event trace.
//!
//! Congestion-control bugs in a packet simulator are miserable to debug
//! from aggregates alone. The tracer records a compact record per
//! noteworthy event — flow lifecycle, drops, PFC transitions, per-flow
//! packet milestones — into a bounded ring. It is off by default and
//! costs one branch per hook when off.

use std::collections::VecDeque;

use crate::types::{FlowId, LinkId, NodeId};
use crate::units::{to_micros, Time};

/// One trace record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    FlowStarted {
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        size_bytes: u64,
    },
    FlowCompleted {
        flow: FlowId,
        fct: Time,
    },
    PacketDropped {
        flow: FlowId,
        at: NodeId,
    },
    PfcPause {
        at: NodeId,
        ingress: LinkId,
    },
    PfcResume {
        at: NodeId,
        ingress: LinkId,
    },
    Retransmit {
        flow: FlowId,
        from_seq: u64,
    },
    /// The receiver-side DCI created a new per-flow queue.
    PfqCreated {
        flow: FlowId,
        link: LinkId,
    },
    /// Fault injection discarded a packet on the wire (random loss,
    /// burst loss, or a down link) — distinct from [`Self::PacketDropped`],
    /// which is buffer overflow at a switch.
    PacketLost {
        flow: FlowId,
        link: LinkId,
    },
    /// A fault-injected link went down.
    LinkDown {
        link: LinkId,
    },
    /// A fault-injected link came back up.
    LinkUp {
        link: LinkId,
    },
    /// A node-fault crashed this host or switch.
    NodeDown {
        node: NodeId,
    },
    /// A crashed node restarted.
    NodeUp {
        node: NodeId,
    },
    /// A packet arrived at (or was buffered inside) a crashed node and
    /// was discarded — distinct from [`Self::PacketLost`], which is a
    /// wire-level fault on a link.
    PacketBlackholed {
        flow: FlowId,
        at: NodeId,
    },
    /// A flow ended without completing (give-up policy, deadline, or
    /// watchdog); `acked` is the partial byte count.
    FlowFailed {
        flow: FlowId,
        reason: crate::flow::FailReason,
        acked: u64,
    },
}

/// A timestamped record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    pub t: Time,
    pub event: TraceEvent,
}

/// Bounded trace.
#[derive(Debug)]
pub struct Trace {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    /// Records discarded because the ring was full.
    pub dropped_records: u64,
}

impl Trace {
    /// A trace holding up to `capacity` records (oldest evicted first).
    /// Reserves up to 2^20 records immediately; larger rings grow on
    /// demand.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Trace {
            records: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped_records: 0,
        }
    }

    /// Record an event.
    pub fn record(&mut self, t: Time, event: TraceEvent) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped_records += 1;
        }
        self.records.push_back(TraceRecord { t, event });
    }

    /// The recorded events, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of records matching a predicate.
    pub fn count<F: Fn(&TraceEvent) -> bool>(&self, f: F) -> usize {
        self.records.iter().filter(|r| f(&r.event)).count()
    }

    /// Render as one line per record (µs timestamps).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!("{:>12.3}µs  {:?}\n", to_micros(r.t), r.event));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(f: u32) -> TraceEvent {
        TraceEvent::FlowStarted {
            flow: FlowId(f),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 100,
        }
    }

    #[test]
    fn records_and_renders() {
        let mut t = Trace::new(16);
        t.record(1_000_000, started(0));
        t.record(
            2_000_000,
            TraceEvent::FlowCompleted {
                flow: FlowId(0),
                fct: 1_000_000,
            },
        );
        assert_eq!(t.len(), 2);
        let s = t.render();
        assert!(s.contains("FlowStarted"));
        assert!(s.contains("FlowCompleted"));
        assert!(s.contains("1.000µs"));
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::new(3);
        for i in 0..5 {
            t.record(i, started(i as u32));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped_records, 2);
        let first = t.records().next().unwrap();
        assert_eq!(first.t, 2, "oldest two were evicted");
    }

    #[test]
    fn count_predicate() {
        let mut t = Trace::new(16);
        t.record(
            0,
            TraceEvent::PacketDropped {
                flow: FlowId(0),
                at: NodeId(2),
            },
        );
        t.record(
            1,
            TraceEvent::PacketDropped {
                flow: FlowId(1),
                at: NodeId(2),
            },
        );
        t.record(
            2,
            TraceEvent::Retransmit {
                flow: FlowId(0),
                from_seq: 512,
            },
        );
        assert_eq!(
            t.count(|e| matches!(e, TraceEvent::PacketDropped { .. })),
            2
        );
        assert_eq!(t.count(|e| matches!(e, TraceEvent::Retransmit { .. })), 1);
    }
}

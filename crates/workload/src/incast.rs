//! Synchronized incast (partition–aggregate) workloads.
//!
//! Storage and query workloads fan requests out to N workers and wait
//! for all responses: every epoch, all N senders fire a response of the
//! same size at one aggregator simultaneously. The interesting metric is
//! the **request completion time** (RCT) — the completion of the
//! *slowest* response in the epoch. Cross-DC incast is exactly the
//! pattern that fills DCI buffers (the paper's Experiment 3 is its
//! static limit).

use netsim::types::NodeId;
use netsim::units::Time;

use crate::traffic::FlowRequest;

/// One synchronized incast schedule.
#[derive(Clone, Debug)]
pub struct IncastPattern {
    /// The responding servers.
    pub senders: Vec<NodeId>,
    /// The aggregator.
    pub receiver: NodeId,
    /// Response size per sender, bytes.
    pub response_bytes: u64,
    /// Epoch period.
    pub period: Time,
    /// Number of epochs.
    pub epochs: usize,
    /// First epoch start time.
    pub start: Time,
}

impl IncastPattern {
    /// Expand into per-flow requests. Flows of epoch `e` start at
    /// `start + e·period`; the caller gets them grouped per epoch.
    pub fn generate(&self) -> Vec<Vec<FlowRequest>> {
        assert!(!self.senders.is_empty());
        assert!(
            self.senders.iter().all(|&s| s != self.receiver),
            "no self-incast"
        );
        (0..self.epochs)
            .map(|e| {
                let t = self.start + e as Time * self.period;
                self.senders
                    .iter()
                    .map(|&src| FlowRequest {
                        src,
                        dst: self.receiver,
                        size_bytes: self.response_bytes,
                        start: t,
                    })
                    .collect()
            })
            .collect()
    }
}

/// Request completion times per epoch, from the flat FCT records of a
/// run whose flows were added epoch-by-epoch in `generate()` order.
///
/// `fcts[i]` must be the finish time of flow `i` (absolute), `flows per
/// epoch` = senders.len(). Returns the per-epoch RCT (slowest finish −
/// epoch start).
pub fn request_completion_times(pattern: &IncastPattern, finishes: &[Time]) -> Vec<Time> {
    let n = pattern.senders.len();
    assert_eq!(finishes.len(), n * pattern.epochs, "one finish per flow");
    (0..pattern.epochs)
        .map(|e| {
            let t0 = pattern.start + e as Time * pattern.period;
            let slowest = finishes[e * n..(e + 1) * n].iter().copied().max().unwrap();
            slowest.saturating_sub(t0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::MS;

    fn pattern() -> IncastPattern {
        IncastPattern {
            senders: (0..4).map(NodeId).collect(),
            receiver: NodeId(9),
            response_bytes: 128_000,
            period: 2 * MS,
            epochs: 3,
            start: MS,
        }
    }

    #[test]
    fn generates_synchronized_epochs() {
        let p = pattern();
        let epochs = p.generate();
        assert_eq!(epochs.len(), 3);
        for (e, flows) in epochs.iter().enumerate() {
            assert_eq!(flows.len(), 4);
            let t = MS + e as Time * 2 * MS;
            assert!(flows.iter().all(|f| f.start == t), "synchronized start");
            assert!(flows.iter().all(|f| f.dst == NodeId(9)));
            assert!(flows.iter().all(|f| f.size_bytes == 128_000));
        }
    }

    #[test]
    fn rct_is_slowest_minus_epoch_start() {
        let p = pattern();
        // Epoch 0 at 1 ms, epoch 1 at 3 ms, epoch 2 at 5 ms.
        let finishes: Vec<Time> = vec![
            2 * MS,
            2 * MS + 1,
            2 * MS,
            2 * MS, // epoch 0 → RCT 1 ms + 1
            4 * MS,
            3 * MS,
            3 * MS,
            3 * MS, // epoch 1 → RCT 1 ms
            6 * MS,
            6 * MS,
            7 * MS,
            6 * MS, // epoch 2 → RCT 2 ms
        ];
        let rct = request_completion_times(&p, &finishes);
        assert_eq!(rct, vec![MS + 1, MS, 2 * MS]);
    }

    #[test]
    #[should_panic(expected = "no self-incast")]
    fn rejects_self_incast() {
        let mut p = pattern();
        p.receiver = NodeId(0);
        p.generate();
    }
}

//! Output digests: one number that changes when the simulated network
//! changes, so a faster build can be shown to simulate the same one.
//!
//! Engine workloads digest `SimOutput::outcomes` sorted by flow id, so
//! the digest does not depend on the order a run (single engine or
//! sharded) emitted the records in. Figure binaries digest their stdout.

use netsim::flow::{FailReason, FlowOutcome, OutcomeRecord};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// FNV-1a of a byte string (a figure binary's stdout).
pub fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

fn outcome_code(o: FlowOutcome) -> u64 {
    match o {
        FlowOutcome::Completed => 0,
        FlowOutcome::Failed(FailReason::RtoGiveUp) => 1,
        FlowOutcome::Failed(FailReason::Deadline) => 2,
        FlowOutcome::Failed(FailReason::HostCrash) => 3,
        FlowOutcome::Failed(FailReason::Stalled) => 4,
        FlowOutcome::Failed(FailReason::Unfinished) => 5,
    }
}

/// FNV-1a over every outcome record, in flow-id order, of the fields
/// (flow, src, dst, size, start, ended, outcome, bytes acked).
pub fn outcome_digest(outcomes: &[OutcomeRecord]) -> u64 {
    let mut recs: Vec<&OutcomeRecord> = outcomes.iter().collect();
    recs.sort_by_key(|r| r.flow.0);
    let mut h = Fnv::new();
    for r in recs {
        for v in [
            u64::from(r.flow.0),
            u64::from(r.src.0),
            u64::from(r.dst.0),
            r.size_bytes,
            r.start,
            r.ended,
            outcome_code(r.outcome),
            r.bytes_acked,
        ] {
            h.u64(v);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::types::{FlowId, NodeId};

    fn rec(flow: u32, ended: u64) -> OutcomeRecord {
        OutcomeRecord {
            flow: FlowId(flow),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 1000,
            bytes_acked: 1000,
            start: 5,
            ended,
            outcome: FlowOutcome::Completed,
        }
    }

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(bytes_digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(bytes_digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(bytes_digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn outcome_digest_ignores_record_order() {
        let a = [rec(0, 10), rec(1, 30), rec(2, 20)];
        let b = [rec(2, 20), rec(0, 10), rec(1, 30)];
        assert_eq!(outcome_digest(&a), outcome_digest(&b));
    }

    #[test]
    fn outcome_digest_sees_every_field() {
        let base = [rec(0, 10), rec(1, 30)];
        let d = outcome_digest(&base);
        let edits: [fn(&mut OutcomeRecord); 8] = [
            |r| r.flow.0 += 7,
            |r| r.src.0 += 1,
            |r| r.dst.0 += 1,
            |r| r.size_bytes += 1,
            |r| r.start += 1,
            |r| r.ended += 1,
            |r| r.outcome = FlowOutcome::Failed(FailReason::Unfinished),
            |r| r.bytes_acked -= 1,
        ];
        for edit in edits {
            let mut changed = base;
            edit(&mut changed[1]);
            assert_ne!(outcome_digest(&changed), d, "{:?}", changed[1]);
        }
    }
}

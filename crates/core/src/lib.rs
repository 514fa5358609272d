#![allow(clippy::identity_op)] // `1 * MS` reads better than `MS` in timing code

//! # mlcc-core — Micro Loop Congestion Control
//!
//! The paper's contribution: a cross-datacenter congestion-control
//! protocol built from **fast micro control loops** instead of one long
//! end-to-end loop.
//!
//! ```text
//!  sender ──data──▶ [sender-side DC] ──▶ DCI ══ long haul ══ DCI ──▶ [receiver-side DC] ──▶ receiver
//!    ▲                                   │                    ▲  per-flow queues (PFQ)        │
//!    └────── Switch-INT (R_NS) ──────────┘                    └── R_credit via ACKs ──────────┘
//!    ▲                                                                                        │
//!    └───────────────────────────── R̄_DQM in ACKs (Eq. 9) ──────────────────────────────────┘
//! ```
//!
//! * **Near-source loop** (§3.2.1): the sender-side DCI strips the INT
//!   stack from departing data and returns it to the sender in a
//!   Switch-INT packet; [`rate_ctl::IntRateController`] turns it into
//!   `R_NS` within one intra-DC RTT.
//! * **Receiver-driven loop** (§3.2.2, Algorithm 1): [`credit::CreditLoop`]
//!   paces one update per receiver-side RTT via the credit echo and
//!   computes the PFQ dequeue rate `R_credit`.
//! * **DQM** (§3.3.1, Algorithm 2): [`dqm::Dqm`] predicts the DCI queue
//!   one cross-DC RTT ahead (Eq. 1–4), derates the sender (Eq. 5), and
//!   smooths with a token bucket (Eq. 6–9, [`token::TokenSmoother`]).
//! * **End-to-end combine** (§3.3.2): [`sender::MlccSender`] sends at
//!   `min(R_NS, R̄_DQM)` (Eq. 10): [`hybrid::DqmGoverned`], the
//!   ceiling the hybrid also puts on legacy algorithms, over the
//!   near-source loop [`sender::NearSourceSender`].
//!
//! [`MlccParams`] holds what the paper's evaluation varies (θ, D_t and
//! the DQM switch); the other §4.1 settings are constants.
//!
//! The data-plane mechanics (PFQ, credit stamping, Switch-INT emission)
//! live in `netsim`'s DCI switch; enable them with
//! [`netsim::config::DciFeatures::mlcc`].

pub mod credit;
pub mod dqm;
pub mod hybrid;
pub mod params;
pub mod rate_ctl;
pub mod receiver;
pub mod sender;
pub mod token;

use netsim::cc::{CcEnv, CcFactory, ReceiverCc, SenderCc};

pub use credit::{CreditLoop, CreditRound};
pub use dqm::Dqm;
pub use hybrid::{DqmGoverned, HybridFactory};
pub use params::MlccParams;
pub use rate_ctl::{HopFilter, IntRateController};
pub use receiver::MlccReceiver;
pub use sender::{MlccSender, NearSourceSender};
pub use token::TokenSmoother;

/// Factory wiring MLCC senders and receivers per flow.
///
/// Remember to run the simulator with
/// [`DciFeatures::mlcc()`](netsim::config::DciFeatures::mlcc) so the DCI
/// switches actually operate the PFQ and near-source mechanisms.
#[derive(Default)]
pub struct MlccFactory {
    pub params: MlccParams,
}

impl MlccFactory {
    pub fn new(params: MlccParams) -> Self {
        MlccFactory { params }
    }
}

impl CcFactory for MlccFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        let loop_rtt = if env.path.cross_dc {
            env.path.src_dc_rtt
        } else {
            env.path.base_rtt
        };
        let rate = env.path.line_rate_bps;
        Box::new(DqmGoverned::new(
            NearSourceSender::new(rate, loop_rtt, env.path.cross_dc),
            rate,
            env.path.cross_dc,
        ))
    }

    fn receiver(&self, env: &CcEnv) -> Box<dyn ReceiverCc> {
        let mtu_wire = env.mtu_bytes + netsim::packet::DATA_HEADER_BYTES;
        // The receiver-side structural bottleneck caps R_credit; for the
        // common case that is the destination NIC rate, conservatively
        // approximated by the path bottleneck.
        Box::new(MlccReceiver::new(
            self.params,
            env.path.bottleneck_bps,
            env.path.base_rtt,
            env.path.dst_dc_rtt,
            mtu_wire,
            env.path.cross_dc,
        ))
    }

    fn name(&self) -> &'static str {
        "mlcc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flow::{FlowPath, FlowSpec};
    use netsim::types::{FlowId, NodeId};
    use netsim::units::{GBPS, MS, US};

    pub(crate) fn env(cross: bool) -> CcEnv {
        CcEnv {
            flow: FlowSpec {
                id: FlowId(0),
                src: NodeId(0),
                dst: NodeId(1),
                size_bytes: 1_000_000,
                start: 0,
            },
            path: FlowPath {
                base_rtt: if cross { 6 * MS } else { 10 * US },
                src_dc_rtt: 20 * US,
                dst_dc_rtt: 25 * US,
                cross_dc: cross,
                line_rate_bps: 25 * GBPS,
                bottleneck_bps: 25 * GBPS,
                hops: if cross { 7 } else { 2 },
            },
            mtu_bytes: 1000,
        }
    }

    #[test]
    fn factory_builds_both_halves() {
        let f = MlccFactory::default();
        let s = f.sender(&env(true));
        assert_eq!(s.name(), "mlcc");
        assert_eq!(s.rate_bps(), 25e9);
        let _r = f.receiver(&env(true));
        let _s2 = f.sender(&env(false));
    }

    #[test]
    fn factory_name() {
        assert_eq!(MlccFactory::default().name(), "mlcc");
    }
}

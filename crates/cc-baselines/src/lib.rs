#![allow(clippy::identity_op)] // `1 * MS` reads better than `MS` in timing code

//! # cc-baselines — the congestion-control algorithms MLCC is compared
//! against
//!
//! Four end-to-end RDMA congestion-control algorithms, each implementing
//! `netsim`'s [`netsim::cc::SenderCc`] interface plus a factory
//! wiring the matching receiver behaviour:
//!
//! | Algorithm | Signal | Control | Module |
//! |---|---|---|---|
//! | DCQCN    | ECN → CNP        | rate, staged recovery | [`dcqcn`] |
//! | Timely   | RTT gradient     | rate                  | [`timely`] |
//! | HPCC     | INT utilization  | window                | [`hpcc`] |
//! | PowerTCP | INT power (λ·v)  | window                | [`powertcp`] |
//!
//! All four rely on **end-to-end** feedback: for a cross-datacenter flow
//! the control loop is the full ~6 ms RTT, which is exactly the weakness
//! the paper's MLCC addresses with its micro loops.
//!
//! Each algorithm runs with its published defaults, fixed as constants in
//! its module: the paper's evaluation varies none of them, so the
//! factories are unit structs.

pub mod dcqcn;
pub mod hpcc;
pub mod powertcp;
pub mod timely;

use netsim::cc::{
    CcEnv, CcFactory, EcnCnpReceiver, IntEchoReceiver, PlainReceiver, ReceiverCc, SenderCc,
};

pub use dcqcn::Dcqcn;
pub use hpcc::Hpcc;
pub use powertcp::PowerTcp;
pub use timely::Timely;

/// Factory for DCQCN flows (receiver: CNP on CE marks, paced by
/// [`netsim::cc::CNP_INTERVAL`]).
#[derive(Default)]
pub struct DcqcnFactory;

impl CcFactory for DcqcnFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(Dcqcn::new(env.path.line_rate_bps, env.flow.start))
    }
    fn receiver(&self, _env: &CcEnv) -> Box<dyn ReceiverCc> {
        Box::new(EcnCnpReceiver::default())
    }
    fn name(&self) -> &'static str {
        "dcqcn"
    }
}

/// Factory for Timely flows (receiver: plain ACKs with RTT echo).
#[derive(Default)]
pub struct TimelyFactory;

impl CcFactory for TimelyFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(Timely::new(env.path.line_rate_bps, env.path.base_rtt))
    }
    fn receiver(&self, _env: &CcEnv) -> Box<dyn ReceiverCc> {
        Box::new(PlainReceiver)
    }
    fn name(&self) -> &'static str {
        "timely"
    }
}

/// Factory for HPCC flows (receiver: INT echo on every ACK).
#[derive(Default)]
pub struct HpccFactory;

impl CcFactory for HpccFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(Hpcc::new(env.path.line_rate_bps, env.path.base_rtt))
    }
    fn receiver(&self, _env: &CcEnv) -> Box<dyn ReceiverCc> {
        Box::new(IntEchoReceiver)
    }
    fn name(&self) -> &'static str {
        "hpcc"
    }
}

/// Factory for PowerTCP flows (receiver: INT echo on every ACK).
#[derive(Default)]
pub struct PowerTcpFactory;

impl CcFactory for PowerTcpFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(PowerTcp::new(env.path.line_rate_bps, env.path.base_rtt))
    }
    fn receiver(&self, _env: &CcEnv) -> Box<dyn ReceiverCc> {
        Box::new(IntEchoReceiver)
    }
    fn name(&self) -> &'static str {
        "powertcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flow::{FlowPath, FlowSpec};
    use netsim::types::{FlowId, NodeId};
    use netsim::units::{GBPS, US};

    fn env() -> CcEnv {
        CcEnv {
            flow: FlowSpec {
                id: FlowId(0),
                src: NodeId(0),
                dst: NodeId(1),
                size_bytes: 1_000_000,
                start: 0,
            },
            path: FlowPath {
                base_rtt: 10 * US,
                src_dc_rtt: 10 * US,
                dst_dc_rtt: 10 * US,
                cross_dc: false,
                line_rate_bps: 25 * GBPS,
                bottleneck_bps: 25 * GBPS,
                hops: 2,
            },
            mtu_bytes: 1000,
        }
    }

    /// Each factory, and whether its sender is window-based.
    fn factories() -> [(Box<dyn CcFactory>, bool); 4] {
        [
            (Box::new(DcqcnFactory), false),
            (Box::new(TimelyFactory), false),
            (Box::new(HpccFactory), true),
            (Box::new(PowerTcpFactory), true),
        ]
    }

    #[test]
    fn factories_build_named_senders() {
        for (f, _) in factories() {
            let s = f.sender(&env());
            assert_eq!(s.name(), f.name());
            assert!(s.rate_bps() > 0.0);
        }
    }

    #[test]
    fn window_algorithms_cap_inflight() {
        for (f, windowed) in factories() {
            let s = f.sender(&env());
            assert_eq!(s.window_bytes().is_some(), windowed, "{}", f.name());
        }
    }
}

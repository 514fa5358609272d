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

pub mod dcqcn;
pub mod hpcc;
pub mod powertcp;
pub mod timely;

use netsim::cc::{
    CcEnv, CcFactory, EcnCnpReceiver, IntEchoReceiver, PlainReceiver, ReceiverCc, SenderCc,
};
use netsim::units::US;

pub use dcqcn::{Dcqcn, DcqcnParams};
pub use hpcc::{Hpcc, HpccParams};
pub use powertcp::{PowerTcp, PowerTcpParams};
pub use timely::{Timely, TimelyParams};

/// Factory for DCQCN flows (receiver: CNP on CE marks, 50 µs pacing).
#[derive(Default)]
pub struct DcqcnFactory {
    pub params: DcqcnParams,
}

impl CcFactory for DcqcnFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        let window = if self.params.window_bdps > 0.0 {
            let bdp = netsim::units::bytes_in(env.path.base_rtt, env.path.line_rate_bps);
            Some(((bdp as f64) * self.params.window_bdps) as u64)
        } else {
            None
        };
        Box::new(Dcqcn::with_window(
            self.params,
            env.path.line_rate_bps,
            env.flow.start,
            window,
        ))
    }
    fn receiver(&self, _env: &CcEnv) -> Box<dyn ReceiverCc> {
        Box::new(EcnCnpReceiver::new(50 * US))
    }
    fn name(&self) -> &'static str {
        "dcqcn"
    }
}

/// Factory for Timely flows (receiver: plain ACKs with RTT echo).
#[derive(Default)]
pub struct TimelyFactory {
    pub params: TimelyParams,
}

impl CcFactory for TimelyFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(Timely::new(
            self.params,
            env.path.line_rate_bps,
            env.path.base_rtt,
        ))
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
pub struct HpccFactory {
    pub params: HpccParams,
}

impl CcFactory for HpccFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(Hpcc::new(
            self.params,
            env.path.line_rate_bps,
            env.path.base_rtt,
        ))
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
pub struct PowerTcpFactory {
    pub params: PowerTcpParams,
}

impl CcFactory for PowerTcpFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(PowerTcp::new(
            self.params,
            env.path.line_rate_bps,
            env.path.base_rtt,
        ))
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

    /// Each factory with its default parameters, and whether its sender
    /// is window-based.
    fn factories() -> [(Box<dyn CcFactory>, bool); 4] {
        [
            (Box::new(DcqcnFactory::default()), false),
            (Box::new(TimelyFactory::default()), false),
            (Box::new(HpccFactory::default()), true),
            (Box::new(PowerTcpFactory::default()), true),
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

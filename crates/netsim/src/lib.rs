#![allow(clippy::identity_op)] // `1 * MS` reads better than `MS` in timing code

//! # netsim — a packet-level datacenter network simulator
//!
//! `netsim` is the substrate of the MLCC reproduction: a deterministic,
//! discrete-event, packet-level simulator of RoCE datacenter fabrics with
//! the mechanisms the paper's evaluation depends on:
//!
//! * store-and-forward links with per-priority egress queues,
//! * shared-buffer switches with RED/ECN marking and PFC (IEEE 802.1Qbb),
//! * in-band network telemetry (INT) records pushed per egress,
//! * DCI switches with per-flow queueing (PFQ), credit stamping, and
//!   near-source Switch-INT feedback — the MLCC data plane,
//! * rate-paced RDMA hosts with pluggable congestion control.
//!
//! Congestion-control algorithms plug in through [`cc::SenderCc`] /
//! [`cc::ReceiverCc`]; the baselines live in the `cc-baselines` crate and
//! MLCC itself in `mlcc-core`.
//!
//! ## Quick example
//!
//! ```
//! use netsim::prelude::*;
//!
//! // Two hosts through one switch at 10 Gbps.
//! let mut b = NetBuilder::new();
//! let h0 = b.add_host();
//! let h1 = b.add_host();
//! let s = b.add_switch(22_000_000, PfcConfig::dc_switch());
//! b.connect(h0, s, 10 * GBPS, US, LinkOpts::default());
//! b.connect(h1, s, 10 * GBPS, US, LinkOpts::default());
//!
//! let mut sim = Simulator::new(b.build(), SimConfig::default(), Box::new(NoCcFactory));
//! sim.add_flow(h0, h1, 1_000_000, 0);
//! assert!(sim.run_until_flows_complete());
//! assert_eq!(sim.out.fcts.len(), 1);
//! ```

pub mod alloc;
#[cfg(feature = "audit")]
pub mod audit;
pub mod buffer;
pub mod cc;
pub mod config;
pub mod densemap;
pub mod ecn;
pub mod event;
pub mod fault;
pub mod flow;
pub mod host;
pub mod int;
pub mod link;
pub mod monitor;
pub mod node;
pub mod packet;
pub mod pfc;
pub mod pfq;
pub mod queue;
pub mod rng;
pub mod routing;
pub mod shard;
pub mod sim;
pub mod switch;
pub mod topology;
pub mod trace;
pub mod types;
pub mod units;

/// The commonly used names, re-exported.
pub mod prelude {
    pub use crate::cc::{
        clamp_rate, AckFields, AckView, CcEnv, CcFactory, EcnCnpReceiver, FixedRateCc,
        IntEchoReceiver, NoCcFactory, PlainReceiver, ReceiverCc, SenderCc, MIN_SEND_RATE_BPS,
    };
    pub use crate::config::{DciFeatures, SimConfig};
    pub use crate::densemap::{DenseKey, DenseMap};
    pub use crate::ecn::EcnConfig;
    pub use crate::fault::{FaultProfile, FaultState, FlapWindow, GilbertElliott, NodeFault};
    pub use crate::flow::{FailReason, FctRecord, FlowOutcome, FlowPath, FlowSpec, OutcomeRecord};
    pub use crate::int::{HopHistory, IntHop, IntStack};
    pub use crate::link::LinkOpts;
    pub use crate::monitor::{MonitorLog, MonitorSpec, Sample};
    pub use crate::packet::{MlccFields, Packet, PacketKind, PktPool, MAX_PACKET_BYTES};
    pub use crate::pfc::PfcConfig;
    pub use crate::rng::{SimRng, Xoshiro256StarStar};
    pub use crate::shard::{
        partition_components, run_sharded, run_single_canonical, ShardCtx, ShardedOutput,
    };
    pub use crate::sim::{SimOutput, Simulator, WatchdogReport};
    pub use crate::topology::{
        DumbbellParams, DumbbellTopology, FatTreeParams, FatTreeTopology, MultiDcParams,
        MultiDcTopology, NetBuilder, Network, TwoDcParams, TwoDcTopology,
    };
    pub use crate::trace::{Trace, TraceEvent, TraceRecord};
    pub use crate::types::{FlowId, LinkId, NodeId, Priority};
    pub use crate::units::{
        bdp_bytes, bytes_in, fmt_bw, fmt_bytes, rate_bps, to_micros, to_millis, to_secs, tx_time,
        Bandwidth, Time, GBPS, KBPS, MBPS, MS, NS, PS, SEC, US,
    };
}

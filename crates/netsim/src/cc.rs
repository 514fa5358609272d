//! Congestion-control interface between the fabric and the algorithms.
//!
//! The simulator is algorithm-agnostic: every flow owns a boxed
//! [`SenderCc`] at its source host and a boxed [`ReceiverCc`] at its
//! destination host, created by the run's [`CcFactory`]. The fabric calls
//! the hooks; the algorithm answers with a pacing rate, an optional window,
//! and optional timer requests. Baseline algorithms live in the
//! `cc-baselines` crate and MLCC in `mlcc-core`.

use crate::flow::{FlowPath, FlowSpec};
use crate::int::IntStack;
use crate::packet::{MlccFields, Packet};
use crate::units::{Bandwidth, Time, US};

/// Facts available to an algorithm when a flow is created.
#[derive(Clone, Copy, Debug)]
pub struct CcEnv {
    pub flow: FlowSpec,
    pub path: FlowPath,
    /// Payload bytes per full-size packet.
    pub mtu_bytes: u32,
}

/// Sender-visible view of one arriving ACK.
#[derive(Clone, Copy, Debug)]
pub struct AckView<'a> {
    /// Cumulative bytes acknowledged.
    pub seq: u64,
    /// ECN congestion-experienced echo.
    pub ecn_echo: bool,
    /// RTT sample measured from the echoed send timestamp. `None` when
    /// the echoed timestamp was time-inverted (delivery before send —
    /// a fabric bug that trips a debug assertion first): estimators
    /// must skip the sample rather than ingest a clamped zero.
    pub rtt_sample: Option<Time>,
    /// INT stack echoed by the receiver (empty if the algorithm's receiver
    /// does not echo INT).
    pub int: &'a IntStack,
    /// MLCC smoothed DQM rate, if present.
    pub r_dqm_bps: Option<u64>,
    pub now: Time,
}

/// The sender half of a congestion-control algorithm: one instance per
/// flow, single-threaded within a simulation.
pub trait SenderCc {
    /// An ACK for this flow arrived.
    fn on_ack(&mut self, ack: &AckView<'_>);
    /// The NIC serialized `bytes` wire bytes of this flow (DCQCN's byte
    /// counter hangs off this).
    fn on_sent(&mut self, bytes: u64, now: Time) {
        let _ = (bytes, now);
    }
    /// A DCQCN CNP arrived.
    fn on_cnp(&mut self, now: Time) {
        let _ = now;
    }
    /// An MLCC Switch-INT feedback packet arrived (near-source loop).
    fn on_switch_int(&mut self, int: &IntStack, now: Time) {
        let _ = (int, now);
    }
    /// A previously requested timer fired (see [`SenderCc::next_timer`]).
    fn on_timer(&mut self, now: Time) {
        let _ = now;
    }
    /// Current pacing rate in bits per second. The host NIC clamps to
    /// `[MIN_SEND_RATE_BPS, line rate]`.
    fn rate_bps(&self) -> f64;
    /// Current in-flight cap in bytes, or `None` for rate-only control.
    fn window_bytes(&self) -> Option<u64> {
        None
    }
    /// Absolute time of the next timer callback this algorithm wants, if
    /// any. The host re-reads this after every hook and (re)schedules.
    fn next_timer(&self) -> Option<Time> {
        None
    }
    /// Short algorithm name for traces.
    fn name(&self) -> &'static str;
}

/// Instructions the receiver algorithm returns for each data packet; the
/// host builds the ACK (and optional CNP) from them.
#[derive(Clone, Copy, Debug, Default)]
pub struct AckFields {
    /// Emit a DCQCN CNP alongside the ACK.
    pub send_cnp: bool,
    /// Copy the data packet's INT stack into the ACK.
    pub echo_int: bool,
    /// MLCC fields to place in the ACK.
    pub mlcc: MlccFields,
}

/// The receiver half of a congestion-control algorithm.
pub trait ReceiverCc {
    /// A data packet arrived; describe the ACK to send back.
    fn on_data(&mut self, pkt: &Packet, now: Time) -> AckFields;
}

/// Creates per-flow sender/receiver pairs. One factory per simulation run.
pub trait CcFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc>;
    fn receiver(&self, env: &CcEnv) -> Box<dyn ReceiverCc>;
    fn name(&self) -> &'static str;
}

/// Floor pacing rate: no algorithm may starve a flow below this, mirroring
/// the minimum rate of production RDMA rate limiters.
pub const MIN_SEND_RATE_BPS: f64 = 10.0e6;

/// Clamp helper used by all algorithms.
#[inline]
pub fn clamp_rate(rate: f64, line_rate: Bandwidth) -> f64 {
    rate.clamp(MIN_SEND_RATE_BPS, line_rate as f64)
}

// ---------------------------------------------------------------------------
// Reusable receiver behaviours
// ---------------------------------------------------------------------------

/// Per-flow CNP timer of [`EcnCnpReceiver`]: the RoCEv2 standard 50 µs.
pub const CNP_INTERVAL: Time = 50 * US;

/// Receiver for ECN-based senders (DCQCN): requests a CNP when a marked
/// packet arrives and [`CNP_INTERVAL`] has passed since the flow's last
/// CNP.
#[derive(Default)]
pub struct EcnCnpReceiver {
    last_cnp: Option<Time>,
}

impl ReceiverCc for EcnCnpReceiver {
    fn on_data(&mut self, pkt: &Packet, now: Time) -> AckFields {
        let mut out = AckFields::default();
        if pkt.ecn {
            let due = match self.last_cnp {
                None => true,
                Some(t) => now >= t + CNP_INTERVAL,
            };
            if due {
                out.send_cnp = true;
                self.last_cnp = Some(now);
            }
        }
        out
    }
}

/// Receiver that echoes the INT stack on every ACK (HPCC, PowerTCP).
pub struct IntEchoReceiver;

impl ReceiverCc for IntEchoReceiver {
    fn on_data(&mut self, _pkt: &Packet, _now: Time) -> AckFields {
        AckFields {
            echo_int: true,
            ..AckFields::default()
        }
    }
}

/// Receiver that sends plain ACKs (Timely: the sender only needs the RTT
/// echo, which every ACK carries).
pub struct PlainReceiver;

impl ReceiverCc for PlainReceiver {
    fn on_data(&mut self, _pkt: &Packet, _now: Time) -> AckFields {
        AckFields::default()
    }
}

// ---------------------------------------------------------------------------
// A trivial fixed-rate algorithm, used by tests and as a no-CC baseline.
// ---------------------------------------------------------------------------

/// Constant-rate sender: paces at a fixed rate forever. Useful for fabric
/// unit tests and for demonstrating congestion collapse without control.
pub struct FixedRateCc {
    rate: f64,
    window: Option<u64>,
}

impl FixedRateCc {
    pub fn new(rate_bps: f64) -> Self {
        FixedRateCc {
            rate: rate_bps,
            window: None,
        }
    }

    pub fn with_window(rate_bps: f64, window_bytes: u64) -> Self {
        FixedRateCc {
            rate: rate_bps,
            window: Some(window_bytes),
        }
    }
}

impl SenderCc for FixedRateCc {
    fn on_ack(&mut self, _ack: &AckView<'_>) {}
    fn rate_bps(&self) -> f64 {
        self.rate
    }
    fn window_bytes(&self) -> Option<u64> {
        self.window
    }
    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Factory producing [`FixedRateCc`] at each flow's line rate (i.e. no
/// congestion control at all).
pub struct NoCcFactory;

impl CcFactory for NoCcFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(FixedRateCc::new(env.path.line_rate_bps as f64))
    }
    fn receiver(&self, _env: &CcEnv) -> Box<dyn ReceiverCc> {
        Box::new(PlainReceiver)
    }
    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FlowId, NodeId};
    use crate::units::GBPS;

    fn data_pkt(ecn: bool) -> Packet {
        let mut p = Packet::data(1, FlowId(0), NodeId(0), NodeId(1), 0, 1000, 0);
        p.ecn = ecn;
        p
    }

    #[test]
    fn ecn_receiver_rate_limits_cnps() {
        let mut r = EcnCnpReceiver::default();
        assert!(r.on_data(&data_pkt(true), 0).send_cnp, "first mark → CNP");
        assert!(
            !r.on_data(&data_pkt(true), 10 * US).send_cnp,
            "within interval → suppressed"
        );
        assert!(
            r.on_data(&data_pkt(true), CNP_INTERVAL).send_cnp,
            "interval elapsed → CNP"
        );
        assert!(
            !r.on_data(&data_pkt(false), 200 * US).send_cnp,
            "no mark → no CNP"
        );
    }

    #[test]
    fn int_echo_receiver() {
        let mut r = IntEchoReceiver;
        let out = r.on_data(&data_pkt(false), 0);
        assert!(out.echo_int);
        assert!(!out.send_cnp);
    }

    #[test]
    fn clamp_rate_bounds() {
        assert_eq!(clamp_rate(1.0, 25 * GBPS), MIN_SEND_RATE_BPS);
        assert_eq!(clamp_rate(1e18, 25 * GBPS), 25e9);
        assert_eq!(clamp_rate(5e9, 25 * GBPS), 5e9);
    }

    #[test]
    fn fixed_rate_cc() {
        let cc = FixedRateCc::with_window(1e9, 64_000);
        assert_eq!(cc.rate_bps(), 1e9);
        assert_eq!(cc.window_bytes(), Some(64_000));
        assert_eq!(cc.next_timer(), None);
    }
}

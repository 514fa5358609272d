//! Hybrid operation — MLCC's loops wrapped around an existing CCA.
//!
//! §5 and the conclusion of the paper claim MLCC "can be compatible with
//! existing methods on different loops": the DCI data plane (PFQ +
//! credit dequeue + DQM advertisements) works regardless of what
//! algorithm the *sender* runs end-to-end, as long as the sender honours
//! the advertised `R̄_DQM` ceiling. [`DqmGoverned`] wraps any
//! [`SenderCc`] with exactly that: the inner algorithm produces its own
//! rate, and the effective rate is `min(inner, R̄_DQM)` — Eq. 10, which
//! the MLCC sender itself applies over its near-source loop
//! ([`crate::sender::MlccSender`]).

use netsim::cc::{AckView, CcEnv, CcFactory, ReceiverCc, SenderCc};
use netsim::int::IntStack;
use netsim::units::Time;

use crate::MlccFactory;

/// Any sender, rate-ceilinged by the DQM advertisements in ACKs.
pub struct DqmGoverned<S: SenderCc> {
    inner: S,
    cross_dc: bool,
    r_dqm_bar: f64,
}

impl<S: SenderCc> DqmGoverned<S> {
    pub fn new(inner: S, line_rate_bps: u64, cross_dc: bool) -> Self {
        DqmGoverned {
            inner,
            cross_dc,
            r_dqm_bar: line_rate_bps as f64,
        }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Current DQM ceiling.
    pub fn ceiling_bps(&self) -> f64 {
        self.r_dqm_bar
    }
}

impl<S: SenderCc> SenderCc for DqmGoverned<S> {
    fn on_ack(&mut self, ack: &AckView<'_>) {
        if self.cross_dc {
            if let Some(r) = ack.r_dqm_bps {
                self.r_dqm_bar = r as f64;
            }
        }
        self.inner.on_ack(ack);
    }

    fn on_cnp(&mut self, now: Time) {
        self.inner.on_cnp(now);
    }

    fn on_switch_int(&mut self, int: &IntStack, now: Time) {
        self.inner.on_switch_int(int, now);
    }

    fn on_sent(&mut self, bytes: u64, now: Time) {
        self.inner.on_sent(bytes, now);
    }

    fn on_timer(&mut self, now: Time) {
        self.inner.on_timer(now);
    }

    fn rate_bps(&self) -> f64 {
        if self.cross_dc {
            // Eq. 10.
            self.inner.rate_bps().min(self.r_dqm_bar)
        } else {
            self.inner.rate_bps()
        }
    }

    fn window_bytes(&self) -> Option<u64> {
        self.inner.window_bytes()
    }

    fn next_timer(&self) -> Option<Time> {
        self.inner.next_timer()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Factory wrapping an existing CCA's factory with MLCC's receiver loops:
/// the receiver runs Algorithm 1 + DQM (so the DCI PFQ is credit-paced
/// and the DCI queue managed), while the sender keeps the legacy
/// algorithm, ceilinged by `R̄_DQM`.
///
/// Run with [`DciFeatures::mlcc()`](netsim::config::DciFeatures::mlcc) —
/// optionally with `near_source_enabled: false`, since the legacy sender
/// typically ignores Switch-INT anyway.
pub struct HybridFactory<F: CcFactory> {
    pub inner: F,
}

impl<F: CcFactory> HybridFactory<F> {
    pub fn new(inner: F) -> Self {
        HybridFactory { inner }
    }
}

impl<F: CcFactory> CcFactory for HybridFactory<F> {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(DqmGoverned::new(
            BoxedSender(self.inner.sender(env)),
            env.path.line_rate_bps,
            env.path.cross_dc,
        ))
    }

    fn receiver(&self, env: &CcEnv) -> Box<dyn ReceiverCc> {
        if env.path.cross_dc {
            MlccFactory::default().receiver(env)
        } else {
            // Intra-DC flows keep the legacy algorithm's receiver (e.g.
            // DCQCN's CNP generation).
            self.inner.receiver(env)
        }
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }
}

/// Adapter so a boxed sender can be wrapped by the generic governor.
struct BoxedSender(Box<dyn SenderCc>);

impl SenderCc for BoxedSender {
    fn on_ack(&mut self, ack: &AckView<'_>) {
        self.0.on_ack(ack)
    }
    fn on_cnp(&mut self, now: Time) {
        self.0.on_cnp(now)
    }
    fn on_switch_int(&mut self, int: &IntStack, now: Time) {
        self.0.on_switch_int(int, now)
    }
    fn on_sent(&mut self, bytes: u64, now: Time) {
        self.0.on_sent(bytes, now)
    }
    fn on_timer(&mut self, now: Time) {
        self.0.on_timer(now)
    }
    fn rate_bps(&self) -> f64 {
        self.0.rate_bps()
    }
    fn window_bytes(&self) -> Option<u64> {
        self.0.window_bytes()
    }
    fn next_timer(&self) -> Option<Time> {
        self.0.next_timer()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::cc::{FixedRateCc, NoCcFactory};
    use netsim::packet::Packet;
    use netsim::types::{FlowId, NodeId};

    fn ack(r_dqm: Option<u64>) -> (IntStack, Option<u64>) {
        (IntStack::new(), r_dqm)
    }

    #[test]
    fn ceiling_applies_to_cross_flows() {
        let mut g = DqmGoverned::new(FixedRateCc::new(25e9), 25_000_000_000, true);
        assert_eq!(g.rate_bps(), 25e9);
        let (int, r) = ack(Some(4_000_000_000));
        g.on_ack(&AckView {
            seq: 1000,
            ecn_echo: false,
            rtt_sample: Some(0),
            int: &int,
            r_dqm_bps: r,
            now: 0,
        });
        assert_eq!(g.rate_bps(), 4e9, "ceiling binds");
        assert_eq!(g.ceiling_bps(), 4e9);
        // Ceiling above the inner rate: inner wins.
        let (int, r) = ack(Some(30_000_000_000));
        g.on_ack(&AckView {
            seq: 2000,
            ecn_echo: false,
            rtt_sample: Some(0),
            int: &int,
            r_dqm_bps: r,
            now: 0,
        });
        assert_eq!(g.rate_bps(), 25e9);
    }

    #[test]
    fn intra_flows_are_untouched() {
        let mut g = DqmGoverned::new(FixedRateCc::new(10e9), 25_000_000_000, false);
        let (int, r) = ack(Some(1_000_000));
        g.on_ack(&AckView {
            seq: 1,
            ecn_echo: false,
            rtt_sample: Some(0),
            int: &int,
            r_dqm_bps: r,
            now: 0,
        });
        assert_eq!(g.rate_bps(), 10e9, "no ceiling for intra-DC flows");
    }

    #[test]
    fn window_and_timers_pass_through() {
        let g = DqmGoverned::new(FixedRateCc::with_window(10e9, 4096), 25_000_000_000, true);
        assert_eq!(g.window_bytes(), Some(4096));
        assert_eq!(g.next_timer(), None);
        assert_eq!(g.inner().rate_bps(), 10e9);
    }

    #[test]
    fn hybrid_receivers_split_on_cross_dc() {
        let f = HybridFactory::new(NoCcFactory);
        let data = Packet::data(1, FlowId(0), NodeId(0), NodeId(1), 0, 1000, 0);
        // Cross-DC: MLCC's receiver, which advertises R̄_DQM from the
        // first ACK on.
        let cross = f.receiver(&crate::tests::env(true)).on_data(&data, 0);
        assert!(cross.mlcc.r_dqm_bps().is_some());
        // Intra-DC: the inner algorithm's plain receiver, with neither
        // R̄_DQM nor the INT echo MLCC's intra-DC receiver sends.
        let intra = f.receiver(&crate::tests::env(false)).on_data(&data, 0);
        assert!(intra.mlcc.r_dqm_bps().is_none());
        assert!(!intra.echo_int);
        // The governed sender keeps the inner algorithm's name.
        assert_eq!(f.sender(&crate::tests::env(true)).name(), "fixed");
    }
}

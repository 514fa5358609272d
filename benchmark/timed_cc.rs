//! A congestion-control decorator that counts every hook call and times
//! the mutating ones, for the traced pass's CC-layer metrics.
//!
//! The `&self` getters (`rate_bps`, `window_bytes`, `next_timer`,
//! `name`) run after every hook; they are counted but not timed, which
//! keeps the decorator's own cost to two clock reads per mutating call.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netsim::cc::{AckFields, AckView, CcEnv, CcFactory, ReceiverCc, SenderCc};
use netsim::int::IntStack;
use netsim::packet::Packet;
use netsim::units::Time;

/// The CC hooks the decorator tells apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    Ack,
    Sent,
    Cnp,
    SwitchInt,
    Timer,
    Data,
    Getter,
}

impl Hook {
    pub const ALL: [Hook; 7] = [
        Hook::Ack,
        Hook::Sent,
        Hook::Cnp,
        Hook::SwitchInt,
        Hook::Timer,
        Hook::Data,
        Hook::Getter,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Hook::Ack => "on_ack",
            Hook::Sent => "on_sent",
            Hook::Cnp => "on_cnp",
            Hook::SwitchInt => "on_switch_int",
            Hook::Timer => "on_timer",
            Hook::Data => "on_data",
            Hook::Getter => "getter",
        }
    }
}

/// Hook counts and the time spent inside the timed hooks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CcStats {
    pub calls: [u64; 7],
    pub busy_ns: u64,
}

impl CcStats {
    pub fn calls(&self, hook: Hook) -> u64 {
        self.calls[hook as usize]
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Calls of the hooks that are timed (every hook but the getters).
    pub fn timed_calls(&self) -> u64 {
        self.total_calls() - self.calls(Hook::Getter)
    }
}

/// One thread's counters, shared by a factory and every sender and
/// receiver it made. A simulator never leaves its thread, so plain
/// cells suffice; the totals reach the shared sink when the last holder
/// is dropped, which for a sharded run is inside the shard thread.
struct Tally {
    calls: [Cell<u64>; 7],
    busy_ns: Cell<u64>,
    sink: Arc<Mutex<CcStats>>,
}

impl Tally {
    #[inline]
    fn count(&self, hook: Hook) {
        let c = &self.calls[hook as usize];
        c.set(c.get() + 1);
    }

    #[inline]
    fn time<R>(&self, hook: Hook, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.set(self.busy_ns.get() + ns);
        self.count(hook);
        r
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        // Every update leaves the counters valid, so a guard poisoned by
        // a panic elsewhere is still safe to add to.
        let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
        for (total, c) in sink.calls.iter_mut().zip(&self.calls) {
            *total += c.get();
        }
        sink.busy_ns += self.busy_ns.get();
    }
}

/// Wraps any [`CcFactory`] so that its senders and receivers report hook
/// counts and busy time into `sink`.
pub struct TimedCcFactory {
    inner: Box<dyn CcFactory>,
    tally: Rc<Tally>,
}

impl TimedCcFactory {
    pub fn new(inner: Box<dyn CcFactory>, sink: Arc<Mutex<CcStats>>) -> Self {
        TimedCcFactory {
            inner,
            tally: Rc::new(Tally {
                calls: Default::default(),
                busy_ns: Cell::new(0),
                sink,
            }),
        }
    }
}

impl CcFactory for TimedCcFactory {
    fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(TimedSender {
            inner: self.inner.sender(env),
            tally: Rc::clone(&self.tally),
        })
    }

    fn receiver(&self, env: &CcEnv) -> Box<dyn ReceiverCc> {
        Box::new(TimedReceiver {
            inner: self.inner.receiver(env),
            tally: Rc::clone(&self.tally),
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct TimedSender {
    inner: Box<dyn SenderCc>,
    tally: Rc<Tally>,
}

impl SenderCc for TimedSender {
    fn on_ack(&mut self, ack: &AckView<'_>) {
        self.tally.time(Hook::Ack, || self.inner.on_ack(ack));
    }

    fn on_sent(&mut self, bytes: u64, now: Time) {
        self.tally
            .time(Hook::Sent, || self.inner.on_sent(bytes, now));
    }

    fn on_cnp(&mut self, now: Time) {
        self.tally.time(Hook::Cnp, || self.inner.on_cnp(now));
    }

    fn on_switch_int(&mut self, int: &IntStack, now: Time) {
        self.tally
            .time(Hook::SwitchInt, || self.inner.on_switch_int(int, now));
    }

    fn on_timer(&mut self, now: Time) {
        self.tally.time(Hook::Timer, || self.inner.on_timer(now));
    }

    fn rate_bps(&self) -> f64 {
        self.tally.count(Hook::Getter);
        self.inner.rate_bps()
    }

    fn window_bytes(&self) -> Option<u64> {
        self.tally.count(Hook::Getter);
        self.inner.window_bytes()
    }

    fn next_timer(&self) -> Option<Time> {
        self.tally.count(Hook::Getter);
        self.inner.next_timer()
    }

    fn name(&self) -> &'static str {
        self.tally.count(Hook::Getter);
        self.inner.name()
    }
}

struct TimedReceiver {
    inner: Box<dyn ReceiverCc>,
    tally: Rc<Tally>,
}

impl ReceiverCc for TimedReceiver {
    fn on_data(&mut self, pkt: &Packet, now: Time) -> AckFields {
        self.tally.time(Hook::Data, || self.inner.on_data(pkt, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::outcome_digest;
    use netsim::prelude::*;

    /// Two cross-DC flows and one local flow on the testbed dumbbell
    /// under MLCC; returns the outcome digest.
    fn dumbbell_digest(factory: Box<dyn CcFactory>) -> u64 {
        let topo = DumbbellTopology::build(DumbbellParams::default());
        let cfg = SimConfig {
            stop_time: 50 * MS,
            dci: DciFeatures::mlcc(),
            ..SimConfig::default()
        };
        let mut sim = Simulator::try_new(topo.net, cfg, factory).expect("valid dumbbell");
        let [a, b] = [&topo.servers[0], &topo.servers[1]];
        for (src, dst, size, start) in [
            (a[0], b[0], 400_000, 0),
            (a[1], b[1], 300_000, 20 * US),
            (a[1], a[0], 200_000, 10 * US),
        ] {
            sim.try_add_flow(src, dst, size, start).expect("valid flow");
        }
        assert!(sim.run_until_flows_complete());
        outcome_digest(&sim.out.outcomes)
    }

    #[test]
    fn decorator_leaves_the_simulation_unchanged() {
        let plain = dumbbell_digest(Box::new(mlcc_core::MlccFactory::default()));
        let sink = Arc::new(Mutex::new(CcStats::default()));
        let timed = dumbbell_digest(Box::new(TimedCcFactory::new(
            Box::new(mlcc_core::MlccFactory::default()),
            Arc::clone(&sink),
        )));
        assert_eq!(timed, plain);
        let stats = *sink.lock().unwrap();
        assert!(stats.calls(Hook::Ack) > 0 && stats.calls(Hook::Data) > 0);
        assert!(stats.calls(Hook::SwitchInt) > 0, "MLCC near-source loop");
        assert!(stats.calls(Hook::Getter) > stats.calls(Hook::Ack));
        assert!(stats.busy_ns > 0);
    }
}

//! Deterministic fault injection for the WAN path.
//!
//! The fabric is perfectly reliable by construction — the only packet
//! loss is shared-buffer overflow. Real DCI long-haul segments are not:
//! they see random bit-error loss, bursty loss (protection switching,
//! shallow-fade windows on microwave/undersea segments), delay jitter
//! from intermediate carrier equipment, and hard down/up flaps. A
//! [`FaultProfile`] attached to a link models exactly those four knobs.
//!
//! ## Determinism contract
//!
//! Every fault-enabled link draws from its **own**
//! [`Xoshiro256StarStar`] substream, derived from
//! `(cfg.seed ⊕ FAULT_STREAM_SALT, link id)`. Consequences:
//!
//! * enabling faults on one link never perturbs the draws any other
//!   consumer (ECN sampler, workload generator, other faulty links)
//!   sees — golden determinism tests keep passing bit-for-bit;
//! * a run with faults is itself bitwise-reproducible per seed;
//! * links with no profile attached draw nothing at all, so a
//!   [`FaultProfile::default()`] run is identical to a pre-fault build.
//!
//! Loss draws happen at serialization start (the egress still spends the
//! wire time — a corrupted packet occupies the link before the far-end
//! FCS check discards it). Jitter is modeled as *queueing-delay
//! variation on the carrier segment*: it stretches propagation but is
//! clamped monotonic per link, so it never reorders packets — go-back-N
//! receivers would otherwise discard every overtaken packet and turn a
//! microsecond of jitter into a retransmission storm, which is not the
//! phenomenon the knob is for.
//!
//! Loss is the same for every packet kind: one uniform rate, plus a
//! Gilbert–Elliott channel that loses packets only in its Bad state.

use crate::config::ConfigError;
use crate::rng::{SimRng, Xoshiro256StarStar};
use crate::types::NodeId;
use crate::units::Time;

/// Mixed into the simulation seed before substream derivation so the
/// per-link fault streams can never collide with other substream
/// consumers that key off the raw seed.
const FAULT_STREAM_SALT: u64 = 0x8BAD_F00D_5EED_CAFE;

/// Two-state Gilbert–Elliott burst-loss model.
///
/// The channel is in a Good or Bad state; each packet first makes a
/// state transition draw, then a loss draw. The Good state is lossless
/// but still takes its loss draw, so every packet costs two draws in
/// either state; the Bad state loses at `loss_bad`. Classic bursty WAN
/// loss uses a small `p_enter_bad` and a moderate `p_exit_bad`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// P(Good → Bad) evaluated once per packet.
    pub p_enter_bad: f64,
    /// P(Bad → Good) evaluated once per packet.
    pub p_exit_bad: f64,
    /// Per-packet loss probability while Bad.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A conventional bursty-WAN parameterization: mean burst length
    /// `1/p_exit_bad` packets, stationary Bad-state occupancy
    /// `p_enter_bad/(p_enter_bad+p_exit_bad)`.
    pub fn bursty(p_enter_bad: f64, p_exit_bad: f64, loss_bad: f64) -> Self {
        GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_bad,
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        for (name, p) in [
            ("gilbert.p_enter_bad", self.p_enter_bad),
            ("gilbert.p_exit_bad", self.p_exit_bad),
            ("gilbert.loss_bad", self.loss_bad),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::FaultProbability {
                    knob: name,
                    bits: p.to_bits(),
                });
            }
        }
        // A transition probability of exactly 1.0 means the state is
        // left on the very draw that entered it: zero dwell time, so
        // the state can never filter a packet and the model degenerates.
        if self.p_enter_bad == 1.0 {
            return Err(ConfigError::ZeroLengthGilbertState { state: "good" });
        }
        if self.p_exit_bad == 1.0 {
            return Err(ConfigError::ZeroLengthGilbertState { state: "bad" });
        }
        Ok(())
    }
}

/// One scheduled down/up window of a link flap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlapWindow {
    /// The link goes dark at this time …
    pub down_at: Time,
    /// … and carries traffic again from this time.
    pub up_at: Time,
}

/// Everything that can go wrong on one link.
///
/// The default profile is fully inert: no loss, no jitter, no flaps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultProfile {
    /// Independent per-packet loss probability, for data and control
    /// packets alike.
    pub loss: f64,
    /// Burst-loss channel model, applied to every packet kind.
    pub gilbert: Option<GilbertElliott>,
    /// Maximum extra one-way delay; each packet draws uniformly from
    /// `[0, jitter_max]`, clamped so arrivals stay FIFO per link.
    pub jitter_max: Time,
    /// Scheduled down/up windows. While down, everything serialized
    /// onto the link is black-holed (data *and* control).
    pub flaps: Vec<FlapWindow>,
}

impl FaultProfile {
    /// Uniform random loss at probability `p`.
    pub fn uniform_loss(p: f64) -> Self {
        FaultProfile {
            loss: p,
            ..FaultProfile::default()
        }
    }

    /// One down/up window.
    pub fn flap(down_at: Time, up_at: Time) -> Self {
        FaultProfile {
            flaps: vec![FlapWindow { down_at, up_at }],
            ..FaultProfile::default()
        }
    }

    /// Builder-style jitter knob.
    pub fn with_jitter(mut self, jitter_max: Time) -> Self {
        self.jitter_max = jitter_max;
        self
    }

    /// Builder-style burst-loss knob.
    pub fn with_gilbert(mut self, ge: GilbertElliott) -> Self {
        self.gilbert = Some(ge);
        self
    }

    /// Whether the profile does anything at all. Inert profiles are not
    /// attached to links, which keeps no-fault runs bit-identical to
    /// builds that predate fault injection.
    pub fn is_active(&self) -> bool {
        self.loss > 0.0 || self.gilbert.is_some() || self.jitter_max > 0 || !self.flaps.is_empty()
    }

    /// Reject nonsensical parameters with a typed [`ConfigError`]:
    /// probabilities outside [0, 1], inverted or overlapping flap
    /// windows, zero-dwell Gilbert–Elliott states.
    /// [`crate::sim::Simulator::inject_link_faults`] returns this error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(ConfigError::FaultProbability {
                knob: "loss",
                bits: self.loss.to_bits(),
            });
        }
        if let Some(ge) = &self.gilbert {
            ge.validate()?;
        }
        let mut prev_up: Option<Time> = None;
        for w in &self.flaps {
            if w.down_at >= w.up_at {
                return Err(ConfigError::InvertedFlapWindow {
                    down_at: w.down_at,
                    up_at: w.up_at,
                });
            }
            if let Some(up) = prev_up {
                if w.down_at < up {
                    return Err(ConfigError::OverlappingFlapWindows {
                        prev_up: up,
                        next_down: w.down_at,
                    });
                }
            }
            prev_up = Some(w.up_at);
        }
        Ok(())
    }
}

/// A scheduled node-level fault: a host or switch that crashes at
/// `down_at` and, if `up_at` is set, restarts there — otherwise the
/// node never comes back.
///
/// A crashed *host* black-holes every packet addressed to it and emits
/// nothing; its flows stall, then fail (give-up policy or watchdog) or
/// resume on restart. A crashed *switch* black-holes transit traffic
/// and its buffered packets are drained (dropped) at crash time —
/// a dead line card holds no state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeFault {
    pub node: NodeId,
    pub down_at: Time,
    pub up_at: Option<Time>,
}

impl NodeFault {
    /// A permanent crash: the node never restarts.
    pub fn crash(node: NodeId, down_at: Time) -> Self {
        NodeFault {
            node,
            down_at,
            up_at: None,
        }
    }

    /// A crash/restart window.
    pub fn restart(node: NodeId, down_at: Time, up_at: Time) -> Self {
        NodeFault {
            node,
            down_at,
            up_at: Some(up_at),
        }
    }

    /// A restart must come strictly after the crash.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(up) = self.up_at {
            if self.down_at >= up {
                return Err(ConfigError::InvertedFlapWindow {
                    down_at: self.down_at,
                    up_at: up,
                });
            }
        }
        Ok(())
    }
}

/// Runtime fault state of one link: the profile, the link's private RNG
/// substream, the Gilbert–Elliott channel state, and counters.
#[derive(Clone, Debug)]
pub struct FaultState {
    pub profile: FaultProfile,
    rng: Xoshiro256StarStar,
    /// Gilbert–Elliott channel state.
    in_bad: bool,
    /// Currently inside a flap window.
    pub down: bool,
    /// Latest (jitter-clamped) arrival time handed out, for the FIFO
    /// monotonicity clamp.
    last_arrival: Time,
    /// Packets dropped by this link's faults (all causes).
    pub drops: u64,
    /// Subset of `drops` black-holed while the link was down.
    pub flap_drops: u64,
    /// Packets whose arrival was delayed by a nonzero jitter draw.
    pub jittered: u64,
}

impl FaultState {
    /// Build the state for `link_id`, deriving the link's private
    /// substream from the simulation seed.
    pub fn new(profile: FaultProfile, sim_seed: u64, link_id: u64) -> Self {
        if let Err(e) = profile.validate() {
            panic!("{e}");
        }
        FaultState {
            profile,
            rng: Xoshiro256StarStar::substream(sim_seed ^ FAULT_STREAM_SALT, link_id),
            in_bad: false,
            down: false,
            last_arrival: 0,
            drops: 0,
            flap_drops: 0,
            jittered: 0,
        }
    }

    /// Decide whether the packet now starting serialization is lost.
    /// Consumes a fixed number of draws per configured knob (two for
    /// Gilbert–Elliott, one for a nonzero uniform knob) so the draw
    /// sequence depends only on the profile and the packet sequence.
    pub fn loses(&mut self) -> bool {
        let mut lost = false;
        if let Some(ge) = self.profile.gilbert {
            let flip = if self.in_bad {
                ge.p_exit_bad
            } else {
                ge.p_enter_bad
            };
            if self.rng.gen_f64() < flip {
                self.in_bad = !self.in_bad;
            }
            // The lossless Good state still draws, so every packet costs
            // the channel two draws and replays do not depend on its state.
            let p = if self.in_bad { ge.loss_bad } else { 0.0 };
            if self.rng.gen_f64() < p {
                lost = true;
            }
        }
        let p = self.profile.loss;
        if p > 0.0 && self.rng.gen_f64() < p {
            lost = true;
        }
        if lost {
            self.drops += 1;
        }
        lost
    }

    /// Record a packet black-holed while the link was down (no RNG
    /// draw: a dark wire loses everything).
    pub fn down_drop(&mut self) {
        self.drops += 1;
        self.flap_drops += 1;
    }

    /// Draw this packet's extra delay and clamp the resulting arrival
    /// time to be FIFO with respect to earlier arrivals on this link.
    /// `nominal` is the undelayed arrival time; returns the jittered one.
    pub fn jittered_arrival(&mut self, nominal: Time) -> Time {
        let j = self.profile.jitter_max;
        if j == 0 {
            // No clamp state either: jitterless profiles must not alter
            // arrival times at all.
            return nominal;
        }
        let extra = self.rng.gen_range(0..j + 1);
        if extra > 0 {
            self.jittered += 1;
        }
        let at = (nominal + extra).max(self.last_arrival);
        self.last_arrival = at;
        at
    }

    /// Fault-bookkeeping invariants (drain-time audit): the profile is
    /// still well-formed and the drop counters are internally coherent
    /// (flap drops are a subset of all drops).
    #[cfg(feature = "audit")]
    pub fn audit_check(&self) {
        if let Err(e) = self.profile.validate() {
            panic!("AUDIT VIOLATION: fault profile went bad in flight: {e}");
        }
        assert!(
            self.flap_drops <= self.drops,
            "AUDIT VIOLATION: link flap drops {} exceed total fault drops {}",
            self.flap_drops,
            self.drops
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{MS, US};

    #[test]
    fn default_profile_is_inert() {
        let p = FaultProfile::default();
        assert!(!p.is_active());
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn constructors_are_active() {
        assert!(FaultProfile::uniform_loss(0.01).is_active());
        assert!(FaultProfile::flap(MS, 2 * MS).is_active());
        assert!(FaultProfile::default().with_jitter(US).is_active());
        assert!(FaultProfile::default()
            .with_gilbert(GilbertElliott::bursty(0.01, 0.2, 0.5))
            .is_active());
    }

    #[test]
    fn validate_rejects_bad_probability() {
        for p in [1.5, -0.25] {
            assert_eq!(
                FaultProfile::uniform_loss(p).validate(),
                Err(ConfigError::FaultProbability {
                    knob: "loss",
                    bits: p.to_bits(),
                })
            );
        }
    }

    #[test]
    fn validate_rejects_inverted_flap() {
        assert_eq!(
            FaultProfile::flap(2 * MS, MS).validate(),
            Err(ConfigError::InvertedFlapWindow {
                down_at: 2 * MS,
                up_at: MS,
            })
        );
        // Zero-length windows count as inverted: there is no down
        // interval at all.
        assert_eq!(
            FaultProfile::flap(MS, MS).validate(),
            Err(ConfigError::InvertedFlapWindow {
                down_at: MS,
                up_at: MS,
            })
        );
    }

    #[test]
    fn validate_rejects_overlapping_flaps() {
        let p = FaultProfile {
            flaps: vec![
                FlapWindow {
                    down_at: MS,
                    up_at: 3 * MS,
                },
                FlapWindow {
                    down_at: 2 * MS,
                    up_at: 4 * MS,
                },
            ],
            ..FaultProfile::default()
        };
        assert_eq!(
            p.validate(),
            Err(ConfigError::OverlappingFlapWindows {
                prev_up: 3 * MS,
                next_down: 2 * MS,
            })
        );
        // Back-to-back windows (next down exactly at previous up) are
        // allowed: the link is never down twice at one instant.
        let ok = FaultProfile {
            flaps: vec![
                FlapWindow {
                    down_at: MS,
                    up_at: 2 * MS,
                },
                FlapWindow {
                    down_at: 2 * MS,
                    up_at: 3 * MS,
                },
            ],
            ..FaultProfile::default()
        };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_dwell_gilbert_states() {
        let good = FaultProfile::default().with_gilbert(GilbertElliott::bursty(1.0, 0.2, 0.5));
        assert_eq!(
            good.validate(),
            Err(ConfigError::ZeroLengthGilbertState { state: "good" })
        );
        let bad = FaultProfile::default().with_gilbert(GilbertElliott::bursty(0.01, 1.0, 0.5));
        assert_eq!(
            bad.validate(),
            Err(ConfigError::ZeroLengthGilbertState { state: "bad" })
        );
        let out_of_range =
            FaultProfile::default().with_gilbert(GilbertElliott::bursty(0.01, 0.2, 1.5));
        assert_eq!(
            out_of_range.validate(),
            Err(ConfigError::FaultProbability {
                knob: "gilbert.loss_bad",
                bits: 1.5f64.to_bits(),
            })
        );
    }

    #[test]
    #[should_panic(expected = "fault profile loss")]
    fn fault_state_construction_panics_on_invalid_profile() {
        FaultState::new(FaultProfile::uniform_loss(1.5), 1, 0);
    }

    #[test]
    fn node_fault_validates_its_window() {
        assert_eq!(NodeFault::crash(NodeId(3), MS).validate(), Ok(()));
        assert_eq!(NodeFault::restart(NodeId(3), MS, 2 * MS).validate(), Ok(()));
        assert_eq!(
            NodeFault::restart(NodeId(3), 2 * MS, MS).validate(),
            Err(ConfigError::InvertedFlapWindow {
                down_at: 2 * MS,
                up_at: MS,
            })
        );
    }

    #[test]
    fn uniform_loss_rate_is_close() {
        let mut st = FaultState::new(FaultProfile::uniform_loss(0.1), 7, 3);
        let n = 100_000;
        let lost = (0..n).filter(|_| st.loses()).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
        assert!(!st.down);
    }

    #[test]
    fn lossless_good_state_still_draws_twice_per_packet() {
        // A channel that never leaves Good loses nothing, yet each packet
        // still costs its transition draw and its loss draw.
        let ge = GilbertElliott::bursty(0.0, 0.5, 1.0);
        let mut st = FaultState::new(FaultProfile::default().with_gilbert(ge), 3, 1);
        let mut twin = Xoshiro256StarStar::substream(3 ^ FAULT_STREAM_SALT, 1);
        for _ in 0..100 {
            assert!(!st.loses());
            twin.gen_f64();
            twin.gen_f64();
        }
        assert_eq!(st.rng.next_u64(), twin.next_u64());
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        // Bad state: certain loss; mean burst 1/0.2 = 5 packets.
        let ge = GilbertElliott::bursty(0.02, 0.2, 1.0);
        let mut st = FaultState::new(FaultProfile::default().with_gilbert(ge), 42, 0);
        let outcomes: Vec<bool> = (0..200_000).map(|_| st.loses()).collect();
        let lost = outcomes.iter().filter(|&&l| l).count();
        // Stationary Bad occupancy 0.02/(0.02+0.2) ≈ 9.1%.
        let rate = lost as f64 / outcomes.len() as f64;
        assert!((rate - 0.091).abs() < 0.02, "loss rate {rate}");
        // Burstiness: mean run length of losses well above 1.
        let mut runs = 0usize;
        let mut in_run = false;
        for &l in &outcomes {
            if l && !in_run {
                runs += 1;
            }
            in_run = l;
        }
        let mean_run = lost as f64 / runs as f64;
        assert!(mean_run > 2.0, "mean loss burst {mean_run} (uniform ≈ 1)");
    }

    #[test]
    fn per_link_substreams_are_isolated_and_replayable() {
        let draws = |link: u64| {
            let mut st = FaultState::new(FaultProfile::uniform_loss(0.5), 99, link);
            (0..64).map(|_| st.loses()).collect::<Vec<_>>()
        };
        assert_eq!(draws(0), draws(0), "same (seed, link) replays exactly");
        assert_ne!(draws(0), draws(1), "links draw from distinct streams");
    }

    #[test]
    fn jitter_is_bounded_and_fifo() {
        let profile = FaultProfile::default().with_jitter(50 * US);
        let mut st = FaultState::new(profile, 5, 2);
        let mut prev: Time = 0;
        for i in 0..10_000u64 {
            let nominal = i * 10 * US;
            let at = st.jittered_arrival(nominal);
            assert!(at >= nominal && at <= nominal + 50 * US + prev.saturating_sub(nominal));
            assert!(at >= prev, "arrivals must stay FIFO");
            prev = at;
        }
        assert!(st.jittered > 9_000, "jitter draws actually delay packets");
    }

    #[test]
    fn zero_jitter_never_touches_arrivals() {
        let mut st = FaultState::new(FaultProfile::uniform_loss(0.1), 5, 2);
        for i in 0..100u64 {
            assert_eq!(st.jittered_arrival(i * US), i * US);
        }
        assert_eq!(st.jittered, 0);
    }
}

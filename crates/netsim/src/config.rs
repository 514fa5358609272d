//! Run-level configuration with the paper's defaults, plus validation
//! of the (config, network) pair against degenerate inputs.

use crate::cc::MIN_SEND_RATE_BPS;
use crate::topology::Network;
use crate::types::{LinkId, NodeId};
use crate::units::{Bandwidth, Time, MS};

/// DCI-switch feature switches: the MLCC data-plane mechanisms. Baseline
/// algorithms run with everything off (the DCI behaves as a plain
/// deep-buffer switch); MLCC runs with everything on.
#[derive(Clone, Copy, Debug)]
pub struct DciFeatures {
    /// Receiver-side per-flow queueing with credit-controlled dequeue.
    pub pfq_enabled: bool,
    /// Sender-side Switch-INT near-source feedback.
    pub near_source_enabled: bool,
}

impl DciFeatures {
    /// All MLCC mechanisms on.
    pub fn mlcc() -> Self {
        DciFeatures {
            pfq_enabled: true,
            near_source_enabled: true,
        }
    }

    /// Plain DCI switch (baseline algorithms).
    pub fn baseline() -> Self {
        DciFeatures {
            pfq_enabled: false,
            near_source_enabled: false,
        }
    }
}

/// Top-level simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Payload bytes per full-size data packet (wire adds the header
    /// budget).
    pub mtu_payload: u32,
    /// RNG seed. Everything stochastic keys off it through independent
    /// substreams: each link's ECN sampler and each fault-injected
    /// link's loss/jitter draws come from their own `(salted seed,
    /// link id)` substreams (see [`crate::fault`]), so enabling one
    /// source of randomness never perturbs another — and a link's draw
    /// sequence depends only on its own traffic history.
    pub seed: u64,
    /// Hard stop time.
    pub stop_time: Time,
    /// DCI feature set.
    pub dci: DciFeatures,
    /// Monitor sampling interval (0 disables sampling).
    pub monitor_interval: Time,
    /// Give-up policy: a flow that sees this many *consecutive*
    /// no-progress RTO checks while already at the maximum backoff
    /// shift is declared [`crate::flow::FlowOutcome::Failed`] instead
    /// of retrying forever. 0 disables (the pre-existing behavior:
    /// flows spin exponential RTOs until the stop time).
    pub giveup_rto_limit: u32,
    /// Absolute per-flow deadline measured from the flow's start time;
    /// a flow still incomplete past it fails with
    /// [`crate::flow::FailReason::Deadline`]. Enforced at
    /// RTO-supervision granularity (the check rides the always-armed
    /// RTO chain, so detection lags the deadline by at most one RTO
    /// interval). 0 disables.
    pub flow_deadline: Time,
    /// Liveness watchdog: if no flow delivers a byte for this much sim
    /// time while flows are still incomplete, the run is declared
    /// globally stalled — remaining flows fail with
    /// [`crate::flow::FailReason::Stalled`] and a
    /// [`crate::sim::WatchdogReport`] is emitted. 0 disables.
    pub watchdog_window: Time,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mtu_payload: crate::packet::MTU_PAYLOAD,
            seed: 1,
            stop_time: 100 * MS,
            dci: DciFeatures::baseline(),
            monitor_interval: 0,
            giveup_rto_limit: 0,
            flow_deadline: 0,
            watchdog_window: 0,
        }
    }
}

impl SimConfig {
    /// Wire size of a full data packet.
    pub fn mtu_wire(&self) -> u32 {
        self.mtu_payload + crate::packet::DATA_HEADER_BYTES
    }
}

/// A degenerate (config, network) pair the simulator refuses to run.
///
/// Each variant names the first offending input; [`validate`] returns
/// the first problem found in a fixed check order so messages are
/// deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `mtu_payload == 0`: no data packet could ever carry a byte.
    ZeroMtu,
    /// `mtu_payload` differs from the MTU a host packetizes with, so
    /// base RTTs and every CC's MTU would describe packets never sent.
    MtuMismatch { cfg: u32, net: u32 },
    /// The network has no nodes at all.
    EmptyTopology,
    /// The network has nodes but no hosts, so no flow can be placed.
    NoHosts,
    /// A link slower than the [`MIN_SEND_RATE_BPS`] pacing floor: every
    /// sender would be clamped to a range whose floor exceeds its cap.
    /// A zero-rate link, which would serialize forever, is one of these.
    LinkBelowPacingFloor { link: LinkId, bandwidth: Bandwidth },
    /// An ECN profile with `Kmin > Kmax` has no valid marking region.
    InvertedEcnThresholds {
        link: LinkId,
        kmin_bytes: u64,
        kmax_bytes: u64,
    },
    /// Two links share one id, so routing and per-link state would
    /// silently alias.
    DuplicateLinkId { link: LinkId },
    /// A flow whose source and destination are the same host has no
    /// path (first found by fuzz_sim seed 9 as an index panic).
    SelfFlow { node: NodeId },
    /// A zero-byte flow would complete without ever sending, wedging
    /// completion accounting.
    EmptyFlow { src: NodeId, dst: NodeId },
    /// A flow endpoint that is a switch (or out of range) can neither
    /// send nor receive.
    NonHostFlowEndpoint { node: NodeId },
    /// The topology has no path from the flow's source to its
    /// destination.
    NoRoute { src: NodeId, dst: NodeId },
    /// A fault-profile loss probability outside [0, 1]. The value is
    /// carried as raw `f64` bits so the error stays `Copy + Eq`.
    FaultProbability { knob: &'static str, bits: u64 },
    /// A flap window that comes back up before (or exactly when) it
    /// goes down has no down interval.
    InvertedFlapWindow { down_at: Time, up_at: Time },
    /// Flap windows that overlap or are out of order would double-count
    /// down state.
    OverlappingFlapWindows { prev_up: Time, next_down: Time },
    /// A Gilbert–Elliott transition probability of exactly 1.0
    /// collapses one of the two states to zero dwell time.
    ZeroLengthGilbertState { state: &'static str },
    /// A link fault aimed at a link the network does not have.
    NoSuchLink { link: LinkId },
    /// A node fault aimed at a node the network does not have.
    NoSuchNode { node: NodeId },
    /// A switch whose summed per-ingress PFC headroom reservation
    /// consumes (or exceeds) its whole buffer leaves no shared pool at
    /// all: every droppable packet would be refused at admission.
    HeadroomExceedsBuffer {
        node: NodeId,
        headroom_bytes: u64,
        capacity: u64,
    },
    /// Nonzero PFC headroom configured on a switch whose PFC is
    /// disabled: the reservation could never be charged and would only
    /// silently shrink the shared pool.
    HeadroomOnPfcDisabled { node: NodeId },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroMtu => write!(f, "mtu_payload must be nonzero"),
            ConfigError::MtuMismatch { cfg, net } => write!(
                f,
                "mtu_payload {cfg} differs from the {net} B the hosts packetize"
            ),
            ConfigError::EmptyTopology => write!(f, "topology has no nodes"),
            ConfigError::NoHosts => write!(f, "topology has no hosts"),
            ConfigError::LinkBelowPacingFloor { link, bandwidth } => write!(
                f,
                "link {link:?} runs at {bandwidth} b/s, below the {MIN_SEND_RATE_BPS} b/s pacing floor"
            ),
            ConfigError::InvertedEcnThresholds {
                link,
                kmin_bytes,
                kmax_bytes,
            } => write!(
                f,
                "link {:?} has inverted ECN thresholds (Kmin {} > Kmax {})",
                link, kmin_bytes, kmax_bytes
            ),
            ConfigError::DuplicateLinkId { link } => {
                write!(f, "link id {:?} is used by more than one link", link)
            }
            ConfigError::SelfFlow { node } => {
                write!(f, "source and destination are the same host ({node})")
            }
            ConfigError::EmptyFlow { src, dst } => {
                write!(f, "flow {src} → {dst} carries zero bytes")
            }
            ConfigError::NonHostFlowEndpoint { node } => {
                write!(f, "flow endpoint {node} is not a host")
            }
            ConfigError::NoRoute { src, dst } => write!(f, "no route {src} → {dst}"),
            ConfigError::FaultProbability { knob, bits } => {
                write!(
                    f,
                    "fault profile {knob} = {} is outside [0, 1]",
                    f64::from_bits(*bits)
                )
            }
            ConfigError::InvertedFlapWindow { down_at, up_at } => write!(
                f,
                "flap window must go down before up (down_at {down_at} >= up_at {up_at})"
            ),
            ConfigError::OverlappingFlapWindows { prev_up, next_down } => write!(
                f,
                "flap windows must be sorted and disjoint \
                 (previous up_at {prev_up} > next down_at {next_down})"
            ),
            ConfigError::ZeroLengthGilbertState { state } => write!(
                f,
                "Gilbert-Elliott {state} state has zero dwell time \
                 (transition probability 1.0)"
            ),
            ConfigError::NoSuchLink { link } => write!(f, "no link {link:?} in the network"),
            ConfigError::NoSuchNode { node } => write!(f, "no node {node} in the network"),
            ConfigError::HeadroomExceedsBuffer {
                node,
                headroom_bytes,
                capacity,
            } => write!(
                f,
                "switch {node} reserves {headroom_bytes} B of PFC headroom \
                 but only has {capacity} B of buffer (no shared pool left)"
            ),
            ConfigError::HeadroomOnPfcDisabled { node } => write!(
                f,
                "switch {node} has PFC disabled but a nonzero headroom_bytes; \
                 the reservation could never be used"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Reject degenerate inputs before the simulator touches them. Run by
/// [`crate::sim::Simulator::try_new`]; `Simulator::new` panics with the
/// same message.
pub fn validate(cfg: &SimConfig, net: &Network) -> Result<(), ConfigError> {
    if cfg.mtu_payload == 0 {
        return Err(ConfigError::ZeroMtu);
    }
    for h in net.nodes.iter().filter_map(|n| n.as_host()) {
        if h.mtu_bytes != cfg.mtu_payload {
            return Err(ConfigError::MtuMismatch {
                cfg: cfg.mtu_payload,
                net: h.mtu_bytes,
            });
        }
    }
    if net.nodes.is_empty() {
        return Err(ConfigError::EmptyTopology);
    }
    if net.hosts.is_empty() {
        return Err(ConfigError::NoHosts);
    }
    for (i, lk) in net.links.iter().enumerate() {
        // Links live in an id-indexed slab; an id out of step with its
        // position means two links alias one identity.
        if lk.id.index() != i {
            return Err(ConfigError::DuplicateLinkId { link: lk.id });
        }
        if (lk.bandwidth as f64) < MIN_SEND_RATE_BPS {
            return Err(ConfigError::LinkBelowPacingFloor {
                link: lk.id,
                bandwidth: lk.bandwidth,
            });
        }
        if lk.ecn.kmin_bytes > lk.ecn.kmax_bytes {
            return Err(ConfigError::InvertedEcnThresholds {
                link: lk.id,
                kmin_bytes: lk.ecn.kmin_bytes,
                kmax_bytes: lk.ecn.kmax_bytes,
            });
        }
    }
    for node in &net.nodes {
        let crate::node::Node::Switch(sw) = node else {
            continue;
        };
        // Headroom was resolved against the concrete upstream links at
        // build time, so the check sees the summed reservation (not the
        // per-port knob): degenerate combinations of small buffers with
        // many or slow-draining ports surface here.
        if !sw.pfc.enabled && sw.pfc.headroom_bytes.is_some_and(|n| n > 0) {
            return Err(ConfigError::HeadroomOnPfcDisabled { node: sw.id });
        }
        let reserved = sw.buffer.headroom_reserved();
        if reserved > 0 && reserved >= sw.buffer.capacity() {
            return Err(ConfigError::HeadroomExceedsBuffer {
                node: sw.id,
                headroom_bytes: reserved,
                capacity: sw.buffer.capacity(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::NoCcFactory;
    use crate::ecn::EcnConfig;
    use crate::link::LinkOpts;
    use crate::pfc::PfcConfig;
    use crate::sim::Simulator;
    use crate::topology::{NetBuilder, TwoDcParams, TwoDcTopology};
    use crate::units::{Bandwidth, GBPS, MBPS, US};

    /// Minimal valid h0 — s — h1 line at `bandwidth`.
    fn line(bandwidth: Bandwidth) -> Network {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let s = b.add_switch(1 << 20, PfcConfig::dc_switch());
        b.connect(h0, s, bandwidth, US, LinkOpts::default());
        b.connect(s, h1, bandwidth, US, LinkOpts::default());
        b.build()
    }

    #[test]
    fn valid_pair_passes() {
        assert_eq!(validate(&SimConfig::default(), &line(GBPS)), Ok(()));
    }

    #[test]
    fn zero_mtu_rejected() {
        let cfg = SimConfig {
            mtu_payload: 0,
            ..SimConfig::default()
        };
        assert_eq!(validate(&cfg, &line(GBPS)), Err(ConfigError::ZeroMtu));
    }

    #[test]
    fn mtu_mismatch_rejected() {
        // The hosts packetize 1000 B while the config would size base
        // RTTs and CC windows for 1500 B packets.
        let cfg = SimConfig {
            mtu_payload: 1500,
            ..SimConfig::default()
        };
        assert_eq!(
            validate(&cfg, &line(GBPS)),
            Err(ConfigError::MtuMismatch {
                cfg: 1500,
                net: 1000
            })
        );
    }

    #[test]
    fn empty_topology_rejected() {
        let net = NetBuilder::new().build();
        assert_eq!(
            validate(&SimConfig::default(), &net),
            Err(ConfigError::EmptyTopology)
        );
    }

    #[test]
    fn hostless_topology_rejected() {
        let mut b = NetBuilder::new();
        let s0 = b.add_switch(1 << 20, PfcConfig::dc_switch());
        let s1 = b.add_switch(1 << 20, PfcConfig::dc_switch());
        b.connect(s0, s1, GBPS, US, LinkOpts::default());
        assert_eq!(
            validate(&SimConfig::default(), &b.build()),
            Err(ConfigError::NoHosts)
        );
    }

    #[test]
    fn link_below_pacing_floor_rejected() {
        // Every rate clamp is `clamp(MIN_SEND_RATE_BPS, line rate)`, which
        // panics when the line rate is below the floor.
        for bandwidth in [0, 5 * MBPS] {
            assert_eq!(
                validate(&SimConfig::default(), &line(bandwidth)),
                Err(ConfigError::LinkBelowPacingFloor {
                    link: LinkId(0),
                    bandwidth
                })
            );
        }
        // A link at the floor is accepted and carries a flow to the end.
        let net = line(10 * MBPS);
        let (h0, h1) = (net.hosts[0], net.hosts[1]);
        let mut sim = Simulator::try_new(net, SimConfig::default(), Box::new(NoCcFactory))
            .expect("a 10 Mb/s link is at the pacing floor");
        sim.try_add_flow(h0, h1, 10_000, 0).expect("valid flow");
        assert!(sim.run_until_flows_complete());
    }

    #[test]
    fn duplicate_link_id_rejected() {
        // Two links claiming one id would silently alias per-link state
        // (queues, wire FIFOs, fault draws) in the id-indexed slab.
        let mut net = line(GBPS);
        net.links[1].id = net.links[0].id;
        assert_eq!(
            validate(&SimConfig::default(), &net),
            Err(ConfigError::DuplicateLinkId { link: LinkId(0) })
        );
    }

    #[test]
    fn inverted_ecn_thresholds_rejected() {
        // The builder only lays valid profiles, but `Network::links` is
        // public, so a caller can still break one before `try_new`.
        let mut net = line(GBPS);
        net.links[0].ecn = EcnConfig {
            kmin_bytes: 400_000,
            kmax_bytes: 100_000,
            pmax: 0.2,
        };
        assert_eq!(
            validate(&SimConfig::default(), &net),
            Err(ConfigError::InvertedEcnThresholds {
                link: LinkId(0),
                kmin_bytes: 400_000,
                kmax_bytes: 100_000,
            })
        );
    }

    #[test]
    fn headroom_exceeding_buffer_rejected() {
        // A 100 KB static headroom per ingress on a 64 KB switch: the
        // two host-facing ports alone reserve 200 KB > 64 KB.
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let pfc = PfcConfig {
            headroom_bytes: Some(100_000),
            ..PfcConfig::dc_switch()
        };
        let s = b.add_switch(64_000, pfc);
        b.connect(h0, s, GBPS, US, LinkOpts::default());
        b.connect(s, h1, GBPS, US, LinkOpts::default());
        assert_eq!(
            validate(&SimConfig::default(), &b.build()),
            Err(ConfigError::HeadroomExceedsBuffer {
                node: NodeId(2),
                headroom_bytes: 200_000,
                capacity: 64_000,
            })
        );
    }

    #[test]
    fn headroom_on_pfc_disabled_rejected() {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let pfc = PfcConfig {
            headroom_bytes: Some(10_000),
            ..PfcConfig::disabled()
        };
        let s = b.add_switch(1 << 20, pfc);
        b.connect(h0, s, GBPS, US, LinkOpts::default());
        b.connect(s, h1, GBPS, US, LinkOpts::default());
        assert_eq!(
            validate(&SimConfig::default(), &b.build()),
            Err(ConfigError::HeadroomOnPfcDisabled { node: NodeId(2) })
        );
    }

    #[test]
    fn auto_and_legacy_headroom_pass_validation() {
        // Auto-sized (None) fits the default 1 MB line, and Some(0) is
        // the legacy no-headroom mode; both are valid.
        assert_eq!(validate(&SimConfig::default(), &line(GBPS)), Ok(()));
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let s = b.add_switch(1 << 20, PfcConfig::dc_switch().without_headroom());
        b.connect(h0, s, GBPS, US, LinkOpts::default());
        b.connect(s, h1, GBPS, US, LinkOpts::default());
        let net = b.build();
        let sw = match &net.nodes[2] {
            crate::node::Node::Switch(sw) => sw,
            _ => unreachable!(),
        };
        assert_eq!(sw.buffer.headroom_reserved(), 0, "legacy reserves nothing");
        assert_eq!(validate(&SimConfig::default(), &net), Ok(()));
    }

    #[test]
    fn try_new_surfaces_the_error_and_new_panics() {
        let cfg = SimConfig {
            mtu_payload: 0,
            ..SimConfig::default()
        };
        let err = Simulator::try_new(line(GBPS), cfg, Box::new(NoCcFactory))
            .err()
            .expect("degenerate config must be rejected");
        assert_eq!(err, ConfigError::ZeroMtu);
        let panicked =
            std::panic::catch_unwind(|| Simulator::new(line(GBPS), cfg, Box::new(NoCcFactory)));
        assert!(panicked.is_err());
    }

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.mtu_payload, 1000);
        assert_eq!(c.mtu_wire(), 1048);
        assert!(!c.dci.pfq_enabled);
        let m = DciFeatures::mlcc();
        assert!(m.pfq_enabled && m.near_source_enabled);
        // A new per-flow queue at a two-DC receiver-side DCI starts at
        // the 25 Gbps server line rate.
        let mut t = TwoDcTopology::build(TwoDcParams {
            servers_per_leaf: 1,
            ..TwoDcParams::default()
        });
        let pfq = t.net.links[t.dci_to_spine[1][0].index()].pfq.as_mut();
        let pfq = pfq.expect("PFQ on the DCI→spine egress");
        let flow = crate::types::FlowId(0);
        let pkt = crate::packet::Packet::data(0, flow, NodeId(0), NodeId(1), 0, 1000, 0);
        assert!(
            pfq.enqueue(Box::new(pkt), 0),
            "first packet creates the queue"
        );
        assert_eq!(pfq.get(flow).map(|q| q.rate_bps()), Some(25 * GBPS));
    }
}

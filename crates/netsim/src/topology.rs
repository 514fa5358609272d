//! Network construction: a generic builder plus the paper's topologies.
//!
//! * [`TwoDcTopology`] — Fig. 1: two datacenters, each with 2 spines and 4
//!   leaves (racks), connected by DCI switches over a long-haul link.
//! * [`MultiDcTopology`] — N ≥ 2 of the same spine-leaf datacenters,
//!   joined pairwise by dedicated DCI switches over a long-haul mesh.
//!   Both are laid by one wiring, so two islands are the two-DC fabric
//!   node for node and link for link.
//! * [`DumbbellTopology`] — the testbed of §4.6: 2 ToRs, 2 DCI switches,
//!   2 servers per ToR.
//! * [`FatTreeTopology`] — a k-ary fat-tree (hosts → edge → agg → core)
//!   whose hosts per edge switch set its oversubscription, the canonical
//!   multipath fabric for collective workloads.
//!
//! The §4.1 link delays (1 µs to a server, 5 µs between switches) and the
//! 128 MB DCI buffer are constants shared by all four builders, and every
//! host [`NetBuilder`] adds packetizes [`MTU_PAYLOAD`].

use crate::ecn::EcnConfig;
use crate::host::Host;
use crate::link::{Link, LinkOpts};
use crate::node::Node;
use crate::packet::{DATA_HEADER_BYTES, MTU_PAYLOAD};
use crate::pfc::PfcConfig;
use crate::pfq::PfqSet;
use crate::queue::PrioQueues;
use crate::routing::{GraphView, RoutingTables};
use crate::switch::{DciState, Switch};
use crate::types::{LinkId, NodeId};
use crate::units::{Bandwidth, Time, GBPS, MS, US};

/// A constructed network, ready to hand to the simulator.
pub struct Network {
    pub nodes: Vec<Node>,
    pub links: Vec<Link>,
    pub routes: RoutingTables,
    pub hosts: Vec<NodeId>,
}

/// Wire size of a full data packet.
const MTU_WIRE: u32 = MTU_PAYLOAD + DATA_HEADER_BYTES;

/// Incremental network builder.
#[derive(Default)]
pub struct NetBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(LinkId, NodeId)>>,
    hosts: Vec<NodeId>,
}

impl NetBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a server. Its uplink is wired by the first `connect` call that
    /// names it.
    pub fn add_host(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes
            .push(Node::Host(Host::new(id, LinkId(u32::MAX), MTU_PAYLOAD)));
        self.adjacency.push(Vec::new());
        self.hosts.push(id);
        id
    }

    /// Add a switch. It takes the DCI role at [`Self::build`] if it ends
    /// up terminating a long-haul link.
    pub fn add_switch(&mut self, buffer_bytes: u64, pfc: PfcConfig) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes
            .push(Node::Switch(Switch::new(id, buffer_bytes, pfc)));
        self.adjacency.push(Vec::new());
        id
    }

    /// Connect two nodes with a bidirectional link pair; returns
    /// `(a→b, b→a)`. Both egresses mark with the standard ECN profile
    /// scaled to `bandwidth` until [`Self::build`] finds a DCI at either
    /// end.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: Bandwidth,
        delay: Time,
        opts: LinkOpts,
    ) -> (LinkId, LinkId) {
        let fwd = LinkId(self.links.len() as u32);
        let rev = LinkId(self.links.len() as u32 + 1);
        let ecn = EcnConfig::dc_switch(bandwidth);
        for (id, reverse, src, dst) in [(fwd, rev, a, b), (rev, fwd, b, a)] {
            self.links.push(Link {
                id,
                src,
                dst,
                bandwidth,
                delay,
                reverse,
                opts,
                ecn,
                queues: PrioQueues::new(),
                pfq: None,
                busy: false,
                tx_bytes: 0,
                pfq_wake_at: None,
                wire_seq: 0,
                faults: None,
            });
        }
        self.adjacency[a.index()].push((fwd, b));
        self.adjacency[b.index()].push((rev, a));
        // First link out of a host becomes its uplink.
        for (n, l) in [(a, fwd), (b, rev)] {
            if let Node::Host(h) = &mut self.nodes[n.index()] {
                if h.uplink == LinkId(u32::MAX) {
                    h.uplink = l;
                }
            }
        }
        (fwd, rev)
    }

    /// Attach an MLCC per-flow-queue set to a link's egress.
    pub fn enable_pfq(&mut self, link: LinkId, init_rate: Bandwidth) {
        self.links[link.index()].pfq = Some(PfqSet::new(init_rate, MTU_WIRE));
    }

    /// Finalize: derive the DCI roles, resolve per-ingress PFC headroom
    /// and compute routing tables.
    ///
    /// The long-haul flag is the one declaration of the datacenter
    /// boundary: a switch is a DCI exactly when it terminates a
    /// long-haul link. Each such switch gets a [`DciState`], and each of
    /// its egresses the deep-buffer [`EcnConfig::dci_switch`] profile.
    ///
    /// Headroom resolution walks every link into a PFC-enabled switch
    /// and dedicates `headroom_bytes` of that switch's buffer to the
    /// ingress port: the configured value when `Some(n)`, or the pause
    /// loop's worst case `2 × delay × rate + 2 MTU` (computed from the
    /// upstream link itself) when `None`.
    pub fn build(mut self) -> Network {
        for i in 0..self.links.len() {
            if !self.links[i].opts.long_haul {
                continue;
            }
            for n in [self.links[i].src, self.links[i].dst] {
                let Node::Switch(sw) = &mut self.nodes[n.index()] else {
                    continue;
                };
                if sw.dci.is_some() {
                    continue;
                }
                sw.dci = Some(DciState::default());
                for &(egress, _) in &self.adjacency[n.index()] {
                    self.links[egress.index()].ecn = EcnConfig::dci_switch();
                }
            }
        }
        for i in 0..self.links.len() {
            let (id, dst, delay, bw) = {
                let l = &self.links[i];
                (l.id, l.dst, l.delay, l.bandwidth)
            };
            if let Node::Switch(sw) = &mut self.nodes[dst.index()] {
                if !sw.pfc.enabled {
                    continue;
                }
                let hr = sw
                    .pfc
                    .headroom_bytes
                    .unwrap_or_else(|| PfcConfig::auto_headroom_bytes(bw, delay, MTU_WIRE as u64));
                if hr > 0 {
                    sw.set_ingress_headroom(id, hr);
                }
            }
        }
        let routes = RoutingTables::build(&GraphView {
            adjacency: &self.adjacency,
            hosts: &self.hosts,
        });
        Network {
            nodes: self.nodes,
            links: self.links,
            routes,
            hosts: self.hosts,
        }
    }
}

/// The options of every long-haul link the builders below lay.
const LONG_HAUL: LinkOpts = LinkOpts { long_haul: true };
/// Propagation delay of every server link (§4.1).
const NIC_DELAY: Time = 1 * US;
/// Propagation delay of every switch-to-switch link inside a datacenter.
const SWITCH_DELAY: Time = 5 * US;
/// Line rate of a server NIC (the default where it is a knob).
const NIC_RATE: Bandwidth = 25 * GBPS;
/// Line rate of a switch-to-switch link (the default where it is a knob).
const FABRIC_RATE: Bandwidth = 100 * GBPS;
/// Shared buffer of an intra-DC switch (the default where it is a knob).
const SWITCH_BUFFER: u64 = 22_000_000;
/// Shared buffer of a DCI switch (the default where it is a knob).
const DCI_BUFFER: u64 = 128_000_000;
/// Long-haul delay of the testbed dumbbell.
const TESTBED_WAN_DELAY: Time = 1 * MS;

// ---------------------------------------------------------------------------
// Spine-leaf datacenters: the paper's two-DC topology (Fig. 1) and its
// N-island generalisation.
// ---------------------------------------------------------------------------

/// Parameters of one Fig. 1 datacenter and its long haul, defaulting to
/// the paper's §4.1 setup.
#[derive(Clone, Copy, Debug)]
pub struct TwoDcParams {
    pub spines_per_dc: usize,
    pub leaves_per_dc: usize,
    pub servers_per_leaf: usize,
    pub server_link: Bandwidth,
    pub fabric_link: Bandwidth,
    pub long_haul_link: Bandwidth,
    pub long_haul_delay: Time,
    pub dc_switch_buffer: u64,
    /// PFC on intra-DC switches.
    pub pfc: PfcConfig,
}

impl Default for TwoDcParams {
    fn default() -> Self {
        TwoDcParams {
            spines_per_dc: 2,
            leaves_per_dc: 4,
            // Paper scale is 32 (4:1 oversubscription at 25G/100G); the
            // default here is paper-faithful. Scenarios scale it down
            // for quick runs.
            servers_per_leaf: 32,
            server_link: NIC_RATE,
            fabric_link: FABRIC_RATE,
            long_haul_link: 100 * GBPS,
            long_haul_delay: 3 * MS,
            dc_switch_buffer: SWITCH_BUFFER,
            pfc: PfcConfig::dc_switch(),
        }
    }
}

/// `n` spine-leaf datacenters as [`wire_dcs`] laid them, indexed by DC.
#[derive(Default)]
struct Dcs {
    /// `servers[dc][leaf][i]`.
    servers: Vec<Vec<Vec<NodeId>>>,
    leaves: Vec<Vec<NodeId>>,
    spines: Vec<Vec<NodeId>>,
    /// One DCI switch per peer DC, in peer order (the DC's own slot is
    /// skipped).
    dcis: Vec<Vec<NodeId>>,
    /// DCI→spine (PFQ) and spine→DCI egresses, DCI-major.
    dci_to_spine: Vec<Vec<LinkId>>,
    spine_to_dci: Vec<Vec<LinkId>>,
    /// `(a, b, [a→b, b→a])` per DC pair `a < b`, in lexicographic order.
    long_haul: Vec<(usize, usize, [LinkId; 2])>,
}

/// Wire `n` Fig. 1 datacenters into `b`. Per DC: its leaves, its spines
/// and one DCI per peer DC, then its servers with their links, then its
/// leaf–spine links. Then every spine–DCI pair, with a PFQ on the
/// DCI→spine egress, and last one long haul per DC pair, which makes
/// both of its ends DCIs at [`NetBuilder::build`].
fn wire_dcs(b: &mut NetBuilder, p: &TwoDcParams, n: usize) -> Dcs {
    let mut w = Dcs::default();
    for _dc in 0..n {
        let leaves: Vec<NodeId> = (0..p.leaves_per_dc)
            .map(|_| b.add_switch(p.dc_switch_buffer, p.pfc))
            .collect();
        let spines: Vec<NodeId> = (0..p.spines_per_dc)
            .map(|_| b.add_switch(p.dc_switch_buffer, p.pfc))
            .collect();
        let dcis: Vec<NodeId> = (1..n)
            .map(|_| b.add_switch(DCI_BUFFER, PfcConfig::disabled()))
            .collect();
        let mut servers = Vec::new();
        for &leaf in &leaves {
            let rack: Vec<NodeId> = (0..p.servers_per_leaf)
                .map(|_| {
                    let h = b.add_host();
                    b.connect(h, leaf, p.server_link, NIC_DELAY, LinkOpts::default());
                    h
                })
                .collect();
            servers.push(rack);
        }
        for &leaf in &leaves {
            for &spine in &spines {
                b.connect(
                    leaf,
                    spine,
                    p.fabric_link,
                    SWITCH_DELAY,
                    LinkOpts::default(),
                );
            }
        }
        w.servers.push(servers);
        w.leaves.push(leaves);
        w.spines.push(spines);
        w.dcis.push(dcis);
    }
    for dc in 0..n {
        let (mut d2s, mut s2d) = (Vec::new(), Vec::new());
        for &dci in &w.dcis[dc] {
            for &spine in &w.spines[dc] {
                let (up, down) =
                    b.connect(spine, dci, p.fabric_link, SWITCH_DELAY, LinkOpts::default());
                // MLCC's per-flow queues start at the server line rate;
                // they only activate under `DciFeatures::pfq_enabled`.
                b.enable_pfq(down, p.server_link);
                s2d.push(up);
                d2s.push(down);
            }
        }
        w.dci_to_spine.push(d2s);
        w.spine_to_dci.push(s2d);
    }
    // Pair (a, c) joins a's DCI slot for peer c to c's slot for peer a.
    let slot = |dc: usize, peer: usize| peer - usize::from(peer > dc);
    for a in 0..n {
        for c in a + 1..n {
            let (fwd, rev) = b.connect(
                w.dcis[a][slot(a, c)],
                w.dcis[c][slot(c, a)],
                p.long_haul_link,
                p.long_haul_delay,
                LONG_HAUL,
            );
            w.long_haul.push((a, c, [fwd, rev]));
        }
    }
    w
}

/// Handles into the built two-DC network.
pub struct TwoDcTopology {
    pub net: Network,
    pub params: TwoDcParams,
    /// `servers[dc][leaf][i]`.
    pub servers: Vec<Vec<Vec<NodeId>>>,
    /// `leaves[dc][i]`, `spines[dc][i]`.
    pub leaves: Vec<Vec<NodeId>>,
    pub spines: Vec<Vec<NodeId>>,
    /// DCI switch per DC.
    pub dcis: Vec<NodeId>,
    /// Long-haul links: `long_haul[0]` is DC0→DC1.
    pub long_haul: [LinkId; 2],
    /// DCI→spine egress links per DC (the receiver-side PFQ egresses).
    pub dci_to_spine: Vec<Vec<LinkId>>,
    /// spine→DCI egress links per DC (the sender-side DCI approaches).
    pub spine_to_dci: Vec<Vec<LinkId>>,
}

impl TwoDcTopology {
    pub fn build(params: TwoDcParams) -> Self {
        let mut b = NetBuilder::new();
        let w = wire_dcs(&mut b, &params, 2);
        TwoDcTopology {
            net: b.build(),
            params,
            servers: w.servers,
            leaves: w.leaves,
            spines: w.spines,
            dcis: w.dcis.iter().map(|d| d[0]).collect(),
            long_haul: w.long_haul[0].2,
            dci_to_spine: w.dci_to_spine,
            spine_to_dci: w.spine_to_dci,
        }
    }

    /// Server `i` of 1-based rack number `rack` (paper numbering: racks
    /// 1–4 are DC0, racks 5–8 are DC1).
    pub fn server(&self, rack: usize, i: usize) -> NodeId {
        assert!((1..=2 * self.params.leaves_per_dc).contains(&rack));
        let dc = (rack - 1) / self.params.leaves_per_dc;
        let leaf = (rack - 1) % self.params.leaves_per_dc;
        self.servers[dc][leaf][i]
    }

    /// All servers in one DC, flattened.
    pub fn dc_servers(&self, dc: usize) -> Vec<NodeId> {
        self.servers[dc].iter().flatten().copied().collect()
    }
}

/// Parameters of the multi-island fabric: `islands` copies of the
/// spine-leaf datacenter `dc`.
///
/// Every island pair is joined by its own long-haul link between two
/// dedicated DCI switches (one per side), so each DCI switch terminates
/// exactly one long-haul pair — the two-DC wiring, replicated across
/// the full island mesh. Shortest-path routing therefore never transits
/// a third island.
#[derive(Clone, Copy, Debug)]
pub struct MultiDcParams {
    /// Number of islands (≥ 2).
    pub islands: usize,
    pub dc: TwoDcParams,
}

impl Default for MultiDcParams {
    fn default() -> Self {
        MultiDcParams {
            islands: 3,
            dc: TwoDcParams {
                leaves_per_dc: 2,
                servers_per_leaf: 2,
                ..TwoDcParams::default()
            },
        }
    }
}

/// Handles into the built multi-island network.
pub struct MultiDcTopology {
    pub net: Network,
    pub params: MultiDcParams,
    /// `servers[island]`, flattened within each island.
    pub servers: Vec<Vec<NodeId>>,
    /// Intra-island switches (leaves then spines), per island.
    pub island_switches: Vec<Vec<NodeId>>,
    /// `dcis[island]` — one DCI switch per peer island, in peer order
    /// (the slot for the island itself is skipped).
    pub dcis: Vec<Vec<NodeId>>,
    /// One entry per island pair `(a, b)` with `a < b`, in
    /// lexicographic order: `[a→b, b→a]` long-haul links.
    pub long_haul: Vec<(usize, usize, [LinkId; 2])>,
}

impl MultiDcTopology {
    pub fn build(params: MultiDcParams) -> Self {
        let dc = &params.dc;
        assert!(params.islands >= 2, "need at least two islands");
        assert!(
            dc.spines_per_dc >= 1 && dc.leaves_per_dc >= 1 && dc.servers_per_leaf >= 1,
            "degenerate spine-leaf island: {dc:?}"
        );
        let mut b = NetBuilder::new();
        let w = wire_dcs(&mut b, dc, params.islands);
        MultiDcTopology {
            net: b.build(),
            params,
            servers: w.servers.iter().map(|s| s.concat()).collect(),
            island_switches: w
                .leaves
                .iter()
                .zip(&w.spines)
                .map(|(l, s)| [l.as_slice(), s].concat())
                .collect(),
            dcis: w.dcis,
            long_haul: w.long_haul,
        }
    }

    /// The long-haul link pair between islands `a` and `b` as
    /// `[a→b, b→a]` (order-insensitive in the arguments).
    pub fn long_haul_pair(&self, a: usize, b: usize) -> [LinkId; 2] {
        let (lo, hi, flip) = if a < b { (a, b, false) } else { (b, a, true) };
        let &(_, _, [fwd, rev]) = self
            .long_haul
            .iter()
            .find(|&&(x, y, _)| x == lo && y == hi)
            .unwrap_or_else(|| panic!("no long haul between islands {a} and {b}"));
        if flip {
            [rev, fwd]
        } else {
            [fwd, rev]
        }
    }
}

// ---------------------------------------------------------------------------
// Testbed dumbbell (§4.6).
// ---------------------------------------------------------------------------

/// Parameters of the testbed dumbbell. Its ToR–DCI links and its 1 ms
/// long haul run at the 100 Gbps fabric rate.
#[derive(Clone, Copy, Debug)]
pub struct DumbbellParams {
    pub servers_per_tor: usize,
    pub nic_link: Bandwidth,
    pub tor_buffer: u64,
    pub dci_buffer: u64,
    /// PFC profile of the ToR switches (DCIs always run PFC-disabled).
    pub pfc: PfcConfig,
}

impl Default for DumbbellParams {
    fn default() -> Self {
        DumbbellParams {
            servers_per_tor: 2,
            nic_link: 100 * GBPS,
            tor_buffer: SWITCH_BUFFER,
            dci_buffer: DCI_BUFFER,
            pfc: PfcConfig::dc_switch(),
        }
    }
}

/// Handles into the dumbbell network.
pub struct DumbbellTopology {
    pub net: Network,
    pub params: DumbbellParams,
    /// `servers[side][i]`.
    pub servers: Vec<Vec<NodeId>>,
    pub tors: [NodeId; 2],
    pub dcis: [NodeId; 2],
    pub long_haul: [LinkId; 2],
    pub dci_to_tor: [LinkId; 2],
}

impl DumbbellTopology {
    pub fn build(params: DumbbellParams) -> Self {
        let mut b = NetBuilder::new();
        let mut servers = Vec::new();
        let mut tors = Vec::new();
        let mut dcis = Vec::new();
        let mut dci_to_tor = Vec::new();
        for _side in 0..2 {
            let tor = b.add_switch(params.tor_buffer, params.pfc);
            let dci = b.add_switch(params.dci_buffer, PfcConfig::disabled());
            let side_servers: Vec<NodeId> = (0..params.servers_per_tor)
                .map(|_| {
                    let h = b.add_host();
                    b.connect(h, tor, params.nic_link, NIC_DELAY, LinkOpts::default());
                    h
                })
                .collect();
            let (_t2d, d2t) = b.connect(tor, dci, FABRIC_RATE, SWITCH_DELAY, LinkOpts::default());
            b.enable_pfq(d2t, params.nic_link);
            servers.push(side_servers);
            tors.push(tor);
            dcis.push(dci);
            dci_to_tor.push(d2t);
        }
        let (lh01, lh10) = b.connect(dcis[0], dcis[1], FABRIC_RATE, TESTBED_WAN_DELAY, LONG_HAUL);
        DumbbellTopology {
            net: b.build(),
            params,
            servers,
            tors: [tors[0], tors[1]],
            dcis: [dcis[0], dcis[1]],
            long_haul: [lh01, lh10],
            dci_to_tor: [dci_to_tor[0], dci_to_tor[1]],
        }
    }
}

// ---------------------------------------------------------------------------
// k-ary fat-tree (hosts → edge → agg → core).
// ---------------------------------------------------------------------------

/// Parameters of a k-ary fat-tree with 25 Gbps hosts on a 100 Gbps
/// fabric.
///
/// The canonical k-ary fat-tree has `(k/2)²` core switches, `k` pods of
/// `k/2` aggregation and `k/2` edge switches each, and `k/2` hosts per
/// edge switch. `hosts_per_edge` is the oversubscription knob: see
/// [`Self::oversubscription`].
#[derive(Clone, Copy, Debug)]
pub struct FatTreeParams {
    /// Port radix; must be even and ≥ 2.
    pub k: usize,
    /// Hosts attached to each edge switch (≥ 1).
    pub hosts_per_edge: usize,
    pub switch_buffer: u64,
    pub pfc: PfcConfig,
}

impl Default for FatTreeParams {
    fn default() -> Self {
        FatTreeParams {
            k: 4,
            hosts_per_edge: 2,
            switch_buffer: SWITCH_BUFFER,
            pfc: PfcConfig::dc_switch(),
        }
    }
}

impl FatTreeParams {
    /// Edge-layer oversubscription ratio: host capacity entering an edge
    /// switch over its uplink capacity toward the aggs.
    pub fn oversubscription(&self) -> f64 {
        (self.hosts_per_edge as f64 * NIC_RATE as f64) / ((self.k / 2) as f64 * FABRIC_RATE as f64)
    }
}

/// Handles into a built fat-tree.
pub struct FatTreeTopology {
    pub net: Network,
    pub params: FatTreeParams,
    /// All hosts, pod-major then edge-major.
    pub hosts: Vec<NodeId>,
    /// `edges[pod][i]`, `aggs[pod][i]`.
    pub edges: Vec<Vec<NodeId>>,
    pub aggs: Vec<Vec<NodeId>>,
    pub cores: Vec<NodeId>,
    /// Every agg ↔ core link pair as `[agg→core, core→agg]`, in
    /// deterministic pod/agg/core order (fault-injection targets).
    pub agg_core_links: Vec<[LinkId; 2]>,
}

impl FatTreeTopology {
    /// Wire the cores first, then per pod its aggs, its edges with their
    /// hosts and edge–agg links, and its agg–core links.
    pub fn build(p: FatTreeParams) -> Self {
        assert!(
            p.k >= 2 && p.k.is_multiple_of(2),
            "fat-tree k must be even and >= 2, got {}",
            p.k
        );
        assert!(p.hosts_per_edge >= 1, "fat-tree needs hosts per edge");
        let half = p.k / 2;
        let mut b = NetBuilder::new();
        let cores: Vec<NodeId> = (0..half * half)
            .map(|_| b.add_switch(p.switch_buffer, p.pfc))
            .collect();
        let (mut hosts, mut edges, mut aggs) = (Vec::new(), Vec::new(), Vec::new());
        let mut agg_core_links = Vec::new();
        for _pod in 0..p.k {
            let pod_aggs: Vec<NodeId> = (0..half)
                .map(|_| b.add_switch(p.switch_buffer, p.pfc))
                .collect();
            let pod_edges: Vec<NodeId> = (0..half)
                .map(|_| b.add_switch(p.switch_buffer, p.pfc))
                .collect();
            for &edge in &pod_edges {
                for _ in 0..p.hosts_per_edge {
                    let h = b.add_host();
                    b.connect(h, edge, NIC_RATE, NIC_DELAY, LinkOpts::default());
                    hosts.push(h);
                }
                for &agg in &pod_aggs {
                    b.connect(edge, agg, FABRIC_RATE, SWITCH_DELAY, LinkOpts::default());
                }
            }
            // Agg j serves the core group [j·k/2, (j+1)·k/2).
            for (j, &agg) in pod_aggs.iter().enumerate() {
                for &core in &cores[j * half..(j + 1) * half] {
                    let (up, down) =
                        b.connect(agg, core, FABRIC_RATE, SWITCH_DELAY, LinkOpts::default());
                    agg_core_links.push([up, down]);
                }
            }
            edges.push(pod_edges);
            aggs.push(pod_aggs);
        }
        FatTreeTopology {
            net: b.build(),
            params: p,
            hosts,
            edges,
            aggs,
            cores,
            agg_core_links,
        }
    }

    /// All non-core switches (edge + agg), pod-major — the pool
    /// node-fault scenarios pick victims from.
    pub fn pod_switches(&self) -> Vec<NodeId> {
        self.edges
            .iter()
            .zip(&self.aggs)
            .flat_map(|(e, a)| e.iter().chain(a.iter()).copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> TwoDcParams {
        TwoDcParams {
            servers_per_leaf: 2,
            ..TwoDcParams::default()
        }
    }

    #[test]
    fn two_dc_counts() {
        let t = TwoDcTopology::build(small_params());
        // Per DC: 4 leaves + 2 spines + 1 DCI + 8 servers = 15 nodes.
        assert_eq!(t.net.nodes.len(), 30);
        assert_eq!(t.net.hosts.len(), 16);
        assert_eq!(t.dcis.len(), 2);
        // Links: per DC, 8 server pairs + 4*2 leaf-spine pairs + 2
        // spine-DCI pairs = 18 pairs → 36 links; ×2 DCs + 2 long-haul.
        assert_eq!(t.net.links.len(), 2 * 36 + 2);
    }

    #[test]
    fn rack_numbering_matches_paper() {
        let t = TwoDcTopology::build(small_params());
        // Rack 1 is DC0 leaf 0; rack 5 is DC1 leaf 0.
        assert_eq!(t.server(1, 0), t.servers[0][0][0]);
        assert_eq!(t.server(5, 1), t.servers[1][0][1]);
        assert_eq!(t.server(8, 0), t.servers[1][3][0]);
    }

    /// The switches holding a DCI role, in node order.
    fn dci_switches(net: &Network) -> Vec<NodeId> {
        net.nodes
            .iter()
            .filter_map(|n| n.as_switch())
            .filter(|sw| sw.dci.is_some())
            .map(|sw| sw.id)
            .collect()
    }

    #[test]
    fn dci_roles_are_wired() {
        let t = TwoDcTopology::build(small_params());
        assert_eq!(dci_switches(&t.net), t.dcis);
        for (dc, &lh) in t.long_haul.iter().enumerate() {
            let l = &t.net.links[lh.index()];
            assert!(l.opts.long_haul);
            assert_eq!((l.src, l.dst), (t.dcis[dc], t.dcis[1 - dc]));
            assert_eq!(l.ecn, EcnConfig::dci_switch());
        }
        for &l in t.dci_to_spine.iter().flatten() {
            assert_eq!(t.net.links[l.index()].ecn, EcnConfig::dci_switch());
        }
    }

    #[test]
    fn dci_role_skips_hosts() {
        // h0 ═ s0 — h1: the host end of the long haul takes no role, and
        // every egress of the DCI, toward h1 too, gets the DCI profile.
        let mut b = NetBuilder::new();
        let (h0, h1) = (b.add_host(), b.add_host());
        let s0 = b.add_switch(1 << 20, PfcConfig::disabled());
        let (up, down) = b.connect(h0, s0, 10 * GBPS, MS, LONG_HAUL);
        let (_, to_h1) = b.connect(h1, s0, 10 * GBPS, US, LinkOpts::default());
        let net = b.build();
        assert_eq!(dci_switches(&net), vec![s0]);
        assert_eq!(net.links[up.index()].ecn, EcnConfig::dc_switch(10 * GBPS));
        assert_eq!(net.links[down.index()].ecn, EcnConfig::dci_switch());
        assert_eq!(net.links[to_h1.index()].ecn, EcnConfig::dci_switch());
    }

    #[test]
    fn pfq_on_dci_to_spine_egresses() {
        let t = TwoDcTopology::build(small_params());
        for dc in 0..2 {
            for &l in &t.dci_to_spine[dc] {
                assert!(t.net.links[l.index()].pfq.is_some());
            }
            for &l in &t.spine_to_dci[dc] {
                assert!(t.net.links[l.index()].pfq.is_none());
            }
        }
    }

    #[test]
    fn routes_cross_dc_exist() {
        let t = TwoDcTopology::build(small_params());
        let src = t.server(1, 0);
        let dst = t.server(6, 0);
        // From the source host there is exactly one way out.
        let c = t.net.routes.candidates(src, dst);
        assert_eq!(c.len(), 1);
        // From the source leaf there are two spine choices.
        let leaf = t.leaves[0][0];
        assert_eq!(t.net.routes.candidates(leaf, dst).len(), 2);
    }

    #[test]
    fn host_uplinks_assigned() {
        let t = TwoDcTopology::build(small_params());
        for &h in &t.net.hosts {
            let host = t.net.nodes[h.index()].as_host().unwrap();
            assert_ne!(host.uplink, LinkId(u32::MAX));
            assert_eq!(t.net.links[host.uplink.index()].src, h);
        }
    }

    #[test]
    fn fat_tree_counts_and_shape() {
        let t = FatTreeTopology::build(FatTreeParams::default());
        // k=4: 4 cores, 4 pods × (2 agg + 2 edge), 2 hosts per edge.
        assert_eq!(t.cores.len(), 4);
        assert_eq!(t.edges.len(), 4);
        assert_eq!(t.aggs.len(), 4);
        assert_eq!(t.hosts.len(), 16);
        assert_eq!(t.net.hosts.len(), 16);
        // Links: 16 host pairs + 4·2·2 edge-agg pairs + 4·2·2 agg-core
        // pairs = 48 pairs → 96 links.
        assert_eq!(t.net.links.len(), 96);
        assert_eq!(t.agg_core_links.len(), 16);
        assert_eq!(t.pod_switches().len(), 16);
        // Canonical hosts_per_edge = k/2 with 25G hosts on a 100G
        // fabric: 4:1 at the host speed ratio.
        assert!((t.params.oversubscription() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn fat_tree_multipath_candidates() {
        let t = FatTreeTopology::build(FatTreeParams::default());
        // Cross-pod: 2 agg choices at the edge, 2 core choices at the agg.
        let src = t.hosts[0]; // pod 0, edge 0
        let dst = *t.hosts.last().unwrap(); // pod 3
        assert_eq!(t.net.routes.candidates(src, dst).len(), 1);
        assert_eq!(t.net.routes.candidates(t.edges[0][0], dst).len(), 2);
        assert_eq!(t.net.routes.candidates(t.aggs[0][0], dst).len(), 2);
        // Down path from a core is unique.
        assert_eq!(t.net.routes.candidates(t.cores[0], dst).len(), 1);
        // Intra-edge traffic never leaves the edge switch.
        let c = t.net.routes.candidates(t.edges[0][0], t.hosts[1]);
        assert_eq!(c.len(), 1);
        assert_eq!(t.net.links[c[0].index()].dst, t.hosts[1]);
    }

    #[test]
    #[should_panic(expected = "fat-tree k must be even")]
    fn fat_tree_rejects_odd_k() {
        FatTreeTopology::build(FatTreeParams {
            k: 3,
            ..FatTreeParams::default()
        });
    }

    #[test]
    fn multi_dc_counts_and_dci_roles() {
        let p = MultiDcParams::default(); // 3 spine-leaf islands
        let t = MultiDcTopology::build(p);
        assert_eq!(t.servers.len(), 3);
        assert_eq!(t.servers[0].len(), 4);
        // Per island: 2 leaves + 2 spines intra, 2 per-peer DCI switches.
        assert_eq!(t.island_switches[0].len(), 4);
        assert_eq!(t.dcis[0].len(), 2);
        // 3 island pairs, each with its own long haul.
        assert_eq!(t.long_haul.len(), 3);
        for &(a, bb, [fwd, rev]) in &t.long_haul {
            assert!(t.net.links[fwd.index()].opts.long_haul);
            assert_eq!(t.net.links[fwd.index()].reverse, rev);
            let sa = t.net.links[fwd.index()].src;
            let sb = t.net.links[fwd.index()].dst;
            assert!(t.dcis[a].contains(&sa) && t.dcis[bb].contains(&sb));
            assert_eq!(t.net.links[rev.index()].src, sb);
        }
        // Every DCI switch terminates exactly one long haul, and only
        // DCI switches hold the role.
        let mut dcis: Vec<NodeId> = t.dcis.iter().flatten().copied().collect();
        dcis.sort();
        assert_eq!(dci_switches(&t.net), dcis);
        for &dci in &dcis {
            let lh = t
                .net
                .links
                .iter()
                .filter(|l| l.src == dci && l.opts.long_haul);
            assert_eq!(lh.count(), 1);
        }
        assert_eq!(t.long_haul_pair(2, 0), {
            let [f, r] = t.long_haul_pair(0, 2);
            [r, f]
        });
    }

    #[test]
    fn multi_dc_routes_use_only_the_pair_dci() {
        let t = MultiDcTopology::build(MultiDcParams {
            islands: 4,
            ..MultiDcParams::default()
        });
        // A cross-island path crosses exactly one long haul — never a
        // third island — and it is the pair's own long haul.
        let rt = &t.net.routes;
        for (a, bb) in [(0usize, 1usize), (1, 3), (2, 0)] {
            let (src, dst) = (t.servers[a][0], t.servers[bb][1]);
            let mut cur = src;
            let mut crossed = Vec::new();
            let mut hops = 0;
            while cur != dst {
                let l = rt.pick(cur, dst, crate::types::FlowId(7)).unwrap();
                if t.net.links[l.index()].opts.long_haul {
                    crossed.push(l);
                }
                cur = t.net.links[l.index()].dst;
                hops += 1;
                assert!(hops < 16, "routing loop");
            }
            assert_eq!(crossed, vec![t.long_haul_pair(a, bb)[0]]);
        }
    }

    /// The two networks agree on every node's kind, buffer, PFC profile
    /// and DCI role, and on every link's endpoints, rate, delay,
    /// long-haul flag, ECN profile and PFQ presence.
    fn assert_same_wiring(a: &Network, b: &Network) {
        let node = |n: &Node| {
            n.as_switch()
                .map(|sw| (sw.buffer.capacity(), sw.pfc, sw.dci.is_some()))
        };
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (i, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            assert_eq!(node(x), node(y), "node {i}");
        }
        let link = |l: &Link| {
            let wire = (l.src, l.dst, l.bandwidth, l.delay, l.opts.long_haul);
            (wire, l.ecn, l.pfq.is_some())
        };
        assert_eq!(a.links.len(), b.links.len());
        for (x, y) in a.links.iter().zip(&b.links) {
            assert_eq!(link(x), link(y), "link {:?}", x.id);
        }
    }

    #[test]
    fn two_islands_are_the_two_dc_fabric() {
        let shapes = [
            small_params(),
            TwoDcParams {
                spines_per_dc: 1,
                leaves_per_dc: 3,
                servers_per_leaf: 1,
                fabric_link: 50 * GBPS,
                ..TwoDcParams::default()
            },
        ];
        for p in shapes {
            let t = TwoDcTopology::build(p);
            let m = MultiDcTopology::build(MultiDcParams { islands: 2, dc: p });
            assert_same_wiring(&t.net, &m.net);
            assert_eq!(t.dcis, vec![m.dcis[0][0], m.dcis[1][0]]);
            assert_eq!(t.long_haul, m.long_haul_pair(0, 1));
        }
    }

    #[test]
    fn dumbbell_counts() {
        let d = DumbbellTopology::build(DumbbellParams::default());
        // 2 sides × (1 ToR + 1 DCI + 2 servers) = 8 nodes.
        assert_eq!(d.net.nodes.len(), 8);
        // Per side: 2 server pairs + 1 tor-dci pair = 3 pairs = 6 links;
        // ×2 sides + 2 long-haul = 14.
        assert_eq!(d.net.links.len(), 14);
        assert!(d.net.links[d.dci_to_tor[0].index()].pfq.is_some());
    }
}

//! Fabric-level integration tests: telemetry correctness, PFC
//! backpressure chains, ECMP behaviour, and the DCI micro-loop timing.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::cc::{AckFields, CcEnv, CcFactory, FixedRateCc, ReceiverCc, SenderCc};
use netsim::int::IntStack;
use netsim::packet::Packet;
use netsim::prelude::*;

// ---------------------------------------------------------------------
// Probe plumbing
// ---------------------------------------------------------------------

#[derive(Default)]
struct Captured {
    stacks: Vec<(Time, IntStack)>,
    c_ds: Vec<Option<u32>>,
    switch_int_times: Vec<Time>,
}

struct ProbeReceiver(Rc<RefCell<Captured>>);

impl ReceiverCc for ProbeReceiver {
    fn on_data(&mut self, pkt: &Packet, now: Time) -> AckFields {
        let mut c = self.0.borrow_mut();
        c.stacks.push((now, *pkt.int()));
        c.c_ds.push(pkt.mlcc.c_d());
        AckFields::default()
    }
}

struct ProbeSender {
    inner: FixedRateCc,
    cap: Rc<RefCell<Captured>>,
}

impl SenderCc for ProbeSender {
    fn on_ack(&mut self, ack: &netsim::cc::AckView<'_>) {
        self.inner.on_ack(ack);
    }
    fn on_switch_int(&mut self, _int: &IntStack, now: Time) {
        self.cap.borrow_mut().switch_int_times.push(now);
    }
    fn rate_bps(&self) -> f64 {
        self.inner.rate_bps()
    }
    fn name(&self) -> &'static str {
        "probe"
    }
}

struct ProbeFactory {
    cap: Rc<RefCell<Captured>>,
    rate: f64,
}

impl CcFactory for ProbeFactory {
    fn sender(&self, _env: &CcEnv) -> Box<dyn SenderCc> {
        Box::new(ProbeSender {
            inner: FixedRateCc::new(self.rate),
            cap: self.cap.clone(),
        })
    }
    fn receiver(&self, _env: &CcEnv) -> Box<dyn ReceiverCc> {
        Box::new(ProbeReceiver(self.cap.clone()))
    }
    fn name(&self) -> &'static str {
        "probe"
    }
}

// ---------------------------------------------------------------------
// INT correctness
// ---------------------------------------------------------------------

#[test]
fn int_records_match_the_path() {
    // One intra-DC flow across leaf+spine: the INT stack at the receiver
    // must contain exactly the switch egress hops of the resolved path,
    // in order, with consistent telemetry.
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        ..TwoDcParams::default()
    });
    let cap = Rc::new(RefCell::new(Captured::default()));
    let src = topo.server(1, 0);
    let dst = topo.server(2, 0);
    let mut sim = Simulator::new(
        topo.net,
        SimConfig::default(),
        Box::new(ProbeFactory {
            cap: cap.clone(),
            rate: 1e9,
        }),
    );
    let f = sim.add_flow(src, dst, 100_000, 0);
    assert!(sim.run_until_flows_complete());

    let spec = sim.flows[f.index()];
    let links = sim.resolve_path_links(&spec);
    // Switch egress hops = every path link except the first (the host
    // uplink, whose egress is at the host and does not push INT... the
    // host's uplink *is* INT-enabled but owned by a host; INT insertion
    // happens for every link in this fabric, so expect all links.
    let cap = cap.borrow();
    assert!(!cap.stacks.is_empty());
    for (_, stack) in &cap.stacks {
        assert_eq!(
            stack.len(),
            links.len(),
            "one INT record per traversed egress"
        );
        for (hop, l) in stack.hops().iter().zip(&links) {
            assert_eq!(hop.hop_id, l.0, "hop ids follow the path order");
            assert!(!hop.is_dci);
        }
        // Timestamps are non-decreasing along the path.
        for w in stack.hops().windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
    }
    // tx_bytes per hop is monotone across packets.
    for hop_idx in 0..links.len() {
        let mut last = 0;
        for (_, stack) in &cap.stacks {
            let tx = stack.hops()[hop_idx].tx_bytes;
            assert!(tx >= last, "cumulative tx counter must be monotone");
            last = tx;
        }
    }
}

#[test]
fn receiver_side_int_is_reset_by_mlcc_dci() {
    // Cross-DC flow with MLCC DCI features: the receiver-visible stack
    // starts at the (DCI) per-flow queue, flagged is_dci, followed only
    // by receiver-side hops.
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        ..TwoDcParams::default()
    });
    let cap = Rc::new(RefCell::new(Captured::default()));
    let src = topo.server(1, 0);
    let dst = topo.server(5, 0);
    let cfg = SimConfig {
        stop_time: 100 * MS,
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        topo.net,
        cfg,
        Box::new(ProbeFactory {
            cap: cap.clone(),
            rate: 5e9,
        }),
    );
    sim.add_flow(src, dst, 500_000, 0);
    assert!(sim.run_until_flows_complete());
    let cap = cap.borrow();
    assert!(!cap.stacks.is_empty());
    for (_, stack) in &cap.stacks {
        // DCI hop + spine→leaf + leaf→host = 3 receiver-side hops.
        assert_eq!(stack.len(), 3, "sender-side records were stripped");
        assert!(stack.hops()[0].is_dci, "first record is the PFQ hop");
        assert!(stack.hops()[1..].iter().all(|h| !h.is_dci));
    }
    // Every data packet carried a credit stamp.
    assert!(cap.c_ds.iter().all(|c| c.is_some()));
    // And the sender heard from the near-source loop.
    assert!(!cap.switch_int_times.is_empty());
}

#[test]
fn switch_int_latency_is_one_intra_dc_rtt() {
    // The whole point of the near-source loop: feedback reaches the
    // sender in ~RTT_D, hundreds of times faster than RTT_C.
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        ..TwoDcParams::default()
    });
    let cap = Rc::new(RefCell::new(Captured::default()));
    let src = topo.server(1, 0);
    let dst = topo.server(5, 0);
    let cfg = SimConfig {
        stop_time: 100 * MS,
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        topo.net,
        cfg,
        Box::new(ProbeFactory {
            cap: cap.clone(),
            rate: 5e9,
        }),
    );
    let f = sim.add_flow(src, dst, 500_000, 0);
    assert!(sim.run_until_flows_complete());
    let path = sim.flow_path(f).unwrap();
    let first_feedback = cap.borrow().switch_int_times[0];
    assert!(
        first_feedback < 3 * path.src_dc_rtt,
        "near-source feedback after {} µs, src-DC RTT is {} µs",
        to_micros(first_feedback),
        to_micros(path.src_dc_rtt)
    );
    assert!(
        (first_feedback as f64) < 0.05 * path.base_rtt as f64,
        "micro loop must be far faster than the end-to-end loop"
    );
}

// ---------------------------------------------------------------------
// PFC backpressure chain
// ---------------------------------------------------------------------

#[test]
fn pfc_backpressure_propagates_upstream() {
    // h0 → s1 → s2 → h1 with a slow last link and tiny buffers: the
    // overload at s2 must pause s1, and the overload then pauses h0 —
    // losslessly.
    let mut b = NetBuilder::new();
    let h0 = b.add_host();
    let h1 = b.add_host();
    let s1 = b.add_switch(300_000, PfcConfig::dc_switch());
    let s2 = b.add_switch(300_000, PfcConfig::dc_switch());
    b.connect(h0, s1, 10 * GBPS, US, LinkOpts::default());
    b.connect(s1, s2, 10 * GBPS, US, LinkOpts::default());
    b.connect(
        s2,
        h1,
        GBPS, // 10:1 slowdown at the last hop
        US,
        LinkOpts::default(),
    );
    let net = b.build();
    let mut sim = Simulator::new(net, SimConfig::default(), Box::new(NoCcFactory));
    sim.add_flow(h0, h1, 3_000_000, 0);
    assert!(sim.run_until_flows_complete());
    assert_eq!(sim.out.total_dropped(), 0, "PFC chain keeps it lossless");
    let pauses_s2 = sim.nodes[s2.index()].as_switch().unwrap().pfc_pause_count();
    let pauses_s1 = sim.nodes[s1.index()].as_switch().unwrap().pfc_pause_count();
    assert!(pauses_s2 > 0, "s2 pauses s1");
    assert!(pauses_s1 > 0, "s1 pauses the host");
    // Paused time accounting is consistent.
    assert!(
        sim.nodes[s2.index()]
            .as_switch()
            .unwrap()
            .pfc_paused_total()
            > 0
    );
}

// ---------------------------------------------------------------------
// ECMP
// ---------------------------------------------------------------------

#[test]
fn ecmp_spreads_flows_and_is_stable() {
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        ..TwoDcParams::default()
    });
    let src = topo.server(1, 0);
    let dst = topo.server(3, 0);
    let sim = Simulator::new(topo.net, SimConfig::default(), Box::new(NoCcFactory));
    let mut first_hops = std::collections::HashSet::new();
    for i in 0..64u32 {
        let spec = FlowSpec {
            id: FlowId(i),
            src,
            dst,
            size_bytes: 1,
            start: 0,
        };
        let a = sim.resolve_path_links(&spec);
        let b = sim.resolve_path_links(&spec);
        assert_eq!(a, b, "a flow's path is stable");
        // The second link is the leaf→spine choice.
        first_hops.insert(a[1]);
    }
    assert_eq!(first_hops.len(), 2, "both spines carry flows");
}

// ---------------------------------------------------------------------
// Window-limited senders and control-plane priority
// ---------------------------------------------------------------------

#[test]
fn window_cap_bounds_inflight_queue() {
    // A BDP-windowed sender cannot queue more than ~its window at the
    // bottleneck, unlike a rate-only sender.
    struct WindowedFactory;
    impl CcFactory for WindowedFactory {
        fn sender(&self, env: &CcEnv) -> Box<dyn SenderCc> {
            let bdp = netsim::units::bytes_in(env.path.base_rtt, env.path.line_rate_bps);
            Box::new(FixedRateCc::with_window(
                env.path.line_rate_bps as f64,
                2 * bdp.max(2000),
            ))
        }
        fn receiver(&self, _env: &CcEnv) -> Box<dyn ReceiverCc> {
            Box::new(netsim::cc::PlainReceiver)
        }
        fn name(&self) -> &'static str {
            "windowed"
        }
    }
    let build = || {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let s = b.add_switch(22_000_000, PfcConfig::disabled());
        for h in [h0, h1, h2] {
            b.connect(h, s, 10 * GBPS, US, LinkOpts::default());
        }
        (b.build(), h0, h1, h2)
    };
    let peak_of = |factory: Box<dyn CcFactory>| {
        let (net, h0, h1, h2) = build();
        let mut sim = Simulator::new(
            net,
            SimConfig {
                stop_time: 10 * MS,
                ..SimConfig::default()
            },
            factory,
        );
        sim.add_flow(h0, h1, 5_000_000, 0);
        sim.add_flow(h2, h1, 5_000_000, 0);
        sim.run_until_flows_complete();
        sim.nodes
            .iter()
            .filter_map(|n| n.as_switch())
            .map(|s| s.buffer.peak_used)
            .max()
            .unwrap()
    };
    let windowed = peak_of(Box::new(WindowedFactory));
    let unwindowed = peak_of(Box::new(NoCcFactory));
    assert!(
        windowed * 4 < unwindowed,
        "window cap must slash buffer occupancy ({windowed} vs {unwindowed})"
    );
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

#[test]
fn trace_records_flow_lifecycle_and_pfq() {
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        ..TwoDcParams::default()
    });
    let src = topo.server(1, 0);
    let dst = topo.server(5, 0);
    let cfg = SimConfig {
        stop_time: 100 * MS,
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, Box::new(netsim::cc::NoCcFactory));
    sim.enable_trace(1024);
    let f = sim.add_flow(src, dst, 200_000, 0);
    assert!(sim.run_until_flows_complete());
    let tr = sim.trace.as_ref().unwrap();
    assert_eq!(tr.count(|e| matches!(e, TraceEvent::FlowStarted { .. })), 1);
    assert_eq!(
        tr.count(|e| matches!(e, TraceEvent::FlowCompleted { .. })),
        1
    );
    assert_eq!(
        tr.count(|e| matches!(e, TraceEvent::PfqCreated { flow, .. } if *flow == f)),
        1,
        "exactly one PFQ is created for the flow"
    );
    // Lifecycle ordering: started before completed.
    let started_at = tr
        .records()
        .find(|r| matches!(r.event, TraceEvent::FlowStarted { .. }))
        .unwrap()
        .t;
    let done_at = tr
        .records()
        .find(|r| matches!(r.event, TraceEvent::FlowCompleted { .. }))
        .unwrap()
        .t;
    assert!(started_at < done_at);
    assert!(!tr.render().is_empty());
}

#[test]
fn trace_captures_drops_and_retransmits() {
    // Tiny buffer, no PFC: guaranteed drops and go-back-N recovery.
    let mut b = NetBuilder::new();
    let h0 = b.add_host();
    let h1 = b.add_host();
    let h2 = b.add_host();
    let s = b.add_switch(100_000, PfcConfig::disabled());
    for h in [h0, h1, h2] {
        b.connect(h, s, 10 * GBPS, US, LinkOpts::default());
    }
    let cfg = SimConfig {
        stop_time: 300 * MS,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(b.build(), cfg, Box::new(NoCcFactory));
    sim.enable_trace(1 << 16);
    sim.add_flow(h0, h1, 1_000_000, 0);
    sim.add_flow(h2, h1, 1_000_000, 0);
    assert!(sim.run_until_flows_complete());
    let tr = sim.trace.as_ref().unwrap();
    let drops = tr.count(|e| matches!(e, TraceEvent::PacketDropped { .. }));
    let retx = tr.count(|e| matches!(e, TraceEvent::Retransmit { .. }));
    assert!(drops > 0, "overflow must be traced");
    assert!(retx > 0, "go-back-N must be traced");
    assert_eq!(
        drops as u64, sim.out.buffer_drops,
        "trace agrees with counters"
    );
    assert_eq!(retx as u64, sim.out.retransmits);
}

// ---------------------------------------------------------------------
// Monitor / PFQ sampling and miscellaneous fabric properties
// ---------------------------------------------------------------------

#[test]
fn monitor_samples_per_flow_pfq_occupancy() {
    // Single spine: one DCI→spine egress, so both flows' PFQs live on
    // the monitored link.
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        spines_per_dc: 1,
        ..TwoDcParams::default()
    });
    let pfq_link = topo.dci_to_spine[1][0];
    let dci_links = topo.dci_to_spine[1].clone();
    let (s1, s2, d) = (topo.server(1, 0), topo.server(2, 0), topo.server(5, 0));
    let cfg = SimConfig {
        stop_time: 30 * MS,
        monitor_interval: 200 * US,
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, Box::new(NoCcFactory));
    // Two uncontrolled cross flows into one 25G receiver: the PFQs hold
    // standing queues the monitor must see.
    sim.add_flow(s1, d, 1 << 30, 0);
    sim.add_flow(s2, d, 1 << 30, 0);
    sim.set_monitor(netsim::monitor::MonitorSpec {
        queues: dci_links,
        pfq_link: Some(pfq_link),
        ..netsim::monitor::MonitorSpec::default()
    });
    sim.run();
    let saw_two_flows = sim
        .out
        .monitor
        .samples
        .iter()
        .any(|s| s.pfq_per_flow.len() == 2 && s.pfq_per_flow.iter().all(|&(_, b)| b > 0));
    assert!(saw_two_flows, "monitor must expose per-flow PFQ occupancy");
    // Per-flow occupancies never exceed the summed queue sample.
    for s in &sim.out.monitor.samples {
        let per: u64 = s.pfq_per_flow.iter().map(|x| x.1).sum();
        let total: u64 = s.queue_bytes.iter().sum();
        assert!(per <= total, "per-flow {per} > total {total}");
    }
}

#[test]
fn dumbbell_paths_are_cross_dc() {
    let d = DumbbellTopology::build(DumbbellParams::default());
    let (src, dst) = (d.servers[0][0], d.servers[1][0]);
    let (intra_src, intra_dst) = (d.servers[0][0], d.servers[0][1]);
    let mut sim = Simulator::new(
        d.net,
        SimConfig {
            dci: DciFeatures::mlcc(),
            stop_time: 100 * MS,
            ..SimConfig::default()
        },
        Box::new(NoCcFactory),
    );
    let f_cross = sim.add_flow(src, dst, 10_000, 0);
    let f_intra = sim.add_flow(intra_src, intra_dst, 10_000, 0);
    assert!(sim.run_until_flows_complete());
    let pc = sim.flow_path(f_cross).unwrap();
    let pi = sim.flow_path(f_intra).unwrap();
    assert!(pc.cross_dc && !pi.cross_dc);
    assert!(pc.base_rtt > 2 * MS, "dumbbell long haul is 1 ms each way");
    assert!(pi.base_rtt < 100 * US);
    assert!(pc.src_dc_rtt < pc.base_rtt / 10, "micro-loop RTT is tiny");
}

#[test]
fn control_traffic_does_not_count_as_data_queue() {
    // ACK backlog on a link must not inflate the ECN-relevant data-queue
    // depth used for marking.
    let mut b = NetBuilder::new();
    let h0 = b.add_host();
    let h1 = b.add_host();
    let s = b.add_switch(22_000_000, PfcConfig::dc_switch());
    b.connect(h0, s, 10 * GBPS, US, LinkOpts::default());
    b.connect(h1, s, 10 * GBPS, US, LinkOpts::default());
    let net = b.build();
    // Structural check on the link API itself.
    let l = &net.links[0];
    assert_eq!(l.data_queued_bytes(), 0);
    assert_eq!(l.queued_bytes(), 0);
}

#[test]
fn mixed_flow_sizes_on_one_host_all_complete() {
    // One host fans out many flows of wildly different sizes; round-robin
    // pacing must not starve any of them.
    let topo = TwoDcTopology::build(TwoDcParams {
        servers_per_leaf: 2,
        ..TwoDcParams::default()
    });
    let src = topo.server(1, 0);
    let dsts = [
        topo.server(2, 0),
        topo.server(3, 0),
        topo.server(4, 0),
        topo.server(5, 0),
        topo.server(6, 0),
    ];
    let cfg = SimConfig {
        stop_time: 300 * MS,
        dci: DciFeatures::mlcc(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net, cfg, Box::new(netsim::cc::NoCcFactory));
    let sizes = [100u64, 10_000, 1_000_000, 5_000_000, 500];
    let mut total = 0;
    for (i, (&d, &sz)) in dsts.iter().zip(&sizes).enumerate() {
        total += sz;
        sim.add_flow(src, d, sz, i as Time * 10 * US);
    }
    assert!(sim.run_until_flows_complete());
    assert_eq!(sim.total_delivered(), total);
    // Tiny flows must not be delayed behind the elephant: the 100-byte
    // flow finishes well before the 5 MB one.
    let fct_of = |idx: u32| {
        sim.out
            .fcts
            .iter()
            .find(|r| r.flow == FlowId(idx))
            .unwrap()
            .finish
    };
    assert!(fct_of(0) < fct_of(3), "mouse beats elephant");
}

//! Integration: typed flow outcomes and the graceful-degradation layer.
//!
//! Every run terminates with a verdict for every flow — completed or
//! `Failed` with a typed reason — under faults the fabric cannot heal:
//! a DCI cut that never recovers, a host crash mid-transfer, a missed
//! flow deadline, and a global stall caught by the liveness watchdog.
//! All of it must replay bit-identically.

use mlcc_core::MlccFactory;
use netsim::prelude::*;

/// Cross-DC dumbbell with one transfer in each direction and the
/// graceful-degradation knobs under caller control.
fn cut_sim(cfg_mut: impl FnOnce(&mut SimConfig)) -> (Simulator, [LinkId; 2], Vec<Vec<NodeId>>) {
    let topo = DumbbellTopology::build(DumbbellParams::default());
    let mut cfg = SimConfig {
        stop_time: 2 * SEC,
        dci: DciFeatures::mlcc(),
        seed: 7,
        ..SimConfig::default()
    };
    cfg_mut(&mut cfg);
    let sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));
    (sim, topo.long_haul, topo.servers)
}

/// Cut both long-haul directions at `down_at`, never restoring them
/// within the run (`up_at` past `stop_time`).
fn permanent_cut(sim: &mut Simulator, long_haul: [LinkId; 2], down_at: Time) {
    let up_at = sim.cfg.stop_time + SEC;
    for l in long_haul {
        sim.inject_link_faults(l, FaultProfile::flap(down_at, up_at))
            .expect("valid link fault");
    }
}

#[test]
fn permanent_dci_cut_fails_flows_with_rto_giveup() {
    let run = || {
        let (mut sim, long_haul, servers) = cut_sim(|cfg| cfg.giveup_rto_limit = 4);
        permanent_cut(&mut sim, long_haul, 200 * US);
        sim.add_flow(servers[0][0], servers[1][0], 5_000_000, 0);
        sim.add_flow(servers[1][1], servers[0][1], 5_000_000, 50 * US);
        assert!(
            !sim.run_until_flows_complete(),
            "no flow can cross a severed long haul"
        );
        assert_eq!(sim.out.fcts.len(), 0, "nothing completed");
        assert_eq!(sim.out.outcomes.len(), 2, "every flow has a verdict");
        for o in &sim.out.outcomes {
            assert_eq!(
                o.outcome,
                FlowOutcome::Failed(FailReason::RtoGiveUp),
                "flow {} must strike out on RTOs",
                o.flow
            );
            assert!(
                o.bytes_acked < o.size_bytes,
                "flow {}: partial transfer only",
                o.flow
            );
            assert!(
                o.ended < sim.cfg.stop_time,
                "give-up must fire well before the stop time"
            );
        }
        assert!(sim.out.fault_drops > 0, "the cut black-holes traffic");
        (
            sim.out.outcomes.clone(),
            sim.out.events_processed,
            sim.out.fault_drops,
        )
    };
    assert_eq!(run(), run(), "give-up verdicts must replay bit-identically");
}

#[test]
fn host_crash_fails_flows_with_typed_reason() {
    let (mut sim, _lh, servers) = cut_sim(|cfg| cfg.giveup_rto_limit = 4);
    let (src, dst) = (servers[0][0], servers[1][0]);
    // Crash the receiver mid-transfer — after the ~2 ms cross-DC RTT
    // has carried some ACKs back, well before the transfer can finish
    // — and never bring it back.
    sim.inject_node_fault(NodeFault::crash(dst, 3 * MS))
        .expect("valid node fault");
    sim.add_flow(src, dst, 50_000_000, 0);
    assert!(!sim.run_until_flows_complete());
    let o = sim.out.outcomes[0];
    assert_eq!(o.outcome, FlowOutcome::Failed(FailReason::HostCrash));
    assert!(o.bytes_acked > 0, "some bytes landed before the crash");
    assert!(o.bytes_acked < o.size_bytes);
    assert!(
        sim.out.blackhole_drops > 0,
        "in-flight packets to the dead host are black-holed"
    );
}

#[test]
fn host_restart_resumes_and_completes() {
    let (mut sim, _lh, servers) = cut_sim(|cfg| cfg.giveup_rto_limit = 0);
    let (src, dst) = (servers[0][0], servers[1][0]);
    let (down_at, up_at) = (300 * US, 20 * MS);
    sim.inject_node_fault(NodeFault::restart(dst, down_at, up_at))
        .expect("valid node fault");
    sim.add_flow(src, dst, 5_000_000, 0);
    assert!(
        sim.run_until_flows_complete(),
        "a restart delays, it does not strand"
    );
    let o = sim.out.outcomes[0];
    assert_eq!(o.outcome, FlowOutcome::Completed);
    assert_eq!(o.bytes_acked, o.size_bytes);
    assert!(
        o.ended > up_at,
        "the transfer can only finish after the restart"
    );
    assert!(sim.out.blackhole_drops > 0, "the outage cost packets");
}

#[test]
fn flow_deadline_fails_slow_flow() {
    let (mut sim, long_haul, servers) = cut_sim(|cfg| cfg.flow_deadline = 5 * MS);
    // The cut makes the transfer unfinishable; the deadline — not the
    // (disabled) strike limit — must be what kills it.
    permanent_cut(&mut sim, long_haul, 200 * US);
    sim.add_flow(servers[0][0], servers[1][0], 5_000_000, 0);
    assert!(!sim.run_until_flows_complete());
    let o = sim.out.outcomes[0];
    assert_eq!(o.outcome, FlowOutcome::Failed(FailReason::Deadline));
    assert!(
        o.ended >= o.start + 5 * MS,
        "deadline verdicts cannot fire early"
    );
}

#[test]
fn watchdog_reports_global_stall() {
    let run = || {
        let (mut sim, long_haul, servers) = cut_sim(|cfg| cfg.watchdog_window = 50 * MS);
        permanent_cut(&mut sim, long_haul, 200 * US);
        sim.add_flow(servers[0][0], servers[1][0], 5_000_000, 0);
        sim.add_flow(servers[1][1], servers[0][1], 5_000_000, 50 * US);
        assert!(!sim.run_until_flows_complete());
        let report = sim.out.watchdog.expect("the stall must be reported");
        assert_eq!(report.unfinished_flows, 2);
        assert_eq!(report.window, 50 * MS);
        assert_eq!(report.stalled_at, report.last_progress_at + report.window);
        assert!(
            report.delivered_bytes > 0,
            "the pipe drained some bytes before the cut bit"
        );
        for o in &sim.out.outcomes {
            assert_eq!(o.outcome, FlowOutcome::Failed(FailReason::Stalled));
            assert_eq!(o.ended, report.stalled_at, "flows fail at the stall point");
        }
        (sim.out.outcomes.clone(), report, sim.out.events_processed)
    };
    assert_eq!(run(), run(), "stall verdicts must replay bit-identically");
}

#[test]
fn fault_free_runs_carry_completed_outcomes() {
    let (mut sim, _lh, servers) = cut_sim(|cfg| {
        // All three degradation knobs armed: they must never fire on a
        // healthy run.
        cfg.giveup_rto_limit = 4;
        cfg.flow_deadline = SEC;
        cfg.watchdog_window = 100 * MS;
    });
    sim.add_flow(servers[0][0], servers[1][0], 500_000, 0);
    sim.add_flow(servers[1][1], servers[0][1], 500_000, 50 * US);
    assert!(sim.run_until_flows_complete());
    assert!(sim.out.watchdog.is_none(), "no stall on a healthy fabric");
    assert_eq!(sim.out.outcomes.len(), 2);
    for (o, f) in sim.out.outcomes.iter().zip(sim.out.fcts.iter()) {
        assert_eq!(o.outcome, FlowOutcome::Completed);
        assert_eq!(o.bytes_acked, o.size_bytes);
        assert_eq!(o.ended, f.finish, "outcomes mirror the FCT records");
    }
    assert_eq!(sim.out.failed().count(), 0);
}

/// Metamorphic relation: a flow that starts after `stop_time` is a
/// no-op. Adding one to a 100 ms two-DC MLCC run leaves the other
/// flows' FCTs and outcomes and the ECN mark count unchanged, and the
/// late flow ends `Unfinished` with nothing acked. (The event count is
/// not compared: the run stays live until `stop_time` while the late
/// flow is pending.)
#[test]
fn flow_starting_after_stop_time_is_a_no_op() {
    let run = |late: bool| {
        let topo = TwoDcTopology::build(TwoDcParams {
            servers_per_leaf: 2,
            ..TwoDcParams::default()
        });
        let cfg = SimConfig {
            stop_time: 100 * MS,
            dci: DciFeatures::mlcc(),
            seed: 7,
            ..SimConfig::default()
        };
        let flows = [
            (topo.server(1, 0), topo.server(5, 0), 2_000_000, 0),
            (topo.server(2, 0), topo.server(5, 0), 2_000_000, 10 * US),
            (topo.server(6, 1), topo.server(3, 1), 500_000, 20 * US),
            (topo.server(1, 1), topo.server(5, 1), 1_000_000, 200 * MS),
        ];
        let mut sim = Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()));
        for &(src, dst, size, start) in &flows[..3 + usize::from(late)] {
            sim.add_flow(src, dst, size, start);
        }
        sim.run_until_flows_complete();
        sim.out
    };
    let (base, with_late) = (run(false), run(true));
    let fcts = |out: &SimOutput| -> Vec<(FlowId, Time)> {
        out.fcts.iter().map(|f| (f.flow, f.fct())).collect()
    };
    assert_eq!(base.fcts.len(), 3, "the three early flows complete");
    assert_eq!(fcts(&with_late), fcts(&base));
    assert!(base.ecn_marks > 0, "the incast must mark");
    assert_eq!(with_late.ecn_marks, base.ecn_marks);
    let (late, early): (Vec<OutcomeRecord>, Vec<OutcomeRecord>) =
        with_late.outcomes.iter().partition(|o| o.flow == FlowId(3));
    assert_eq!(early, base.outcomes);
    assert_eq!(late.len(), 1);
    assert_eq!(late[0].outcome, FlowOutcome::Failed(FailReason::Unfinished));
    assert_eq!(late[0].bytes_acked, 0);
}

//! Sharded-engine golden gate: the multi-core runner must reproduce the
//! single-threaded engine bit-for-bit — full `SimOutput` plus the
//! flight-recorder trace — at every shard count, faulted and fault-free.
//!
//! The shard count under test comes from `NETSIM_SHARDS` (default 2) so
//! CI can run the same binary across a shard-count matrix. Shard count 1
//! still goes through the full window/barrier protocol; the baseline is
//! the plain engine with only the canonical `(time, component)` ordering
//! applied (`run_single_canonical`).

use mlcc_core::MlccFactory;
use netsim::prelude::*;
use netsim::shard::ShardedOutput;

/// Shard count from the CI matrix. Scenarios clamp it to their
/// component count: a dumbbell splits into 2 components, the 4-island
/// mesh into 4, and the runner (correctly) refuses more shards than
/// components.
fn shards_under_test() -> u32 {
    std::env::var("NETSIM_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// The MLCC dumbbell from the determinism gate: cross-DC flows in both
/// directions over the long-haul pair, credit loop and ECN engaged.
fn scenario(
    faulted: bool,
    seed: u64,
) -> (
    impl Fn() -> Simulator + Sync,
    impl Fn(&mut Simulator) + Sync,
) {
    let topo = DumbbellTopology::build(DumbbellParams::default());
    let cfg = SimConfig {
        stop_time: 2 * SEC,
        dci: DciFeatures::mlcc(),
        seed,
        ..SimConfig::default()
    };
    let servers = topo.servers.clone();
    let long_haul = topo.long_haul;
    let build = move || {
        let topo = DumbbellTopology::build(DumbbellParams::default());
        Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()))
    };
    let setup = move |sim: &mut Simulator| {
        if faulted {
            let profile = FaultProfile::uniform_loss(0.01).with_jitter(5 * US);
            for l in long_haul {
                sim.inject_link_faults(l, profile.clone())
                    .expect("valid link fault");
            }
        }
        for side in 0..2 {
            let senders = &servers[side];
            let receivers = &servers[1 - side];
            for i in 0..2 {
                sim.add_flow(
                    senders[i % senders.len()],
                    receivers[i % receivers.len()],
                    500_000,
                    (i as Time) * 100 * US,
                );
            }
        }
    };
    (build, setup)
}

/// Everything compared across shard counts: the whole merged output
/// except `peak_queue_depth`, which is a per-engine execution artifact
/// (each shard has its own event queue) and documented as excluded.
fn assert_identical(got: &ShardedOutput, want: &ShardedOutput, label: &str) {
    assert_eq!(got.partitions, want.partitions, "{label}: partitions");
    assert_eq!(
        got.out.events_processed, want.out.events_processed,
        "{label}: events_processed"
    );
    assert_eq!(
        got.out.events_scheduled, want.out.events_scheduled,
        "{label}: events_scheduled"
    );
    assert_eq!(
        got.out.finished_at, want.out.finished_at,
        "{label}: finished_at"
    );
    assert_eq!(
        got.out.buffer_drops, want.out.buffer_drops,
        "{label}: buffer_drops"
    );
    assert_eq!(
        got.out.fault_drops, want.out.fault_drops,
        "{label}: fault_drops"
    );
    assert_eq!(
        got.out.fault_jittered, want.out.fault_jittered,
        "{label}: fault_jittered"
    );
    assert_eq!(
        got.out.link_flaps, want.out.link_flaps,
        "{label}: link_flaps"
    );
    assert_eq!(
        got.out.retransmits, want.out.retransmits,
        "{label}: retransmits"
    );
    assert_eq!(got.out.ecn_marks, want.out.ecn_marks, "{label}: ecn_marks");
    assert_eq!(
        got.out.pfc_events, want.out.pfc_events,
        "{label}: pfc_events"
    );
    let fcts = |o: &ShardedOutput| {
        o.out
            .fcts
            .iter()
            .map(|r| {
                (
                    r.flow.0,
                    r.src.0,
                    r.dst.0,
                    r.size_bytes,
                    r.start,
                    r.finish,
                    r.cross_dc,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(fcts(got), fcts(want), "{label}: fcts");
    assert_eq!(
        got.out.blackhole_drops, want.out.blackhole_drops,
        "{label}: blackhole_drops"
    );
    assert_eq!(
        got.out.int_suppressed, want.out.int_suppressed,
        "{label}: int_suppressed"
    );
    assert_eq!(got.out.outcomes, want.out.outcomes, "{label}: outcomes");
    assert_eq!(got.out.watchdog, want.out.watchdog, "{label}: watchdog");
    assert_eq!(got.trace, want.trace, "{label}: trace");
}

#[test]
fn sharded_fault_free_run_is_bit_identical_to_single_thread() {
    let (build, setup) = scenario(false, 3);
    let base = netsim::shard::run_single_canonical(Some(100_000), &build, &setup);
    assert!(!base.out.fcts.is_empty(), "scenario must complete flows");
    assert!(!base.trace.is_empty(), "trace must have recorded events");
    assert_eq!(base.out.fault_drops, 0, "fault-free run must not drop");
    assert_eq!(base.partitions, 2, "dumbbell splits at the long haul");
    for shards in [1, shards_under_test().min(2)] {
        let sh = netsim::shard::run_sharded(shards, Some(100_000), &build, &setup);
        assert_identical(&sh, &base, &format!("{shards}-shard fault-free"));
    }
}

#[test]
fn sharded_faulted_run_is_bit_identical_to_single_thread() {
    let (build, setup) = scenario(true, 3);
    let base = netsim::shard::run_single_canonical(Some(100_000), &build, &setup);
    assert!(!base.out.fcts.is_empty(), "scenario must complete flows");
    assert!(
        base.out.fault_drops > 0,
        "faulted run must exercise the loss path"
    );
    for shards in [1, shards_under_test().min(2)] {
        let sh = netsim::shard::run_sharded(shards, Some(100_000), &build, &setup);
        assert_identical(&sh, &base, &format!("{shards}-shard faulted"));
    }
}

/// The same dumbbell with the long haul cut mid-transfer and never
/// restored, the give-up policy and the liveness watchdog armed: every
/// flow must reach a typed `Failed` verdict, and the verdicts, the
/// stall report, and the trace must be bit-identical at every shard
/// count (the cross-shard watchdog consensus must agree with the
/// single-threaded peek-ahead check to the picosecond).
fn cut_scenario(
    seed: u64,
) -> (
    impl Fn() -> Simulator + Sync,
    impl Fn(&mut Simulator) + Sync,
) {
    let cfg = SimConfig {
        stop_time: 2 * SEC,
        dci: DciFeatures::mlcc(),
        seed,
        giveup_rto_limit: 5,
        watchdog_window: 100 * MS,
        ..SimConfig::default()
    };
    let topo = DumbbellTopology::build(DumbbellParams::default());
    let servers = topo.servers.clone();
    let long_haul = topo.long_haul;
    let build = move || {
        let topo = DumbbellTopology::build(DumbbellParams::default());
        Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()))
    };
    let setup = move |sim: &mut Simulator| {
        for l in long_haul {
            sim.inject_link_faults(l, FaultProfile::flap(200 * US, 3 * SEC))
                .expect("valid link fault");
        }
        for side in 0..2 {
            let (senders, receivers) = (&servers[side], &servers[1 - side]);
            for (i, (&src, &dst)) in senders.iter().zip(receivers.iter()).enumerate() {
                sim.add_flow(src, dst, 5_000_000, (i as Time) * 100 * US);
            }
        }
    };
    (build, setup)
}

#[test]
fn sharded_permanent_cut_run_is_bit_identical_to_single_thread() {
    let (build, setup) = cut_scenario(3);
    let base = netsim::shard::run_single_canonical(Some(100_000), &build, &setup);
    assert_eq!(base.out.fcts.len(), 0, "no flow can cross the cut");
    assert_eq!(base.out.outcomes.len(), 4, "every flow has a verdict");
    assert!(
        base.out
            .outcomes
            .iter()
            .all(|o| o.outcome.is_failed() && o.bytes_acked < o.size_bytes),
        "all flows fail with partial transfers"
    );
    assert!(base.out.fault_drops > 0, "the cut black-holes traffic");
    for shards in [1, shards_under_test().min(2)] {
        let sh = netsim::shard::run_sharded(shards, Some(100_000), &build, &setup);
        assert_identical(&sh, &base, &format!("{shards}-shard permanent-cut"));
    }
}

/// The audit's muted-watchdog cross-check reads the fabric-wide
/// snapshot the sharded window function judged, so swallowing the
/// stall report is caught across shards too — even though every flow
/// later gives up on its own and no flow is left unfinished at the end.
#[cfg(feature = "audit")]
#[test]
#[should_panic(expected = "watchdog never reported")]
fn sharded_muted_watchdog_is_caught() {
    let (build, setup) = cut_scenario(3);
    let muted = |sim: &mut Simulator| {
        sim.audit.chaos = Some(netsim::audit::Chaos::MuteWatchdog);
        setup(sim);
    };
    netsim::shard::run_sharded(2, None, &build, muted);
}

#[test]
fn sharded_run_replays_itself() {
    // The threaded runner must also be deterministic against itself
    // across repeated invocations (thread scheduling must not leak in).
    let (build, setup) = scenario(true, 11);
    let shards = shards_under_test().min(2);
    let a = netsim::shard::run_sharded(shards, Some(100_000), &build, &setup);
    let b = netsim::shard::run_sharded(shards, Some(100_000), &build, &setup);
    assert_identical(&a, &b, "replay");
}

/// Four spine-leaf islands meshed pairwise by DCI long hauls — four
/// components, so the shard-count generalization past 2 is exercised
/// for real: 1, 2, and 4 shards must all merge to the identical output.
/// One cross-island MLCC flow per ordered island pair keeps every DCI
/// and every long-haul direction busy.
fn multi_island_scenario(
    faulted: bool,
    seed: u64,
) -> (
    impl Fn() -> Simulator + Sync,
    impl Fn(&mut Simulator) + Sync,
) {
    let params = MultiDcParams {
        islands: 4,
        ..MultiDcParams::default()
    };
    let cfg = SimConfig {
        stop_time: 2 * SEC,
        dci: DciFeatures::mlcc(),
        seed,
        ..SimConfig::default()
    };
    let topo = MultiDcTopology::build(params);
    let servers = topo.servers.clone();
    let lh01 = topo.long_haul_pair(0, 1);
    let build = move || {
        let topo = MultiDcTopology::build(MultiDcParams {
            islands: 4,
            ..MultiDcParams::default()
        });
        Simulator::new(topo.net, cfg, Box::new(MlccFactory::default()))
    };
    let setup = move |sim: &mut Simulator| {
        if faulted {
            let profile = FaultProfile::uniform_loss(0.01).with_jitter(5 * US);
            for l in lh01 {
                sim.inject_link_faults(l, profile.clone())
                    .expect("valid link fault");
            }
        }
        let mut i: usize = 0;
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    continue;
                }
                sim.add_flow(
                    servers[a][i % servers[a].len()],
                    servers[b][(i + 1) % servers[b].len()],
                    300_000,
                    (i as Time) * 50 * US,
                );
                i += 1;
            }
        }
    };
    (build, setup)
}

#[test]
fn four_island_golden_is_bit_identical_at_shard_counts_1_2_4() {
    let (build, setup) = multi_island_scenario(false, 5);
    let base = netsim::shard::run_single_canonical(Some(100_000), &build, &setup);
    assert_eq!(base.partitions, 4, "4 islands split into 4 components");
    assert_eq!(base.out.fcts.len(), 12, "every cross-island flow lands");
    assert_eq!(base.out.fault_drops, 0, "fault-free run must not drop");
    for shards in [1, 2, 4] {
        let sh = netsim::shard::run_sharded(shards, Some(100_000), &build, &setup);
        assert_identical(&sh, &base, &format!("{shards}-shard 4-island"));
    }
}

#[test]
fn four_island_faulted_golden_is_bit_identical_at_shard_counts_1_2_4() {
    let (build, setup) = multi_island_scenario(true, 5);
    let base = netsim::shard::run_single_canonical(Some(100_000), &build, &setup);
    assert_eq!(base.partitions, 4, "4 islands split into 4 components");
    assert!(
        base.out.fault_drops > 0,
        "faulted run must exercise the loss path"
    );
    for shards in [1, 2, 4] {
        let sh = netsim::shard::run_sharded(shards, Some(100_000), &build, &setup);
        assert_identical(&sh, &base, &format!("{shards}-shard 4-island faulted"));
    }
}

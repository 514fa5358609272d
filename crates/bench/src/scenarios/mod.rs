//! Reusable experiment scenarios — one module per family of figures.
//!
//! The flow-completion scenarios (`large_scale`, `testbed`, `faults`)
//! build their fabric, configuration and faults, then hand the
//! simulator and a flow list to [`run_flows`], which registers the
//! flows, runs until each has ended and fills one [`RunSummary`].

pub mod collective;
pub mod convergence;
pub mod faults;
pub mod fuzz;
pub mod large_scale;
pub mod motivation;
pub mod testbed;

use netsim::prelude::*;
use simstats::FctBreakdown;
use workload::{FlowRequest, TrafficClass, TrafficGen, TrafficMix};

/// How a flow-completion run ended: the FCT breakdown, the verdict
/// counts over every registered flow, and the fabric counters the
/// figure tables print.
pub struct RunSummary {
    pub breakdown: FctBreakdown,
    pub flows_total: usize,
    pub flows_completed: usize,
    /// Flows the run failed with a typed verdict: give-up, deadline,
    /// host crash or watchdog stall.
    pub flows_failed: usize,
    /// Flows that reached no verdict before the stop time, which
    /// finalize records as [`FailReason::Unfinished`]. Completed, failed
    /// and hung flows add up to `flows_total`.
    pub flows_hung: usize,
    pub pfc_pauses: u64,
    pub fault_drops: u64,
    pub retransmits: u64,
}

impl RunSummary {
    pub fn completed_all(&self) -> bool {
        self.flows_completed == self.flows_total
    }
}

/// Register `flows` in order on `sim` (already carrying its faults),
/// run until every flow has ended or the stop time, and summarise.
pub fn run_flows(mut sim: Simulator, flows: &[FlowRequest]) -> RunSummary {
    for r in flows {
        sim.add_flow(r.src, r.dst, r.size_bytes, r.start);
    }
    sim.run_until_flows_complete();
    let unfinished = FlowOutcome::Failed(FailReason::Unfinished);
    let hung = sim.out.failed().filter(|o| o.outcome == unfinished).count();
    RunSummary {
        breakdown: FctBreakdown::new(&sim.out.fcts),
        flows_total: flows.len(),
        flows_completed: sim.out.fcts.len(),
        flows_failed: sim.out.failed().count() - hung,
        flows_hung: hung,
        pfc_pauses: sim.total_pfc_pauses(),
        fault_drops: sim.out.fault_drops,
        retransmits: sim.out.retransmits,
    }
}

/// Mixed traffic over two sides of a fabric (two datacenters, or the
/// two ends of a dumbbell), arriving in `[0, duration)`: all-to-all
/// inside each side at `intra_load`, then from each side to the other
/// at `cross_load`. One generator seeded with `seed` draws the classes
/// in the order intra 0, intra 1, cross 0→1, cross 1→0. Both loads are
/// fractions of the senders' NIC rate `nic_rate`.
pub fn two_sided_requests(
    seed: u64,
    nic_rate: Bandwidth,
    sides: &[Vec<NodeId>; 2],
    intra_load: f64,
    cross_load: f64,
    mix: TrafficMix,
    duration: Time,
) -> Vec<FlowRequest> {
    let mut gen = TrafficGen::new(seed, nic_rate);
    let mut generate = |senders: &[NodeId], receivers: &[NodeId], load| {
        let class = TrafficClass {
            senders: senders.to_vec(),
            receivers: receivers.to_vec(),
            load,
            mix,
        };
        gen.generate(&class, 0, duration)
    };
    let [a, b] = sides;
    [
        generate(a, a, intra_load),
        generate(b, b, intra_load),
        generate(a, b, cross_load),
        generate(b, a, cross_load),
    ]
    .concat()
}

/// Run independent jobs across OS threads (each simulation is
/// single-threaded and deterministic; figure harnesses fan runs out).
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs.into_iter().map(|j| s.spawn(j)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("job panicked"))
            .collect()
    })
}

/// Downsample a time series to at most `n` points (for compact printing).
pub fn downsample<T: Copy>(series: &[(Time, T)], n: usize) -> Vec<(Time, T)> {
    if series.len() <= n || n == 0 {
        return series.to_vec();
    }
    let step = series.len() as f64 / n as f64;
    (0..n).map(|i| series[(i as f64 * step) as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| Box::new(move || i * 10) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = run_parallel(jobs);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn downsample_bounds() {
        let series: Vec<(Time, u64)> = (0..1000).map(|i| (i, i)).collect();
        let d = downsample(&series, 100);
        assert_eq!(d.len(), 100);
        assert_eq!(d[0], (0, 0));
        let small = downsample(&series[..5], 100);
        assert_eq!(small.len(), 5);
    }
}

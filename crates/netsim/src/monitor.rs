//! Periodic measurement sampling.
//!
//! A monitor samples selected egress queue depths, per-flow receiver
//! progress (for throughput), and per-flow PFQ occupancy on a fixed
//! interval. Figures 2–4 and 7–10 of the paper are time series produced
//! by exactly these probes.

use crate::types::{FlowId, LinkId};
use crate::units::{rate_bps, Time};

/// What to sample.
#[derive(Clone, Debug, Default)]
pub struct MonitorSpec {
    /// Egress queues to sample (bytes, FIFO + PFQ).
    pub queues: Vec<LinkId>,
    /// Flows whose receiver-side progress to sample (for throughput).
    pub flows: Vec<FlowId>,
    /// Per-flow PFQ occupancy to sample at this DCI egress, if any.
    pub pfq_link: Option<LinkId>,
}

/// One sampling instant.
#[derive(Clone, Debug)]
pub struct Sample {
    pub t: Time,
    /// Queue bytes, aligned with `MonitorSpec::queues`.
    pub queue_bytes: Vec<u64>,
    /// Cumulative receiver bytes, aligned with `MonitorSpec::flows`.
    pub flow_rx_bytes: Vec<u64>,
    /// (flow, queued bytes) pairs at the PFQ link, if sampled.
    pub pfq_per_flow: Vec<(FlowId, u64)>,
}

/// Collected time series.
#[derive(Clone, Debug, Default)]
pub struct MonitorLog {
    pub spec: MonitorSpec,
    pub samples: Vec<Sample>,
}

impl MonitorLog {
    pub fn new(spec: MonitorSpec) -> Self {
        MonitorLog {
            spec,
            samples: Vec::new(),
        }
    }

    /// Throughput series (time, bits/s) for the i-th monitored flow,
    /// differentiated from the cumulative receiver byte counts.
    pub fn flow_throughput(&self, flow_idx: usize) -> Vec<(Time, f64)> {
        let mut out = Vec::with_capacity(self.samples.len().saturating_sub(1));
        for w in self.samples.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let db = b.flow_rx_bytes[flow_idx].saturating_sub(a.flow_rx_bytes[flow_idx]);
            let dt = b.t.saturating_sub(a.t);
            out.push((b.t, rate_bps(db, dt)));
        }
        out
    }

    /// Sum of several monitored queues per sample — used when a device's
    /// "queue" spans multiple ECMP egresses.
    pub fn queue_sum_series(&self) -> Vec<(Time, u64)> {
        self.samples
            .iter()
            .map(|s| (s.t, s.queue_bytes.iter().sum()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{MS, SEC};

    fn log_with(samples: Vec<Sample>) -> MonitorLog {
        MonitorLog {
            spec: MonitorSpec {
                queues: vec![LinkId(0)],
                flows: vec![FlowId(0)],
                ..MonitorSpec::default()
            },
            samples,
        }
    }

    fn sample(t: Time, q: u64, rx: u64) -> Sample {
        Sample {
            t,
            queue_bytes: vec![q],
            flow_rx_bytes: vec![rx],
            pfq_per_flow: Vec::new(),
        }
    }

    #[test]
    fn throughput_differentiation() {
        let log = log_with(vec![
            sample(0, 0, 0),
            sample(1 * MS, 0, 125_000), // 125 KB in 1 ms = 1 Gbps
            sample(2 * MS, 0, 375_000), // 250 KB in 1 ms = 2 Gbps
        ]);
        let th = log.flow_throughput(0);
        assert_eq!(th.len(), 2);
        assert!((th[0].1 - 1e9).abs() < 1e3, "{}", th[0].1);
        assert!((th[1].1 - 2e9).abs() < 1e3, "{}", th[1].1);
    }

    #[test]
    fn queue_sum_series_adds_the_queues_of_each_sample() {
        let mut log = log_with(vec![sample(0, 10, 0), sample(SEC, 50, 0)]);
        log.samples[1].queue_bytes.push(7);
        assert_eq!(log.queue_sum_series(), vec![(0, 10), (SEC, 57)]);
    }
}

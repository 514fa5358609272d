//! Algorithm registry: the five protocols the paper evaluates.

use cc_baselines::{DcqcnFactory, HpccFactory, PowerTcpFactory, TimelyFactory};
use mlcc_core::{MlccFactory, MlccParams};
use netsim::cc::CcFactory;
use netsim::config::DciFeatures;

/// One of the five evaluated algorithms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    Dcqcn,
    Timely,
    Hpcc,
    PowerTcp,
    Mlcc,
}

impl Algo {
    pub const ALL: [Algo; 5] = [
        Algo::Dcqcn,
        Algo::Timely,
        Algo::Hpcc,
        Algo::PowerTcp,
        Algo::Mlcc,
    ];

    pub const BASELINES: [Algo; 4] = [Algo::Dcqcn, Algo::Timely, Algo::Hpcc, Algo::PowerTcp];

    pub fn name(self) -> &'static str {
        match self {
            Algo::Dcqcn => "DCQCN",
            Algo::Timely => "Timely",
            Algo::Hpcc => "HPCC",
            Algo::PowerTcp => "PowerTCP",
            Algo::Mlcc => "MLCC",
        }
    }

    /// Per-flow congestion-control factory.
    pub fn factory(self) -> Box<dyn CcFactory> {
        match self {
            Algo::Dcqcn => Box::new(DcqcnFactory),
            Algo::Timely => Box::new(TimelyFactory),
            Algo::Hpcc => Box::new(HpccFactory),
            Algo::PowerTcp => Box::new(PowerTcpFactory),
            Algo::Mlcc => Box::new(MlccFactory::default()),
        }
    }

    /// MLCC variant with explicit parameters (θ sweeps etc.).
    pub fn mlcc_with(params: MlccParams) -> Box<dyn CcFactory> {
        Box::new(MlccFactory::new(params))
    }

    /// DCI data-plane features this algorithm requires.
    pub fn dci_features(self) -> DciFeatures {
        match self {
            Algo::Mlcc => DciFeatures::mlcc(),
            _ => DciFeatures::baseline(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        assert_eq!(Algo::ALL.len(), 5);
        for a in Algo::ALL {
            assert!(a.factory().name().len() > 2);
        }
    }

    #[test]
    fn only_mlcc_enables_dci_features() {
        assert!(Algo::Mlcc.dci_features().pfq_enabled);
        for a in Algo::BASELINES {
            assert!(!a.dci_features().pfq_enabled);
            assert!(!a.dci_features().near_source_enabled);
        }
    }
}

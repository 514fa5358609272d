//! MLCC parameters, defaulting to the paper's §4.1 settings.
//!
//! Only what the evaluation varies is a field: θ (Fig. 9), D_t (the
//! `dqm_tuning` example) and the DQM switch (the ablation). The other
//! settings are constants in the module that uses them: m in
//! [`crate::dqm`], α in [`crate::token`], and the micro loops' η and
//! additive increase in [`crate::rate_ctl`].

use netsim::units::{Time, MS};

/// The MLCC tunables the evaluation varies.
#[derive(Clone, Copy, Debug)]
pub struct MlccParams {
    /// θ — time budget to bring the predicted queueing delay back to the
    /// target (Eq. 5). Paper default 18 ms (≈ 3 × RTT_C).
    pub theta: Time,
    /// D_t — target queueing delay at the receiver-side DCI (Eq. 5).
    /// Paper default 1 ms.
    pub d_t: Time,
    /// Ablation switch: when false the receiver never advertises
    /// `R̄_DQM`, so the sender runs on the near-source loop alone and
    /// the DCI queue is unmanaged.
    pub dqm_enabled: bool,
}

impl Default for MlccParams {
    fn default() -> Self {
        MlccParams {
            theta: 18 * MS,
            d_t: 1 * MS,
            dqm_enabled: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = MlccParams::default();
        assert_eq!(p.theta, 18 * MS);
        assert_eq!(p.d_t, 1 * MS);
        assert!(p.dqm_enabled);
        assert_eq!(crate::dqm::M, 5);
        assert!((crate::token::ALPHA - 0.5).abs() < 1e-12);
    }
}

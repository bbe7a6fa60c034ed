//! Drift sentinels: EWMA trackers over vacancy-gated window statistics.
//!
//! The sentinel watches the anomaly scores of windows the HMM posterior
//! declares *vacant* (occupied windows never feed it — a person standing
//! in the Fresnel zone is presence, not drift). Scores are tracked in the
//! same floored `log10` domain the HMM emissions use; an exponentially
//! weighted moving average of the gated log-scores is compared against
//! the calibration-time null statistics, and the link is classified with
//! hysteresis:
//!
//! - **Stable** — the EWMA sits within `drift_exit_sigmas` of the
//!   calibration mean;
//! - **Drifting** — the EWMA stayed beyond `drift_enter_sigmas` for
//!   `enter_windows` consecutive gated windows (the trigger for staged
//!   recalibration);
//! - **Broken** — the EWMA jumped beyond `broken_enter_sigmas`
//!   (antenna fell over, furniture rearranged): recalibration is the only
//!   way back.
//!
//! Between the exit and enter bands the current class is *held* — that
//! hysteresis gap is what keeps the classifier from chattering when the
//! drift magnitude hovers at the boundary.
//!
//! The enter band must sit *below* the HMM's absent/present emission
//! crossover (≈1.4 σ with the default 3 σ shift): beyond the crossover a
//! persistent shift reads as presence, the vacancy gate closes, and the
//! sentinel is starved. The default `drift_enter_sigmas = 1.0` catches
//! drift while it is still unambiguously drift; larger step changes are
//! indistinguishable from occupancy without out-of-band vacancy
//! knowledge (see DESIGN.md §11).

use mpdf_core::error::DetectError;
use mpdf_rfmath::stats::{mean, std_dev};

/// Link-drift classification emitted by the sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftState {
    /// Null statistics match the calibration baseline.
    Stable,
    /// Sustained departure from the baseline: recalibration advised.
    Drifting,
    /// Departure so large the baseline is meaningless.
    Broken,
}

impl DriftState {
    /// Stable on-disk / metrics encoding of the state.
    pub fn as_u8(self) -> u8 {
        match self {
            DriftState::Stable => 0,
            DriftState::Drifting => 1,
            DriftState::Broken => 2,
        }
    }

    /// Inverse of [`DriftState::as_u8`].
    pub fn from_u8(tag: u8) -> Option<DriftState> {
        match tag {
            0 => Some(DriftState::Stable),
            1 => Some(DriftState::Drifting),
            2 => Some(DriftState::Broken),
            _ => None,
        }
    }
}

/// Sentinel tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SentinelConfig {
    /// EWMA weight of each new gated window (`0 < alpha <= 1`).
    pub alpha: f64,
    /// Deviation (in calibration σ of the log-score) that arms the
    /// Drifting classification.
    pub drift_enter_sigmas: f64,
    /// Deviation below which the sentinel relaxes back to Stable. Must be
    /// below `drift_enter_sigmas`; the gap is the hysteresis band.
    pub drift_exit_sigmas: f64,
    /// Deviation that immediately classifies the link as Broken.
    pub broken_enter_sigmas: f64,
    /// Consecutive gated windows beyond the enter band required before
    /// Stable escalates to Drifting.
    pub enter_windows: u32,
    /// Consecutive gated windows inside the exit band required before a
    /// drifting/broken link relaxes to Stable.
    pub exit_windows: u32,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig {
            alpha: 0.2,
            drift_enter_sigmas: 1.0,
            drift_exit_sigmas: 0.5,
            broken_enter_sigmas: 4.0,
            enter_windows: 4,
            exit_windows: 8,
        }
    }
}

impl SentinelConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// [`DetectError::InvalidConfig`] on out-of-domain parameters.
    pub fn validate(&self) -> Result<(), DetectError> {
        if self.alpha <= 0.0 || self.alpha > 1.0 || self.alpha.is_nan() {
            return Err(DetectError::InvalidConfig {
                what: format!("sentinel alpha must be in (0, 1], got {}", self.alpha),
            });
        }
        let ordered = self.drift_exit_sigmas > 0.0
            && self.drift_exit_sigmas < self.drift_enter_sigmas
            && self.drift_enter_sigmas < self.broken_enter_sigmas;
        if !ordered {
            return Err(DetectError::InvalidConfig {
                what: format!(
                    "sentinel bands must satisfy 0 < exit ({}) < enter ({}) < broken ({})",
                    self.drift_exit_sigmas, self.drift_enter_sigmas, self.broken_enter_sigmas
                ),
            });
        }
        if self.enter_windows == 0 || self.exit_windows == 0 {
            return Err(DetectError::InvalidConfig {
                what: "sentinel enter/exit window counts must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Complete dynamic state of a sentinel, as stored in checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentinelSnapshot {
    /// Calibration-time mean of the null log-scores.
    pub baseline_mean: f64,
    /// Calibration-time std of the null log-scores (floored at 0.05).
    pub baseline_std: f64,
    /// Current EWMA of the gated log-scores.
    pub ewma: f64,
    /// Current classification.
    pub state: DriftState,
    /// Consecutive gated windows beyond the enter band.
    pub above_enter: u32,
    /// Consecutive gated windows inside the exit band.
    pub below_exit: u32,
}

/// EWMA drift sentinel over vacancy-gated window scores.
#[derive(Debug, Clone)]
pub struct DriftSentinel {
    config: SentinelConfig,
    baseline_mean: f64,
    baseline_std: f64,
    ewma: f64,
    state: DriftState,
    above_enter: u32,
    below_exit: u32,
}

/// Same floored log domain as the HMM emissions (`mpdf_core::hmm`).
fn log_score(s: f64) -> f64 {
    s.max(1e-12).log10()
}

impl DriftSentinel {
    /// Fits the baseline to calibration null scores.
    ///
    /// # Errors
    /// [`DetectError::InvalidConfig`] on a bad config or fewer than two
    /// null scores.
    pub fn from_null_scores(
        null_scores: &[f64],
        config: SentinelConfig,
    ) -> Result<Self, DetectError> {
        config.validate()?;
        let (m, s) = baseline_of(null_scores)?;
        Ok(DriftSentinel {
            config,
            baseline_mean: m,
            baseline_std: s,
            ewma: m,
            state: DriftState::Stable,
            above_enter: 0,
            below_exit: 0,
        })
    }

    /// Feeds one vacancy-gated window score and returns the (possibly
    /// updated) classification.
    pub fn observe(&mut self, score: f64) -> DriftState {
        let x = log_score(score);
        self.ewma = (1.0 - self.config.alpha) * self.ewma + self.config.alpha * x;
        let z = self.zscore();
        if z >= self.config.broken_enter_sigmas {
            // No hysteresis on the way *up* to Broken: a jump this large
            // means the baseline is already useless.
            self.state = DriftState::Broken;
            self.above_enter = 0;
            self.below_exit = 0;
            return self.state;
        }
        if z >= self.config.drift_enter_sigmas {
            self.above_enter += 1;
            self.below_exit = 0;
            if self.state == DriftState::Stable && self.above_enter >= self.config.enter_windows {
                self.state = DriftState::Drifting;
            }
        } else if z <= self.config.drift_exit_sigmas {
            self.below_exit += 1;
            self.above_enter = 0;
            if self.state != DriftState::Stable && self.below_exit >= self.config.exit_windows {
                self.state = DriftState::Stable;
                self.below_exit = 0;
            }
        } else {
            // Hysteresis band: hold the current class.
            self.above_enter = 0;
            self.below_exit = 0;
        }
        self.state
    }

    /// Re-fits the baseline after an accepted recalibration and resets
    /// the sentinel to Stable.
    ///
    /// # Errors
    /// [`DetectError::InvalidConfig`] on fewer than two null scores.
    pub fn rebase(&mut self, null_scores: &[f64]) -> Result<(), DetectError> {
        let (m, s) = baseline_of(null_scores)?;
        self.baseline_mean = m;
        self.baseline_std = s;
        self.ewma = m;
        self.state = DriftState::Stable;
        self.above_enter = 0;
        self.below_exit = 0;
        Ok(())
    }

    /// Current classification.
    pub fn state(&self) -> DriftState {
        self.state
    }

    /// Current |EWMA − baseline mean| in baseline standard deviations.
    pub fn zscore(&self) -> f64 {
        (self.ewma - self.baseline_mean).abs() / self.baseline_std
    }

    /// The dynamic state, for checkpointing.
    pub fn snapshot(&self) -> SentinelSnapshot {
        SentinelSnapshot {
            baseline_mean: self.baseline_mean,
            baseline_std: self.baseline_std,
            ewma: self.ewma,
            state: self.state,
            above_enter: self.above_enter,
            below_exit: self.below_exit,
        }
    }

    /// Reconstructs a sentinel from a checkpointed snapshot.
    ///
    /// # Errors
    /// [`DetectError::InvalidConfig`] on a bad config or a non-positive
    /// snapshot baseline std.
    pub fn from_snapshot(
        snapshot: SentinelSnapshot,
        config: SentinelConfig,
    ) -> Result<Self, DetectError> {
        config.validate()?;
        if snapshot.baseline_std <= 0.0
            || snapshot.baseline_std.is_nan()
            || !snapshot.baseline_mean.is_finite()
        {
            return Err(DetectError::InvalidConfig {
                what: format!(
                    "sentinel snapshot baseline ({}, {}) is not usable",
                    snapshot.baseline_mean, snapshot.baseline_std
                ),
            });
        }
        Ok(DriftSentinel {
            config,
            baseline_mean: snapshot.baseline_mean,
            baseline_std: snapshot.baseline_std,
            ewma: snapshot.ewma,
            state: snapshot.state,
            above_enter: snapshot.above_enter,
            below_exit: snapshot.below_exit,
        })
    }
}

/// Mean/std of the floored log-scores, std floored at 0.05 decades like
/// the HMM emission fit.
fn baseline_of(null_scores: &[f64]) -> Result<(f64, f64), DetectError> {
    if null_scores.len() < 2 {
        return Err(DetectError::InvalidConfig {
            what: format!(
                "sentinel baseline needs at least two null scores, got {}",
                null_scores.len()
            ),
        });
    }
    let logs: Vec<f64> = null_scores.iter().map(|&s| log_score(s)).collect();
    Ok((mean(&logs), std_dev(&logs).max(0.05)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sentinel() -> DriftSentinel {
        // Nulls around 1.0 → baseline mean ≈ 0, std floored to 0.05.
        DriftSentinel::from_null_scores(&[1.0; 20], SentinelConfig::default()).unwrap()
    }

    #[test]
    fn stable_under_null_scores() {
        let mut s = sentinel();
        for _ in 0..100 {
            assert_eq!(s.observe(1.0), DriftState::Stable);
        }
        assert!(s.zscore() < 0.5);
    }

    #[test]
    fn sustained_shift_escalates_to_drifting_with_hysteresis() {
        let mut s = sentinel();
        // Shift scores up by ~2 decades-σ: log10(2) / 0.05 ≈ 6 σ once the
        // EWMA converges, which takes a few windows — no instant flip.
        let mut first_drifting = None;
        for i in 0..40 {
            if s.observe(2.0) == DriftState::Drifting {
                first_drifting = Some(i);
                break;
            }
        }
        let when = first_drifting.expect("sustained shift must escalate");
        assert!(
            when >= SentinelConfig::default().enter_windows as usize - 1,
            "escalated after {when} windows, before the hysteresis count"
        );
        // Recovery also needs sustained evidence.
        let mut back = None;
        for i in 0..100 {
            if s.observe(1.0) == DriftState::Stable {
                back = Some(i);
                break;
            }
        }
        let back = back.expect("return to null must relax to Stable");
        assert!(
            back >= SentinelConfig::default().exit_windows as usize - 1,
            "relaxed after {back} windows"
        );
    }

    #[test]
    fn huge_jump_is_broken_immediately_once_ewma_crosses() {
        let mut s = sentinel();
        let mut state = DriftState::Stable;
        for _ in 0..30 {
            state = s.observe(1e6);
            if state == DriftState::Broken {
                break;
            }
        }
        assert_eq!(state, DriftState::Broken);
    }

    #[test]
    fn rebase_resets_to_stable_on_new_baseline() {
        let mut s = sentinel();
        for _ in 0..30 {
            s.observe(3.0);
        }
        assert_ne!(s.state(), DriftState::Stable);
        s.rebase(&[3.0; 20]).unwrap();
        assert_eq!(s.state(), DriftState::Stable);
        for _ in 0..20 {
            assert_eq!(s.observe(3.0), DriftState::Stable);
        }
    }

    #[test]
    fn snapshot_roundtrip_is_lossless() {
        let mut s = sentinel();
        for i in 0..13 {
            s.observe(1.0 + 0.2 * i as f64);
        }
        let snap = s.snapshot();
        let restored = DriftSentinel::from_snapshot(snap, SentinelConfig::default()).unwrap();
        // Continue both and require bit-identical trajectories.
        let mut a = s;
        let mut b = restored;
        for i in 0..50 {
            let x = 1.0 + 0.31 * i as f64;
            assert_eq!(a.observe(x), b.observe(x), "window {i}");
            assert_eq!(a.zscore().to_bits(), b.zscore().to_bits(), "window {i}");
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let nulls = [1.0, 1.1];
        for cfg in [
            SentinelConfig {
                alpha: 0.0,
                ..SentinelConfig::default()
            },
            SentinelConfig {
                alpha: 1.5,
                ..SentinelConfig::default()
            },
            SentinelConfig {
                drift_exit_sigmas: 4.0,
                ..SentinelConfig::default()
            },
            SentinelConfig {
                broken_enter_sigmas: 0.8,
                ..SentinelConfig::default()
            },
            SentinelConfig {
                enter_windows: 0,
                ..SentinelConfig::default()
            },
        ] {
            let err = DriftSentinel::from_null_scores(&nulls, cfg).unwrap_err();
            assert!(matches!(err, DetectError::InvalidConfig { .. }), "{err}");
        }
        let err = DriftSentinel::from_null_scores(&[1.0], SentinelConfig::default()).unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn state_tags_roundtrip() {
        for s in [DriftState::Stable, DriftState::Drifting, DriftState::Broken] {
            assert_eq!(DriftState::from_u8(s.as_u8()), Some(s));
        }
        assert_eq!(DriftState::from_u8(3), None);
    }
}

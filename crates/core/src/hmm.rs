//! Hidden-Markov smoothing of the decision stream.
//!
//! The paper observes a plateau in its ROC curves and attributes it to
//! *magnified background dynamics* — the weighting schemes amplify
//! occasional far-away motion as well as the target's. Its proposed
//! remedy (§V-B1): "model the static profiles as well, e.g. via hidden
//! Markov models \[27\]". This module implements that extension.
//!
//! A two-state HMM (Absent / Present) runs over the per-window score
//! stream. Emissions are Gaussians in log-score space — the Absent state
//! is fit to the calibration null scores, the Present state is a shifted
//! copy — and sticky transitions encode that people do not appear and
//! vanish between 0.5 s windows. Isolated background blips then lose to
//! the transition prior, while sustained presence accumulates evidence.

use mpdf_rfmath::stats::{mean, std_dev};

use crate::error::DetectError;

/// A 1-D Gaussian emission model over `log10(score)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    /// Mean of `log10(score)`.
    pub mean: f64,
    /// Standard deviation (floored to keep likelihoods proper).
    pub std: f64,
}

impl Gaussian {
    /// Log-density at `x` (up to the common constant, which cancels in
    /// posterior ratios but is included for clarity).
    fn log_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std;
        -0.5 * z * z - self.std.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }
}

/// Two-state presence smoother.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmmSmoother {
    /// Emission model of the Absent state.
    pub absent: Gaussian,
    /// Emission model of the Present state.
    pub present: Gaussian,
    /// `P(Absent → Absent)` per window.
    pub stay_absent: f64,
    /// `P(Present → Present)` per window.
    pub stay_present: f64,
    /// Prior probability of Present at the first window.
    pub prior_present: f64,
    /// Cap on the per-window |log-likelihood ratio| (nats). Gaussian
    /// tails are unrealistically thin: without a cap a single outlier
    /// window (one interference burst) overwhelms any transition prior.
    /// With the cap, flipping the state needs `≥ transition-cost / cap`
    /// consecutive windows of evidence.
    pub llr_cap: f64,
}

impl HmmSmoother {
    /// Default separation between the Absent and Present emission means,
    /// in Absent-state standard deviations.
    pub const DEFAULT_SHIFT_SIGMAS: f64 = 3.0;
    /// Default transition stickiness (windows are 0.5 s; humans stay for
    /// many windows).
    pub const DEFAULT_STICKINESS: f64 = 0.9;
    /// Default per-window evidence cap (nats).
    pub const DEFAULT_LLR_CAP: f64 = 2.0;

    /// Fits the Absent emission to calibration null scores and derives
    /// the Present state as a `shift_sigmas`-σ shifted copy.
    ///
    /// Constant null scores (zero sample variance) are fine: the emission
    /// standard deviation is floored at `0.05` decades, so the smoother
    /// stays proper.
    ///
    /// # Errors
    /// [`DetectError::InvalidConfig`] if fewer than two null scores are
    /// given, `shift_sigmas` is not positive, or `stickiness` is outside
    /// `[0.5, 1)`.
    pub fn from_null_scores(
        null_scores: &[f64],
        shift_sigmas: f64,
        stickiness: f64,
    ) -> Result<Self, DetectError> {
        if null_scores.len() < 2 {
            return Err(DetectError::InvalidConfig {
                what: format!(
                    "need at least two null scores to fit the smoother, got {}",
                    null_scores.len()
                ),
            });
        }
        if shift_sigmas <= 0.0 || shift_sigmas.is_nan() {
            return Err(DetectError::InvalidConfig {
                what: format!("shift must be positive, got {shift_sigmas}"),
            });
        }
        if !(0.5..1.0).contains(&stickiness) {
            return Err(DetectError::InvalidConfig {
                what: format!("stickiness must be in [0.5, 1), got {stickiness}"),
            });
        }
        let logs: Vec<f64> = null_scores.iter().map(|&s| log_score(s)).collect();
        let m = mean(&logs);
        let s = std_dev(&logs).max(0.05);
        Ok(HmmSmoother {
            absent: Gaussian { mean: m, std: s },
            present: Gaussian {
                mean: m + shift_sigmas * s,
                std: 1.5 * s,
            },
            stay_absent: stickiness,
            stay_present: stickiness,
            prior_present: 0.1,
            llr_cap: Self::DEFAULT_LLR_CAP,
        })
    }

    /// Capped log-likelihood ratio `ln p(x|Present) − ln p(x|Absent)`.
    fn llr(&self, x: f64) -> f64 {
        (self.present.log_pdf(x) - self.absent.log_pdf(x)).clamp(-self.llr_cap, self.llr_cap)
    }

    /// Convenience constructor with the default shift and stickiness.
    ///
    /// # Errors
    /// [`DetectError::InvalidConfig`] if fewer than two null scores are
    /// given.
    pub fn with_defaults(null_scores: &[f64]) -> Result<Self, DetectError> {
        HmmSmoother::from_null_scores(
            null_scores,
            Self::DEFAULT_SHIFT_SIGMAS,
            Self::DEFAULT_STICKINESS,
        )
    }

    /// One forward-filter step: given the previous posterior
    /// `P(Present | scores[..t])` and the window-`t` score, returns the
    /// updated posterior `P(Present | scores[..=t])`.
    ///
    /// This is the exact loop body of [`HmmSmoother::filter`], exposed so
    /// a long-running session can carry the scalar posterior across
    /// checkpoints with bit-identical arithmetic.
    pub fn step(&self, p_present: f64, score: f64) -> f64 {
        let x = log_score(score);
        // Predict.
        let pred_present =
            p_present * self.stay_present + (1.0 - p_present) * (1.0 - self.stay_absent);
        // Update with the capped likelihood ratio.
        let ratio = self.llr(x).exp();
        let num = pred_present * ratio;
        let den = num + (1.0 - pred_present);
        num / den
    }

    /// Forward-filtered posterior `P(Present | scores[..=t])` per window —
    /// the online (causal) smoother a live deployment would run.
    pub fn filter(&self, scores: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(scores.len());
        let mut p_present = self.prior_present;
        for &s in scores {
            p_present = self.step(p_present, s);
            out.push(p_present);
        }
        out
    }

    /// Viterbi-smoothed presence sequence — the offline (acausal)
    /// maximum-a-posteriori state path.
    pub fn smooth(&self, scores: &[f64]) -> Vec<bool> {
        if scores.is_empty() {
            return Vec::new();
        }
        let n = scores.len();
        let lt = |from_present: bool, to_present: bool| -> f64 {
            let p = match (from_present, to_present) {
                (true, true) => self.stay_present,
                (true, false) => 1.0 - self.stay_present,
                (false, false) => self.stay_absent,
                (false, true) => 1.0 - self.stay_absent,
            };
            p.max(f64::MIN_POSITIVE).ln()
        };
        // delta[state] = best log-prob ending in state; back[t][state].
        let x0 = log_score(scores[0]);
        // Work with the capped LLR split symmetrically: only differences
        // between the two states matter for the MAP path.
        let l0 = self.llr(x0);
        let mut delta = [
            (1.0 - self.prior_present).max(f64::MIN_POSITIVE).ln() - l0 / 2.0,
            self.prior_present.max(f64::MIN_POSITIVE).ln() + l0 / 2.0,
        ];
        let mut back = vec![[false; 2]; n];
        for (t, &s) in scores.iter().enumerate().skip(1) {
            let x = log_score(s);
            let mut next = [f64::NEG_INFINITY; 2];
            let l = self.llr(x);
            for (to, slot) in next.iter_mut().enumerate() {
                let to_present = to == 1;
                let emit = if to_present { l / 2.0 } else { -l / 2.0 };
                let from_absent = delta[0] + lt(false, to_present);
                let from_present = delta[1] + lt(true, to_present);
                if from_present > from_absent {
                    *slot = from_present + emit;
                    back[t][to] = true;
                } else {
                    *slot = from_absent + emit;
                    back[t][to] = false;
                }
            }
            delta = next;
        }
        // Backtrack.
        let mut states = vec![false; n];
        states[n - 1] = delta[1] > delta[0];
        for t in (1..n).rev() {
            states[t - 1] = back[t][states[t] as usize];
        }
        states
    }
}

/// Scores are non-negative; work in a floored log domain.
fn log_score(s: f64) -> f64 {
    s.max(1e-12).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoother() -> HmmSmoother {
        // Null scores around 1.0 (log 0), σ ≈ 0.1 decades.
        let nulls: Vec<f64> = (0..50)
            .map(|i| 1.0 * 10f64.powf(0.1 * ((i % 7) as f64 - 3.0) / 3.0))
            .collect();
        HmmSmoother::with_defaults(&nulls).expect("valid null scores")
    }

    #[test]
    fn fit_matches_null_statistics() {
        let h = smoother();
        assert!(h.absent.mean.abs() < 0.05, "mean {}", h.absent.mean);
        assert!(h.present.mean > h.absent.mean + 0.2);
    }

    #[test]
    fn isolated_blip_is_suppressed() {
        let h = smoother();
        // 12 absent windows with one huge blip in the middle.
        let mut scores = vec![1.0; 12];
        scores[6] = 30.0;
        let states = h.smooth(&scores);
        assert!(
            states.iter().all(|&s| !s),
            "single blip must not flip the MAP path: {states:?}"
        );
        // The causal filter may spike at the blip but must relax after.
        let post = h.filter(&scores);
        assert!(post[11] < 0.3, "posterior must relax, got {}", post[11]);
    }

    #[test]
    fn sustained_presence_is_detected() {
        let h = smoother();
        let mut scores = vec![1.0; 6];
        scores.extend(vec![12.0; 6]);
        scores.extend(vec![1.0; 6]);
        let states = h.smooth(&scores);
        assert!(states[..5].iter().all(|&s| !s), "{states:?}");
        assert!(states[7..11].iter().all(|&s| s), "{states:?}");
        assert!(states[14..].iter().all(|&s| !s), "{states:?}");
        let post = h.filter(&scores);
        assert!(post[10] > 0.9, "posterior during presence: {}", post[10]);
    }

    #[test]
    fn filter_outputs_probabilities() {
        let h = smoother();
        let scores = [0.5, 2.0, 50.0, 0.1, 1.0, 7.0];
        for p in h.filter(&scores) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let h = smoother();
        assert!(h.smooth(&[]).is_empty());
        assert!(h.filter(&[]).is_empty());
    }

    #[test]
    fn stickiness_controls_blip_tolerance() {
        let nulls = vec![1.0, 1.1, 0.9, 1.05, 0.95];
        let loose = HmmSmoother::from_null_scores(&nulls, 3.0, 0.5).expect("valid");
        let sticky = HmmSmoother::from_null_scores(&nulls, 3.0, 0.95).expect("valid");
        let mut scores = vec![1.0; 9];
        scores[4] = 8.0;
        let loose_states = loose.smooth(&scores);
        let sticky_states = sticky.smooth(&scores);
        // The loose chain follows the blip; the sticky one suppresses it.
        assert!(loose_states[4], "loose chain should follow evidence");
        assert!(!sticky_states[4], "sticky chain should suppress the blip");
    }

    #[test]
    fn too_few_nulls_is_invalid_config() {
        let err = HmmSmoother::with_defaults(&[1.0]).unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("at least two null scores"));
    }

    #[test]
    fn bad_parameters_are_invalid_config() {
        let nulls = [1.0, 1.1, 0.9];
        for bad in [0.0, -1.0, f64::NAN] {
            let err = HmmSmoother::from_null_scores(&nulls, bad, 0.9).unwrap_err();
            assert!(matches!(err, DetectError::InvalidConfig { .. }), "{err}");
        }
        for bad in [0.49, 1.0, 1.5, f64::NAN] {
            let err = HmmSmoother::from_null_scores(&nulls, 3.0, bad).unwrap_err();
            assert!(matches!(err, DetectError::InvalidConfig { .. }), "{err}");
        }
    }

    #[test]
    fn step_matches_filter_exactly() {
        let h = smoother();
        let scores = [0.5, 2.0, 50.0, 0.1, 1.0, 7.0];
        let filtered = h.filter(&scores);
        let mut p = h.prior_present;
        for (i, &s) in scores.iter().enumerate() {
            p = h.step(p, s);
            assert_eq!(p.to_bits(), filtered[i].to_bits(), "window {i}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Constant null scores have zero sample variance; the 0.05
            /// std floor must still yield a usable (finite, proper)
            /// smoother whose filter emits probabilities.
            #[test]
            fn constant_nulls_yield_usable_smoother(
                level in 1e-9f64..1e6,
                n in 2usize..40,
            ) {
                let nulls = vec![level; n];
                let h = HmmSmoother::with_defaults(&nulls).expect("floored std");
                prop_assert!(h.absent.std >= 0.05);
                prop_assert!(h.absent.mean.is_finite());
                prop_assert!(h.present.mean.is_finite());
                let post = h.filter(&[level, level * 10.0, level]);
                for p in post {
                    prop_assert!((0.0..=1.0).contains(&p), "posterior {p}");
                }
            }
        }
    }
}

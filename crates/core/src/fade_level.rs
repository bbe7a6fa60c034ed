//! Fade level — the related-work comparator (§VI, Wilson & Patwari \[12\]).
//!
//! Fade level is the difference between the RSS a link actually measures
//! and the RSS a propagation formula predicts. Deep-faded links
//! (measured ≪ predicted) behave very differently from anti-faded ones.
//! The paper contrasts its multipath factor against this metric: fade
//! level needs a propagation model and channel sweeps, while `μ` comes
//! from a single packet without any formula. Implemented here so the
//! ablation benches can compare both as link-state indicators.

use mpdf_propagation::pathloss::PathLossModel;
use mpdf_rfmath::db::power_to_db;

/// Classification of a link by fade level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FadeState {
    /// Measured power well below prediction: destructive multipath.
    DeepFade,
    /// Within the tolerance band of the prediction.
    Neutral,
    /// Measured power above prediction: constructive multipath.
    AntiFade,
}

/// Fade level in dB: `measured − predicted`.
///
/// # Panics
/// Panics if either power is non-positive.
pub fn fade_level_db(measured_power: f64, predicted_power: f64) -> f64 {
    assert!(
        measured_power > 0.0 && predicted_power > 0.0,
        "powers must be positive"
    );
    power_to_db(measured_power / predicted_power)
}

/// Predicts the received power of a link via the path-loss formula
/// (paper Eq. 9) and classifies the measured power against it.
///
/// `band_db` is the +/- tolerance of the [`FadeState::Neutral`] band.
pub fn classify_fade(
    measured_power: f64,
    distance_m: f64,
    freq_hz: f64,
    model: &PathLossModel,
    band_db: f64,
) -> (f64, FadeState) {
    let predicted = model.power_gain(distance_m, freq_hz);
    let level = fade_level_db(measured_power, predicted);
    let state = if level < -band_db {
        FadeState::DeepFade
    } else if level > band_db {
        FadeState::AntiFade
    } else {
        FadeState::Neutral
    };
    (level, state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fade_level_signs() {
        assert!((fade_level_db(0.5, 1.0) + 3.0103).abs() < 1e-3);
        assert!((fade_level_db(2.0, 1.0) - 3.0103).abs() < 1e-3);
        assert_eq!(fade_level_db(1.0, 1.0), 0.0);
    }

    #[test]
    fn classification_bands() {
        let model = PathLossModel::FREE_SPACE;
        let f = 2.462e9;
        let d = 4.0;
        let predicted = model.power_gain(d, f);
        let (_, deep) = classify_fade(predicted * 0.1, d, f, &model, 3.0);
        assert_eq!(deep, FadeState::DeepFade);
        let (_, anti) = classify_fade(predicted * 10.0, d, f, &model, 3.0);
        assert_eq!(anti, FadeState::AntiFade);
        let (lvl, neutral) = classify_fade(predicted * 1.2, d, f, &model, 3.0);
        assert_eq!(neutral, FadeState::Neutral);
        assert!(lvl.abs() < 3.0);
    }

    #[test]
    #[should_panic(expected = "powers must be positive")]
    fn zero_power_panics() {
        let _ = fade_level_db(0.0, 1.0);
    }
}

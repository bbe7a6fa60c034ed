//! Path weighting (§IV-B2, Eq. 17).
//!
//! The static angular pseudospectrum `Ps(θ)` concentrates power at the LOS
//! direction; reflected (NLOS) directions sit orders lower. Because a
//! single detection threshold applies everywhere, human impacts arriving
//! along NLOS angles drown. The path weights boost them:
//!
//! `w(θ) = 1/Ps(θ)` for `θ_min < θ < θ_max`, `0` otherwise,
//!
//! with the angular gate (±60° in the paper's implementation) excluding
//! the error-prone large-angle region of a short linear array.

use mpdf_music::music::Pseudospectrum;

/// Angular weights derived from a calibration pseudospectrum.
#[derive(Debug, Clone, PartialEq)]
pub struct PathWeights {
    angles_deg: Vec<f64>,
    weights: Vec<f64>,
    theta_min_deg: f64,
    theta_max_deg: f64,
}

impl PathWeights {
    /// The paper's angular gate: ±60°.
    pub const DEFAULT_THETA_MIN_DEG: f64 = -60.0;
    /// See [`PathWeights::DEFAULT_THETA_MIN_DEG`].
    pub const DEFAULT_THETA_MAX_DEG: f64 = 60.0;
    /// Default cap on the inverse-spectrum weights. MUSIC pseudospectra
    /// have deep, noisy nulls; an uncapped `1/Ps(θ)` amplifies exactly
    /// the angles where the estimate is least reliable (the same
    /// reliability concern that motivates the paper's angular gate).
    pub const DEFAULT_WEIGHT_CAP: f64 = 30.0;

    /// Builds weights from the static-environment pseudospectrum with the
    /// paper's default ±60° gate and the default weight cap.
    pub fn from_static_spectrum(spectrum: &Pseudospectrum) -> Self {
        PathWeights::with_gate(
            spectrum,
            Self::DEFAULT_THETA_MIN_DEG,
            Self::DEFAULT_THETA_MAX_DEG,
        )
    }

    /// Builds weights with an explicit angular gate and the default cap.
    ///
    /// # Panics
    /// Panics if `theta_min_deg >= theta_max_deg`.
    pub fn with_gate(spectrum: &Pseudospectrum, theta_min_deg: f64, theta_max_deg: f64) -> Self {
        PathWeights::with_gate_and_cap(
            spectrum,
            theta_min_deg,
            theta_max_deg,
            Self::DEFAULT_WEIGHT_CAP,
        )
    }

    /// Builds weights with an explicit angular gate and weight cap.
    ///
    /// # Panics
    /// Panics if `theta_min_deg >= theta_max_deg` or `cap <= 0`.
    pub fn with_gate_and_cap(
        spectrum: &Pseudospectrum,
        theta_min_deg: f64,
        theta_max_deg: f64,
        cap: f64,
    ) -> Self {
        let _stage = mpdf_obs::stage!("core.path_weight");
        assert!(
            theta_min_deg < theta_max_deg,
            "angular gate must be non-empty"
        );
        assert!(cap > 0.0, "weight cap must be positive");
        // Normalize first so weights are invariant to the pseudospectrum's
        // arbitrary scale.
        let norm = spectrum.normalized();
        let weights = norm
            .angles_deg()
            .iter()
            .zip(norm.values())
            .map(|(&deg, &v)| {
                if deg > theta_min_deg && deg < theta_max_deg {
                    (1.0 / v.max(1e-9)).min(cap)
                } else {
                    0.0
                }
            })
            .collect();
        PathWeights {
            angles_deg: norm.angles_deg().to_vec(),
            weights,
            theta_min_deg,
            theta_max_deg,
        }
    }

    /// The angular grid the weights live on (degrees).
    pub fn angles_deg(&self) -> &[f64] {
        &self.angles_deg
    }

    /// The weight values (zero outside the gate).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The angular gate `(θ_min, θ_max)` in degrees.
    pub fn gate_deg(&self) -> (f64, f64) {
        (self.theta_min_deg, self.theta_max_deg)
    }

    /// Applies the weights to a pseudospectrum sampled on the *same* grid,
    /// returning the weighted angular profile.
    ///
    /// # Panics
    /// Panics if the spectrum's grid differs from the weights' grid.
    pub fn apply(&self, spectrum: &Pseudospectrum) -> Vec<f64> {
        assert_eq!(
            spectrum.angles_deg(),
            self.angles_deg.as_slice(),
            "pseudospectrum grid must match path-weight grid"
        );
        let norm = spectrum.normalized();
        norm.values()
            .iter()
            .zip(&self.weights)
            .map(|(&v, &w)| v * w)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spectrum_with_peak() -> Pseudospectrum {
        // Peak at 0° (LOS), secondary bump at 40°, floor elsewhere.
        let angles: Vec<f64> = (-90..=90).map(|a| a as f64).collect();
        let values = angles
            .iter()
            .map(|&a| {
                let main = 10.0 * (-((a - 0.0) / 6.0_f64).powi(2)).exp();
                let side = 2.0 * (-((a - 40.0) / 6.0_f64).powi(2)).exp();
                0.05 + main + side
            })
            .collect();
        Pseudospectrum::new(angles, values)
    }

    #[test]
    fn weights_invert_the_spectrum_inside_gate() {
        let spec = spectrum_with_peak();
        let w = PathWeights::from_static_spectrum(&spec);
        // The LOS direction (strongest) receives the smallest non-zero
        // weight inside the gate.
        let w_at = |deg: f64| {
            let idx = w
                .angles_deg()
                .iter()
                .position(|&a| (a - deg).abs() < 1e-9)
                .unwrap();
            w.weights()[idx]
        };
        assert!(w_at(0.0) < w_at(40.0));
        assert!(w_at(40.0) < w_at(55.0));
    }

    #[test]
    fn gate_zeroes_out_of_range_angles() {
        let spec = spectrum_with_peak();
        let w = PathWeights::from_static_spectrum(&spec);
        for (&a, &wt) in w.angles_deg().iter().zip(w.weights()) {
            if a <= -60.0 || a >= 60.0 {
                assert_eq!(wt, 0.0, "angle {a} must be gated out");
            } else {
                assert!(wt > 0.0, "angle {a} must be weighted");
            }
        }
        assert_eq!(w.gate_deg(), (-60.0, 60.0));
    }

    #[test]
    fn custom_gate() {
        let spec = spectrum_with_peak();
        let w = PathWeights::with_gate(&spec, -30.0, 30.0);
        let idx45 = w.angles_deg().iter().position(|&a| a == 45.0).unwrap();
        assert_eq!(w.weights()[idx45], 0.0);
    }

    #[test]
    fn weights_are_scale_invariant() {
        let spec = spectrum_with_peak();
        let scaled = Pseudospectrum::new(
            spec.angles_deg().to_vec(),
            spec.values().iter().map(|v| v * 123.0).collect(),
        );
        let w1 = PathWeights::from_static_spectrum(&spec);
        let w2 = PathWeights::from_static_spectrum(&scaled);
        for (a, b) in w1.weights().iter().zip(w2.weights()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn applying_weights_to_static_spectrum_flattens_it() {
        // w(θ)·Ps(θ) = 1 inside the gate by construction, except where
        // the cap bounds the weight (deep spectrum floor).
        let spec = spectrum_with_peak();
        let w = PathWeights::from_static_spectrum(&spec);
        let applied = w.apply(&spec);
        let cap = PathWeights::DEFAULT_WEIGHT_CAP;
        let mut flat = 0;
        for ((&a, &v), &wt) in spec.angles_deg().iter().zip(&applied).zip(w.weights()) {
            if wt == 0.0 {
                assert_eq!(v, 0.0);
            } else if (wt - cap).abs() < 1e-9 {
                assert!(v <= 1.0 + 1e-9, "capped angle {a}: {v}");
            } else {
                assert!((v - 1.0).abs() < 1e-9, "angle {a}: {v}");
                flat += 1;
            }
        }
        assert!(flat > 10, "some angles must invert exactly");
    }

    #[test]
    fn applying_weights_amplifies_nlos_changes() {
        // A change of equal absolute size at the LOS peak and at the NLOS
        // bump must register larger after weighting at the NLOS angle.
        let base = spectrum_with_peak();
        let w = PathWeights::from_static_spectrum(&base);
        let bump = |center: f64| {
            Pseudospectrum::new(
                base.angles_deg().to_vec(),
                base.angles_deg()
                    .iter()
                    .zip(base.values())
                    .map(|(&a, &v)| v + 1.0 * (-((a - center) / 5.0_f64).powi(2)).exp())
                    .collect(),
            )
        };
        let w_base = w.apply(&base);
        let w_los = w.apply(&bump(0.0));
        let w_nlos = w.apply(&bump(40.0));
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        assert!(
            dist(&w_nlos, &w_base) > dist(&w_los, &w_base),
            "NLOS change must be amplified more"
        );
    }

    #[test]
    #[should_panic(expected = "grid must match")]
    fn mismatched_grid_panics() {
        let spec = spectrum_with_peak();
        let w = PathWeights::from_static_spectrum(&spec);
        let other = Pseudospectrum::new(vec![0.0, 1.0], vec![1.0, 1.0]);
        let _ = w.apply(&other);
    }
}

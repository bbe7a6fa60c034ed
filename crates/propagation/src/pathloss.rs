//! Free-space path loss (paper Eq. 9).
//!
//! The paper uses the Friis form with an environmental attenuation factor
//! `n`:
//!
//! `P_r = P_t·G_t·G_r·c² / ((4πd)^n · f²)`
//!
//! The multipath factor's frequency split (Eq. 10) relies on the `f⁻²`
//! dependence of this law, so the same [`PathLossModel`] instance is shared
//! by the simulator and referenced in the detector's documentation.

/// Speed of light in vacuum (m/s).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Free-space path-loss model with environment exponent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Environmental attenuation factor `n` (2 = free space; indoor
    /// office values run 2.5–4).
    exponent: f64,
    /// Product of antenna gains `G_t·G_r` (linear).
    antenna_gains: f64,
}

impl PathLossModel {
    /// Pure free-space propagation (`n = 2`, unit antenna gains).
    pub const FREE_SPACE: PathLossModel = PathLossModel {
        exponent: 2.0,
        antenna_gains: 1.0,
    };

    /// Creates a model with the given exponent and combined antenna gain.
    ///
    /// # Panics
    /// Panics if `exponent < 1` or `antenna_gains <= 0` (unphysical).
    pub fn new(exponent: f64, antenna_gains: f64) -> Self {
        assert!(exponent >= 1.0, "attenuation exponent must be >= 1");
        assert!(antenna_gains > 0.0, "antenna gains must be positive");
        PathLossModel {
            exponent,
            antenna_gains,
        }
    }

    /// Typical furnished-office model (`n = 2.8`).
    pub fn indoor_office() -> Self {
        PathLossModel::new(2.8, 1.0)
    }

    /// Environment attenuation exponent `n`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Received/transmitted *power* ratio at distance `d` metres and
    /// frequency `f` Hz (paper Eq. 9 with `P_t = 1`).
    ///
    /// # Panics
    /// Panics if `d <= 0` or `f <= 0`.
    pub fn power_gain(&self, d: f64, f: f64) -> f64 {
        assert!(d > 0.0, "distance must be positive");
        assert!(f > 0.0, "frequency must be positive");
        let c2 = SPEED_OF_LIGHT * SPEED_OF_LIGHT;
        self.antenna_gains * c2 / ((4.0 * std::f64::consts::PI * d).powf(self.exponent) * f * f)
    }

    /// Amplitude gain `√(P_r/P_t)` — what multiplies a path's phasor.
    pub fn amplitude_gain(&self, d: f64, f: f64) -> f64 {
        self.power_gain(d, f).sqrt()
    }

    /// Distance-dependent factor `(4πd)^n` of the Friis denominator,
    /// hoisted out of the per-frequency loop: batch CFR evaluation pays
    /// the `powf` once per path instead of once per (path, frequency)
    /// sample.
    ///
    /// # Panics
    /// Panics if `d <= 0`.
    pub fn distance_term(&self, d: f64) -> f64 {
        assert!(d > 0.0, "distance must be positive");
        (4.0 * std::f64::consts::PI * d).powf(self.exponent)
    }

    /// [`PathLossModel::amplitude_gain`] with the distance term
    /// precomputed. Bitwise equal to `amplitude_gain(d, f)` whenever
    /// `pd == distance_term(d)`: the expression tree (and hence every
    /// rounding step) is identical, only the `powf` is reused.
    ///
    /// # Panics
    /// Panics if `pd <= 0` or `f <= 0`.
    pub fn amplitude_gain_hoisted(&self, pd: f64, f: f64) -> f64 {
        assert!(pd > 0.0, "distance term must be positive");
        assert!(f > 0.0, "frequency must be positive");
        let c2 = SPEED_OF_LIGHT * SPEED_OF_LIGHT;
        (self.antenna_gains * c2 / (pd * f * f)).sqrt()
    }

    /// Wavelength at frequency `f` Hz.
    pub fn wavelength(f: f64) -> f64 {
        SPEED_OF_LIGHT / f
    }
}

impl Default for PathLossModel {
    fn default() -> Self {
        PathLossModel::indoor_office()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: f64 = 2.462e9; // WiFi channel 11 centre

    #[test]
    fn free_space_matches_friis() {
        // Friis: Pr/Pt = (λ / 4πd)².
        let m = PathLossModel::FREE_SPACE;
        let d = 4.0;
        let lambda = PathLossModel::wavelength(F);
        let friis = (lambda / (4.0 * std::f64::consts::PI * d)).powi(2);
        assert!((m.power_gain(d, F) - friis).abs() < 1e-12 * friis);
    }

    #[test]
    fn power_decays_with_distance() {
        let m = PathLossModel::indoor_office();
        assert!(m.power_gain(1.0, F) > m.power_gain(2.0, F));
        assert!(m.power_gain(2.0, F) > m.power_gain(5.0, F));
    }

    #[test]
    fn exponent_controls_decay_rate() {
        let fs = PathLossModel::FREE_SPACE;
        let office = PathLossModel::indoor_office();
        let ratio_fs = fs.power_gain(1.0, F) / fs.power_gain(4.0, F);
        let ratio_office = office.power_gain(1.0, F) / office.power_gain(4.0, F);
        assert!(ratio_office > ratio_fs, "higher n must decay faster");
        // n=2: doubling distance costs exactly 6.02 dB.
        let db = 10.0 * (fs.power_gain(1.0, F) / fs.power_gain(2.0, F)).log10();
        assert!((db - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn inverse_square_in_frequency() {
        // The f⁻² law the multipath factor's Eq. 10 split relies on.
        let m = PathLossModel::indoor_office();
        let g1 = m.power_gain(3.0, 2.4e9);
        let g2 = m.power_gain(3.0, 4.8e9);
        assert!((g1 / g2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn amplitude_is_sqrt_power() {
        let m = PathLossModel::indoor_office();
        let a = m.amplitude_gain(2.5, F);
        let p = m.power_gain(2.5, F);
        assert!((a * a - p).abs() < 1e-15);
    }

    #[test]
    fn hoisted_amplitude_gain_is_bitwise_identical() {
        // The batch CFR path relies on this exact equality: hoisting the
        // `(4πd)^n` term must not perturb a single bit.
        for model in [PathLossModel::FREE_SPACE, PathLossModel::indoor_office()] {
            for d in [0.3, 1.0, 2.5, 4.0, 11.7] {
                let pd = model.distance_term(d);
                for f in [2.412e9, F, 5.8e9] {
                    assert_eq!(
                        model.amplitude_gain_hoisted(pd, f).to_bits(),
                        model.amplitude_gain(d, f).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn wavelength_at_wifi() {
        let lambda = PathLossModel::wavelength(F);
        assert!((lambda - 0.1218).abs() < 1e-3); // ≈12.2 cm
    }

    #[test]
    #[should_panic(expected = "distance must be positive")]
    fn zero_distance_panics() {
        PathLossModel::FREE_SPACE.power_gain(0.0, F);
    }

    #[test]
    #[should_panic(expected = "attenuation exponent")]
    fn silly_exponent_panics() {
        let _ = PathLossModel::new(0.5, 1.0);
    }
}

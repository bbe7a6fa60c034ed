//! The paper's analytic one-bounce link model (§III-B, Eq. 2–8).
//!
//! These closed forms describe a link carrying a LOS path and one
//! reflection with amplitude ratio `γ = a_L/a_R > 1` and relative phase
//! `φ`. They are used to generate theory overlays for the Fig. 3
//! experiments and as oracles in tests of the measured multipath factor.

/// Parameters of the two-path analysis channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPathLink {
    /// LOS/reflection amplitude ratio `γ > 0` (the paper assumes `γ > 1`).
    pub gamma: f64,
    /// Phase of the reflected path relative to the LOS, radians.
    pub phi: f64,
}

impl TwoPathLink {
    /// Creates the analysis channel.
    ///
    /// # Panics
    /// Panics if `gamma <= 0` or non-finite.
    pub fn new(gamma: f64, phi: f64) -> Self {
        assert!(gamma > 0.0 && gamma.is_finite(), "gamma must be positive");
        TwoPathLink { gamma, phi }
    }

    /// The multipath factor `μ` of Eq. 3:
    ///
    /// `μ = γ² / (γ² + 1 + 2γ·cos φ)`
    ///
    /// `μ > 1` signals destructive superposition (total power below the
    /// LOS-only level); `μ < 1` constructive.
    pub fn multipath_factor(&self) -> f64 {
        let g2 = self.gamma * self.gamma;
        g2 / (g2 + 1.0 + 2.0 * self.gamma * self.phi.cos())
    }

    /// Link sensitivity (dB) under human shadowing of the LOS with
    /// amplitude attenuation `β` — Eq. 5:
    ///
    /// `Δs_S = 10·lg[(β²γ² + 1 + 2βγ·cos φ)/(γ² + 1 + 2γ·cos φ)]`
    ///
    /// # Panics
    /// Panics unless `0 < β <= 1`.
    pub fn shadow_sensitivity_db(&self, beta: f64) -> f64 {
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
        let g = self.gamma;
        let num = beta * beta * g * g + 1.0 + 2.0 * beta * g * self.phi.cos();
        let den = g * g + 1.0 + 2.0 * g * self.phi.cos();
        10.0 * (num / den).log10()
    }

    /// Eq. 6 — the shadowing sensitivity rewritten in terms of the
    /// multipath factor `μ` (the substitution the paper makes because `φ`
    /// is unmeasurable on commodity hardware):
    ///
    /// `Δs_S = 10·lg[β + (1−β)·((1−βγ²)/γ²)·μ]`
    ///
    /// # Panics
    /// Panics unless `0 < β <= 1`.
    pub fn shadow_sensitivity_from_mu_db(&self, beta: f64, mu: f64) -> f64 {
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
        let g2 = self.gamma * self.gamma;
        let arg = beta + (1.0 - beta) * ((1.0 - beta * g2) / g2) * mu;
        10.0 * arg.max(f64::MIN_POSITIVE).log10()
    }

    /// Link sensitivity (dB) when a person *adds* a reflected path with
    /// amplitude ratio `η = a'_R/a_R` and phase `φ'` — Eq. 8:
    ///
    /// `Δs_R = 10·lg{1 + (η² + 2η[γ·cos φ' + cos(φ'−φ)])/γ² · μ}`
    ///
    /// # Panics
    /// Panics if `eta < 0`.
    pub fn reflection_sensitivity_db(&self, eta: f64, phi_prime: f64) -> f64 {
        assert!(eta >= 0.0, "eta must be non-negative");
        let g = self.gamma;
        let mu = self.multipath_factor();
        let term = (eta * eta + 2.0 * eta * (g * phi_prime.cos() + (phi_prime - self.phi).cos()))
            / (g * g)
            * mu;
        10.0 * (1.0 + term).max(f64::MIN_POSITIVE).log10()
    }

    /// The phase `φ = 2πf·Δd/c` induced by an excess path length `Δd`
    /// (metres) at frequency `f` (Hz) — the configurability relation of
    /// §III-B3.
    pub fn phase_from_excess_length(f_hz: f64, excess_m: f64) -> f64 {
        2.0 * std::f64::consts::PI * f_hz * excess_m / mpdf_propagation::SPEED_OF_LIGHT
    }
}

/// Sensitivity of a pure-LOS link (no multipath) to shadowing:
/// `Δs = 10·lg β² = 20·lg β` — the reference the paper compares against.
pub fn los_only_shadow_db(beta: f64) -> f64 {
    20.0 * beta.log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn mu_is_one_without_reflection() {
        // γ → ∞ means no reflected energy: μ → 1.
        let link = TwoPathLink::new(1e9, 1.0);
        assert!((link.multipath_factor() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mu_flags_superposition_state() {
        // Constructive (φ=0): total power maximal ⇒ μ < 1.
        let cons = TwoPathLink::new(2.0, 0.0);
        assert!(cons.multipath_factor() < 1.0);
        // Destructive (φ=π): μ > 1.
        let dest = TwoPathLink::new(2.0, PI);
        assert!(dest.multipath_factor() > 1.0);
    }

    #[test]
    fn eq5_and_eq6_agree() {
        // Eq. 6 is an algebraic rewrite of Eq. 5 — verify over a sweep.
        for &gamma in &[1.5, 2.0, 4.0, 8.0] {
            for i in 0..32 {
                let phi = -PI + i as f64 * (2.0 * PI / 32.0);
                let link = TwoPathLink::new(gamma, phi);
                let beta = 0.5;
                // Skip the singular point βγ = 1 ∧ φ = ±π, where the
                // shadowed channel cancels exactly and both forms → −∞.
                if (beta * gamma - 1.0).abs() < 1e-9 && (phi.abs() - PI).abs() < 1e-9 {
                    continue;
                }
                let direct = link.shadow_sensitivity_db(beta);
                let via_mu = link.shadow_sensitivity_from_mu_db(beta, link.multipath_factor());
                assert!(
                    (direct - via_mu).abs() < 1e-9,
                    "γ={gamma} φ={phi}: {direct} vs {via_mu}"
                );
            }
        }
    }

    #[test]
    fn shadowing_can_raise_rss() {
        // The paper's §III-B3 condition: cos φ < −γ(β+1)/2... (for suitable
        // parameters Δs_S > 0 — blocking the LOS *increases* RSS).
        // γ must be small enough that the condition is satisfiable.
        let beta = 0.5;
        let gamma = 1.05;
        let link = TwoPathLink::new(gamma, PI); // fully destructive
        let ds = link.shadow_sensitivity_db(beta);
        assert!(ds > 0.0, "expected RSS rise, got {ds} dB");
        // And the common case: RSS drop with benign phase.
        let benign = TwoPathLink::new(3.0, 0.3);
        assert!(benign.shadow_sensitivity_db(beta) < 0.0);
    }

    #[test]
    fn multipath_can_beat_los_only_sensitivity() {
        // §III-B3: if cos φ < −(1+β)/(2βγ), |Δs_S| > |10 lg β²|.
        let beta = 0.7f64;
        let gamma = 1.6;
        let phi = PI; // cos φ = −1 < −(1+0.7)/(2·0.7·1.6) ≈ −0.76 ✓
        let link = TwoPathLink::new(gamma, phi);
        let multi = link.shadow_sensitivity_db(beta).abs();
        let los = los_only_shadow_db(beta).abs();
        assert!(multi > los, "multipath {multi} dB vs LOS-only {los} dB");
    }

    #[test]
    fn sensitivity_scales_monotonically_with_mu() {
        // Fig. 3b's expected trend: for fixed β, γ with 1−βγ² < 0, Δs_S
        // falls (more negative) as μ grows.
        let beta = 0.5;
        let gamma = 3.0; // 1 − βγ² = −3.5 < 0
        let mut last = f64::INFINITY;
        // Stay below total cancellation (arg > 0 needs μ < ~2.57 here).
        for i in 0..12 {
            let mu = 0.2 + i as f64 * 0.2;
            let link = TwoPathLink::new(gamma, 0.0);
            let ds = link.shadow_sensitivity_from_mu_db(beta, mu);
            assert!(ds < last, "Δs must fall with μ");
            last = ds;
        }
    }

    #[test]
    fn reflection_sensitivity_sign_depends_on_phase() {
        let link = TwoPathLink::new(3.0, 0.5);
        // In-phase new reflection boosts RSS...
        let up = link.reflection_sensitivity_db(0.8, 0.0);
        assert!(up > 0.0);
        // ...a suitably out-of-phase one cuts it.
        let down = link.reflection_sensitivity_db(0.8, PI);
        assert!(down < up);
    }

    #[test]
    fn zero_eta_changes_nothing() {
        let link = TwoPathLink::new(2.5, 1.2);
        assert!(link.reflection_sensitivity_db(0.0, 0.7).abs() < 1e-12);
    }

    #[test]
    fn phase_from_geometry() {
        // One wavelength of excess length = 2π phase.
        let f = 2.462e9;
        let lambda = mpdf_propagation::PathLossModel::wavelength(f);
        let phi = TwoPathLink::phase_from_excess_length(f, lambda);
        assert!((phi - 2.0 * PI).abs() < 1e-9);
    }

    #[test]
    fn phase_varies_with_frequency() {
        // §III-B3 configurability: same geometry, different subcarrier ⇒
        // different φ (hence different μ).
        let excess = 3.0; // metres
        let p1 = TwoPathLink::phase_from_excess_length(2.452e9, excess);
        let p2 = TwoPathLink::phase_from_excess_length(2.472e9, excess);
        assert!((p1 - p2).abs() > 0.5, "20 MHz apart must shift phase");
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn bad_beta_panics() {
        TwoPathLink::new(2.0, 0.0).shadow_sensitivity_db(1.5);
    }
}

//! One prepared window shared by every scheme scores bitwise the same as
//! a fresh preparation per scheme — on clean, reduced-aperture and
//! clipped windows, and through the combined scheme's 1-antenna abort.

mod common;

use common::{fixture, with_dead_row, with_samples, ALL_SCHEMES};
use mpdf_core::degrade::WindowHealth;
use mpdf_core::error::DetectError;
use mpdf_core::scheme::PreparedWindow;
use mpdf_rfmath::Complex64;
use mpdf_wifi::CsiPacket;
use multipath_hd::prelude::*;

/// Scores under `scheme` through an already prepared window.
fn via_prepared(
    prepared: &Result<PreparedWindow<'_>, DetectError>,
    scheme: &dyn DetectionScheme,
) -> Result<(f64, WindowHealth), DetectError> {
    let p = prepared.as_ref().map_err(Clone::clone)?;
    Ok((scheme.score_prepared(p)?, p.health().clone()))
}

/// Scores `window` under every scheme twice through one shared
/// [`PreparedWindow`] (forward, then reverse scheme order, so the lazy
/// weights are first built by different schemes) and once through a
/// fresh preparation per scheme; all three must agree to the bit.
fn assert_shared_matches_fresh(
    profile: &CalibrationProfile,
    window: &[CsiPacket],
    config: &DetectorConfig,
) -> Vec<Result<f64, DetectError>> {
    let fresh: Vec<_> = ALL_SCHEMES
        .iter()
        .map(|s| s.score_with_health(profile, window, config))
        .collect();
    for order in [[0, 1, 2, 3], [3, 2, 1, 0]] {
        let shared = PreparedWindow::new(profile, window, config);
        for i in order {
            let scheme = ALL_SCHEMES[i];
            match (&fresh[i], via_prepared(&shared, scheme)) {
                (Ok((a, ha)), Ok((b, hb))) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{}", scheme.name());
                    assert_eq!(ha, &hb, "{}", scheme.name());
                }
                (Err(a), Err(b)) => assert_eq!(a, &b, "{}", scheme.name()),
                (a, b) => panic!("{}: fresh {a:?} vs shared {b:?}", scheme.name()),
            }
        }
    }
    fresh.into_iter().map(|r| r.map(|(s, _)| s)).collect()
}

#[test]
fn clean_window_scores_identically() {
    let (profile, config, window, _) = fixture();
    let scores = assert_shared_matches_fresh(&profile, &window, &config);
    assert!(scores
        .iter()
        .all(|s| s.as_ref().is_ok_and(|s| s.is_finite())));
    let prepared = PreparedWindow::new(&profile, &window, &config).unwrap();
    assert!(!prepared.health().degraded);
}

#[test]
fn dead_row_window_falls_back_to_two_antennas_identically() {
    let (profile, config, mut window, _) = fixture();
    window[4] = with_dead_row(&window[4], 1);
    let scores = assert_shared_matches_fresh(&profile, &window, &config);
    assert!(scores.iter().all(Result::is_ok));
    let prepared = PreparedWindow::new(&profile, &window, &config).unwrap();
    assert!(prepared.health().widened_uncertainty);
    assert_eq!(prepared.health().usable_antennas, vec![0, 2]);
    assert_eq!(prepared.packets()[0].antennas(), 2);
}

#[test]
fn clipped_window_renormalizes_identically() {
    let (profile, config, mut window, sat) = fixture();
    let rail = Complex64::from_polar(sat, 0.3);
    window[6] = with_samples(&window[6], &[(0, 5), (2, 17)], rail);
    let scores = assert_shared_matches_fresh(&profile, &window, &config);
    assert!(scores.iter().all(Result::is_ok));
    let prepared = PreparedWindow::new(&profile, &window, &config).unwrap();
    let health = prepared.health();
    assert!(health.degraded && !health.widened_uncertainty);
    let clipped: Vec<usize> = (0..30).filter(|&k| health.clipped_subcarriers[k]).collect();
    assert_eq!(clipped, vec![5, 17]);
    let w = prepared.weights();
    assert_eq!((w[5], w[17]), (0.0, 0.0));
}

#[test]
fn one_antenna_window_aborts_only_the_combined_scheme() {
    let (profile, config, mut window, _) = fixture();
    window[1] = with_dead_row(&window[1], 1);
    window[9] = with_dead_row(&window[9], 2);
    let scores = assert_shared_matches_fresh(&profile, &window, &config);
    let names: Vec<&str> = ALL_SCHEMES.iter().map(|s| s.name()).collect();
    for (name, score) in names.iter().zip(&scores) {
        if *name == SubcarrierAndPathWeighting.name() {
            assert!(
                matches!(score, Err(DetectError::DegradedBeyondBudget { .. })),
                "{name}: {score:?}"
            );
        } else {
            assert!(score.is_ok(), "{name}: {score:?}");
        }
    }
}

#[test]
fn preparation_errors_reach_every_scheme_alike() {
    let (profile, config, window, _) = fixture();
    assert_shared_matches_fresh(&profile, &[], &config);
    // Keep every fourth packet: the sequence gaps exceed the budget.
    let sparse: Vec<CsiPacket> = window.iter().step_by(4).cloned().collect();
    let scores = assert_shared_matches_fresh(&profile, &sparse, &config);
    assert!(scores
        .iter()
        .all(|s| matches!(s, Err(DetectError::DegradedBeyondBudget { .. }))));
}

//! Property tests for the checkpoint codec: clean round-trips are exact
//! (restored detectors score to 0 ULP of the original), and the delta a
//! step reports rebuilds the session's snapshot from the one before it.
//! Corruption detection is the shard log's job (its CRC-64 framing is
//! property-tested in `mpdf-fleet`).

use proptest::prelude::*;

use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::SubcarrierWeighting;
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_propagation::human::HumanBody;
use mpdf_session::checkpoint::{
    decode_snapshot_body, encode_snapshot_body, snapshot_body_len, SessionDelta,
};
use mpdf_session::runtime::{RecalOutcome, RecalPolicy, SessionConfig, SessionRuntime};
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::CsiReceiver;

fn session_cfg() -> SessionConfig {
    SessionConfig {
        recalibration: RecalPolicy {
            enabled: true,
            shadow_windows: 4,
            ..RecalPolicy::default()
        },
        reservoir_windows: 4,
        ..SessionConfig::default()
    }
}

/// A runtime with `steps` windows of live state (posterior, sentinel
/// EWMA, reservoir contents all non-trivial).
fn runtime(seed: u64, steps: u64) -> (SessionRuntime<SubcarrierWeighting>, CsiReceiver) {
    let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    let mut rx = CsiReceiver::new(link, seed).unwrap();
    let calibration = rx.capture_static(None, 150).unwrap();
    let mut rt = SessionRuntime::calibrate(
        &calibration,
        SubcarrierWeighting,
        DetectorConfig::default(),
        session_cfg(),
    )
    .unwrap();
    for _ in 0..steps {
        let win = rx.capture_static(None, 25).unwrap();
        rt.step(&win).unwrap();
    }
    (rt, rx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn clean_roundtrip_restores_to_zero_ulp(seed in 0u64..1_000, steps in 0u64..4) {
        let (rt, mut rx) = runtime(seed, steps);
        let snap = rt.snapshot();
        let mut bytes = Vec::new();
        encode_snapshot_body(&snap, &mut bytes).unwrap();
        prop_assert_eq!(bytes.len(), snapshot_body_len(&snap));
        let config = DetectorConfig::default();
        let decoded = decode_snapshot_body(&bytes, &config).unwrap();
        prop_assert_eq!(&decoded, &snap);
        let restored = SessionRuntime::from_snapshot(
            decoded,
            SubcarrierWeighting,
            config,
            session_cfg(),
        )
        .unwrap();
        // The restored detector scores fresh windows bit-identically.
        for _ in 0..2 {
            let probe = rx.capture_static(None, 25).unwrap();
            let a = rt.detector().decide(&probe).unwrap();
            let b = restored.detector().decide(&probe).unwrap();
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            prop_assert_eq!(a.detected, b.detected);
        }
        prop_assert_eq!(restored.posterior().to_bits(), rt.posterior().to_bits());
        prop_assert_eq!(restored.threshold().to_bits(), rt.threshold().to_bits());
    }
}

/// A runtime on one continuous receiver timeline (drift only reads as
/// drift on one radio), with a rollback guard of `tolerance` over a
/// `reservoir`-window null reservoir.
fn drift_runtime(
    seed: u64,
    tolerance: f64,
    reservoir: usize,
) -> (SessionRuntime<SubcarrierWeighting>, CsiReceiver) {
    let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    let mut rx = CsiReceiver::new(link, seed).unwrap();
    let calibration = rx.capture_static(None, 400).unwrap();
    let mut session = session_cfg();
    session.recalibration.guard_fp_tolerance = tolerance;
    session.reservoir_windows = reservoir;
    let rt = SessionRuntime::calibrate(
        &calibration,
        SubcarrierWeighting,
        DetectorConfig::default(),
        session,
    )
    .unwrap();
    (rt, rx)
}

/// Window ops: 0 occupied, 1 one more step of monotone drift (then a
/// vacant window), anything else vacant.
fn next_window(rx: &mut CsiReceiver, op: u8, drift: &mut u32) -> Vec<CsiPacket> {
    let body = HumanBody::new(Vec2::new(4.0, 3.2));
    match op {
        0 => rx.capture_static(Some(&body), 25).unwrap(),
        1 => {
            *drift += 1;
            let level = f64::from(*drift);
            rx.set_drift_magnitude(0.004 * level, 0.04 * level);
            rx.resample_drift();
            rx.capture_static(None, 25).unwrap()
        }
        _ => rx.capture_static(None, 25).unwrap(),
    }
}

/// What a run of [`check_deltas`] exercised.
#[derive(Debug, Default)]
struct Seen {
    /// Steps that committed a recalibration (a base record).
    bases: usize,
    /// Deltas that cleared the shadow buffer.
    shadow_clears: usize,
    /// Deltas that pushed a reservoir window.
    reservoir_pushes: usize,
}

/// Steps `rt` through `ops`, checking after every step that the delta it
/// reports — through its wire form — turns the previous record's
/// snapshot into the current one. A step with no delta must be a
/// committed recalibration, and its full snapshot becomes the record.
fn check_deltas(
    rt: &mut SessionRuntime<SubcarrierWeighting>,
    rx: &mut CsiReceiver,
    ops: &[u8],
) -> Result<Seen, TestCaseError> {
    let mut seen = Seen::default();
    let mut drift = 0u32;
    let mut record = rt.base_snapshot();
    for &op in ops {
        let window = next_window(rx, op, &mut drift);
        let step = rt.step(&window).unwrap();
        match rt.take_delta() {
            Some(delta) => {
                let mut bytes = Vec::new();
                delta.encode(&mut bytes).unwrap();
                prop_assert_eq!(bytes.len(), delta.encoded_len());
                let decoded = SessionDelta::decode(&bytes).unwrap();
                prop_assert_eq!(&decoded, &delta);
                seen.shadow_clears += usize::from(delta.shadow_clear);
                seen.reservoir_pushes += usize::from(!delta.reservoir_push.is_empty());
                decoded.apply_to(&mut record).unwrap();
                prop_assert_eq!(&record, &rt.snapshot(), "window {}", step.window);
            }
            None => {
                prop_assert!(
                    matches!(step.recal, Some(RecalOutcome::Accepted { .. })),
                    "window {}: no delta without a committed recalibration",
                    step.window
                );
                seen.bases += 1;
                record = rt.snapshot();
            }
        }
    }
    Ok(seen)
}

/// Ten windows per drift step, sixteen steps: slow enough for the
/// vacancy gate to keep feeding the shadow buffer.
fn drift_ramp() -> Vec<u8> {
    (0..160).map(|w| if w % 10 == 0 { 1 } else { 2 }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_step_delta_rebuilds_the_snapshot(
        seed in 0u64..1_000,
        zero_tolerance in 0u8..2,
        head in proptest::collection::vec(0u8..6, 5..30),
        tail in proptest::collection::vec(0u8..6, 5..30),
    ) {
        // Random occupied/drift/vacant windows (1:1:4) around a drift
        // ramp, under a lenient or a zero-tolerance rollback guard.
        let tolerance = if zero_tolerance == 1 { 0.0 } else { 0.35 };
        let (mut rt, mut rx) = drift_runtime(seed, tolerance, 4);
        let ops: Vec<u8> = head.iter().copied().chain(drift_ramp()).chain(tail).collect();
        check_deltas(&mut rt, &mut rx, &ops)?;
    }
}

/// The scripted ramps reach both record paths: an admitted
/// recalibration is a base; a rejected one clears the shadow in a delta.
#[test]
fn drift_ramps_cover_the_base_path_and_shadow_clears() {
    let (mut rt, mut rx) = drift_runtime(11, 0.35, 4);
    let seen = check_deltas(&mut rt, &mut rx, &drift_ramp()).unwrap();
    assert!(seen.bases >= 1, "{seen:?}");
    assert!(seen.reservoir_pushes >= 1, "{seen:?}");

    // A reservoir that never evicts: candidates must keep every drift
    // level quiet, which a zero tolerance keeps rejecting.
    let (mut rt, mut rx) = drift_runtime(11, 0.0, 64);
    let seen = check_deltas(&mut rt, &mut rx, &drift_ramp()).unwrap();
    assert!(seen.shadow_clears >= 1, "{seen:?}");
}

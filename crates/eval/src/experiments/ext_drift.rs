//! Drift-adaptation campaign: a long-running session under growing
//! environmental drift, frozen versus adaptive.
//!
//! Extension beyond the paper: the paper calibrates once and monitors
//! forever, but its own premise — the static multipath profile is the
//! reference — erodes as the environment drifts (furniture, doors, AGC
//! references). This experiment drives one *continuous* receiver
//! timeline whose session drift grows block by block and replays the
//! identical packet stream through three session configurations:
//!
//! - **frozen** — recalibration disabled: the day-one operating point,
//!   which the drift slowly walks away from (false positives erode
//!   first: drifted null windows score above the stale threshold);
//! - **adaptive** — the full supervised loop: vacancy-gated drift
//!   sentinel, shadow recalibration, rollback guard;
//! - **no-gate control** — adaptation with the vacancy gate disabled and
//!   a zero-tolerance rollback guard: occupied windows poison the shadow
//!   buffer, and the guard is the only thing standing between a
//!   person-shaped "baseline" and the live profile. Its rejection count
//!   is the guard doing its job (`session.recal_rejected_total`).
//!
//! Every block also probes detection with occupied windows, so the
//! report shows whether adaptation *sustains* the paper's operating
//! point (detection high, FP near target) where the frozen profile
//! erodes.

use mpdf_core::error::DetectError;
use mpdf_core::scheme::SubcarrierWeighting;
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::human::HumanBody;
use mpdf_session::runtime::{RecalOutcome, RecalPolicy, SessionConfig, SessionRuntime};
use mpdf_wifi::csi::CsiPacket;

use crate::scenario::five_cases;
use crate::workload::{case_receiver, CampaignConfig};

/// Drift blocks (the drift magnitude grows linearly per block).
pub const BLOCKS: usize = 6;
/// Vacant monitoring windows per block.
const VACANT_PER_BLOCK: usize = 18;
/// Occupied probe windows per block.
const OCCUPIED_PER_BLOCK: usize = 4;
/// Clutter-drift relative amplitude added per block.
const REL_STEP: f64 = 0.004;
/// Session gain-drift amplitude (dB) added per block.
const DB_STEP: f64 = 0.04;
/// Calibration capture length in windows.
const CALIBRATION_WINDOWS: usize = 12;

/// One drift block of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftRow {
    /// Block index (drift magnitude = block × step).
    pub block: usize,
    /// Clutter-drift relative amplitude in this block.
    pub drift_rel: f64,
    /// Detection rate of occupied windows, frozen profile.
    pub frozen_detect: f64,
    /// False-positive rate of vacant windows, frozen profile.
    pub frozen_fp: f64,
    /// Detection rate of occupied windows, adaptive session.
    pub adaptive_detect: f64,
    /// False-positive rate of vacant windows, adaptive session.
    pub adaptive_fp: f64,
    /// Cumulative accepted recalibrations in the adaptive session.
    pub recals_accepted: usize,
    /// Cumulative guard-rejected recalibrations in the adaptive session.
    pub recals_rejected: usize,
}

/// Result of the drift-adaptation campaign.
#[derive(Debug, Clone)]
pub struct ExtDriftResult {
    /// Day-one threshold both sessions start from.
    pub initial_threshold: f64,
    /// Threshold the adaptive session ends on.
    pub final_adaptive_threshold: f64,
    /// One row per drift block.
    pub rows: Vec<DriftRow>,
    /// Accepted recalibrations in the no-gate control.
    pub nogate_accepted: usize,
    /// Guard rejections in the no-gate control (the rollback guard
    /// refusing occupied-window-poisoned candidates).
    pub nogate_rejected: usize,
}

/// One pre-captured window of the shared session timeline.
struct TimelineWindow {
    packets: Vec<CsiPacket>,
    occupied: bool,
    block: usize,
}

fn session_config(kind: Mode) -> SessionConfig {
    let mut cfg = SessionConfig {
        recalibration: RecalPolicy {
            enabled: !matches!(kind, Mode::Frozen),
            shadow_windows: 4,
            ..RecalPolicy::default()
        },
        ..SessionConfig::default()
    };
    if matches!(kind, Mode::NoGate) {
        // Gate open for every window (posterior < 1.0 always holds), and
        // a guard that refuses any candidate raising reservoir FP at all.
        cfg.vacancy_eps = 1.0;
        cfg.recalibration.guard_fp_tolerance = 0.0;
    }
    cfg
}

#[derive(Clone, Copy)]
enum Mode {
    Frozen,
    Adaptive,
    NoGate,
}

struct ModeOutcome {
    detect: Vec<(usize, usize)>,
    fp: Vec<(usize, usize)>,
    accepted: usize,
    rejected: usize,
    threshold: f64,
}

fn replay(
    kind: Mode,
    calibration: &[CsiPacket],
    timeline: &[TimelineWindow],
    cfg: &CampaignConfig,
) -> Result<ModeOutcome, DetectError> {
    let mut rt = SessionRuntime::calibrate(
        calibration,
        SubcarrierWeighting,
        cfg.detector.clone(),
        session_config(kind),
    )?;
    let mut detect = vec![(0usize, 0usize); BLOCKS];
    let mut fp = vec![(0usize, 0usize); BLOCKS];
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for tw in timeline {
        let d = rt.step(&tw.packets)?;
        if let Some(decision) = d.decision {
            let (fired, scored) = if tw.occupied {
                &mut detect[tw.block]
            } else {
                &mut fp[tw.block]
            };
            *scored += 1;
            if decision.detected {
                *fired += 1;
            }
        }
        match d.recal {
            Some(RecalOutcome::Accepted { .. }) => accepted += 1,
            Some(RecalOutcome::Rejected { .. }) => rejected += 1,
            _ => {}
        }
    }
    Ok(ModeOutcome {
        detect,
        fp,
        accepted,
        rejected,
        threshold: rt.threshold(),
    })
}

fn rate((fired, scored): (usize, usize)) -> f64 {
    if scored == 0 {
        0.0
    } else {
        fired as f64 / scored as f64
    }
}

/// Runs the drift-adaptation campaign.
///
/// # Errors
/// Propagates pipeline errors; gap-budget aborts abstain inside the
/// session loop instead of erroring.
pub fn run(cfg: &CampaignConfig) -> Result<ExtDriftResult, DetectError> {
    let _stage = mpdf_obs::stage!("eval.ext_drift");
    let cases = five_cases();
    let case = &cases[0];
    let template =
        case_receiver(case, cfg, cfg.seed ^ 0xD81F).map_err(|e| DetectError::InvalidConfig {
            what: format!("ext-drift link geometry: {e}"),
        })?;
    let window = cfg.detector.window;
    // Calibration day: a fork has zero accumulated drift.
    let calibration = template
        .fork(cfg.seed ^ 0xCA11B)
        .capture_static(None, 2 * CALIBRATION_WINDOWS * window)
        .map_err(DetectError::from)?;
    // A person standing just off the link midline — an unambiguous
    // presence for every block's detection probe.
    let body = HumanBody::new(case.midpoint() + Vec2::new(0.0, 0.6));

    // One timeline, captured once and replayed through every session
    // mode so the comparison is packet-identical. The drift draw uses a
    // *fixed* fork seed so every block perturbs the environment in the
    // same direction at growing magnitude — a monotone walk away from
    // the calibration-day environment, not a fresh random jolt per block.
    let mut timeline = Vec::with_capacity(BLOCKS * (VACANT_PER_BLOCK + OCCUPIED_PER_BLOCK));
    for block in 0..BLOCKS {
        let mut drifted = template.fork(cfg.seed ^ 0xB10C);
        drifted.set_drift_magnitude(REL_STEP * block as f64, DB_STEP * block as f64);
        drifted.resample_drift();
        let mut rx = drifted.fork_with_drift(cfg.seed ^ (0xCAFE_0000 + block as u64));
        for _ in 0..VACANT_PER_BLOCK {
            timeline.push(TimelineWindow {
                packets: rx.capture_static(None, window).map_err(DetectError::from)?,
                occupied: false,
                block,
            });
        }
        for _ in 0..OCCUPIED_PER_BLOCK {
            timeline.push(TimelineWindow {
                packets: rx
                    .capture_static(Some(&body), window)
                    .map_err(DetectError::from)?,
                occupied: true,
                block,
            });
        }
    }

    let frozen = replay(Mode::Frozen, &calibration, &timeline, cfg)?;
    let adaptive = replay(Mode::Adaptive, &calibration, &timeline, cfg)?;
    let nogate = replay(Mode::NoGate, &calibration, &timeline, cfg)?;

    let mut rows = Vec::with_capacity(BLOCKS);
    for block in 0..BLOCKS {
        rows.push(DriftRow {
            block,
            drift_rel: REL_STEP * block as f64,
            frozen_detect: rate(frozen.detect[block]),
            frozen_fp: rate(frozen.fp[block]),
            adaptive_detect: rate(adaptive.detect[block]),
            adaptive_fp: rate(adaptive.fp[block]),
            recals_accepted: adaptive.accepted,
            recals_rejected: adaptive.rejected,
        });
    }
    Ok(ExtDriftResult {
        initial_threshold: frozen.threshold,
        final_adaptive_threshold: adaptive.threshold,
        rows,
        nogate_accepted: nogate.accepted,
        nogate_rejected: nogate.rejected,
    })
}

/// Renders the report.
pub fn report(r: &ExtDriftResult) -> String {
    let mut out = String::from("Drift adaptation — frozen vs recalibrating session\n");
    out.push_str(&format!(
        "day-one threshold {:.4}; adaptive session ends at {:.4}\n",
        r.initial_threshold, r.final_adaptive_threshold
    ));
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                row.block.to_string(),
                format!("{:.3}", row.drift_rel),
                crate::report::pct(row.frozen_detect),
                crate::report::pct(row.frozen_fp),
                crate::report::pct(row.adaptive_detect),
                crate::report::pct(row.adaptive_fp),
            ]
        })
        .collect();
    out.push_str(&crate::report::table(
        &["block", "drift", "frz det", "frz FP", "ada det", "ada FP"],
        &rows,
    ));
    if let Some(last) = r.rows.last() {
        out.push_str(&format!(
            "adaptive session: {} recalibration(s) accepted, {} rejected by the rollback guard\n",
            last.recals_accepted, last.recals_rejected
        ));
    }
    out.push_str(&format!(
        "no-gate control (occupied windows feed the shadow buffer): {} accepted, {} rejected —\n\
         the zero-tolerance rollback guard is what keeps a person-shaped baseline out\n",
        r.nogate_accepted, r.nogate_rejected
    ));
    out
}

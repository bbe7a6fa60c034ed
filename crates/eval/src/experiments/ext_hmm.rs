//! Extension (paper §V-B1): HMM smoothing of the decision stream.
//!
//! The paper's proposed remedy for its ROC plateau — "model the static
//! profiles as well, e.g. via hidden Markov models" — applied to the
//! combined scheme's scores. Synthetic timelines are assembled from the
//! campaign's scored windows (absent → present → absent), and raw
//! per-window thresholding is compared against the forward-filtered HMM.

use mpdf_core::hmm::HmmSmoother;
use mpdf_core::threshold::threshold_for_fp;

use crate::workload::{CampaignConfig, ScoredWindow};

use super::fig7::run_campaign_scores;

/// Outcome of the HMM-smoothing ablation.
#[derive(Debug, Clone)]
pub struct ExtHmmResult {
    /// Window-level false-positive rate: raw threshold vs HMM.
    pub fp: (f64, f64),
    /// Window-level detection rate on present windows: raw vs HMM.
    pub tp: (f64, f64),
    /// Window-level balanced accuracy: raw vs HMM.
    pub balanced: (f64, f64),
    /// Number of timeline windows evaluated.
    pub windows: usize,
}

/// Deterministic shuffle-free timeline: alternating absent/present blocks
/// drawn round-robin from the pools.
fn timeline(
    negatives: &[f64],
    positives: &[f64],
    blocks: usize,
    block_len: usize,
) -> (Vec<f64>, Vec<bool>) {
    let mut scores = Vec::new();
    let mut truth = Vec::new();
    let mut ni = 0usize;
    let mut pi = 0usize;
    for b in 0..blocks {
        let present = b % 2 == 1;
        for _ in 0..block_len {
            if present {
                scores.push(positives[pi % positives.len()]);
                pi += 1;
            } else {
                scores.push(negatives[ni % negatives.len()]);
                ni += 1;
            }
            truth.push(present);
        }
    }
    (scores, truth)
}

/// Runs the ablation on the shared campaign's combined-scheme scores.
///
/// # Errors
/// Propagates pipeline errors.
pub fn run(cfg: &CampaignConfig) -> Result<ExtHmmResult, mpdf_core::error::DetectError> {
    let shared = run_campaign_scores(cfg)?;
    let negatives: Vec<f64> = shared
        .combined
        .iter()
        .filter(|s| s.human.is_none())
        .map(ScoredWindow::labeled)
        .map(|l| l.score)
        .collect();
    let positives: Vec<f64> = shared
        .combined
        .iter()
        .filter(|s| s.human.is_some())
        .map(|s| s.score)
        .collect();

    // Calibrate threshold and HMM from half the negatives (the "null").
    let half = negatives.len() / 2;
    let (null, rest) = negatives.split_at(half);
    let thr = threshold_for_fp(null, 0.1);
    let hmm = HmmSmoother::with_defaults(null)?;

    let (scores, truth) = timeline(rest, &positives, 12, 10);
    let raw: Vec<bool> = scores.iter().map(|&s| s > thr).collect();
    let posterior = hmm.filter(&scores);
    let smoothed: Vec<bool> = posterior.iter().map(|&p| p > 0.5).collect();

    let rate = |decisions: &[bool], want: bool, over: bool| -> f64 {
        let idx: Vec<usize> = truth
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == over)
            .map(|(i, _)| i)
            .collect();
        if idx.is_empty() {
            return 0.0;
        }
        idx.iter().filter(|&&i| decisions[i] == want).count() as f64 / idx.len() as f64
    };
    let fp = (rate(&raw, true, false), rate(&smoothed, true, false));
    let tp = (rate(&raw, true, true), rate(&smoothed, true, true));
    Ok(ExtHmmResult {
        fp,
        tp,
        balanced: ((tp.0 + 1.0 - fp.0) / 2.0, (tp.1 + 1.0 - fp.1) / 2.0),
        windows: scores.len(),
    })
}

/// Renders the report.
pub fn report(r: &ExtHmmResult) -> String {
    let mut out = String::from(
        "Extension (§V-B1) — HMM smoothing of the combined scheme's decision stream\n",
    );
    let rows = vec![
        vec![
            "raw threshold".to_string(),
            crate::report::pct(r.tp.0),
            crate::report::pct(r.fp.0),
            crate::report::pct(r.balanced.0),
        ],
        vec![
            "HMM filtered".to_string(),
            crate::report::pct(r.tp.1),
            crate::report::pct(r.fp.1),
            crate::report::pct(r.balanced.1),
        ],
    ];
    out.push_str(&crate::report::table(
        &["decision rule", "TP", "FP", "balanced"],
        &rows,
    ));
    out.push_str(&format!(
        "over {} timeline windows; the HMM trades detection latency for rejection of\n\
         isolated background blips — the paper's proposed fix for its ROC plateau\n",
        r.windows
    ));
    out
}

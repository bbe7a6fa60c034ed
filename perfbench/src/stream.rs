//! `stream`: a recorded Fig. 7-style campaign replayed pass after pass through
//! `stream_case_scores` (wire encode → 1460-byte chunks → bounded queue →
//! framer → one scoring worker), closed loop at full speed.
//!
//! Why: detection (`core` + `music`) and the wire codec do almost all the
//! work, with no simulation in the timed part, and each epoch is scored
//! by all three schemes in turn, so the sanitize memo hits 2 times in 3.

use std::time::Instant;

use mpdf_core::scheme::{Baseline, SubcarrierAndPathWeighting, SubcarrierWeighting};
use mpdf_eval::metrics::{LabeledScore, RocCurve};
use mpdf_eval::scenario::five_cases;
use mpdf_eval::stream::{stream_case_scores, EpochScores, StreamOptions};
use mpdf_eval::workload::{run_campaign, score_campaign, CampaignConfig, CaseData, ScoredWindow};

use crate::stats::{self, Ratio};
use crate::{registry_layers, timed_loop, traced_run, Ctx, Outcome};

/// Scoring workers of the replay.
const SCORERS: usize = 1;

/// Passes needed for a p90 over passes with ten beyond it.
const MIN_PASSES: usize = 100;

/// The recording and its offline reference.
struct Recording {
    cfg: CampaignConfig,
    data: Vec<CaseData>,
    /// Offline score bits per case, per scheme (baseline, subcarrier,
    /// combined), in window order.
    offline: Vec<[Vec<u64>; 3]>,
}

fn record(seed: u64) -> Result<Recording, String> {
    // The Fig. 7 campaign with twice the episodes and three times the
    // empty windows: 675 epochs, so the recording's AUC varies little
    // between seeds.
    let cfg = CampaignConfig {
        seed: seed ^ 0x5EED_57EA,
        threads: 2,
        episodes_per_position: 6,
        negative_windows: 81,
        ..CampaignConfig::default()
    };
    let data = run_campaign(&five_cases(), &cfg).map_err(|e| format!("record: {e}"))?;
    let d = &cfg.detector;
    let err = |e: mpdf_core::error::DetectError| format!("offline scoring: {e}");
    let per_scheme: [Vec<ScoredWindow>; 3] = [
        score_campaign(&data, &Baseline, d).map_err(err)?,
        score_campaign(&data, &SubcarrierWeighting, d).map_err(err)?,
        score_campaign(&data, &SubcarrierAndPathWeighting, d).map_err(err)?,
    ];
    let offline = data
        .iter()
        .map(|case| {
            per_scheme.clone().map(|scores| {
                scores
                    .iter()
                    .filter(|s| s.case_id == case.case_id)
                    .map(|s| s.score.to_bits())
                    .collect()
            })
        })
        .collect();
    Ok(Recording { cfg, data, offline })
}

/// Epochs of one case replay whose scores are not bit-identical to the
/// offline pass. Scheme `k`'s streamed scores (abstentions skipped, as
/// `score_campaign` skips them) must equal its offline sequence; each
/// differing or missing position counts once per epoch.
pub fn mismatched_epochs(streamed: &[EpochScores], offline: &[Vec<u64>; 3]) -> u64 {
    let epochs = streamed
        .len()
        .max(offline.iter().map(Vec::len).max().unwrap_or(0));
    let mut bad = vec![false; epochs];
    for (k, reference) in offline.iter().enumerate() {
        let got: Vec<u64> = streamed
            .iter()
            .filter_map(|e| e[k])
            .map(f64::to_bits)
            .collect();
        for (i, flag) in bad.iter_mut().enumerate() {
            if got.get(i) != reference.get(i) && (i < got.len() || i < reference.len()) {
                *flag = true;
            }
        }
    }
    bad.iter().filter(|&&b| b).count() as u64
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, rec) = ctx.setup(|| record(ctx.args.seed))?;
    let opts = StreamOptions::default();
    let epochs_per_pass: usize = rec.data.iter().map(|c| c.windows.len()).sum();

    let mut out = Outcome::default();
    let mut packets_per_pass = 0u64;
    let mut combined: Vec<LabeledScore> = Vec::new();
    let mut first_pass = true;
    let mut unit = |out: &mut Outcome| -> Result<f64, String> {
        let mut wall = 0.0;
        let mut packets = 0u64;
        for (case, offline) in rec.data.iter().zip(&rec.offline) {
            let start = Instant::now();
            let replay = ctx.tracer.span("eval.stream_case_scores", || {
                stream_case_scores(case, &rec.cfg.detector, SCORERS, &opts)
            });
            wall += start.elapsed().as_secs_f64();
            match replay {
                Ok((scores, stats)) => {
                    packets += stats.packets;
                    out.check_many(
                        case.windows.len() as u64,
                        mismatched_epochs(&scores, offline),
                    );
                    if first_pass {
                        combined.extend(scores.iter().zip(&case.windows).filter_map(|(e, w)| {
                            e[2].map(|score| LabeledScore {
                                score,
                                positive: w.human.is_some(),
                            })
                        }));
                    }
                }
                // A replay that loses an epoch (or fails outright) fails
                // every epoch of the case.
                Err(_) => out.check_many(case.windows.len() as u64, case.windows.len() as u64),
            }
        }
        first_pass = false;
        packets_per_pass = packets;
        Ok(wall)
    };

    if ctx.args.trace {
        let seg = traced_run(ctx, 2, || unit(&mut out))?;
        let passes = seg.traced.len() as f64;
        registry_layers(&mut out, &seg, passes, SCORERS);
        let score_s: f64 = crate::SCORE_STAGES
            .iter()
            .map(|s| seg.after.stage_secs_since(&seg.before, s))
            .sum();
        let wall: f64 = seg.traced.iter().sum();
        // The scorer's busy time is the only staged work; the rest of the
        // pass (encode, chunking, queues, framing) is transport.
        let transport = Ratio::new(wall - score_s, wall);
        out.notes
            .push(format!("transport share of pass wall = {transport}"));
        out.set("stream.transport_s", (wall - score_s) / passes);
        out.set("obs.unattributed_s", (wall - score_s) / passes);
    } else {
        let walls = timed_loop(ctx.args.seconds, MIN_PASSES, || unit(&mut out))?;
        let p90 = stats::tail_quantile(&walls, 0.9)
            .ok_or_else(|| format!("{} passes carry no p90", walls.len()))?;
        let per_pass = |n: f64| -> f64 { n * walls.len() as f64 / walls.iter().sum::<f64>() };
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", crate::probe::peak_rss_mb());
        out.set("windows_per_s", per_pass(epochs_per_pass as f64));
        out.set("packets_per_s", per_pass(packets_per_pass as f64));
        out.set("tick_p90_ms", p90 * 1e3);
        out.set("auc_combined", RocCurve::from_scores(&combined).auc());
        out.notes.push(format!(
            "{} passes of {epochs_per_pass} epochs / {packets_per_pass} packets",
            walls.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offline() -> [Vec<u64>; 3] {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        [
            bits(&[1.0, 2.0, 3.0]),
            bits(&[4.0, 5.0, 6.0]),
            bits(&[7.0, 8.0, 9.0]),
        ]
    }

    fn streamed() -> Vec<EpochScores> {
        vec![
            [Some(1.0), Some(4.0), Some(7.0)],
            [Some(2.0), Some(5.0), Some(8.0)],
            [Some(3.0), Some(6.0), Some(9.0)],
        ]
    }

    #[test]
    fn identical_replay_passes() {
        assert_eq!(mismatched_epochs(&streamed(), &offline()), 0);
    }

    #[test]
    fn one_flipped_score_bit_fails_its_epoch() {
        let mut s = streamed();
        let flipped = f64::from_bits(8.0f64.to_bits() ^ 1);
        s[1][2] = Some(flipped);
        assert_eq!(mismatched_epochs(&s, &offline()), 1);
    }

    #[test]
    fn a_lost_epoch_fails() {
        let mut s = streamed();
        s.pop();
        assert_eq!(mismatched_epochs(&s, &offline()), 1);
    }
}

//! `campaign`: the Fig. 7 campaign as `repro fig7` runs it, on two
//! workers, over consecutive campaign seeds.
//!
//! Why: simulation (propagation plus the wifi receiver) is about 90% of
//! the work here and none elsewhere, the `par` fan-out only runs here,
//! and scoring is batched one scheme at a time, so the sanitize memo
//! never hits.

use std::time::Instant;

use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::{
    Baseline, DetectionScheme, SubcarrierAndPathWeighting, SubcarrierWeighting,
};
use mpdf_eval::metrics::{LabeledScore, RocCurve};
use mpdf_eval::scenario::{five_cases, LinkCase};
use mpdf_eval::workload::{run_campaign, score_campaign, CampaignConfig, CaseData, ScoredWindow};

use crate::probe::Tracer;
use crate::spec::AUC_BOUND;
use crate::stats::{self, Ratio};
use crate::{registry_layers, timed_loop, traced_run, Ctx, Outcome};

/// Campaign workers.
const WORKERS: usize = 2;

/// Subcarrier+Path AUC of the Fig. 7 campaign as recorded by this
/// benchmark when it was added: the median of ten 30-second runs (seeds
/// 1000-1009, about 35 campaigns each) was 0.8903. The quality check holds
/// each run's median AUC within [`AUC_BOUND`] of it.
pub const AUC_RECORDED: f64 = 0.890;

/// `score_campaign` calls per iteration (3 schemes × 5 cases) times the
/// iterations needed for a p90 with at least ten calls beyond it.
const MIN_ITERATIONS: usize = 8;

/// Scores every case separately (one `score_campaign` call per case,
/// scheme-major like Fig. 7), returning the scores and each call's time.
fn score_by_case<S: DetectionScheme>(
    tracer: &Tracer,
    data: &[CaseData],
    scheme: &S,
    detector: &DetectorConfig,
) -> Result<(Vec<ScoredWindow>, Vec<f64>), String> {
    let mut scores = Vec::new();
    let mut calls = Vec::with_capacity(data.len());
    for case in data.chunks(1) {
        let start = Instant::now();
        let s = tracer
            .span("eval.score_campaign", || {
                score_campaign(case, scheme, detector)
            })
            .map_err(|e| format!("score_campaign: {e}"))?;
        calls.push(start.elapsed().as_secs_f64());
        scores.extend(s);
    }
    Ok((scores, calls))
}

/// Subcarrier+Path AUC of one campaign.
pub fn auc(scores: &[ScoredWindow]) -> f64 {
    let labeled: Vec<LabeledScore> = scores.iter().map(ScoredWindow::labeled).collect();
    RocCurve::from_scores(&labeled).auc()
}

/// Windows of the campaign that some scheme left unscored: every window
/// must carry a score from all three schemes.
pub fn unscored(windows: usize, per_scheme: &[Vec<ScoredWindow>; 3]) -> u64 {
    per_scheme
        .iter()
        .map(|s| windows.saturating_sub(s.len()) as u64)
        .sum()
}

/// Whether a median AUC is within the benchmark's bound of the recorded
/// value.
pub fn auc_holds(median_auc: f64) -> bool {
    (median_auc - AUC_RECORDED).abs() <= AUC_BOUND * AUC_RECORDED
}

struct Iteration {
    wall_s: f64,
    windows: usize,
    packets: usize,
    calls: Vec<f64>,
    auc: f64,
    unscored: u64,
}

fn iterate(tracer: &Tracer, cases: &[LinkCase], cfg: &CampaignConfig) -> Result<Iteration, String> {
    let start = Instant::now();
    let data = tracer
        .span("eval.run_campaign", || run_campaign(cases, cfg))
        .map_err(|e| format!("run_campaign: {e}"))?;
    let d = &cfg.detector;
    let (baseline, mut calls) = score_by_case(tracer, &data, &Baseline, d)?;
    let (subcarrier, c2) = score_by_case(tracer, &data, &SubcarrierWeighting, d)?;
    let (combined, c3) = score_by_case(tracer, &data, &SubcarrierAndPathWeighting, d)?;
    let wall_s = start.elapsed().as_secs_f64();
    calls.extend(c2);
    calls.extend(c3);

    let windows: usize = data.iter().map(|c| c.windows.len()).sum();
    let packets: usize = data
        .iter()
        .flat_map(|c| &c.windows)
        .map(|w| w.packets.len())
        .sum::<usize>()
        + cases.len() * cfg.calibration_packets;
    let auc = auc(&combined);
    let unscored = unscored(windows, &[baseline, subcarrier, combined]);
    Ok(Iteration {
        wall_s,
        windows,
        packets,
        calls,
        auc,
        unscored,
    })
}

fn config(campaign_seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed: campaign_seed,
        threads: WORKERS,
        ..CampaignConfig::default()
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let seed = ctx.args.seed;
    // Set-up: the scenario plus one small campaign that fills the
    // process-wide caches (ray-trace cache, steering tables) the way the
    // first figure of a `repro` run does.
    let (setup_s, cases) = ctx.setup(|| {
        let cases = five_cases();
        let warm = CampaignConfig {
            calibration_packets: 100,
            episodes_per_position: 1,
            negative_windows: 2,
            ..config(seed)
        };
        let data = run_campaign(&cases, &warm).map_err(|e| format!("warm-up: {e}"))?;
        score_campaign(&data, &SubcarrierAndPathWeighting, &warm.detector)
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok(cases)
    })?;

    let mut out = Outcome::default();
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut next = 0u64;
    let mut unit = |out: &mut Outcome| -> Result<f64, String> {
        // Consecutive campaign seeds, disjoint between workload seeds.
        let cfg = config(seed.wrapping_mul(1_000_003).wrapping_add(next));
        next += 1;
        let it = iterate(&ctx.tracer, &cases, &cfg)?;
        out.check_many(3 * it.windows as u64, it.unscored);
        let wall = it.wall_s;
        iterations.push(it);
        Ok(wall)
    };

    if ctx.args.trace {
        let seg = traced_run(ctx, 2, || unit(&mut out))?;
        let iters = seg.traced.len() as f64;
        registry_layers(&mut out, &seg, iters, WORKERS);
        let (a, b) = (&seg.after, &seg.before);
        // Stage 1 and 2 of run_campaign run on both workers: their stage
        // seconds are thread-seconds, so halve them to get wall share.
        let parallel = (a.stage_secs_since(b, "eval.window")
            + a.stage_secs_since(b, "core.calibration"))
            / WORKERS as f64;
        let scoring: f64 = crate::SCORE_STAGES
            .iter()
            .map(|s| a.stage_secs_since(b, s))
            .sum();
        let wall: f64 = seg.traced.iter().sum();
        let unattributed = Ratio::new(wall - parallel - scoring, wall);
        out.notes.push(format!(
            "unattributed share of iteration wall = {unattributed}"
        ));
        out.set("obs.unattributed_s", (wall - parallel - scoring) / iters);
    } else {
        timed_loop(ctx.args.seconds, MIN_ITERATIONS, || unit(&mut out))?;
        let wall: f64 = iterations.iter().map(|i| i.wall_s).sum();
        let rate = |f: &dyn Fn(&Iteration) -> usize| -> f64 {
            iterations.iter().map(|i| f(i) as f64).sum::<f64>() / wall
        };
        let calls: Vec<f64> = iterations.iter().flat_map(|i| i.calls.clone()).collect();
        let p90 = stats::tail_quantile(&calls, 0.9)
            .ok_or_else(|| format!("{} score calls carry no p90", calls.len()))?;
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", crate::probe::peak_rss_mb());
        out.set("windows_per_s", rate(&|i| i.windows));
        out.set("packets_per_s", rate(&|i| i.packets));
        out.set("tick_p90_ms", p90 * 1e3);
        out.notes.push(format!(
            "{} campaigns, {} score_campaign calls (p90 over calls)",
            iterations.len(),
            calls.len()
        ));
    }
    let aucs: Vec<f64> = iterations.iter().map(|i| i.auc).collect();
    let median_auc = stats::median(&aucs).unwrap_or(0.0);
    out.check(auc_holds(median_auc));
    if !ctx.args.trace {
        out.set("auc_combined", median_auc);
    }
    out.notes.push(format!(
        "auc_combined median {median_auc:.4} over {} campaigns, recorded {AUC_RECORDED}",
        aucs.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_eval::workload::HumanInfo;
    use mpdf_geom::vec2::Point;

    fn window(score: f64, positive: bool) -> ScoredWindow {
        ScoredWindow {
            case_id: 1,
            score,
            human: positive.then_some(HumanInfo {
                position: Point::new(1.0, 1.0),
                distance_to_rx: 2.0,
                angle_deg: 0.0,
            }),
        }
    }

    #[test]
    fn a_window_missing_one_scheme_score_is_caught() {
        let full: Vec<ScoredWindow> = (0..4).map(|i| window(f64::from(i), i % 2 == 0)).collect();
        let ok = [full.clone(), full.clone(), full.clone()];
        assert_eq!(unscored(4, &ok), 0);
        let mut short = full.clone();
        short.pop();
        assert_eq!(unscored(4, &[full.clone(), short, full]), 1);
    }

    #[test]
    fn auc_check_fires_outside_the_bound() {
        assert!(auc_holds(AUC_RECORDED));
        assert!(auc_holds(AUC_RECORDED * (1.0 - AUC_BOUND / 2.0)));
        assert!(!auc_holds(AUC_RECORDED * (1.0 - 2.0 * AUC_BOUND)));
        // A perfectly separating score set has AUC 1; inverted, 0.
        let good: Vec<ScoredWindow> = (0..10).map(|i| window(f64::from(i), i >= 5)).collect();
        assert!((auc(&good) - 1.0).abs() < 1e-12);
        let bad: Vec<ScoredWindow> = (0..10).map(|i| window(f64::from(i), i < 5)).collect();
        assert!(!auc_holds(auc(&bad)));
    }
}

//! End-to-end benchmark of the multipath-hd workspace.
//!
//! ```text
//! perfbench --workload <campaign|stream|fleet_durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets up the workload several times (median set-up time),
//! then runs it back to back for `--seconds` and prints every end-to-end
//! metric. `--trace 1` runs half the time untraced and half traced (the
//! program's `mpdf_obs` stage timing on, benchmark spans recorded), prints
//! every per-layer metric and writes the spans to
//! `.perfbench/trace-<workload>-<seed>.ndjson`. Either way every output
//! is checked, failures are counted, and the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod campaign;
mod fleet;
mod logio;
mod probe;
mod spec;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use probe::{Registry, Tracer};
use stats::Ratio;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <campaign|stream|fleet_durable> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing --{k}"))
    };
    if let Some(k) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown flag --{k}"));
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("workload")?.to_string(),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra report lines (ratios with their base, ledger).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn check_many(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets a ratio metric and notes its base.
    pub fn set_ratio(&mut self, name: &'static str, r: Ratio) {
        self.notes.push(format!("{name} = {r}"));
        self.set(name, r.value());
    }
}

/// Shared run context.
pub struct Ctx {
    /// Command line.
    pub args: Args,
    /// Benchmark span recorder (recording only during the traced half).
    pub tracer: Tracer,
    /// Scratch directory inside the checkout (fleet logs, trace output).
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Runs `setup` [`SETUP_REPEATS`] times in an untraced run (once in a
    /// traced run), returning the median time and the last result.
    pub fn setup<T>(
        &self,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(f64, T), String> {
        let repeats = if self.args.trace { 1 } else { SETUP_REPEATS };
        let mut times = Vec::with_capacity(repeats);
        let mut last = None;
        for _ in 0..repeats {
            // Drop the previous set-up first so repeats do not stack memory.
            drop(last.take());
            let start = Instant::now();
            last = Some(setup()?);
            times.push(start.elapsed().as_secs_f64());
        }
        let median = stats::median(&times).expect("at least one set-up");
        Ok((median, last.expect("at least one set-up")))
    }
}

/// Runs `unit` back to back until `seconds` have passed and at least
/// `min_units` ran. `unit` returns the seconds that count (checks run
/// outside its timer).
pub fn timed_loop(
    seconds: f64,
    min_units: usize,
    mut unit: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_units || start.elapsed().as_secs_f64() < seconds {
        walls.push(unit()?);
    }
    Ok(walls)
}

/// Figures of one traced half, from the program's registry and the
/// process, for the per-layer metrics every workload shares.
pub struct TracedSegment {
    /// Registry before the half.
    pub before: Registry,
    /// Registry after the half.
    pub after: Registry,
    /// Process CPU seconds during the half.
    pub cpu_s: f64,
    /// Wall seconds of the half.
    pub wall_s: f64,
    /// Per-unit timed seconds, traced half.
    pub traced: Vec<f64>,
    /// Per-unit timed seconds, untraced half.
    pub untraced: Vec<f64>,
}

/// Per-layer run: half untraced, half with stage timing and spans on.
pub fn traced_run(
    ctx: &Ctx,
    min_units: usize,
    mut unit: impl FnMut() -> Result<f64, String>,
) -> Result<TracedSegment, String> {
    let half = ctx.args.seconds / 2.0;
    let untraced = timed_loop(half, min_units, &mut unit)?;
    mpdf_obs::metrics::enable_timing();
    ctx.tracer.set_enabled(true);
    let before = Registry::read();
    let cpu0 = probe::cpu_seconds();
    let start = Instant::now();
    let traced = timed_loop(half, min_units, &mut unit)?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds() - cpu0;
    let after = Registry::read();
    ctx.tracer.set_enabled(false);
    mpdf_obs::metrics::disable_timing();
    Ok(TracedSegment {
        before,
        after,
        cpu_s,
        wall_s,
        traced,
        untraced,
    })
}

/// Stage histograms of the three detection schemes.
pub const SCORE_STAGES: [&str; 3] = [
    "core.score.baseline",
    "core.score.subcarrier",
    "core.score.combined",
];

/// MUSIC stage histograms (covariance, eigendecomposition, scan).
const MUSIC_STAGES: [&str; 3] = ["music.covariance", "music.eig", "music.scan"];

/// Fills every per-layer metric that comes straight from the program's
/// registry, normalised per unit of work (`units` campaign iterations,
/// stream passes or fleet ticks). Layers a workload does not exercise
/// read 0. Workload-specific metrics are set by the caller afterwards.
pub fn registry_layers(out: &mut Outcome, seg: &TracedSegment, units: f64, workers: usize) {
    let (a, b) = (&seg.after, &seg.before);
    let per_unit = |v: f64| if units > 0.0 { v / units } else { 0.0 };
    let mean_call = |stage: &str| {
        let (n, s) = a.stage_since(b, stage);
        if n > 0.0 {
            s / n
        } else {
            0.0
        }
    };
    let score_s: f64 = SCORE_STAGES.iter().map(|s| a.stage_secs_since(b, s)).sum();
    let music_s: f64 = MUSIC_STAGES.iter().map(|s| a.stage_secs_since(b, s)).sum();

    out.set("eval.window_s", mean_call("eval.window"));
    out.set(
        "core.calibration_s",
        per_unit(a.stage_secs_since(b, "core.calibration")),
    );
    out.set("core.score_s", per_unit(score_s));
    for (name, stage) in [
        ("core.score_us.baseline", SCORE_STAGES[0]),
        ("core.score_us.subcarrier", SCORE_STAGES[1]),
        ("core.score_us.combined", SCORE_STAGES[2]),
    ] {
        out.set(name, mean_call(stage) * 1e6);
    }
    out.set("music.s", per_unit(music_s));
    let hits = a.counter_since(b, "physics.trace_cache.hits");
    let misses = a.counter_since(b, "physics.trace_cache.misses");
    out.set_ratio(
        "propagation.trace_cache_hit_ratio",
        Ratio::new(hits, hits + misses),
    );
    let hits = a.counter_since(b, "core.sanitize_memo.hits");
    let misses = a.counter_since(b, "core.sanitize_memo.misses");
    out.set_ratio(
        "core.sanitize_memo_hit_ratio",
        Ratio::new(hits, hits + misses),
    );
    out.set_ratio(
        "par.cpu_util",
        stats::cpu_util(seg.cpu_s, seg.wall_s, workers),
    );
    for (name, counter) in [
        ("par.pop_waits", "par.pop_waits_total"),
        ("eval.windows", "eval.windows_total"),
        ("eval.packets", "eval.packets_total"),
        ("wifi.wire_frames", "wifi.wire.frames_total"),
        ("wifi.wire_bytes", "wifi.wire.bytes_total"),
        ("wifi.wire_rejects", "wifi.wire.rejects_total"),
        ("fleet.compactions", "fleet.log.compactions_total"),
    ] {
        out.set(name, per_unit(a.counter_since(b, counter)));
    }
    out.set(
        "stream.ingest_depth_max",
        a.gauge("eval.stream.ingest_depth_max"),
    );
    out.set(
        "session.step_s",
        per_unit(a.stage_secs_since(b, "session.step")),
    );
    for name in [
        "stream.transport_s",
        "fleet.durable_cpu_s",
        "fleet.io_write_s",
        "fleet.log_bytes_per_window",
        "fleet.syncs_per_tick",
        "fleet.io_read_s",
        "fleet.log_disk_bytes",
        "fleet.recover_ms_p50",
    ] {
        out.set(name, 0.0);
    }
    let traced = stats::median(&seg.traced).unwrap_or(0.0);
    let untraced = stats::median(&seg.untraced).unwrap_or(0.0);
    out.set_ratio(
        "obs.trace_overhead",
        Ratio::new(traced - untraced, untraced),
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn run(args: Args) -> Result<Outcome, String> {
    let work_dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let ctx = Ctx {
        args,
        tracer: Tracer::new(),
        work_dir,
    };
    let outcome = match ctx.args.workload.as_str() {
        "campaign" => campaign::run(&ctx)?,
        "stream" => stream::run(&ctx)?,
        "fleet_durable" => fleet::run(&ctx)?,
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    if ctx.args.trace {
        let path = ctx.work_dir.join(format!(
            "trace-{}-{}.ndjson",
            ctx.args.workload, ctx.args.seed
        ));
        ctx.tracer
            .write_ndjson(&path, &stamp(&ctx.args))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    Ok(outcome)
}

/// The seed and environment fingerprint every result is stamped with.
fn stamp(args: &Args) -> String {
    let env = std::env::var("PERFBENCH_FINGERPRINT").unwrap_or_else(|_| "{}".into());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"env\":{env}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("run {}", stamp(&args));
    let trace = args.trace;
    let outcome = match run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    let expected = spec::names(!trace);
    let got: Vec<&str> = outcome.metrics.keys().copied().collect();
    let mut want = expected.clone();
    want.sort_unstable();
    if got != want {
        eprintln!("perfbench: metric set mismatch: got {got:?}, want {want:?}");
        return ExitCode::from(1);
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    let error_rate = Ratio::new(outcome.failed as f64, outcome.attempted as f64);
    println!("  {:<36} {error_rate}", "error_rate");
    let mut fields = Vec::new();
    for name in expected {
        let m = spec::find(name).expect("metric in table");
        let v = outcome.metrics[name];
        let moves = match m.kind {
            spec::Kind::Layer { workload, moves } => format!("  [{workload} -> {moves}]"),
            spec::Kind::EndToEnd { .. } => String::new(),
        };
        println!("  {name:<36} {v:>16.6} {}{moves}", m.unit);
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(v),
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload stream --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("stream", 7, 10.0, true)
        );
        for bad in [
            "--workload stream --seed 7 --seconds 10",
            "--workload stream --seed -1 --seconds 10 --trace 0",
            "--workload stream --seed 1 --seconds 0 --trace 0",
            "--workload stream --seed 1 --seconds 5 --trace 2",
            "--workload stream --seed 1 --seconds 5 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn timed_loop_honours_the_minimum_unit_count() {
        let mut n = 0;
        let walls = timed_loop(0.0, 5, || {
            n += 1;
            Ok(0.001)
        })
        .unwrap();
        assert_eq!((walls.len(), n), (5, 5));
    }
}

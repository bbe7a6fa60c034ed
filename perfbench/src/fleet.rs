//! `fleet_durable`: 20 links over 4 shards with on-disk `StdIo` shard
//! logs (compaction every 64 appends), one thread, ticks back to back;
//! every 5 ticks one shard (round-robin) is recovered from its log.
//!
//! Why: the durability stack (snapshot encode, CRC framing, fsync,
//! compaction) does most of the work here and none elsewhere, and appends
//! (writes) run beside recoveries (reads), so moving cost from append to
//! recovery shows on both sides.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mpdf_core::scheme::SubcarrierAndPathWeighting;
use mpdf_eval::metrics::{LabeledScore, RocCurve};
use mpdf_eval::scenario::five_cases;
use mpdf_eval::workload::{case_receiver, CampaignConfig};
use mpdf_fleet::{
    Fleet, FleetError, FleetPolicy, LinkOutcome, LinkWindow, RecoveryReport, Shard, ShardLog,
    StdIo, TickReport,
};
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::human::HumanBody;
use mpdf_session::{SessionConfig, SessionRuntime};
use mpdf_wifi::csi::CsiPacket;

use crate::logio::{totals, IoLedger, IoTotals, TimedIo};
use crate::probe::Tracer;
use crate::stats::{self, Ratio};
use crate::{registry_layers, timed_loop, traced_run, Ctx, Outcome};

type Scheme = SubcarrierAndPathWeighting;
type DurableFleet = Fleet<Scheme, TimedIo<StdIo>>;

/// Shape of a fleet run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Links (link `l` reports into room `l % rooms`).
    pub links: u64,
    /// Shards.
    pub shards: usize,
    /// Shard-log compaction period, in appends.
    pub compact_every: usize,
    /// Distinct windows per room and occupancy state.
    pub pool: usize,
    /// Untimed fleet ticks after registration.
    pub warm_ticks: usize,
}

/// The benchmark's fleet.
pub const PLAN: Plan = Plan {
    links: 20,
    shards: 4,
    compact_every: 64,
    pool: 8,
    warm_ticks: 2,
};

/// Calibration capture per room, in windows. Half of it is the threshold
/// holdout, which seeds the 16-window rollback reservoir: every link
/// starts with a full reservoir, so log records are at their steady-state
/// size from the first tick.
const CALIBRATION_WINDOWS: usize = 40;

/// Ticks per recovery.
const RECOVER_EVERY: usize = 5;

/// Cycles (of [`RECOVER_EVERY`] ticks) for a p90 with ten ticks beyond.
const MIN_CYCLES: usize = 21;

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Room {
    id: u32,
    runtime: SessionRuntime<Scheme>,
    /// `pools[0]` vacant windows, `pools[1]` occupied.
    pools: [Vec<Vec<CsiPacket>>; 2],
}

/// Removes the shard-log directory when the fleet is dropped.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A durable fleet, its in-memory reference and the window source.
pub struct Rig {
    seed: u64,
    plan: Plan,
    rooms: Vec<Room>,
    fleet: DurableFleet,
    reference: Fleet<Scheme, StdIo>,
    ledger: IoLedger,
    tracer: Tracer,
    /// Held for its `Drop`: the shard logs go with the rig.
    _logs: DirGuard,
    recoveries: u64,
}

fn err(what: &str) -> impl Fn(FleetError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Whether a tick matches the in-memory reference: same records and room
/// verdicts, same delivery counts, and no shard crashed.
pub fn ticks_match(durable: &TickReport, reference: &TickReport) -> bool {
    durable.crashed_shards.is_empty()
        && durable.tick == reference.tick
        && durable.records == reference.records
        && durable.rooms == reference.rooms
        && durable.delivered == reference.delivered
        && durable.shed == reference.shed
}

/// Whether a recovery restored every link of the shard at the event count
/// it had delivered.
pub fn recovery_matches(
    expected: &BTreeMap<u64, u64>,
    got: &Result<RecoveryReport, FleetError>,
) -> bool {
    matches!(got, Ok(r) if &r.events == expected)
}

impl Rig {
    /// Builds rooms (calibrated runtimes and window pools), the logged
    /// fleet under `dir` and its in-memory reference, then runs the
    /// warm-up ticks.
    pub fn build(seed: u64, plan: Plan, dir: &Path, tracer: &Tracer) -> Result<Rig, String> {
        let cfg = CampaignConfig {
            seed: seed ^ 0xF1EE_7000,
            ..CampaignConfig::default()
        };
        let window = cfg.detector.window;
        let mut rooms = Vec::new();
        for case in five_cases().into_iter().take(plan.links.min(5) as usize) {
            let id = case.id as u64;
            let template = case_receiver(&case, &cfg, mix(cfg.seed, id, 1))
                .map_err(|e| format!("room {id} geometry: {e}"))?;
            let calibration = template
                .fork(mix(cfg.seed, id, 2))
                .capture_static(None, CALIBRATION_WINDOWS * window)
                .map_err(|e| format!("room {id} calibration capture: {e}"))?;
            let runtime = SessionRuntime::calibrate(
                &calibration,
                Scheme::default(),
                cfg.detector.clone(),
                SessionConfig::default(),
            )
            .map_err(|e| format!("room {id} calibration: {e}"))?;
            let full = runtime.session_config().reservoir_windows;
            if runtime.snapshot().reservoir.len() < full {
                return Err(format!("room {id}: calibration left the reservoir short"));
            }
            let body = HumanBody::new(case.midpoint() + Vec2::new(0.0, 0.6));
            let mut pools = [Vec::new(), Vec::new()];
            for (state, pool) in pools.iter_mut().enumerate() {
                for i in 0..plan.pool as u64 {
                    let human = (state == 1).then_some(&body);
                    // Same session state as the calibration capture, so a
                    // vacant window is a null example the runtime admits.
                    let packets = template
                        .fork(mix(cfg.seed, id, 16 + 2 * i + state as u64))
                        .capture_static(human, window)
                        .map_err(|e| format!("room {id} window: {e}"))?;
                    pool.push(packets);
                }
            }
            rooms.push(Room {
                id: case.id as u32,
                runtime,
                pools,
            });
        }

        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let dir = DirGuard(dir.to_path_buf());
        let ledger = IoLedger::default();
        let mut shards = Vec::with_capacity(plan.shards);
        for i in 0..plan.shards as u32 {
            let io = TimedIo::new(StdIo, ledger.clone(), tracer.clone());
            let path = dir.0.join(format!("shard{i}.mpsl"));
            let (log, _) = ShardLog::open(io, path, i, plan.compact_every)
                .map_err(|e| format!("open shard {i} log: {e}"))?;
            shards.push(Shard::new(i, Some(log)));
        }
        let policy = FleetPolicy::default();
        let mut fleet = Fleet::new(shards, policy.clone(), 1).map_err(err("build fleet"))?;
        let mut reference =
            Fleet::in_memory(plan.shards, policy, 1).map_err(err("build reference"))?;
        for link in 0..plan.links {
            let room = &rooms[(link % rooms.len() as u64) as usize];
            let runtime = room.runtime.clone();
            reference
                .register(link, room.id, runtime.clone())
                .map_err(err("register reference link"))?;
            fleet
                .register(link, room.id, runtime)
                .map_err(err("register link"))?;
        }
        let mut rig = Rig {
            seed,
            plan,
            rooms,
            fleet,
            reference,
            ledger,
            tracer: tracer.clone(),
            _logs: dir,
            recoveries: 0,
        };
        for _ in 0..plan.warm_ticks {
            let tick = rig.tick()?;
            if !tick.matched {
                return Err(format!("warm-up tick {} diverged", tick.report.tick));
            }
        }
        Ok(rig)
    }

    /// Room occupancy at `tick`: a pure function of seed, room and tick.
    fn occupied(&self, room: u32, tick: u64) -> bool {
        mix(self.seed, u64::from(room), tick ^ 0x0CC).is_multiple_of(3)
    }

    fn windows(&self, tick: u64) -> Vec<LinkWindow> {
        (0..self.plan.links)
            .map(|link| {
                let room = &self.rooms[(link % self.rooms.len() as u64) as usize];
                let pool = &room.pools[usize::from(self.occupied(room.id, tick))];
                let pick = (mix(self.seed, link, tick) % pool.len() as u64) as usize;
                LinkWindow {
                    link,
                    packets: pool[pick].clone(),
                }
            })
            .collect()
    }

    /// Steps both fleets one tick; only the durable step is timed.
    pub fn tick(&mut self) -> Result<TickSample, String> {
        let windows = self.windows(self.fleet.tick());
        let io0 = totals(&self.ledger);
        let start = Instant::now();
        let fleet = &mut self.fleet;
        let report = self
            .tracer
            .span("fleet.step_tick", || fleet.step_tick(&windows))
            .map_err(err("step_tick"))?;
        let wall_s = start.elapsed().as_secs_f64();
        let io = totals(&self.ledger).since(&io0);

        // The reference steps outside the timer and outside the stage
        // histograms, so session.step counts the durable fleet only.
        let timing = mpdf_obs::metrics::timing_enabled();
        mpdf_obs::metrics::disable_timing();
        let reference = self.reference.step_tick(&windows);
        if timing {
            mpdf_obs::metrics::enable_timing();
        }
        let reference = reference.map_err(err("reference step_tick"))?;
        let matched = ticks_match(&report, &reference);
        Ok(TickSample {
            wall_s,
            io,
            packets: windows.iter().map(|w| w.packets.len()).sum(),
            matched,
            report,
        })
    }

    /// Recovers the next shard (round-robin) from its log, checking that
    /// every link comes back at the event count it had delivered.
    pub fn recover_next(&mut self) -> RecoverySample {
        let shard = (self.recoveries % self.plan.shards as u64) as u32;
        self.recoveries += 1;
        let expected: BTreeMap<u64, u64> = (0..self.plan.links)
            .filter(|&l| self.fleet.shard_of(l) == shard)
            .filter_map(|l| self.fleet.link_meta(l).map(|m| (l, m.events)))
            .collect();
        let io0 = totals(&self.ledger);
        let start = Instant::now();
        let fleet = &mut self.fleet;
        let got = self
            .tracer
            .span("fleet.recover_shard", || fleet.recover_shard(shard));
        RecoverySample {
            wall_s: start.elapsed().as_secs_f64(),
            io: totals(&self.ledger).since(&io0),
            matched: recovery_matches(&expected, &got),
        }
    }

    /// The shard-log directory.
    #[cfg(test)]
    pub fn dir(&self) -> &Path {
        &self._logs.0
    }
}

/// One timed tick.
pub struct TickSample {
    wall_s: f64,
    io: IoTotals,
    packets: usize,
    matched: bool,
    report: TickReport,
}

/// One timed recovery.
pub struct RecoverySample {
    wall_s: f64,
    io: IoTotals,
    matched: bool,
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let seed = ctx.args.seed;
    let mut builds = 0u32;
    let (setup_s, mut rig) = ctx.setup(|| {
        builds += 1;
        let dir = ctx
            .work_dir
            .join(format!("fleet-{}-{builds}", std::process::id()));
        Rig::build(seed, PLAN, &dir, &ctx.tracer)
    })?;

    let mut out = Outcome::default();
    let mut ticks: Vec<TickSample> = Vec::new();
    let mut recoveries: Vec<RecoverySample> = Vec::new();
    let mut cycles: Vec<(f64, usize)> = Vec::new();
    let mut scores: Vec<LabeledScore> = Vec::new();
    let mut unit = |out: &mut Outcome| -> Result<f64, String> {
        let mut wall = 0.0;
        let mut packets = 0;
        for _ in 0..RECOVER_EVERY {
            let t = rig.tick()?;
            out.check(t.matched);
            for r in &t.report.records {
                if let LinkOutcome::Decision {
                    decision: Some(d), ..
                } = &r.outcome
                {
                    scores.push(LabeledScore {
                        score: d.score,
                        positive: rig.occupied(r.room, t.report.tick),
                    });
                }
            }
            wall += t.wall_s;
            packets += t.packets;
            ticks.push(t);
        }
        let r = rig.recover_next();
        out.check(r.matched);
        wall += r.wall_s;
        recoveries.push(r);
        cycles.push((wall, packets));
        Ok(wall)
    };

    if ctx.args.trace {
        let seg = traced_run(ctx, 2, || unit(&mut out))?;
        let traced_ticks = &ticks[ticks.len() - seg.traced.len() * RECOVER_EVERY..];
        let traced_recoveries = &recoveries[recoveries.len() - seg.traced.len()..];
        let n = traced_ticks.len() as f64;
        registry_layers(&mut out, &seg, n, 1);
        let sum = |f: &dyn Fn(&TickSample) -> f64| traced_ticks.iter().map(f).sum::<f64>();
        let wall = sum(&|t| t.wall_s);
        let io = sum(&|t| t.io.write_s + t.io.read_s);
        let step = seg.after.stage_secs_since(&seg.before, "session.step");
        let delivered = sum(&|t| f64::from(t.report.delivered));
        let durable_cpu = wall - io - step;
        out.set("fleet.durable_cpu_s", durable_cpu / n);
        out.set("obs.unattributed_s", durable_cpu / n);
        out.set("fleet.io_write_s", sum(&|t| t.io.write_s) / n);
        out.set(
            "fleet.log_bytes_per_window",
            seg.after
                .counter_since(&seg.before, "fleet.log.bytes_total")
                / delivered,
        );
        out.set("fleet.syncs_per_tick", sum(&|t| t.io.syncs as f64) / n);
        let r = traced_recoveries.len() as f64;
        let rsum =
            |f: &dyn Fn(&RecoverySample) -> f64| traced_recoveries.iter().map(f).sum::<f64>();
        out.set("fleet.io_read_s", rsum(&|r| r.io.read_s) / r);
        out.set(
            "fleet.log_disk_bytes",
            rsum(&|r| r.io.read_bytes as f64) / r,
        );
        let rec_ms: Vec<f64> = traced_recoveries.iter().map(|r| r.wall_s * 1e3).collect();
        out.set(
            "fleet.recover_ms_p50",
            stats::median(&rec_ms).unwrap_or(0.0),
        );
        for (name, part) in [
            ("durability CPU", durable_cpu),
            ("shard-log IO", io),
            ("session.step", step),
        ] {
            out.notes.push(format!(
                "{name} share of tick wall = {}",
                Ratio::new(part, wall)
            ));
        }
    } else {
        timed_loop(ctx.args.seconds, MIN_CYCLES, || unit(&mut out))?;
        let tick_ms: Vec<f64> = ticks.iter().map(|t| t.wall_s * 1e3).collect();
        let p90 = stats::tail_quantile(&tick_ms, 0.9)
            .ok_or_else(|| format!("{} ticks carry no p90", tick_ms.len()))?;
        let step_s: f64 = ticks.iter().map(|t| t.wall_s).sum();
        let delivered: f64 = ticks.iter().map(|t| f64::from(t.report.delivered)).sum();
        let cycle_s: f64 = cycles.iter().map(|c| c.0).sum();
        let packets: f64 = cycles.iter().map(|c| c.1 as f64).sum();
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", crate::probe::peak_rss_mb());
        out.set("windows_per_s", delivered / step_s);
        out.set("packets_per_s", packets / cycle_s);
        out.set("tick_p90_ms", p90);
        out.set("auc_combined", RocCurve::from_scores(&scores).auc());
        let rec_ms: Vec<f64> = recoveries.iter().map(|r| r.wall_s * 1e3).collect();
        out.notes.push(format!(
            "{} ticks, {} recoveries (median {:.2} ms), {} link decisions in the AUC",
            ticks.len(),
            recoveries.len(),
            stats::median(&rec_ms).unwrap_or(0.0),
            scores.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_core::detector::Decision;
    use mpdf_fleet::LinkRecord;

    fn report(score: f64) -> TickReport {
        TickReport {
            tick: 3,
            records: vec![LinkRecord {
                link: 0,
                room: 1,
                events: 4,
                outcome: LinkOutcome::Decision {
                    decision: Some(Decision {
                        score,
                        threshold: 1.0,
                        detected: score > 1.0,
                        degraded: false,
                    }),
                    posterior: 0.5,
                },
            }],
            rooms: Vec::new(),
            crashed_shards: Vec::new(),
            delivered: 1,
            shed: 0,
        }
    }

    #[test]
    fn one_flipped_score_bit_fails_the_tick() {
        let a = report(0.75);
        assert!(ticks_match(&a, &a.clone()));
        let b = report(f64::from_bits(0.75f64.to_bits() ^ 1));
        assert!(!ticks_match(&b, &a));
        let mut crashed = a.clone();
        crashed.crashed_shards.push(0);
        assert!(!ticks_match(&crashed, &a), "a crashed shard fails the tick");
    }

    /// End to end on a two-link, one-shard fleet: a clean recovery passes
    /// and one altered byte in the last log record makes it fail.
    #[test]
    fn one_altered_log_byte_fails_the_recovery() {
        let plan = Plan {
            links: 2,
            shards: 1,
            compact_every: 64,
            pool: 2,
            warm_ticks: 0,
        };
        let dir = std::env::temp_dir().join(format!("perfbench-fleet-test-{}", std::process::id()));
        let tracer = Tracer::new();
        let mut rig = Rig::build(11, plan, &dir, &tracer).expect("rig");
        for _ in 0..3 {
            assert!(rig.tick().expect("tick").matched);
        }
        assert!(rig.recover_next().matched, "clean log recovers exactly");
        assert!(rig.tick().expect("tick").matched, "recovered fleet matches");

        let log = rig.dir().join("shard0.mpsl");
        let mut bytes = std::fs::read(&log).expect("log");
        let at = bytes.len() - 20;
        bytes[at] ^= 0x40;
        std::fs::write(&log, &bytes).expect("write log");
        assert!(
            !rig.recover_next().matched,
            "altered byte loses a delivered event"
        );
        drop(rig);
        assert!(!dir.exists(), "shard logs are removed with the rig");
    }
}

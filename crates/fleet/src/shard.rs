//! A shard: the fleet's unit of parallelism, failure and recovery.
//!
//! Each shard owns a slab of link slots (session runtime + fleet-level
//! [`LinkMeta`]) and, optionally, one [`ShardLog`] multiplexing every
//! session's checkpoints. Ticks are processed link-by-link in input
//! order; all cross-link interaction (shedding) is a deterministic
//! function of the shard's state at the start of the tick, so a shard
//! stepped serially and one stepped on a pool thread produce identical
//! records.
//!
//! ## Durability
//!
//! Every delivered window stages one record for its link: a *delta*
//! (what the window changed, see
//! [`SessionRuntime::take_delta`]) or, after a committed recalibration,
//! a *base* (the full snapshot). A tick's records are committed together
//! — one append, one fsync per shard — before `step_tick` returns; when
//! `compact_every` records have accumulated, the shard compacts its log
//! to a fresh base per hosted link.
//!
//! ## Crash semantics
//!
//! A failed commit (or compaction) marks the shard *crashed*: the tick's
//! in-memory results are complete and were handed downstream — exactly
//! what a process crash during the final flush looks like from the
//! outside — further commits are skipped, and the caller recovers the
//! shard from its log before the next tick. Recovery rebuilds every link
//! from its durable chain (base plus deltas); the events counter in each
//! record tells the caller which deliveries were lost and must be
//! replayed.

use std::collections::BTreeMap;

use mpdf_core::detector::Decision;
use mpdf_core::scheme::DetectionScheme;
use mpdf_session::checkpoint::{encode_snapshot_body, snapshot_body_len};
use mpdf_session::{CheckpointError, SessionRuntime};
use mpdf_wifi::csi::CsiPacket;

use crate::link::{LinkFault, LinkHealth, LinkMeta};
use crate::log::{Batch, LogIo, RecordKind, ShardLog};
use crate::slab::Slab;
use crate::{FleetError, FleetPolicy};

/// One link's pooled state.
#[derive(Debug)]
pub struct LinkSlot<S: DetectionScheme + Clone> {
    /// Link id.
    pub link: u64,
    /// Fleet-level metadata (health, streaks, event count).
    pub meta: LinkMeta,
    /// The supervised session runtime.
    pub runtime: SessionRuntime<S>,
}

/// The outcome of one window (or skip) for one link in one tick.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkOutcome {
    /// The window was delivered and stepped; `decision` is `None` when
    /// the session abstained.
    Decision {
        /// The session's decision for this window.
        decision: Option<Decision>,
        /// HMM posterior after the window.
        posterior: f64,
    },
    /// The delivery faulted; the link moved through the health machine.
    Fault {
        /// Typed triage.
        fault: LinkFault,
        /// Health after applying the fault.
        health: LinkHealth,
    },
    /// Overload shedding dropped the window (typed backpressure — the
    /// link's state is untouched).
    Shed {
        /// The link's posterior at shed time (what the vacancy bias
        /// sorted on).
        posterior: f64,
    },
    /// The link is quarantined; the window was skipped without touching
    /// its state.
    QuarantineSkip {
        /// First tick at which a probe will be delivered.
        until_tick: u64,
    },
    /// The link is dead; the window was skipped.
    DeadSkip,
}

/// One link's record within a tick report.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkRecord {
    /// Link id.
    pub link: u64,
    /// Room the link reports into.
    pub room: u32,
    /// The link's event count *after* this tick (unchanged for skips
    /// and sheds — only deliveries are events).
    pub events: u64,
    /// What happened.
    pub outcome: LinkOutcome,
}

/// A shard's slice of one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTick {
    /// Shard index.
    pub index: u32,
    /// Per-link records, in input order.
    pub records: Vec<LinkRecord>,
    /// The shard's log failed mid-tick: in-memory results are complete
    /// and correct, durable state is stale — recover before the next
    /// tick.
    pub crashed: bool,
    /// Windows delivered (stepped or faulted).
    pub delivered: u32,
    /// Windows shed.
    pub shed: u32,
}

/// What a shard recovery restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecovery {
    /// Valid records scanned from the log.
    pub records: usize,
    /// Torn-tail bytes truncated.
    pub torn_bytes: usize,
    /// Whether the `.bak` rotation was used.
    pub used_bak: bool,
    /// Restored per-link event counts — the driver replays deliveries
    /// past these.
    pub events: BTreeMap<u64, u64>,
}

/// A shard of the fleet.
#[derive(Debug)]
pub struct Shard<S: DetectionScheme + Clone, IO: LogIo> {
    index: u32,
    slab: Slab<LinkSlot<S>>,
    by_link: BTreeMap<u64, usize>,
    log: Option<ShardLog<IO>>,
    crashed: bool,
}

/// Stages a base record for `slot`: its meta and full session snapshot.
/// The snapshot becomes the session's new durable point.
fn stage_base<S: DetectionScheme + Clone>(
    batch: &mut Batch,
    slot: &mut LinkSlot<S>,
) -> Result<(), FleetError> {
    let snap = slot.runtime.base_snapshot();
    let hint = LinkMeta::ENCODED_LEN + snapshot_body_len(&snap);
    batch.push_with(RecordKind::Base, slot.link, hint, |out| {
        slot.meta.encode(out);
        encode_snapshot_body(&snap, out).map_err(FleetError::from)
    })
}

/// Stages the record of one delivered window for `slot`: a delta of what
/// the window changed, or a base when only a full snapshot can express it.
fn stage_record<S: DetectionScheme + Clone>(
    batch: &mut Batch,
    slot: &mut LinkSlot<S>,
) -> Result<(), FleetError> {
    let Some(delta) = slot.runtime.take_delta() else {
        return stage_base(batch, slot);
    };
    let hint = LinkMeta::ENCODED_LEN + delta.encoded_len();
    batch.push_with(RecordKind::Delta, slot.link, hint, |out| {
        slot.meta.encode(out);
        delta.encode(out).map_err(FleetError::from)
    })
}

/// Splits a record payload into its link meta and the session bytes.
fn split_meta(link: u64, payload: &[u8]) -> Result<(LinkMeta, &[u8]), FleetError> {
    LinkMeta::decode(payload).ok_or_else(|| {
        FleetError::Checkpoint(CheckpointError::Corrupt(format!(
            "link {link} meta prefix truncated"
        )))
    })
}

impl<S: DetectionScheme + Clone, IO: LogIo> Shard<S, IO> {
    /// Creates a shard. `log` is `None` for purely in-memory fleets
    /// (benchmarks, tests); such shards cannot be recovered.
    pub fn new(index: u32, log: Option<ShardLog<IO>>) -> Self {
        Shard {
            index,
            slab: Slab::new(),
            by_link: BTreeMap::new(),
            log,
            crashed: false,
        }
    }

    /// Shard index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Number of links homed on this shard.
    pub fn links(&self) -> usize {
        self.slab.len()
    }

    /// Whether the shard's log failed and a recovery is pending.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// The metadata of a link homed here.
    pub fn link_meta(&self, link: u64) -> Option<&LinkMeta> {
        let &slot = self.by_link.get(&link)?;
        self.slab.get(slot).map(|s| &s.meta)
    }

    /// Iterates `(link, meta)` in link order.
    pub fn link_metas(&self) -> impl Iterator<Item = (u64, &LinkMeta)> {
        self.by_link
            .iter()
            .filter_map(|(&link, &slot)| self.slab.get(slot).map(|s| (link, &s.meta)))
    }

    /// Registers a link on this shard. Writes the *birth record* — the
    /// link's initial snapshot as a base — so a recovery always finds an
    /// image for every registered link, even one that never stepped.
    ///
    /// # Errors
    /// [`FleetError::DuplicateLink`]; log failures on the birth commit.
    pub fn register(
        &mut self,
        link: u64,
        room: u32,
        runtime: SessionRuntime<S>,
    ) -> Result<(), FleetError> {
        if self.by_link.contains_key(&link) {
            return Err(FleetError::DuplicateLink(link));
        }
        let slot = self.slab.insert(LinkSlot {
            link,
            meta: LinkMeta::new(room),
            runtime,
        });
        self.by_link.insert(link, slot);
        if self.log.is_some() {
            let mut batch = Batch::new();
            if let Some(s) = self.slab.get_mut(slot) {
                stage_base(&mut batch, s)?;
            }
            self.commit(batch)?;
        }
        Ok(())
    }

    /// Evicts every dead link, freeing its slab slot (and memory).
    /// Evicted links stay in the log; a recovery restores them still
    /// dead. Returns the number evicted.
    pub fn evict_dead(&mut self) -> usize {
        let dead: Vec<u64> = self
            .by_link
            .iter()
            .filter(|(_, &slot)| {
                matches!(
                    self.slab.get(slot).map(|s| s.meta.health),
                    Some(LinkHealth::Dead { .. })
                )
            })
            .map(|(&link, _)| link)
            .collect();
        for link in &dead {
            if let Some(slot) = self.by_link.remove(link) {
                self.slab.remove(slot);
            }
        }
        dead.len()
    }

    /// Processes one tick: vacancy-biased shedding against the ingest
    /// budget, then per-link delivery in input order, staging a record
    /// per delivery, then one group commit of the tick's records. Windows
    /// for links not homed on this shard are ignored (the fleet validates
    /// routing before calling).
    pub fn step_tick(
        &mut self,
        tick: u64,
        windows: &[&crate::fleet::LinkWindow],
        policy: &FleetPolicy,
    ) -> ShardTick {
        let mut shed_records: Vec<Option<LinkRecord>> = vec![None; windows.len()];
        if policy.max_windows_per_tick > 0 {
            // Admission control over the windows that would actually be
            // delivered (skips don't consume budget). Sort key: vacant
            // links first, lowest posterior first, link id as the tie
            // break — presence-positive links are shed last.
            let mut candidates: Vec<(bool, f64, u64, usize, u32)> = Vec::new();
            for (idx, w) in windows.iter().enumerate() {
                let Some(&slot) = self.by_link.get(&w.link) else {
                    continue;
                };
                let Some(s) = self.slab.get(slot) else {
                    continue;
                };
                let deliverable = match s.meta.health {
                    LinkHealth::Healthy => true,
                    LinkHealth::Quarantined { until_tick, .. } => tick >= until_tick,
                    LinkHealth::Dead { .. } => false,
                };
                if deliverable {
                    let posterior = s.runtime.posterior();
                    let presence = posterior >= s.runtime.session_config().vacancy_eps;
                    candidates.push((presence, posterior, w.link, idx, s.meta.room));
                }
            }
            if candidates.len() > policy.max_windows_per_tick {
                let over = candidates.len() - policy.max_windows_per_tick;
                candidates
                    .sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
                for &(presence, posterior, link, idx, room) in candidates.iter().take(over) {
                    let events = self.link_meta(link).map_or(0, |m| m.events);
                    shed_records[idx] = Some(LinkRecord {
                        link,
                        room,
                        events,
                        outcome: LinkOutcome::Shed { posterior },
                    });
                    mpdf_obs::counter!("fleet.sheds_total").inc();
                    if presence {
                        mpdf_obs::counter!("fleet.sheds_presence_total").inc();
                    }
                }
            }
        }

        let mut records = Vec::with_capacity(windows.len());
        let mut delivered = 0u32;
        let mut shed = 0u32;
        let mut batch = Batch::new();
        for (idx, w) in windows.iter().enumerate() {
            if let Some(rec) = shed_records[idx].take() {
                shed += 1;
                records.push(rec);
                continue;
            }
            if let Some(rec) = self.deliver_inner(tick, w.link, &w.packets, policy, &mut batch) {
                if matches!(
                    rec.outcome,
                    LinkOutcome::Decision { .. } | LinkOutcome::Fault { .. }
                ) {
                    delivered += 1;
                }
                records.push(rec);
            }
        }
        self.commit_or_crash(batch);
        ShardTick {
            index: self.index,
            records,
            crashed: self.crashed,
            delivered,
            shed,
        }
    }

    /// Delivers one window to one link, bypassing shedding — the replay
    /// entry point. `tick` must be the tick the window originally
    /// belonged to so the health gate reproduces the original decision.
    ///
    /// # Errors
    /// [`FleetError::UnknownLink`] for links not homed here.
    pub fn deliver_one(
        &mut self,
        tick: u64,
        link: u64,
        packets: &[CsiPacket],
        policy: &FleetPolicy,
    ) -> Result<LinkRecord, FleetError> {
        let mut batch = Batch::new();
        let record = self
            .deliver_inner(tick, link, packets, policy, &mut batch)
            .ok_or(FleetError::UnknownLink(link))?;
        self.commit_or_crash(batch);
        Ok(record)
    }

    fn deliver_inner(
        &mut self,
        tick: u64,
        link: u64,
        packets: &[CsiPacket],
        policy: &FleetPolicy,
        batch: &mut Batch,
    ) -> Option<LinkRecord> {
        let &slot_idx = self.by_link.get(&link)?;
        let slot = self.slab.get_mut(slot_idx)?;
        let room = slot.meta.room;

        // Health gate: skips touch nothing (and are not events).
        match slot.meta.health {
            LinkHealth::Dead { .. } => {
                return Some(LinkRecord {
                    link,
                    room,
                    events: slot.meta.events,
                    outcome: LinkOutcome::DeadSkip,
                });
            }
            LinkHealth::Quarantined { until_tick, .. } if tick < until_tick => {
                return Some(LinkRecord {
                    link,
                    room,
                    events: slot.meta.events,
                    outcome: LinkOutcome::QuarantineSkip { until_tick },
                });
            }
            _ => {}
        }
        let probing = matches!(slot.meta.health, LinkHealth::Quarantined { .. });

        // From here on the window is delivered: exactly one event.
        slot.meta.events += 1;

        // Shape gate: mis-shaped packets are a fault, rejected before
        // they can reach (and poison) the runtime.
        let profile = slot.runtime.detector().profile();
        let want = (profile.antennas(), profile.subcarriers());
        let bad_shape = packets
            .iter()
            .find(|p| (p.antennas(), p.subcarriers()) != want)
            .map(|p| (p.antennas(), p.subcarriers()));
        let outcome = if let Some(got) = bad_shape {
            let fault = LinkFault::Shape { got, want };
            let health = apply_fault(&mut slot.meta, tick, policy);
            LinkOutcome::Fault { fault, health }
        } else {
            let step = {
                let _stage = mpdf_obs::stage!("fleet.step");
                slot.runtime.step(packets)
            };
            mpdf_obs::counter!("fleet.steps_total").inc();
            match step {
                Ok(sd) => {
                    if sd.decision.is_some() {
                        slot.meta.abstain_streak = 0;
                    } else {
                        slot.meta.abstain_streak += 1;
                    }
                    if probing {
                        slot.meta.health = LinkHealth::Healthy;
                        mpdf_obs::counter!("fleet.quarantine_releases_total").inc();
                    }
                    if policy.watchdog_ticks > 0
                        && slot.meta.abstain_streak >= policy.watchdog_ticks
                    {
                        let fault = LinkFault::Watchdog {
                            streak: slot.meta.abstain_streak,
                        };
                        let health = apply_fault(&mut slot.meta, tick, policy);
                        LinkOutcome::Fault { fault, health }
                    } else {
                        LinkOutcome::Decision {
                            decision: sd.decision,
                            posterior: sd.posterior,
                        }
                    }
                }
                Err(e) => {
                    let fault = LinkFault::Step(e.to_string());
                    let health = apply_fault(&mut slot.meta, tick, policy);
                    LinkOutcome::Fault { fault, health }
                }
            }
        };

        let record = LinkRecord {
            link,
            room,
            events: slot.meta.events,
            outcome,
        };
        if self.log.is_some() && !self.crashed && stage_record(batch, slot).is_err() {
            self.crash();
        }
        Some(record)
    }

    /// Marks the shard crashed: in-memory state stays authoritative for
    /// the tick, durable state is stale until recovery.
    fn crash(&mut self) {
        self.crashed = true;
        mpdf_obs::counter!("fleet.shard_crashes_total").inc();
    }

    /// Commits staged records; a failure crashes the shard.
    fn commit_or_crash(&mut self, batch: Batch) {
        if !self.crashed && self.commit(batch).is_err() {
            self.crash();
        }
    }

    /// Commits `batch` as one group, then compacts the log if it is due.
    fn commit(&mut self, batch: Batch) -> Result<(), FleetError> {
        let Some(log) = self.log.as_mut() else {
            return Ok(());
        };
        log.commit(batch)?;
        if !log.compaction_due() {
            return Ok(());
        }
        // Compaction re-snapshots every hosted link; evicted links keep
        // their chains (the log copies them).
        let mut bases = Batch::new();
        for &slot in self.by_link.values() {
            if let Some(s) = self.slab.get_mut(slot) {
                stage_base(&mut bases, s)?;
            }
        }
        log.compact(bases)?;
        Ok(())
    }

    /// Rebuilds the shard from its log — the in-memory slab is discarded
    /// and every link restored from its durable chain. `restore` turns a
    /// chain's session bytes — the base snapshot body, then each delta
    /// in order — back into a runtime (the fleet supplies the per-link
    /// calibration constants); the link meta is the chain's last.
    ///
    /// # Errors
    /// [`FleetError::NoLog`] for in-memory shards; log and snapshot
    /// decode failures.
    pub fn recover<F>(&mut self, mut restore: F) -> Result<ShardRecovery, FleetError>
    where
        F: FnMut(u64, &[u8], &[&[u8]]) -> Result<SessionRuntime<S>, FleetError>,
    {
        let Some(log) = self.log.as_mut() else {
            return Err(FleetError::NoLog(self.index));
        };
        let (rec, image) = log.recover()?;
        let mut entries: Vec<(u64, LinkMeta, SessionRuntime<S>)> = Vec::new();
        let mut events = BTreeMap::new();
        for (link, chain) in image.chains() {
            let (mut meta, base) = split_meta(link, chain.base)?;
            let mut deltas = Vec::with_capacity(chain.deltas.len());
            for payload in &chain.deltas {
                let (delta_meta, delta) = split_meta(link, payload)?;
                meta = delta_meta;
                deltas.push(delta);
            }
            let runtime = restore(link, base, &deltas)?;
            events.insert(link, meta.events);
            entries.push((link, meta, runtime));
        }
        self.slab.clear();
        self.by_link.clear();
        for (link, meta, runtime) in entries {
            let slot = self.slab.insert(LinkSlot {
                link,
                meta,
                runtime,
            });
            self.by_link.insert(link, slot);
        }
        self.crashed = false;
        Ok(ShardRecovery {
            records: rec.records,
            torn_bytes: rec.torn_bytes,
            used_bak: rec.used_bak,
            events,
        })
    }
}

/// Moves a link through the health machine on a fault: strike, then
/// quarantine with exponential backoff, then death past the budget.
fn apply_fault(meta: &mut LinkMeta, tick: u64, policy: &FleetPolicy) -> LinkHealth {
    let strikes = match meta.health {
        LinkHealth::Healthy => 1,
        LinkHealth::Quarantined { strikes, .. } | LinkHealth::Dead { strikes } => {
            strikes.saturating_add(1)
        }
    };
    meta.abstain_streak = 0;
    meta.health = if strikes > policy.max_strikes {
        mpdf_obs::counter!("fleet.links_dead_total").inc();
        LinkHealth::Dead { strikes }
    } else {
        mpdf_obs::counter!("fleet.quarantines_total").inc();
        LinkHealth::Quarantined {
            until_tick: tick + 1 + policy.backoff_ticks(strikes),
            strikes,
        }
    };
    meta.health
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_escalation_walks_quarantine_into_death() {
        let policy = FleetPolicy {
            max_strikes: 2,
            quarantine_base: 2,
            quarantine_cap: 8,
            ..FleetPolicy::default()
        };
        let mut meta = LinkMeta::new(1);
        let h1 = apply_fault(&mut meta, 10, &policy);
        assert_eq!(
            h1,
            LinkHealth::Quarantined {
                until_tick: 13,
                strikes: 1
            }
        );
        let h2 = apply_fault(&mut meta, 13, &policy);
        assert_eq!(
            h2,
            LinkHealth::Quarantined {
                until_tick: 18,
                strikes: 2
            }
        );
        let h3 = apply_fault(&mut meta, 18, &policy);
        assert_eq!(h3, LinkHealth::Dead { strikes: 3 });
        // Death is terminal even under further faults.
        assert_eq!(
            apply_fault(&mut meta, 30, &policy),
            LinkHealth::Dead { strikes: 4 }
        );
    }

    #[test]
    fn fault_resets_the_abstain_streak() {
        let mut meta = LinkMeta::new(0);
        meta.abstain_streak = 5;
        apply_fault(&mut meta, 0, &FleetPolicy::default());
        assert_eq!(meta.abstain_streak, 0);
    }
}

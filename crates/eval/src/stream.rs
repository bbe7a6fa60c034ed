//! Streaming CSI ingestion: the socket-shaped path from wire bytes to
//! decisions.
//!
//! The paper's monitoring loop is inherently streaming — the Intel 5300
//! CSI tool emits a continuous record stream the detector must consume
//! at line rate. This module replays a *recorded* campaign through that
//! shape: each case's captured windows are encoded with the
//! [`mpdf_wifi::wire`] codec into one contiguous byte stream, pumped
//! through a bounded ingest queue in MTU-sized chunks, reassembled and
//! split back into frames by the zero-copy decoder, batched into
//! `detector.window`-packet epochs, and scored by a pool of workers.
//!
//! The pipeline is back-pressured end to end: the chunk producer blocks
//! when the ingest queue is full and the framer blocks when the epoch
//! queue is full, so a slow scorer throttles ingest instead of letting
//! buffers grow without bound ([`mpdf_par::queue::Bounded`] semantics).
//! Scores land in *epoch-indexed* slots, so the output order is a pure
//! function of the byte stream no matter how many workers race — the
//! contract, pinned by a tier-1 test, is that stream-path scores are
//! **bit-identical** to the offline [`score_campaign_all`] pass over the
//! same recording.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use mpdf_core::error::DetectError;
use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::{PreparedWindow, PAPER_SCHEMES};
use mpdf_par::queue::Bounded;
use mpdf_wifi::band::Band;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::wire;

use crate::scenario::five_cases;
use crate::workload::{
    run_campaign, score_campaign_all, score_or_abstain, CampaignConfig, CaseData, ScoredWindow,
};

/// Per-epoch scores in scheme order (baseline, subcarrier, combined);
/// `None` where that scheme abstained (degraded beyond budget / empty),
/// mirroring [`score_campaign_all`]'s skip semantics.
pub type EpochScores = [Option<f64>; 3];

/// Knobs of the replay transport.
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Bytes per ingest chunk. The default is an MTU-ish 1460, which is
    /// *smaller* than one 3×30 frame (1466 bytes) — every frame crosses
    /// a chunk boundary, so the replay exercises reassembly constantly.
    pub chunk_bytes: usize,
    /// Ingest queue capacity in chunks (back-pressure bound).
    pub queue_chunks: usize,
    /// AGC gain step stamped on every encoded frame.
    pub agc: u8,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            chunk_bytes: 1460,
            queue_chunks: 64,
            agc: 40,
        }
    }
}

/// Transport-level statistics of one case replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseStreamStats {
    /// Case id.
    pub case_id: usize,
    /// Epochs (decision windows) scored.
    pub epochs: usize,
    /// Packets decoded from the wire.
    pub packets: u64,
    /// Wire bytes consumed.
    pub bytes: u64,
    /// Resync events (corrupt/garbage bytes rejected).
    pub rejects: u64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn invalid(what: String) -> DetectError {
    DetectError::InvalidConfig { what }
}

/// Validates the configured band at the ingest boundary.
///
/// Config files and wire headers are untrusted inputs; revalidating
/// through [`Band::try_with_indices`] turns a malformed grid into a
/// typed error before any packet is decoded against it.
fn validate_band(band: &Band) -> Result<(), DetectError> {
    Band::try_with_indices(band.center_hz(), band.indices().to_vec())
        .map(|_| ())
        .map_err(|e| invalid(format!("stream ingest band rejected: {e}")))
}

/// Replays one recorded case through the wire codec and bounded-queue
/// path, returning per-epoch scheme scores (epoch order) plus transport
/// stats.
///
/// The recording must be *clean*: every window exactly
/// `detector.window` packets, as a fault-free campaign produces. Epoch
/// batching drains a fixed N packets per decision window, so a recording
/// with ragged windows (packet loss already applied) cannot be aligned
/// and is rejected with a typed error.
///
/// # Errors
/// [`DetectError::InvalidConfig`] for a malformed band, ragged
/// recording, or a replay that lost epochs; scheme errors other than
/// the abstention cases propagate.
pub fn stream_case_scores(
    case: &CaseData,
    detector: &DetectorConfig,
    threads: usize,
    opts: &StreamOptions,
) -> Result<(Vec<EpochScores>, CaseStreamStats), DetectError> {
    validate_band(&detector.band)?;
    let window = detector.window.max(1);
    if let Some(w) = case.windows.iter().find(|w| w.packets.len() != window) {
        return Err(invalid(format!(
            "stream replay needs uniform {window}-packet windows; case {} recorded one with {}",
            case.case_id,
            w.packets.len()
        )));
    }

    // Encode the recording into one contiguous wire stream — the bytes a
    // socket would deliver.
    let mut bytes = Vec::new();
    for w in &case.windows {
        for p in &w.packets {
            wire::encode_frame(p, opts.agc, &mut bytes)
                .map_err(|e| invalid(format!("recorded packet does not fit the wire: {e}")))?;
        }
    }

    let expected_epochs = case.windows.len();
    let workers = mpdf_par::resolve_threads(threads);
    let chunk_bytes = opts.chunk_bytes.max(1);
    let ingest: Bounded<Vec<u8>> = Bounded::new(opts.queue_chunks.max(1));
    let epochs: Bounded<(usize, Vec<CsiPacket>)> = Bounded::new(workers.max(1) * 2);
    let slots: Vec<Mutex<Option<EpochScores>>> =
        (0..expected_epochs).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<DetectError>> = Mutex::new(None);
    let transport: Mutex<CaseStreamStats> = Mutex::new(CaseStreamStats {
        case_id: case.case_id,
        ..CaseStreamStats::default()
    });

    std::thread::scope(|scope| {
        // Producer: the socket stand-in, pushing MTU-sized chunks with
        // back-pressure (push blocks while the queue is full).
        scope.spawn(|| {
            for chunk in bytes.chunks(chunk_bytes) {
                if ingest.push(chunk.to_vec()).is_err() {
                    return; // queue closed early (downstream failure)
                }
                let depth = ingest.len() as i64;
                mpdf_obs::gauge!("eval.stream.ingest_depth").set(depth);
                mpdf_obs::gauge!("eval.stream.ingest_depth_max").set_max(depth);
            }
            ingest.close();
        });

        // Framer: reassembles chunks, splits frames zero-copy, batches
        // N packets per epoch.
        scope.spawn(|| {
            let mut tail: Vec<u8> = Vec::new();
            let mut pending: Vec<CsiPacket> = Vec::new();
            let mut epoch_idx = 0usize;
            while let Some(chunk) = ingest.pop() {
                tail.extend_from_slice(&chunk);
                let stats = wire::drain_frames(&tail, &mut pending);
                tail.drain(..stats.consumed);
                {
                    let mut t = lock(&transport);
                    t.packets += stats.frames;
                    t.bytes += stats.consumed as u64;
                    t.rejects += stats.rejects;
                }
                mpdf_obs::counter!("eval.stream.packets_total").add(stats.frames);
                while pending.len() >= window {
                    let epoch: Vec<CsiPacket> = pending.drain(..window).collect();
                    if epochs.push((epoch_idx, epoch)).is_err() {
                        ingest.close();
                        return;
                    }
                    epoch_idx += 1;
                }
            }
            // A clean replay consumes everything; a trailing partial
            // epoch (corruption ate frames) is dropped, and the missing
            // slot surfaces below as a typed error.
            epochs.close();
        });

        // Scoring workers: pop epochs in whatever order, write results
        // into their epoch-indexed slot — output order is data-determined.
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                while let Some((idx, packets)) = epochs.pop() {
                    let prepared = PreparedWindow::new(&case.profile, &packets, detector);
                    let mut scores: EpochScores = [None, None, None];
                    for (slot, scheme) in scores.iter_mut().zip(PAPER_SCHEMES) {
                        match score_or_abstain(&prepared, scheme) {
                            Ok(s) => *slot = s,
                            Err(e) => {
                                let mut f = lock(&failure);
                                if f.is_none() {
                                    *f = Some(e);
                                }
                                drop(f);
                                // Tear the pipeline down; the producer
                                // and framer observe closed queues.
                                ingest.close();
                                epochs.close();
                                return;
                            }
                        }
                    }
                    if let Some(cell) = slots.get(idx) {
                        *lock(cell) = Some(scores);
                    }
                    mpdf_obs::counter!("eval.stream.windows_total").inc();
                }
            });
        }
    });

    if let Some(e) = lock(&failure).take() {
        return Err(e);
    }
    let mut out = Vec::with_capacity(expected_epochs);
    for (idx, cell) in slots.iter().enumerate() {
        match lock(cell).take() {
            Some(scores) => out.push(scores),
            None => {
                return Err(invalid(format!(
                    "stream replay of case {} lost epoch {idx}",
                    case.case_id
                )))
            }
        }
    }
    let mut stats = lock(&transport).to_owned();
    stats.epochs = out.len();
    Ok((out, stats))
}

/// One case's replay outcome, compared against the offline reference.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Transport statistics.
    pub stats: CaseStreamStats,
    /// Per-scheme bit-identity with the offline scoring pass (scheme
    /// order: baseline, subcarrier, combined).
    pub matches_offline: [bool; 3],
}

/// Outcome of a full campaign replay.
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// Per-case reports, in case order.
    pub cases: Vec<CaseReport>,
    /// Total packets pushed through the wire path.
    pub packets_total: u64,
    /// Wall-clock seconds spent in the streaming section (explicitly
    /// nondeterministic — never printed on the deterministic report).
    pub elapsed_seconds: f64,
}

impl StreamRun {
    /// Whether every case matched the offline path bit-for-bit.
    pub fn all_match(&self) -> bool {
        self.cases
            .iter()
            .all(|c| c.matches_offline.iter().all(|&m| m))
    }

    /// Decoded packets per wall-clock second over the streaming section.
    pub fn packets_per_second(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.packets_total as f64 / self.elapsed_seconds
        } else {
            0.0
        }
    }
}

/// Offline scores of one scheme restricted to one case, as bit patterns.
fn offline_bits(scores: &[ScoredWindow], case_id: usize) -> Vec<u64> {
    scores
        .iter()
        .filter(|s| s.case_id == case_id)
        .map(|s| s.score.to_bits())
        .collect()
}

/// Records the five-case campaign, replays it through the wire codec +
/// bounded-queue path, and verifies the stream scores bit-identical to
/// the offline scoring pass on the same recording.
///
/// # Errors
/// Propagates campaign, scoring and replay errors.
pub fn run_stream(cfg: &CampaignConfig, opts: &StreamOptions) -> Result<StreamRun, DetectError> {
    let _stage = mpdf_obs::stage!("eval.stream");
    let cases = five_cases();
    let data = run_campaign(&cases, cfg)?;
    let offline = score_campaign_all(&data, &PAPER_SCHEMES, &cfg.detector)?;

    let start = Instant::now();
    let mut reports = Vec::with_capacity(data.len());
    let mut packets_total = 0u64;
    for case in &data {
        let (scores, stats) = stream_case_scores(case, &cfg.detector, cfg.threads, opts)?;
        packets_total += stats.packets;
        let mut matches_offline = [false; 3];
        for (scheme_idx, matched) in matches_offline.iter_mut().enumerate() {
            let streamed: Vec<u64> = scores
                .iter()
                .filter_map(|epoch| epoch[scheme_idx])
                .map(f64::to_bits)
                .collect();
            *matched = streamed == offline_bits(&offline[scheme_idx], case.case_id);
        }
        reports.push(CaseReport {
            stats,
            matches_offline,
        });
    }
    Ok(StreamRun {
        cases: reports,
        packets_total,
        elapsed_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Renders the deterministic replay report (throughput is deliberately
/// excluded — it goes to stderr, keeping stdout byte-stable).
pub fn report(run: &StreamRun) -> String {
    let mut out = String::from("stream — campaign replay over the CSI wire codec\n");
    let rows: Vec<Vec<String>> = run
        .cases
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.stats.case_id),
                format!("{}", c.stats.epochs),
                format!("{}", c.stats.packets),
                format!("{}", c.stats.bytes),
                format!("{}", c.stats.rejects),
                if c.matches_offline.iter().all(|&m| m) {
                    "yes".to_owned()
                } else {
                    "NO".to_owned()
                },
            ]
        })
        .collect();
    out.push_str(&crate::report::table(
        &[
            "case",
            "windows",
            "packets",
            "bytes",
            "rejects",
            "bit-identical",
        ],
        &rows,
    ));
    let matched = run
        .cases
        .iter()
        .filter(|c| c.matches_offline.iter().all(|&m| m))
        .count();
    out.push_str(&format!(
        "{matched}/{} cases score bit-identical to the offline path\n",
        run.cases.len()
    ));
    out
}

//! Session-state codec: full snapshots and incremental deltas.
//!
//! A snapshot captures the complete dynamic state of a
//! [`SessionRuntime`](crate::runtime::SessionRuntime) — profile,
//! threshold, HMM state, drift-sentinel state, supervision counters, the
//! null reservoir and shadow buffer, and the seq cursor — so a killed
//! session restores and continues **bit-identically**.
//!
//! The snapshot *body*, [`encode_snapshot_body`], packs, in order
//! (all little-endian): cursor, threshold, the calibration profile
//! (shape, amplitudes, powers, per-subcarrier covariances, static
//! spectrum — path weights are *re-derived* at restore, which is
//! bit-identical arithmetic), the HMM parameters and carried posterior,
//! the sentinel snapshot, supervision state (mode, retries, backoff,
//! watchdog strikes), and the reservoir + shadow packet windows (per
//! packet: seq `u64`, timestamp `f64`, then `antennas × subcarriers`
//! interleaved `re, im` `f64`s). The body is written in one pass into a
//! buffer sized by [`snapshot_body_len`].
//!
//! A [`SessionDelta`] is the incremental form: what one or more steps
//! changed, applied to the previous snapshot with
//! [`SessionDelta::apply_to`].
//!
//! This crate does no file IO. Neither encoding carries a checksum of
//! its own: durability lives in `mpdf-fleet`'s shard log, which frames
//! each body or delta as one CRC-64 record — for fleet links and for the
//! single-session demo checkpoint (a one-link shard log) alike.

use std::error::Error;
use std::fmt;

use mpdf_core::error::DetectError;
use mpdf_core::hmm::{Gaussian, HmmSmoother};
use mpdf_core::profile::{CalibrationProfile, DetectorConfig};
use mpdf_music::music::Pseudospectrum;
use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::matrix::CMatrix;
use mpdf_wifi::csi::CsiPacket;

use crate::runtime::{SessionMode, SessionSnapshot};
use crate::sentinel::{DriftState, SentinelSnapshot};

/// Errors produced when encoding or decoding session state.
#[derive(Debug)]
pub enum CheckpointError {
    /// The encoding ends before its declared contents.
    Truncated,
    /// The payload decodes but is internally inconsistent.
    Corrupt(String),
    /// The decoded state fails semantic validation (profile shapes, HMM
    /// parameters).
    Invalid(DetectError),
    /// Encode-side: a collection exceeds its length field's range, so it
    /// cannot be checkpointed without silent truncation.
    TooLarge {
        /// Which collection overflowed.
        what: &'static str,
        /// Actual length.
        len: usize,
        /// Largest length the field can represent.
        max: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint ends before declared length"),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint is corrupt: {what}"),
            CheckpointError::Invalid(e) => write!(f, "checkpoint state is invalid: {e}"),
            CheckpointError::TooLarge { what, len, max } => write!(
                f,
                "cannot checkpoint {what}: {len} entries exceed the format's limit of {max}"
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DetectError> for CheckpointError {
    fn from(e: DetectError) -> Self {
        CheckpointError::Invalid(e)
    }
}

/// Checked conversion of a collection length into a `u32` length field;
/// overflow is a typed error, never a silent truncation.
fn len_u32(what: &'static str, len: usize) -> Result<u32, CheckpointError> {
    u32::try_from(len).map_err(|_| CheckpointError::TooLarge {
        what,
        len,
        max: u64::from(u32::MAX),
    })
}

/// Checked conversion into a `u16` length field.
fn len_u16(what: &'static str, len: usize) -> Result<u16, CheckpointError> {
    u16::try_from(len).map_err(|_| CheckpointError::TooLarge {
        what,
        len,
        max: u64::from(u16::MAX),
    })
}
/// Encoded sentinel state: three f64s, the state tag, two u32 counters.
const SENTINEL_LEN: usize = 3 * 8 + 1 + 4 + 4;
/// Encoded supervision state: mode tag, retries, backoff, watchdog.
const SUPERVISION_LEN: usize = 1 + 4 + 8 + 4;

fn packet_len(antennas: usize, subcarriers: usize) -> usize {
    16 + antennas * subcarriers * 16
}

fn windows_len(windows: &[Vec<CsiPacket>], antennas: usize, subcarriers: usize) -> usize {
    4 + windows
        .iter()
        .map(|w| 4 + w.len() * packet_len(antennas, subcarriers))
        .sum::<usize>()
}

fn put_packets(
    buf: &mut Vec<u8>,
    windows: &[Vec<CsiPacket>],
    antennas: usize,
    subcarriers: usize,
) -> Result<(), CheckpointError> {
    buf.extend_from_slice(&len_u32("packet windows", windows.len())?.to_le_bytes());
    for w in windows {
        buf.extend_from_slice(&len_u32("packets in a window", w.len())?.to_le_bytes());
        for p in w {
            debug_assert!(
                p.antennas() == antennas && p.subcarriers() == subcarriers,
                "checkpointed packet shape diverges from profile"
            );
            buf.extend_from_slice(&p.seq.to_le_bytes());
            buf.extend_from_slice(&p.timestamp.to_le_bytes());
            for a in 0..antennas {
                for k in 0..subcarriers {
                    let z = p.get(a, k);
                    buf.extend_from_slice(&z.re.to_le_bytes());
                    buf.extend_from_slice(&z.im.to_le_bytes());
                }
            }
        }
    }
    Ok(())
}

fn put_sentinel(buf: &mut Vec<u8>, s: &SentinelSnapshot) {
    buf.extend_from_slice(&s.baseline_mean.to_le_bytes());
    buf.extend_from_slice(&s.baseline_std.to_le_bytes());
    buf.extend_from_slice(&s.ewma.to_le_bytes());
    buf.push(s.state.as_u8());
    buf.extend_from_slice(&s.above_enter.to_le_bytes());
    buf.extend_from_slice(&s.below_exit.to_le_bytes());
}

fn put_supervision(
    buf: &mut Vec<u8>,
    mode: SessionMode,
    retries: u32,
    backoff: u64,
    watchdog: u32,
) {
    buf.push(mode.as_u8());
    buf.extend_from_slice(&retries.to_le_bytes());
    buf.extend_from_slice(&backoff.to_le_bytes());
    buf.extend_from_slice(&watchdog.to_le_bytes());
}

/// Exact byte length of [`encode_snapshot_body`]'s output, so callers
/// can size a buffer once.
pub fn snapshot_body_len(snapshot: &SessionSnapshot) -> usize {
    let a = snapshot.profile.antennas();
    let s = snapshot.profile.subcarriers();
    let grid = snapshot.profile.static_spectrum().angles_deg().len();
    8 + 8 // cursor, threshold
        + 2 + 2 + a * s * 8 + s * 8 + s * a * a * 16 + 4 + grid * 16 // profile
        + 9 * 8 // HMM + carried posterior
        + SENTINEL_LEN
        + SUPERVISION_LEN
        + windows_len(&snapshot.reservoir, a, s)
        + windows_len(&snapshot.shadow, a, s)
}

/// Appends the snapshot body to `out` in one pass. Shard logs frame it
/// as one base record under their CRC.
///
/// All packet windows in the snapshot must share the profile's
/// `(antennas, subcarriers)` shape — the runtime guarantees this (every
/// window passed shape validation before being retained).
///
/// # Errors
/// [`CheckpointError::TooLarge`] when a collection exceeds its length
/// field's range (the format caps shapes at `u16` and window/packet
/// counts at `u32`); `out` may then hold a partial body.
pub fn encode_snapshot_body(
    snapshot: &SessionSnapshot,
    out: &mut Vec<u8>,
) -> Result<(), CheckpointError> {
    let antennas = snapshot.profile.antennas();
    let subcarriers = snapshot.profile.subcarriers();
    out.extend_from_slice(&snapshot.cursor.to_le_bytes());
    out.extend_from_slice(&snapshot.threshold.to_le_bytes());

    // Profile.
    out.extend_from_slice(&len_u16("profile antennas", antennas)?.to_le_bytes());
    out.extend_from_slice(&len_u16("profile subcarriers", subcarriers)?.to_le_bytes());
    for row in snapshot.profile.static_amplitude() {
        for &v in row {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    for &v in snapshot.profile.static_power() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for r in snapshot.profile.static_covariances() {
        for z in r.as_slice() {
            out.extend_from_slice(&z.re.to_le_bytes());
            out.extend_from_slice(&z.im.to_le_bytes());
        }
    }
    let spectrum = snapshot.profile.static_spectrum();
    out.extend_from_slice(
        &len_u32("spectrum angle grid", spectrum.angles_deg().len())?.to_le_bytes(),
    );
    for &a in spectrum.angles_deg() {
        out.extend_from_slice(&a.to_le_bytes());
    }
    for &v in spectrum.values() {
        out.extend_from_slice(&v.to_le_bytes());
    }

    // HMM + carried posterior.
    for v in [
        snapshot.hmm.absent.mean,
        snapshot.hmm.absent.std,
        snapshot.hmm.present.mean,
        snapshot.hmm.present.std,
        snapshot.hmm.stay_absent,
        snapshot.hmm.stay_present,
        snapshot.hmm.prior_present,
        snapshot.hmm.llr_cap,
        snapshot.posterior,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }

    put_sentinel(out, &snapshot.sentinel);
    put_supervision(
        out,
        snapshot.mode,
        snapshot.retries,
        snapshot.backoff_remaining,
        snapshot.watchdog_strikes,
    );

    // Packet windows.
    put_packets(out, &snapshot.reservoir, antennas, subcarriers)?;
    put_packets(out, &snapshot.shadow, antennas, subcarriers)
}

/// Bounds-checked little-endian reader over the payload.
struct Reader<'a> {
    buf: &'a [u8],
}

impl Reader<'_> {
    /// The next `N` bytes, or [`CheckpointError::Truncated`].
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(CheckpointError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        let [b] = self.take()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take()?))
    }
}

fn read_windows(
    r: &mut Reader<'_>,
    antennas: usize,
    subcarriers: usize,
) -> Result<Vec<Vec<CsiPacket>>, CheckpointError> {
    let count = r.u32()? as usize;
    // Each window needs at least one length field; a count larger than
    // the remaining bytes is corruption, not an allocation request.
    if count > r.buf.len() {
        return Err(CheckpointError::Truncated);
    }
    let mut windows = Vec::with_capacity(count);
    for _ in 0..count {
        let n = r.u32()? as usize;
        let per_packet = 16 + antennas * subcarriers * 16;
        if n.saturating_mul(per_packet) > r.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let mut w = Vec::with_capacity(n);
        for _ in 0..n {
            let seq = r.u64()?;
            let timestamp = r.f64()?;
            let mut data = Vec::with_capacity(antennas * subcarriers);
            for _ in 0..antennas * subcarriers {
                let re = r.f64()?;
                let im = r.f64()?;
                data.push(Complex64::new(re, im));
            }
            w.push(CsiPacket::new(antennas, subcarriers, data, seq, timestamp));
        }
        windows.push(w);
    }
    Ok(windows)
}

fn read_sentinel(r: &mut Reader<'_>) -> Result<SentinelSnapshot, CheckpointError> {
    let baseline_mean = r.f64()?;
    let baseline_std = r.f64()?;
    let ewma = r.f64()?;
    let state_tag = r.u8()?;
    let state = DriftState::from_u8(state_tag)
        .ok_or_else(|| CheckpointError::Corrupt(format!("unknown drift state tag {state_tag}")))?;
    Ok(SentinelSnapshot {
        baseline_mean,
        baseline_std,
        ewma,
        state,
        above_enter: r.u32()?,
        below_exit: r.u32()?,
    })
}

/// Supervision state: `(mode, retries, backoff_remaining, watchdog_strikes)`.
fn read_supervision(r: &mut Reader<'_>) -> Result<(SessionMode, u32, u64, u32), CheckpointError> {
    let mode_tag = r.u8()?;
    let mode = SessionMode::from_u8(mode_tag)
        .ok_or_else(|| CheckpointError::Corrupt(format!("unknown session mode tag {mode_tag}")))?;
    Ok((mode, r.u32()?, r.u64()?, r.u32()?))
}

fn expect_end(r: &Reader<'_>) -> Result<(), CheckpointError> {
    if !r.buf.is_empty() {
        return Err(CheckpointError::Corrupt(format!(
            "{} trailing bytes after payload",
            r.buf.len()
        )));
    }
    Ok(())
}

/// Deserializes a snapshot body (see [`encode_snapshot_body`]). The body
/// carries no checksum of its own: callers frame it under one (the shard
/// log's CRC-64).
///
/// `config` supplies the deployment constants (angular gate) needed to
/// re-derive the profile's path weights — restore must use the same
/// [`DetectorConfig`] the session was calibrated with.
///
/// # Errors
/// [`CheckpointError::Truncated`], [`CheckpointError::Corrupt`] and
/// [`CheckpointError::Invalid`] on a malformed body.
pub fn decode_snapshot_body(
    data: &[u8],
    config: &DetectorConfig,
) -> Result<SessionSnapshot, CheckpointError> {
    let mut r = Reader { buf: data };
    let cursor = r.u64()?;
    let threshold = r.f64()?;

    let antennas = r.u16()? as usize;
    let subcarriers = r.u16()? as usize;
    if antennas == 0 || subcarriers == 0 {
        return Err(CheckpointError::Corrupt(
            "profile declares an empty shape".to_string(),
        ));
    }
    let mut static_amplitude = Vec::with_capacity(antennas);
    for _ in 0..antennas {
        let mut row = Vec::with_capacity(subcarriers);
        for _ in 0..subcarriers {
            row.push(r.f64()?);
        }
        static_amplitude.push(row);
    }
    let mut static_power = Vec::with_capacity(subcarriers);
    for _ in 0..subcarriers {
        static_power.push(r.f64()?);
    }
    let mut static_covariances = Vec::with_capacity(subcarriers);
    for _ in 0..subcarriers {
        let mut entries = Vec::with_capacity(antennas * antennas);
        for _ in 0..antennas * antennas {
            let re = r.f64()?;
            let im = r.f64()?;
            entries.push(Complex64::new(re, im));
        }
        static_covariances.push(CMatrix::from_rows(antennas, antennas, &entries));
    }
    let grid_len = r.u32()? as usize;
    if grid_len == 0 || grid_len.saturating_mul(16) > r.buf.len() {
        return Err(CheckpointError::Truncated);
    }
    let mut angles = Vec::with_capacity(grid_len);
    for _ in 0..grid_len {
        angles.push(r.f64()?);
    }
    let mut values = Vec::with_capacity(grid_len);
    for _ in 0..grid_len {
        values.push(r.f64()?);
    }
    let static_spectrum = Pseudospectrum::new(angles, values);
    let profile = CalibrationProfile::from_parts(
        antennas,
        subcarriers,
        static_amplitude,
        static_power,
        static_covariances,
        static_spectrum,
        config,
    )?;

    let absent_mean = r.f64()?;
    let absent_std = r.f64()?;
    let present_mean = r.f64()?;
    let present_std = r.f64()?;
    let stay_absent = r.f64()?;
    let stay_present = r.f64()?;
    let prior_present = r.f64()?;
    let llr_cap = r.f64()?;
    if absent_std <= 0.0 || present_std <= 0.0 || absent_std.is_nan() || present_std.is_nan() {
        return Err(CheckpointError::Corrupt(
            "HMM emission std is not positive".to_string(),
        ));
    }
    let hmm = HmmSmoother {
        absent: Gaussian {
            mean: absent_mean,
            std: absent_std,
        },
        present: Gaussian {
            mean: present_mean,
            std: present_std,
        },
        stay_absent,
        stay_present,
        prior_present,
        llr_cap,
    };
    let posterior = r.f64()?;
    let sentinel = read_sentinel(&mut r)?;
    let (mode, retries, backoff_remaining, watchdog_strikes) = read_supervision(&mut r)?;
    let reservoir = read_windows(&mut r, antennas, subcarriers)?;
    let shadow = read_windows(&mut r, antennas, subcarriers)?;
    expect_end(&r)?;

    Ok(SessionSnapshot {
        cursor,
        threshold,
        profile,
        hmm,
        posterior,
        sentinel,
        mode,
        retries,
        backoff_remaining,
        watchdog_strikes,
        reservoir,
        shadow,
    })
}

/// What session steps changed against the previous durable record of a
/// session — the payload of a shard-log *delta* record.
///
/// A delta carries every scalar a step can move (cursor, posterior,
/// sentinel, supervision state) plus the packet windows it pushed into
/// (and evicted from) the rollback reservoir and the shadow buffer. The
/// calibration profile, threshold and HMM change only when a
/// recalibration commits; such a step is not expressible as a delta and
/// is written as a full snapshot instead (see
/// [`SessionRuntime::take_delta`](crate::runtime::SessionRuntime::take_delta)).
///
/// Layout (little-endian): cursor `u64`, posterior `f64`, sentinel,
/// supervision, window shape `u16 × u16`, `reservoir_evict` `u32`,
/// reservoir windows, `shadow_clear` `u8`, shadow windows — windows in
/// the snapshot's per-packet encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDelta {
    /// Next window index (seq cursor).
    pub cursor: u64,
    /// Carried HMM posterior.
    pub posterior: f64,
    /// Drift-sentinel state.
    pub sentinel: SentinelSnapshot,
    /// Supervision mode.
    pub mode: SessionMode,
    /// Consecutive rollback-guard rejections.
    pub retries: u32,
    /// Windows remaining in the current backoff.
    pub backoff_remaining: u64,
    /// Consecutive abstained windows.
    pub watchdog_strikes: u32,
    /// Windows dropped from the front of the reservoir.
    pub reservoir_evict: usize,
    /// Windows appended to the reservoir, after the evictions.
    pub reservoir_push: Vec<Vec<CsiPacket>>,
    /// Whether the shadow buffer was emptied, before `shadow_push`.
    pub shadow_clear: bool,
    /// Windows appended to the shadow buffer.
    pub shadow_push: Vec<Vec<CsiPacket>>,
}

/// Encoded delta bytes outside its packet windows.
const DELTA_FIXED_LEN: usize = 8 + 8 + SENTINEL_LEN + SUPERVISION_LEN + 2 + 2 + 4 + 1;

impl SessionDelta {
    /// `(antennas, subcarriers)` of the pushed packets (`(0, 0)` when
    /// nothing is pushed).
    fn shape(&self) -> (usize, usize) {
        self.reservoir_push
            .iter()
            .chain(&self.shadow_push)
            .flatten()
            .next()
            .map_or((0, 0), |p| (p.antennas(), p.subcarriers()))
    }

    /// Exact byte length of [`Self::encode`]'s output.
    pub fn encoded_len(&self) -> usize {
        let (a, s) = self.shape();
        DELTA_FIXED_LEN
            + windows_len(&self.reservoir_push, a, s)
            + windows_len(&self.shadow_push, a, s)
    }

    /// Appends the encoding to `out`.
    ///
    /// # Errors
    /// [`CheckpointError::TooLarge`] when a count exceeds its length
    /// field; `out` may then hold a partial encoding.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), CheckpointError> {
        let (antennas, subcarriers) = self.shape();
        out.extend_from_slice(&self.cursor.to_le_bytes());
        out.extend_from_slice(&self.posterior.to_le_bytes());
        put_sentinel(out, &self.sentinel);
        put_supervision(
            out,
            self.mode,
            self.retries,
            self.backoff_remaining,
            self.watchdog_strikes,
        );
        out.extend_from_slice(&len_u16("delta antennas", antennas)?.to_le_bytes());
        out.extend_from_slice(&len_u16("delta subcarriers", subcarriers)?.to_le_bytes());
        out.extend_from_slice(&len_u32("reservoir evictions", self.reservoir_evict)?.to_le_bytes());
        put_packets(out, &self.reservoir_push, antennas, subcarriers)?;
        out.push(u8::from(self.shadow_clear));
        put_packets(out, &self.shadow_push, antennas, subcarriers)
    }

    /// Decodes an encoding produced by [`Self::encode`].
    ///
    /// # Errors
    /// [`CheckpointError::Truncated`] or [`CheckpointError::Corrupt`] on a
    /// malformed delta.
    pub fn decode(data: &[u8]) -> Result<SessionDelta, CheckpointError> {
        let mut r = Reader { buf: data };
        let cursor = r.u64()?;
        let posterior = r.f64()?;
        let sentinel = read_sentinel(&mut r)?;
        let (mode, retries, backoff_remaining, watchdog_strikes) = read_supervision(&mut r)?;
        let antennas = r.u16()? as usize;
        let subcarriers = r.u16()? as usize;
        let reservoir_evict = r.u32()? as usize;
        let reservoir_push = read_windows(&mut r, antennas, subcarriers)?;
        let shadow_clear = match r.u8()? {
            0 => false,
            1 => true,
            tag => {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown shadow-clear flag {tag}"
                )))
            }
        };
        let shadow_push = read_windows(&mut r, antennas, subcarriers)?;
        expect_end(&r)?;
        Ok(SessionDelta {
            cursor,
            posterior,
            sentinel,
            mode,
            retries,
            backoff_remaining,
            watchdog_strikes,
            reservoir_evict,
            reservoir_push,
            shadow_clear,
            shadow_push,
        })
    }

    /// Applies the delta to the snapshot of the record before it, leaving
    /// the snapshot equal to the session's state after the delta's steps.
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] when the delta cannot follow the
    /// snapshot: it rewinds the cursor, evicts more windows than the
    /// reservoir holds, or pushes packets of another shape than the
    /// profile's. The snapshot is untouched on error.
    pub fn apply_to(self, snapshot: &mut SessionSnapshot) -> Result<(), CheckpointError> {
        if self.cursor < snapshot.cursor {
            return Err(CheckpointError::Corrupt(format!(
                "delta cursor {} precedes snapshot cursor {}",
                self.cursor, snapshot.cursor
            )));
        }
        if self.reservoir_evict > snapshot.reservoir.len() {
            return Err(CheckpointError::Corrupt(format!(
                "delta evicts {} of {} reservoir windows",
                self.reservoir_evict,
                snapshot.reservoir.len()
            )));
        }
        let want = (snapshot.profile.antennas(), snapshot.profile.subcarriers());
        let pushed = self
            .reservoir_push
            .iter()
            .chain(&self.shadow_push)
            .flatten();
        if pushed
            .map(|p| (p.antennas(), p.subcarriers()))
            .any(|shape| shape != want)
        {
            return Err(CheckpointError::Corrupt(
                "delta packet shape diverges from the profile".to_string(),
            ));
        }
        snapshot.cursor = self.cursor;
        snapshot.posterior = self.posterior;
        snapshot.sentinel = self.sentinel;
        snapshot.mode = self.mode;
        snapshot.retries = self.retries;
        snapshot.backoff_remaining = self.backoff_remaining;
        snapshot.watchdog_strikes = self.watchdog_strikes;
        snapshot.reservoir.drain(..self.reservoir_evict);
        snapshot.reservoir.extend(self.reservoir_push);
        if self.shadow_clear {
            snapshot.shadow.clear();
        }
        snapshot.shadow.extend(self.shadow_push);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{RecalPolicy, SessionConfig, SessionRuntime};
    use mpdf_core::scheme::SubcarrierWeighting;
    use mpdf_geom::shapes::Rect;
    use mpdf_geom::vec2::Vec2;
    use mpdf_propagation::channel::ChannelModel;
    use mpdf_propagation::environment::Environment;
    use mpdf_wifi::receiver::CsiReceiver;

    fn runtime() -> SessionRuntime<SubcarrierWeighting> {
        let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
        let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
        let mut rx = CsiReceiver::new(link, 31).unwrap();
        let calibration = rx.capture_static(None, 200).unwrap();
        let session = SessionConfig {
            recalibration: RecalPolicy {
                enabled: true,
                ..RecalPolicy::default()
            },
            ..SessionConfig::default()
        };
        SessionRuntime::calibrate(
            &calibration,
            SubcarrierWeighting,
            DetectorConfig::default(),
            session,
        )
        .unwrap()
    }

    fn snapshot() -> SessionSnapshot {
        runtime().snapshot()
    }

    #[test]
    fn oversized_collections_are_a_typed_error_not_a_truncation() {
        // The length fields are u16 (shape) and u32 (window/packet
        // counts); lengths past them must fail loudly — the old `as`
        // casts would silently wrap and write a decodable-but-wrong
        // checkpoint.
        assert_eq!(len_u16("profile antennas", 65_535).unwrap(), u16::MAX);
        let err = len_u16("profile antennas", 65_536).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::TooLarge {
                what: "profile antennas",
                len: 65_536,
                max: 65_535,
            }
        ));
        assert!(err.to_string().contains("profile antennas"));
        assert_eq!(len_u32("packet windows", 7).unwrap(), 7);
        assert!(matches!(
            len_u32("packet windows", u32::MAX as usize + 1),
            Err(CheckpointError::TooLarge { max, .. }) if max == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn body_roundtrip_is_exact() {
        let snap = snapshot();
        let mut bytes = Vec::new();
        encode_snapshot_body(&snap, &mut bytes).unwrap();
        assert_eq!(bytes.len(), snapshot_body_len(&snap));
        let decoded = decode_snapshot_body(&bytes, &DetectorConfig::default()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn truncation_is_detected() {
        let snap = snapshot();
        let mut bytes = Vec::new();
        encode_snapshot_body(&snap, &mut bytes).unwrap();
        for cut in [0usize, 10, 21, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_snapshot_body(&bytes[..cut], &DetectorConfig::default()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated),
                "cut {cut}: {err}"
            );
        }
    }
}

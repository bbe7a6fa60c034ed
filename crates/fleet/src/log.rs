//! Append-only, CRC-framed, generation-numbered shard checkpoint logs.
//!
//! One log per shard multiplexes the records of every session the shard
//! runs — at fleet scale this replaces file-per-session checkpointing
//! (thousands of tiny files and fsyncs) with one sequentially-appended
//! file per failure domain.
//!
//! ## On-disk layout (all little-endian)
//!
//! ```text
//! header   magic    b"MPSL"        4 bytes
//!          version  u16            2   (2; version-1 files are rejected)
//!          shard    u32            4
//! record   sync     b"RC"          2
//!          kind     u8             1   (0 = base, 1 = delta)
//!          gen      u64            8   (log-wide generation number)
//!          link     u64            8
//!          len      u32            4   (payload byte count)
//!          payload  [len bytes]
//!          crc      u64            8   CRC-64/WE over kind..payload
//! ```
//!
//! ## Record kinds
//!
//! A **base** record holds a link's full image; a **delta** record holds
//! what changed since the link's previous record. A link's *chain* is
//! its latest base followed by every delta after it, and replaying the
//! chain in order rebuilds the link. The log never looks inside a
//! payload: it only keeps chains whole.
//!
//! ## Group commit
//!
//! Records are staged in a [`Batch`] and committed with **one**
//! [`LogIo::append`] — one write, one fsync — however many links they
//! cover. Generation numbers and CRCs are stamped at commit time, so a
//! batch can be filled before the log knows where it will land.
//!
//! ## Recovery
//!
//! The scan walks frames in file order and stops at the first frame
//! that fails its sync marker, length bound, CRC or kind tag, at a
//! delta whose link has no base yet, and at any generation that does not
//! increase. The one tolerated exception is an exact **duplicate** — a
//! frame whose generation was already applied to the same link — which
//! a transient-error retry of a whole append can leave behind; it is
//! skipped, never applied twice. Everything past the stop is truncated as
//! a torn tail (a crash mid-append can only damage the suffix), so every
//! link recovers a prefix of its history. If the header itself is
//! damaged the previous-good `.bak` rotation — written by compaction —
//! is recovered instead. So is a `.bak` holding at least one record when
//! the primary's header is intact but no record after it survives: a
//! damaged single-record log (the session demo's checkpoint) then
//! resumes from the record before it instead of from nothing. Compaction
//! never leaves a record-less primary beside such a `.bak` (it keeps
//! every chain, and its rewrite is staged), so this rule fires only on
//! damage.
//!
//! ## Compaction
//!
//! Compaction is driven by the shard: it hands [`ShardLog::compact`] a
//! fresh base for every link it hosts, and the log copies the chains of
//! links that have records here but no fresh base (evicted dead links)
//! verbatim, so those still recover dead. The previous file is rotated
//! to `.bak`.
//!
//! All IO flows through the [`LogIo`] trait: production uses [`StdIo`]
//! (real files, full fsync discipline), the chaos harness swaps in
//! [`crate::chaos::FaultIo`] to inject seeded torn writes and transient
//! errors without touching this module's logic.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Shard-log file magic.
pub const LOG_MAGIC: &[u8; 4] = b"MPSL";
/// Current shard-log format version.
pub const LOG_VERSION: u16 = 2;
/// Byte length of the file header.
pub const HEADER_LEN: usize = 10;
/// Per-record framing overhead (sync + kind + gen + link + len + crc).
pub const RECORD_OVERHEAD: usize = FRAME_HEAD + 8;
/// Largest admissible record payload; larger lengths in a frame are
/// treated as corruption, not allocation requests.
pub const MAX_RECORD_PAYLOAD: usize = 1 << 28;

/// Bytes of a frame before its payload.
const FRAME_HEAD: usize = 2 + 1 + 8 + 8 + 4;
const RECORD_SYNC: &[u8; 2] = b"RC";
const IO_ATTEMPTS: u32 = 4;
const CRC64_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// Errors produced by shard-log operations.
#[derive(Debug)]
pub enum LogError {
    /// Underlying IO failure (after the transient-retry budget).
    Io(std::io::Error),
    /// The file header is missing or malformed.
    BadHeader(String),
    /// The header's version field is unsupported.
    UnsupportedVersion(u16),
    /// The log belongs to a different shard.
    ShardMismatch {
        /// Shard id this log was opened for.
        expected: u32,
        /// Shard id stored in the file header.
        found: u32,
    },
    /// Append-side: a payload exceeds [`MAX_RECORD_PAYLOAD`].
    TooLarge {
        /// Offending payload length.
        len: usize,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "shard log i/o error: {e}"),
            LogError::BadHeader(what) => write!(f, "bad shard log header: {what}"),
            LogError::UnsupportedVersion(v) => write!(f, "unsupported shard log version {v}"),
            LogError::ShardMismatch { expected, found } => {
                write!(f, "shard log is for shard {found}, expected {expected}")
            }
            LogError::TooLarge { len } => write!(
                f,
                "record payload of {len} bytes exceeds the {MAX_RECORD_PAYLOAD} byte cap"
            ),
        }
    }
}

impl Error for LogError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

/// Slicing-by-8 tables: `t[0]` is the classic byte table, `t[k]` the
/// contribution of a byte followed by `k` zero bytes.
fn crc_tables() -> &'static [[u64; 256]; 8] {
    static TABLES: OnceLock<[[u64; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u64; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = (i as u64) << 56;
            for _ in 0..8 {
                crc = if crc & (1 << 63) != 0 {
                    (crc << 1) ^ CRC64_POLY
                } else {
                    crc << 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev << 8) ^ t[0][(prev >> 56) as usize];
            }
        }
        t
    })
}

/// CRC-64 over the ECMA-182 polynomial (`0x42F0E1EBA9EA3693`),
/// MSB-first, with all-ones init and xorout (the CRC-64/WE profile) so
/// leading-zero damage and the empty input are distinguishable. Eight
/// bytes per step (slicing-by-8), bit-identical to the byte-at-a-time
/// definition.
pub fn crc64(data: &[u8]) -> u64 {
    let t = crc_tables();
    let mut crc = !0u64;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let mut be = [0u8; 8];
        be.copy_from_slice(word);
        let x = crc ^ u64::from_be_bytes(be);
        let byte = |shift: u32| (x >> shift) as usize & 0xFF;
        crc = t[7][byte(56)]
            ^ t[6][byte(48)]
            ^ t[5][byte(40)]
            ^ t[4][byte(32)]
            ^ t[3][byte(24)]
            ^ t[2][byte(16)]
            ^ t[1][byte(8)]
            ^ t[0][byte(0)];
    }
    for &b in words.remainder() {
        crc = (crc << 8) ^ t[0][((crc >> 56) ^ u64::from(b)) as usize & 0xFF];
    }
    !crc
}

/// The filesystem surface a shard log needs. Production uses [`StdIo`];
/// the chaos harness wraps any `LogIo` in a fault-injecting shim.
pub trait LogIo {
    /// Reads the whole file.
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Durably appends `bytes` (write + fsync).
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Durably replaces the file's contents atomically (staged write,
    /// fsync, rename, directory fsync).
    fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Renames a file, fsyncing the parent directory.
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Whether the file exists.
    fn exists(&mut self, path: &Path) -> bool;
}

fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

/// Real-filesystem [`LogIo`] with full durability discipline.
#[derive(Debug, Default, Clone)]
pub struct StdIo;

impl LogIo for StdIo {
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut staged = path.as_os_str().to_os_string();
        staged.push(".staged");
        let staged = PathBuf::from(staged);
        let mut f = std::fs::File::create(&staged)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&staged, path)?;
        sync_parent_dir(path)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)?;
        sync_parent_dir(to)
    }

    fn exists(&mut self, path: &Path) -> bool {
        path.exists()
    }
}

fn transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
    )
}

/// Bounded deterministic retry on transient IO errors: at most
/// `IO_ATTEMPTS` tries, backing off with attempt-scaled scheduler yields
/// rather than sleeps, so no clock is read. Counted on
/// `fleet.log.io_retries_total`.
/// A retried append re-writes its whole batch, so frames that had
/// already landed before the error can appear twice; the scan skips
/// such duplicates.
fn retry_io<T, F: FnMut() -> std::io::Result<T>>(mut op: F) -> std::io::Result<T> {
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if transient(e.kind()) && attempt < IO_ATTEMPTS => {
                mpdf_obs::counter!("fleet.log.io_retries_total").inc();
                for _ in 0..attempt {
                    std::thread::yield_now();
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// What a record's payload holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A full image: the link's chain restarts here.
    Base,
    /// A change against the link's previous record.
    Delta,
}

impl RecordKind {
    fn tag(self) -> u8 {
        match self {
            RecordKind::Base => 0,
            RecordKind::Delta => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<RecordKind> {
        match tag {
            0 => Some(RecordKind::Base),
            1 => Some(RecordKind::Delta),
            _ => None,
        }
    }
}

/// Records staged for one group commit ([`ShardLog::commit`]) or one
/// compaction ([`ShardLog::compact`]). Payloads are written in place
/// into the frame buffer; generations and CRCs are stamped when the
/// batch is committed.
#[derive(Debug, Default)]
pub struct Batch {
    bytes: Vec<u8>,
    /// `(frame start, link)` per staged record, in staging order.
    frames: Vec<(usize, u64)>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// Records staged so far.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Stages one record whose payload `write` appends in place.
    /// `payload_hint` is the expected payload length: the frame is
    /// reserved for it up front, so an exact hint means one allocation
    /// and no copy.
    ///
    /// # Errors
    /// Whatever `write` returns, or [`LogError::TooLarge`] for a payload
    /// past [`MAX_RECORD_PAYLOAD`]. On error nothing is staged.
    pub fn push_with<E, F>(
        &mut self,
        kind: RecordKind,
        link: u64,
        payload_hint: usize,
        write: F,
    ) -> Result<(), E>
    where
        E: From<LogError>,
        F: FnOnce(&mut Vec<u8>) -> Result<(), E>,
    {
        let start = self.bytes.len();
        self.bytes.reserve(RECORD_OVERHEAD + payload_hint);
        self.bytes.extend_from_slice(RECORD_SYNC);
        self.bytes.push(kind.tag());
        // Generation and length are placeholders until sealed/measured.
        self.bytes.extend_from_slice(&[0u8; 8]);
        self.bytes.extend_from_slice(&link.to_le_bytes());
        self.bytes.extend_from_slice(&[0u8; 4]);
        if let Err(e) = write(&mut self.bytes) {
            self.bytes.truncate(start);
            return Err(e);
        }
        let len = self.bytes.len() - start - FRAME_HEAD;
        let len32 = match u32::try_from(len) {
            Ok(n) if len <= MAX_RECORD_PAYLOAD => n,
            _ => {
                self.bytes.truncate(start);
                return Err(LogError::TooLarge { len }.into());
            }
        };
        self.bytes[start + 19..start + FRAME_HEAD].copy_from_slice(&len32.to_le_bytes());
        self.bytes.extend_from_slice(&[0u8; 8]);
        self.frames.push((start, link));
        Ok(())
    }

    /// Stages one record with a ready-made payload.
    ///
    /// # Errors
    /// [`LogError::TooLarge`] for a payload past [`MAX_RECORD_PAYLOAD`].
    pub fn push(&mut self, kind: RecordKind, link: u64, payload: &[u8]) -> Result<(), LogError> {
        self.push_with(kind, link, payload.len(), |out| {
            out.extend_from_slice(payload);
            Ok(())
        })
    }

    /// Stamps generations `first_gen..` and every frame's CRC.
    fn seal(&mut self, first_gen: u64) {
        for i in 0..self.frames.len() {
            let start = self.frames[i].0;
            let end = self.frames.get(i + 1).map_or(self.bytes.len(), |f| f.0);
            // Saturates rather than wraps: generations read back from a
            // damaged file can sit anywhere in the u64 range.
            let gen = first_gen.saturating_add(i as u64);
            self.bytes[start + 3..start + 11].copy_from_slice(&gen.to_le_bytes());
            let crc = crc64(&self.bytes[start + 2..end - 8]);
            self.bytes[end - 8..end].copy_from_slice(&crc.to_le_bytes());
        }
    }
}

/// What a [`ShardLog::open`]/[`ShardLog::recover`] pass found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogRecovery {
    /// Valid records applied (file order, duplicates excluded).
    pub records: usize,
    /// Duplicate frames skipped (a retried append that had landed).
    pub duplicates: usize,
    /// Bytes truncated off a torn tail (0 for a clean log).
    pub torn_bytes: usize,
    /// Whether the primary was unusable and the `.bak` rotation was
    /// recovered instead.
    pub used_bak: bool,
}

/// One link's surviving records, payloads only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkChain<'a> {
    /// The latest base record.
    pub base: &'a [u8],
    /// Every delta after it, oldest first.
    pub deltas: Vec<&'a [u8]>,
}

/// The surviving records of a recovered log, by link.
#[derive(Debug, Default)]
pub struct LogImage {
    data: Vec<u8>,
    chains: BTreeMap<u64, Vec<Range<usize>>>,
}

impl LogImage {
    /// Each link's chain, in link order.
    pub fn chains(&self) -> impl Iterator<Item = (u64, LinkChain<'_>)> {
        self.chains.iter().filter_map(|(&link, frames)| {
            let (base, deltas) = frames.split_first()?;
            Some((
                link,
                LinkChain {
                    base: payload(&self.data, base),
                    deltas: deltas.iter().map(|r| payload(&self.data, r)).collect(),
                },
            ))
        })
    }
}

fn payload<'a>(data: &'a [u8], frame: &Range<usize>) -> &'a [u8] {
    &data[frame.start + FRAME_HEAD..frame.end - 8]
}

struct Frame {
    kind: RecordKind,
    gen: u64,
    link: u64,
    /// Whole-frame byte length.
    len: usize,
}

fn read_u64(data: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&data[..8]);
    u64::from_le_bytes(bytes)
}

/// Parses the frame at the start of `rest`; `None` when it fails its
/// sync marker, length bound, CRC or kind tag.
fn parse_frame(rest: &[u8]) -> Option<Frame> {
    if rest.len() < RECORD_OVERHEAD || &rest[..2] != RECORD_SYNC {
        return None;
    }
    let len = u32::from_le_bytes([rest[19], rest[20], rest[21], rest[22]]) as usize;
    if len > MAX_RECORD_PAYLOAD || rest.len() < RECORD_OVERHEAD + len {
        return None;
    }
    let end = FRAME_HEAD + len;
    if read_u64(&rest[end..]) != crc64(&rest[2..end]) {
        return None;
    }
    Some(Frame {
        kind: RecordKind::from_tag(rest[2])?,
        gen: read_u64(&rest[3..]),
        link: read_u64(&rest[11..]),
        len: RECORD_OVERHEAD + len,
    })
}

struct Scan {
    /// Frame ranges of each link's chain: latest base, then its deltas.
    chains: BTreeMap<u64, Vec<Range<usize>>>,
    next_gen: u64,
    records: usize,
    duplicates: usize,
    /// End of the valid prefix.
    end: usize,
}

fn header_bytes(shard: u32) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    bytes.extend_from_slice(LOG_MAGIC);
    bytes.extend_from_slice(&LOG_VERSION.to_le_bytes());
    bytes.extend_from_slice(&shard.to_le_bytes());
    bytes
}

fn check_header(data: &[u8], shard: u32) -> Result<(), LogError> {
    if data.len() < HEADER_LEN {
        return Err(LogError::BadHeader(format!(
            "{} bytes is shorter than the {HEADER_LEN} byte header",
            data.len()
        )));
    }
    if &data[..4] != LOG_MAGIC {
        return Err(LogError::BadHeader("wrong magic".to_string()));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != LOG_VERSION {
        return Err(LogError::UnsupportedVersion(version));
    }
    let found = u32::from_le_bytes([data[6], data[7], data[8], data[9]]);
    if found != shard {
        return Err(LogError::ShardMismatch {
            expected: shard,
            found,
        });
    }
    Ok(())
}

fn scan(data: &[u8], shard: u32) -> Result<Scan, LogError> {
    check_header(data, shard)?;
    let mut chains: BTreeMap<u64, Vec<Range<usize>>> = BTreeMap::new();
    // Generation -> link of every applied frame, to tell a duplicate
    // from an out-of-order frame.
    let mut applied: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last_gen = 0u64;
    let mut records = 0usize;
    let mut duplicates = 0usize;
    let mut off = HEADER_LEN;
    while let Some(frame) = parse_frame(&data[off..]) {
        let range = off..off + frame.len;
        if frame.gen <= last_gen {
            if applied.get(&frame.gen) != Some(&frame.link) {
                break;
            }
            duplicates += 1;
        } else {
            match frame.kind {
                RecordKind::Base => {
                    chains.insert(frame.link, vec![range.clone()]);
                }
                RecordKind::Delta => match chains.get_mut(&frame.link) {
                    Some(chain) => chain.push(range.clone()),
                    None => break,
                },
            }
            applied.insert(frame.gen, frame.link);
            last_gen = frame.gen;
            records += 1;
        }
        off = range.end;
    }
    Ok(Scan {
        chains,
        next_gen: last_gen.saturating_add(1),
        records,
        duplicates,
        end: off,
    })
}

/// A crash-recoverable per-shard checkpoint log.
#[derive(Debug)]
pub struct ShardLog<IO: LogIo> {
    io: IO,
    path: PathBuf,
    bak: PathBuf,
    shard: u32,
    next_gen: u64,
    /// Links with a chain in the primary file.
    links: BTreeSet<u64>,
    compact_every: usize,
    records_since_compact: usize,
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

impl<IO: LogIo> ShardLog<IO> {
    /// Opens (or creates) the shard log at `path`, recovering whatever
    /// state survives on disk. `compact_every` bounds log growth: once
    /// that many records have been appended since the last compaction,
    /// [`Self::compaction_due`] asks the owner to compact (`0` disables
    /// compaction).
    ///
    /// # Errors
    /// IO failures, or typed corruption errors when neither the primary
    /// nor the `.bak` rotation has a readable header.
    pub fn open(
        io: IO,
        path: impl Into<PathBuf>,
        shard: u32,
        compact_every: usize,
    ) -> Result<(Self, LogRecovery), LogError> {
        let path = path.into();
        let bak = sibling(&path, ".bak");
        let mut log = ShardLog {
            io,
            path,
            bak,
            shard,
            next_gen: 1,
            links: BTreeSet::new(),
            compact_every,
            records_since_compact: 0,
        };
        let (recovery, _) = log.recover()?;
        Ok((log, recovery))
    }

    /// The primary log path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The `.bak` rotation path: the file compaction rotates the
    /// previous primary to.
    pub fn bak_path(&self) -> &Path {
        &self.bak
    }

    /// Number of links with a chain in the log.
    pub fn live_links(&self) -> usize {
        self.links.len()
    }

    /// Re-reads the on-disk state — the moral equivalent of a process
    /// restart — and returns every surviving chain. Torn tails are
    /// truncated (counted on `fleet.log.torn_tails_total`); an unreadable
    /// primary, or one with no intact record, falls back to the
    /// `.bak` rotation (`fleet.log.bak_fallbacks_total`) — the latter
    /// only when the `.bak` holds a record.
    ///
    /// # Errors
    /// IO failures, or the *primary's* typed corruption error when the
    /// `.bak` fallback is also unusable.
    pub fn recover(&mut self) -> Result<(LogRecovery, LogImage), LogError> {
        self.links.clear();
        self.next_gen = 1;
        self.records_since_compact = 0;

        let primary = if self.io.exists(&self.path) {
            let data = retry_io(|| self.io.read(&self.path))?;
            Some(scan(&data, self.shard).map(|s| (data, s)))
        } else {
            None
        };

        let (data, s, used_bak) = match primary {
            // Header intact, yet no record survives (torn off, or the
            // file cut at the header): a `.bak` that still holds one is
            // the better image.
            Some(Ok((data, s))) if s.records == 0 => match self.read_bak()? {
                Some((bak, b)) if b.records > 0 => (bak, b, true),
                _ => (data, s, false),
            },
            Some(Ok((data, s))) => (data, s, false),
            // Primary unreadable at the header level (or missing): try
            // the previous-good rotation before giving up.
            Some(Err(primary_err)) => match self.read_bak()? {
                Some((data, s)) => (data, s, true),
                None => return Err(primary_err),
            },
            None => match self.read_bak()? {
                Some((data, s)) => (data, s, true),
                None => {
                    // Fresh log: durably write the header so appends have
                    // a valid file to extend.
                    retry_io(|| self.io.replace(&self.path, &header_bytes(self.shard)))?;
                    return Ok((LogRecovery::default(), LogImage::default()));
                }
            },
        };

        let torn_bytes = data.len() - s.end;
        if torn_bytes > 0 {
            mpdf_obs::counter!("fleet.log.torn_tails_total").inc();
        }
        if used_bak {
            mpdf_obs::counter!("fleet.log.bak_fallbacks_total").inc();
        }
        if torn_bytes > 0 || used_bak {
            // Rebuild the primary from the surviving prefix so appends
            // extend a clean file. The .bak rotation is left untouched:
            // it still holds the last known-good image.
            retry_io(|| self.io.replace(&self.path, &data[..s.end]))?;
        }
        self.next_gen = s.next_gen;
        self.links = s.chains.keys().copied().collect();
        // Every record past one per link is what a compaction folds
        // away; counting them keeps a shard that is recovered more often
        // than it compacts from growing its log without bound.
        self.records_since_compact = s.records.saturating_sub(s.chains.len());
        Ok((
            LogRecovery {
                records: s.records,
                duplicates: s.duplicates,
                torn_bytes,
                used_bak,
            },
            LogImage {
                data,
                chains: s.chains,
            },
        ))
    }

    fn read_bak(&mut self) -> Result<Option<(Vec<u8>, Scan)>, LogError> {
        if !self.io.exists(&self.bak) {
            return Ok(None);
        }
        let data = retry_io(|| self.io.read(&self.bak))?;
        Ok(scan(&data, self.shard).ok().map(|s| (data, s)))
    }

    /// Durably appends every record of `batch` with one
    /// [`LogIo::append`] (one fsync). An empty batch writes nothing.
    ///
    /// # Errors
    /// IO errors after the transient-retry budget; the caller treats the
    /// shard as crashed and recovers from disk.
    pub fn commit(&mut self, mut batch: Batch) -> Result<(), LogError> {
        if batch.is_empty() {
            return Ok(());
        }
        batch.seal(self.next_gen);
        retry_io(|| self.io.append(&self.path, &batch.bytes))?;
        self.next_gen = self.next_gen.saturating_add(batch.len() as u64);
        self.records_since_compact += batch.len();
        self.links
            .extend(batch.frames.iter().map(|&(_, link)| link));
        mpdf_obs::counter!("fleet.log.appends_total").inc();
        mpdf_obs::counter!("fleet.log.bytes_total").add(batch.bytes.len() as u64);
        Ok(())
    }

    /// Whether `compact_every` records have been appended since the last
    /// compaction.
    pub fn compaction_due(&self) -> bool {
        self.compact_every > 0 && self.records_since_compact >= self.compact_every
    }

    /// Rewrites the log as `bases` — a fresh base record for every link
    /// the caller hosts — preceded by the chains, copied verbatim, of
    /// links that have records here but no base in `bases`. The previous
    /// file is rotated to `.bak` (the last-good-generation fallback).
    ///
    /// # Errors
    /// IO failures; a crash between the rotation and the rewrite leaves
    /// the `.bak` recoverable.
    pub fn compact(&mut self, mut bases: Batch) -> Result<(), LogError> {
        let mut links: BTreeSet<u64> = bases.frames.iter().map(|&(_, link)| link).collect();
        let mut retained = Vec::new();
        if !self.links.is_subset(&links) {
            let data = retry_io(|| self.io.read(&self.path))?;
            let s = scan(&data, self.shard)?;
            let mut frames: Vec<&Range<usize>> = Vec::new();
            for (&link, chain) in &s.chains {
                if links.insert(link) {
                    frames.extend(chain);
                }
            }
            // File order is generation order.
            frames.sort_by_key(|r| r.start);
            for r in frames {
                retained.extend_from_slice(&data[r.clone()]);
            }
        }
        bases.seal(self.next_gen);
        let mut bytes = header_bytes(self.shard);
        bytes.reserve_exact(retained.len() + bases.bytes.len());
        bytes.extend_from_slice(&retained);
        bytes.extend_from_slice(&bases.bytes);
        if self.io.exists(&self.path) {
            retry_io(|| self.io.rename(&self.path, &self.bak))?;
        }
        retry_io(|| self.io.replace(&self.path, &bytes))?;
        self.next_gen = self.next_gen.saturating_add(bases.len() as u64);
        self.links = links;
        self.records_since_compact = 0;
        mpdf_obs::counter!("fleet.log.compactions_total").inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mpdf_fleet_log_{}_{}", std::process::id(), tag));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The byte-at-a-time definition the sliced CRC must match.
    fn crc64_bytewise(data: &[u8]) -> u64 {
        let table = &crc_tables()[0];
        let mut crc = !0u64;
        for &byte in data {
            let idx = ((crc >> 56) ^ u64::from(byte)) as usize & 0xFF;
            crc = (crc << 8) ^ table[idx];
        }
        !crc
    }

    fn commit_one(log: &mut ShardLog<StdIo>, kind: RecordKind, link: u64, payload: &[u8]) {
        let mut batch = Batch::new();
        batch.push(kind, link, payload).unwrap();
        log.commit(batch).unwrap();
    }

    /// `(link, base, deltas)` per chain, owned.
    fn chains(image: &LogImage) -> Vec<(u64, Vec<u8>, Vec<Vec<u8>>)> {
        image
            .chains()
            .map(|(link, c)| {
                let deltas = c.deltas.iter().map(|d| d.to_vec()).collect();
                (link, c.base.to_vec(), deltas)
            })
            .collect()
    }

    #[test]
    fn crc64_matches_the_we_check_value() {
        // CRC-64/WE check value over the standard "123456789" input.
        assert_eq!(crc64(b"123456789"), 0x62EC_59E3_F1A4_F00A);
        assert_ne!(crc64(b"123456789"), crc64(b"123456780"));
        assert_ne!(crc64(b""), crc64(b"\0"), "length-extension guarded");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sliced_crc64_is_bit_identical_to_bytewise(
            data in proptest::collection::vec(0u8..=255, 0..200),
            skip in 0usize..8,
        ) {
            // Every start alignment and every tail length.
            let slice = &data[skip.min(data.len())..];
            prop_assert_eq!(crc64(slice), crc64_bytewise(slice));
        }
    }

    #[test]
    fn transient_io_errors_are_retried_with_a_bounded_budget() {
        use std::io::{Error, ErrorKind};
        // Two interruptions, then success: absorbed.
        let mut calls = 0;
        let v = retry_io(|| {
            calls += 1;
            if calls < 3 {
                Err(Error::new(ErrorKind::Interrupted, "signal"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!((v, calls), (42, 3));

        // A persistent transient error exhausts the budget and surfaces.
        let mut calls = 0;
        let err = retry_io::<(), _>(|| {
            calls += 1;
            Err(Error::new(ErrorKind::WouldBlock, "busy"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
        assert_eq!(calls, IO_ATTEMPTS);

        // Non-transient errors fail on the first call.
        let mut calls = 0;
        let err = retry_io::<(), _>(|| {
            calls += 1;
            Err(Error::new(ErrorKind::PermissionDenied, "no"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
        assert_eq!(calls, 1);
    }

    #[test]
    fn group_commit_is_one_append_and_recovers_chains() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("shard0.mpsl");
        let (mut log, rec) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
        assert_eq!(rec, LogRecovery::default());
        commit_one(&mut log, RecordKind::Base, 5, b"five-base");
        commit_one(&mut log, RecordKind::Base, 2, b"two-base");
        let mut batch = Batch::new();
        batch.push(RecordKind::Delta, 5, b"five-d1").unwrap();
        batch.push(RecordKind::Delta, 2, b"two-d1").unwrap();
        batch.push(RecordKind::Delta, 5, b"five-d2").unwrap();
        log.commit(batch).unwrap();
        assert_eq!(log.live_links(), 2);

        let (mut log2, rec2) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
        assert_eq!(rec2.records, 5);
        assert_eq!(rec2.torn_bytes, 0);
        let (_, image) = log2.recover().unwrap();
        assert_eq!(
            chains(&image),
            vec![
                (2, b"two-base".to_vec(), vec![b"two-d1".to_vec()]),
                (
                    5,
                    b"five-base".to_vec(),
                    vec![b"five-d1".to_vec(), b"five-d2".to_vec()]
                ),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_new_base_restarts_the_chain() {
        let dir = temp_dir("rebase");
        let path = dir.join("shard0.mpsl");
        let (mut log, _) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
        commit_one(&mut log, RecordKind::Base, 1, b"b1");
        commit_one(&mut log, RecordKind::Delta, 1, b"d1");
        commit_one(&mut log, RecordKind::Base, 1, b"b2");
        commit_one(&mut log, RecordKind::Delta, 1, b"d2");
        let (_, image) = log.recover().unwrap();
        assert_eq!(
            chains(&image),
            vec![(1, b"b2".to_vec(), vec![b"d2".to_vec()])]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_rebases_hosted_links_and_keeps_evicted_chains() {
        let dir = temp_dir("compact");
        let path = dir.join("shard1.mpsl");
        let (mut log, _) = ShardLog::open(StdIo, &path, 1, 4).unwrap();
        for link in 0u64..3 {
            commit_one(
                &mut log,
                RecordKind::Base,
                link,
                format!("b{link}").as_bytes(),
            );
        }
        commit_one(&mut log, RecordKind::Delta, 2, b"d2");
        assert!(log.compaction_due(), "4 records with compact_every=4");
        // The owner hosts links 0 and 1 only: link 2 was evicted.
        let mut bases = Batch::new();
        bases.push(RecordKind::Base, 0, b"fresh0").unwrap();
        bases.push(RecordKind::Base, 1, b"fresh1").unwrap();
        log.compact(bases).unwrap();
        assert!(!log.compaction_due());
        assert!(sibling(&path, ".bak").exists(), "compaction rotated a .bak");
        commit_one(&mut log, RecordKind::Delta, 0, b"after");

        let (mut log2, rec) = ShardLog::open(StdIo, &path, 1, 4).unwrap();
        assert_eq!((rec.records, rec.torn_bytes), (5, 0));
        let (_, image) = log2.recover().unwrap();
        assert_eq!(
            chains(&image),
            vec![
                (0, b"fresh0".to_vec(), vec![b"after".to_vec()]),
                (1, b"fresh1".to_vec(), vec![]),
                (2, b"b2".to_vec(), vec![b"d2".to_vec()]),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_shard_and_version_are_typed_errors() {
        let dir = temp_dir("typed");
        let path = dir.join("shard7.mpsl");
        let (mut log, _) = ShardLog::open(StdIo, &path, 7, 0).unwrap();
        commit_one(&mut log, RecordKind::Base, 1, b"x");
        assert!(matches!(
            ShardLog::open(StdIo, &path, 8, 0),
            Err(LogError::ShardMismatch {
                expected: 8,
                found: 7
            })
        ));
        let mut data = std::fs::read(&path).unwrap();
        // A version-1 file is refused, not misread.
        data[4..6].copy_from_slice(&1u16.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            ShardLog::open(StdIo, &path, 7, 0),
            Err(LogError::UnsupportedVersion(1))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_payloads_roundtrip_and_errors_display() {
        let dir = temp_dir("edge");
        let path = dir.join("shard2.mpsl");
        let (mut log, _) = ShardLog::open(StdIo, &path, 2, 0).unwrap();
        commit_one(&mut log, RecordKind::Base, 9, b"");
        log.commit(Batch::new()).unwrap();
        let (mut log2, rec) = ShardLog::open(StdIo, &path, 2, 0).unwrap();
        assert_eq!(rec.records, 1);
        let (_, image) = log2.recover().unwrap();
        assert_eq!(chains(&image), vec![(9, Vec::new(), Vec::new())]);
        let err = LogError::TooLarge {
            len: MAX_RECORD_PAYLOAD + 1,
        };
        assert!(err.to_string().contains("cap"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_payload_writer_stages_nothing() {
        let mut batch = Batch::new();
        batch.push(RecordKind::Base, 1, b"kept").unwrap();
        let err = batch.push_with(RecordKind::Delta, 2, 8, |out| {
            out.extend_from_slice(b"partial");
            Err(LogError::BadHeader("writer failed".into()))
        });
        assert!(err.is_err());
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.bytes.len(), RECORD_OVERHEAD + 4);
    }
}

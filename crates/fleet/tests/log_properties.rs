//! Property tests for the shard checkpoint log. A log of base+delta
//! chains written as one group commit is truncated and bit-flipped at
//! *every* byte offset: recovery must always yield, per link, a prefix of
//! its history — never a half-record, never a delta without its base.
//! Header-level damage falls back to the `.bak` rotation, and so does a
//! primary with no intact record when the `.bak` holds one; empty files are
//! typed errors, duplicated frames (a retried append) are skipped rather
//! than applied twice, and recovery cannot starve compaction.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use mpdf_fleet::log::{crc64, HEADER_LEN, RECORD_OVERHEAD};
use mpdf_fleet::{Batch, LogError, LogImage, LogIo, RecordKind, ShardLog, StdIo};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpdf_fleet_prop_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One record of the seeded history.
type Rec = (RecordKind, u64, Vec<u8>);

/// Chains as `link -> [base, deltas...]` payloads.
type Chains = BTreeMap<u64, Vec<Vec<u8>>>;

/// Three links' interleaved history: births, deltas, a re-base and a
/// link born mid-batch. Payload sizes vary with `len`.
fn history(len: usize) -> Vec<Rec> {
    let p = |tag: u8, extra: usize| vec![tag; len + extra];
    vec![
        (RecordKind::Base, 1, p(0xA0, 3)),
        (RecordKind::Base, 2, p(0xB0, 0)),
        (RecordKind::Delta, 1, p(0xA1, 1)),
        (RecordKind::Delta, 2, p(0xB1, 2)),
        (RecordKind::Base, 3, p(0xC0, 5)),
        (RecordKind::Delta, 1, p(0xA2, 0)),
        (RecordKind::Base, 2, p(0xB2, 4)),
        (RecordKind::Delta, 3, p(0xC1, 1)),
        (RecordKind::Delta, 2, p(0xB3, 0)),
    ]
}

/// What a scan of the first `n` records must recover.
fn expected_chains(records: &[Rec]) -> Chains {
    let mut chains = Chains::new();
    for (kind, link, payload) in records {
        match kind {
            RecordKind::Base => {
                chains.insert(*link, vec![payload.clone()]);
            }
            RecordKind::Delta => chains.get_mut(link).unwrap().push(payload.clone()),
        }
    }
    chains
}

fn chains_of(image: &LogImage) -> Chains {
    image
        .chains()
        .map(|(link, c)| {
            let mut all = vec![c.base.to_vec()];
            all.extend(c.deltas.iter().map(|d| d.to_vec()));
            (link, all)
        })
        .collect()
}

fn recover(path: &Path, shard: u32) -> Result<(mpdf_fleet::LogRecovery, Chains), LogError> {
    let (mut log, rec) = ShardLog::open(StdIo, path, shard, 0)?;
    // The open already repaired the file; its report is the one to keep.
    let (_, image) = log.recover()?;
    Ok((rec, chains_of(&image)))
}

/// In-memory filesystem, so the every-offset sweeps run without fsyncs.
#[derive(Debug, Default)]
struct MemIo {
    files: BTreeMap<PathBuf, Vec<u8>>,
}

impl LogIo for MemIo {
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.files
            .get(path)
            .cloned()
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::NotFound))
    }
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.files
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }
    fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        let data = self
            .files
            .remove(from)
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::NotFound))?;
        self.files.insert(to.to_path_buf(), data);
        Ok(())
    }
    fn exists(&mut self, path: &Path) -> bool {
        self.files.contains_key(path)
    }
}

/// Recovers a shard-0 log whose primary holds exactly `bytes`.
fn recover_bytes(bytes: &[u8]) -> Result<(mpdf_fleet::LogRecovery, Chains), LogError> {
    let path = PathBuf::from("shard0.mpsl");
    let mut io = MemIo::default();
    io.files.insert(path.clone(), bytes.to_vec());
    let (mut log, rec) = ShardLog::open(io, path, 0, 0)?;
    let (_, image) = log.recover()?;
    Ok((rec, chains_of(&image)))
}

/// Writes `records` as one group commit; returns the path and the end
/// offset of every frame.
fn seeded_log(dir: &Path, records: &[Rec]) -> (PathBuf, Vec<usize>) {
    let path = dir.join("shard0.mpsl");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(dir.join("shard0.mpsl.bak")).ok();
    let (mut log, _) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
    let mut batch = Batch::new();
    let mut ends = Vec::new();
    let mut end = HEADER_LEN;
    for (kind, link, payload) in records {
        batch.push(*kind, *link, payload).unwrap();
        end += RECORD_OVERHEAD + payload.len();
        ends.push(end);
    }
    log.commit(batch).unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, end);
    (path, ends)
}

/// Frames wholly before byte `cut`.
fn frames_before(ends: &[usize], cut: usize) -> usize {
    ends.iter().take_while(|&&e| e <= cut).count()
}

/// A hand-built v2 frame, for layouts a healthy writer never produces.
fn frame(kind: u8, gen: u64, link: u64, payload: &[u8]) -> Vec<u8> {
    let mut f = b"RC".to_vec();
    f.push(kind);
    f.extend_from_slice(&gen.to_le_bytes());
    f.extend_from_slice(&link.to_le_bytes());
    f.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
    f.extend_from_slice(payload);
    let crc = crc64(&f[2..]);
    f.extend_from_slice(&crc.to_le_bytes());
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cutting the file at every offset keeps exactly the whole frames
    /// before the cut: each link recovers a prefix of its history.
    #[test]
    fn truncation_at_every_offset_recovers_a_per_link_prefix(len in 0usize..24) {
        let dir = temp_dir(&format!("torn{len}"));
        let records = history(len);
        let (path, ends) = seeded_log(&dir, &records);
        let bytes = std::fs::read(&path).unwrap();
        for cut in HEADER_LEN..=bytes.len() {
            let (rec, chains) = recover_bytes(&bytes[..cut]).unwrap();
            let kept = frames_before(&ends, cut);
            prop_assert_eq!(rec.records, kept, "cut {}", cut);
            prop_assert_eq!(rec.torn_bytes > 0, cut != HEADER_LEN && !ends.contains(&cut));
            prop_assert!(!rec.used_bak);
            prop_assert_eq!(chains, expected_chains(&records[..kept]), "cut {}", cut);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping any byte of any frame drops that frame and everything
    /// after it — never a half-record; a flip in the header is a typed
    /// error.
    #[test]
    fn bit_flip_at_every_offset_recovers_a_per_link_prefix(
        len in 0usize..24,
        xor in 1u8..=255,
    ) {
        let dir = temp_dir(&format!("flip{len}"));
        let records = history(len);
        let (path, ends) = seeded_log(&dir, &records);
        let bytes = std::fs::read(&path).unwrap();
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= xor;
            if pos < HEADER_LEN {
                prop_assert!(recover_bytes(&corrupt).is_err(), "header flip at {}", pos);
                continue;
            }
            let (rec, chains) = recover_bytes(&corrupt).unwrap();
            let kept = frames_before(&ends, pos);
            prop_assert!(rec.torn_bytes > 0, "flip at {} is a torn tail", pos);
            prop_assert_eq!(chains, expected_chains(&records[..kept]), "flip at {}", pos);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_delta_without_its_base_ends_the_scan() {
    let dir = temp_dir("orphan");
    let records = history(4);
    let (path, _) = seeded_log(&dir, &records);
    let mut bytes = std::fs::read(&path).unwrap();
    let good = bytes.len();
    bytes.extend_from_slice(&frame(1, 10, 99, b"orphan delta"));
    bytes.extend_from_slice(&frame(0, 11, 4, b"unreachable base"));
    std::fs::write(&path, &bytes).unwrap();
    let (rec, chains) = recover(&path, 0).unwrap();
    assert_eq!(rec.torn_bytes, bytes.len() - good);
    assert_eq!(chains, expected_chains(&records));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_duplicated_frame_is_skipped_not_applied_twice() {
    let dir = temp_dir("dupframe");
    let records = history(6);
    let (path, ends) = seeded_log(&dir, &records);
    let bytes = std::fs::read(&path).unwrap();
    // Repeat frame 2 (a delta of link 1) right after itself.
    let mut dup = bytes[..ends[2]].to_vec();
    dup.extend_from_slice(&bytes[ends[1]..ends[2]]);
    dup.extend_from_slice(&bytes[ends[2]..]);
    std::fs::write(&path, &dup).unwrap();
    let (rec, chains) = recover(&path, 0).unwrap();
    assert_eq!((rec.records, rec.duplicates, rec.torn_bytes), (9, 1, 0));
    assert_eq!(chains, expected_chains(&records));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_non_increasing_generation_that_is_not_a_duplicate_ends_the_scan() {
    let dir = temp_dir("reorder");
    let records = history(2);
    let (path, _) = seeded_log(&dir, &records);
    let mut bytes = std::fs::read(&path).unwrap();
    let good = bytes.len();
    // Generation 3 belongs to link 1; claiming it for link 2 is reorder
    // or forgery, not a retry.
    bytes.extend_from_slice(&frame(1, 3, 2, b"stale"));
    std::fs::write(&path, &bytes).unwrap();
    let (rec, chains) = recover(&path, 0).unwrap();
    assert_eq!((rec.duplicates, rec.torn_bytes), (0, bytes.len() - good));
    assert_eq!(chains, expected_chains(&records));
    std::fs::remove_dir_all(&dir).ok();
}

/// A filesystem whose first append lands and then reports a transient
/// error — the shape of `sync_all` failing with `Interrupted` after the
/// write went through — so the retry writes the whole batch again.
#[derive(Debug, Default)]
struct LandThenInterrupt {
    failed: bool,
}

impl LogIo for LandThenInterrupt {
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        StdIo.read(path)
    }
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        StdIo.append(path, bytes)?;
        if self.failed {
            return Ok(());
        }
        self.failed = true;
        Err(std::io::Error::from(std::io::ErrorKind::Interrupted))
    }
    fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        StdIo.replace(path, bytes)
    }
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        StdIo.rename(from, to)
    }
    fn exists(&mut self, path: &Path) -> bool {
        StdIo.exists(path)
    }
}

#[test]
fn a_retried_group_commit_that_landed_twice_recovers_once() {
    let dir = temp_dir("dupgroup");
    let path = dir.join("shard0.mpsl");
    let records = history(5);
    let (mut log, _) = ShardLog::open(LandThenInterrupt::default(), &path, 0, 0).unwrap();
    let mut batch = Batch::new();
    for (kind, link, payload) in &records {
        batch.push(*kind, *link, payload).unwrap();
    }
    log.commit(batch).unwrap();
    // A later commit extends the log past the duplicate.
    let mut next = Batch::new();
    next.push(RecordKind::Delta, 3, b"after").unwrap();
    log.commit(next).unwrap();

    let (rec, chains) = recover(&path, 0).unwrap();
    assert_eq!(
        (rec.records, rec.duplicates, rec.torn_bytes),
        (records.len() + 1, records.len(), 0)
    );
    let mut want = expected_chains(&records);
    want.get_mut(&3).unwrap().push(b"after".to_vec());
    assert_eq!(chains, want);
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: recovery used to reset the compaction counter while the
/// file still held every record, so a shard recovered more often than
/// every `compact_every` appends never compacted and its log grew
/// without bound.
#[test]
fn frequent_recovery_does_not_starve_compaction() {
    let dir = temp_dir("starve");
    let path = dir.join("shard0.mpsl");
    let compact_every = 4;
    let payload = [0x5Au8; 64];
    let (mut log, _) = ShardLog::open(StdIo, &path, 0, compact_every).unwrap();
    let mut birth = Batch::new();
    birth.push(RecordKind::Base, 1, &payload).unwrap();
    log.commit(birth).unwrap();
    let record = RECORD_OVERHEAD + payload.len();
    let mut max_len = 0usize;
    for _ in 0..40 {
        for _ in 0..compact_every - 1 {
            let mut batch = Batch::new();
            batch.push(RecordKind::Delta, 1, &payload).unwrap();
            log.commit(batch).unwrap();
            if log.compaction_due() {
                let mut bases = Batch::new();
                bases.push(RecordKind::Base, 1, &payload).unwrap();
                log.compact(bases).unwrap();
            }
            max_len = max_len.max(std::fs::metadata(&path).unwrap().len() as usize);
        }
        log.recover().unwrap();
    }
    // One base plus at most `compact_every` records before a compaction.
    assert!(
        max_len <= HEADER_LEN + (compact_every + 1) * record,
        "log grew to {max_len} bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_primary_header_falls_back_to_valid_bak() {
    let dir = temp_dir("bak");
    let path = dir.join("shard3.mpsl");
    let (mut log, _) = ShardLog::open(StdIo, &path, 3, 2).unwrap();
    let mut batch = Batch::new();
    batch.push(RecordKind::Base, 7, b"seven-v1").unwrap();
    batch.push(RecordKind::Base, 8, b"eight-v1").unwrap();
    log.commit(batch).unwrap();
    assert!(log.compaction_due());
    let mut bases = Batch::new();
    bases.push(RecordKind::Base, 7, b"seven-v2").unwrap();
    bases.push(RecordKind::Base, 8, b"eight-v2").unwrap();
    log.compact(bases).unwrap();
    // Smash the primary's magic.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let (rec, chains) = recover(&path, 3).unwrap();
    assert!(rec.used_bak, "recovery must use the .bak rotation");
    assert_eq!(chains[&7], vec![b"seven-v1".to_vec()]);
    assert_eq!(chains.len(), 2);
    // Recovery rewrote the primary; a further reopen is clean.
    let (rec3, chains3) = recover(&path, 3).unwrap();
    assert!(!rec3.used_bak);
    assert_eq!(chains3, chains);
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovers a shard-0 log from in-memory `primary` and `bak` files.
fn recover_pair(primary: &[u8], bak: &[u8]) -> (mpdf_fleet::LogRecovery, Chains) {
    let path = PathBuf::from("shard0.mpsl");
    let mut io = MemIo::default();
    io.files.insert(path.clone(), primary.to_vec());
    io.files
        .insert(PathBuf::from("shard0.mpsl.bak"), bak.to_vec());
    let (mut log, rec) = ShardLog::open(io, path, 0, 0).unwrap();
    let (_, image) = log.recover().unwrap();
    (rec, chains_of(&image))
}

/// Writes link 1's birth record, then compacts once per image; returns
/// the primary and `.bak` bytes.
fn compacted_log(dir: &Path, images: &[&[u8]]) -> (Vec<u8>, Vec<u8>) {
    let path = dir.join("shard0.mpsl");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(dir.join("shard0.mpsl.bak")).ok();
    let (mut log, _) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
    let mut birth = Batch::new();
    birth.push(RecordKind::Base, 1, b"birth").unwrap();
    log.commit(birth).unwrap();
    for image in images {
        let mut base = Batch::new();
        base.push(RecordKind::Base, 1, image).unwrap();
        log.compact(base).unwrap();
    }
    let primary = std::fs::read(&path).unwrap();
    let bak = std::fs::read(dir.join("shard0.mpsl.bak")).unwrap();
    (primary, bak)
}

/// A single-record log (the session demo's checkpoint) whose only record
/// is torn — or cut away at the header — recovers the previous
/// compaction's image from the `.bak`: never nothing.
#[test]
fn a_torn_only_record_recovers_the_bak_image() {
    let dir = temp_dir("torn_only");
    let (first, second) = (vec![0x11u8; 40], vec![0x22u8; 56]);
    let (primary, bak) = compacted_log(&dir, &[&first, &second]);
    assert_eq!(primary.len(), HEADER_LEN + RECORD_OVERHEAD + second.len());
    for cut in HEADER_LEN..=primary.len() {
        let (rec, chains) = recover_pair(&primary[..cut], &bak);
        let want = if cut == primary.len() {
            &second
        } else {
            &first
        };
        assert_eq!(
            chains,
            Chains::from([(1, vec![want.clone()])]),
            "cut {cut}: {rec:?}"
        );
        assert_eq!(rec.used_bak, cut < primary.len(), "cut {cut}");
        assert_eq!(rec.records, 1, "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The rule needs a `.bak` that holds a record: an empty one (what the
/// first compaction of a fresh log rotates out) is never used.
#[test]
fn a_bak_without_records_is_not_used() {
    let dir = temp_dir("empty_bak");
    let path = dir.join("shard0.mpsl");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(dir.join("shard0.mpsl.bak")).ok();
    let (mut log, _) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
    let mut base = Batch::new();
    base.push(RecordKind::Base, 1, &[0x33u8; 48]).unwrap();
    log.compact(base).unwrap();
    let primary = std::fs::read(&path).unwrap();
    let bak = std::fs::read(dir.join("shard0.mpsl.bak")).unwrap();
    assert_eq!(bak.len(), HEADER_LEN, "the .bak is the empty log");
    for cut in HEADER_LEN..primary.len() {
        let (rec, chains) = recover_pair(&primary[..cut], &bak);
        assert!(!rec.used_bak, "cut {cut}: an empty .bak was used");
        assert_eq!((rec.records, rec.torn_bytes), (0, cut - HEADER_LEN));
        assert!(chains.is_empty(), "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_and_truncated_header_files_are_typed_errors() {
    let dir = temp_dir("empty");
    for (name, contents) in [
        ("zero.mpsl", &[][..]),
        ("tiny.mpsl", &b"MPSL"[..]),
        ("garbage.mpsl", &b"not a log at all"[..]),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let err = ShardLog::open(StdIo, &path, 0, 0).unwrap_err();
        assert!(
            matches!(err, LogError::BadHeader(_)),
            "{name}: expected BadHeader, got {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn appends_after_torn_recovery_extend_a_clean_file() {
    let dir = temp_dir("extend");
    let records = history(16);
    let (path, _) = seeded_log(&dir, &records);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();

    let (mut log, rec) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
    assert!(rec.torn_bytes > 0);
    let mut batch = Batch::new();
    batch.push(RecordKind::Base, 9, b"nine").unwrap();
    log.commit(batch).unwrap();
    let (rec2, chains) = recover(&path, 0).unwrap();
    assert_eq!(rec2.torn_bytes, 0, "recovery rewrote the file cleanly");
    assert_eq!(chains.len(), 4);
    assert_eq!(chains[&9], vec![b"nine".to_vec()]);
    std::fs::remove_dir_all(&dir).ok();
}

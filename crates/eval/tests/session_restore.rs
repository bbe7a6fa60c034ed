//! Kill-and-restore determinism for the supervised session demo.
//!
//! A session killed mid-run and restored from its checkpoint must emit a
//! transcript whose concatenation with the killed run's output is
//! byte-identical to the uninterrupted run — at any worker thread count.
//! Scores are printed as raw `f64` bit patterns, so "identical" here
//! means 0 ULP, not printing precision.
//!
//! The checkpoint is a one-link shard log whose previous save is kept as
//! `.bak`: a primary truncated at any byte — below, at or past its
//! header — resumes one window earlier from the `.bak`, still on the
//! uninterrupted timeline; a damaged only-record with no usable `.bak`
//! is an error on every rerun, and an empty file and a garbage file are
//! errors, never a silent recalibration; a missing file calibrates.

use std::path::{Path, PathBuf};

use mpdf_eval::session::{run_session_demo, SessionDemoOptions};
use mpdf_eval::workload::CampaignConfig;
use mpdf_fleet::log::HEADER_LEN;

/// Primary cuts below, at and past the log header.
const CUTS: [usize; 4] = [0, 5, HEADER_LEN, 5000];

fn temp_checkpoint(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mpdf_session_restore_{}_{}.ckpt",
        std::process::id(),
        tag
    ))
}

fn bak_of(path: &Path) -> PathBuf {
    let mut bak = path.as_os_str().to_os_string();
    bak.push(".bak");
    PathBuf::from(bak)
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(bak_of(path));
}

fn try_run(cfg: &CampaignConfig, opts: &SessionDemoOptions) -> Result<String, String> {
    let mut buf = Vec::new();
    run_session_demo(cfg, opts, &mut buf)?;
    Ok(String::from_utf8(buf).expect("utf8 transcript"))
}

fn run(cfg: &CampaignConfig, opts: &SessionDemoOptions) -> String {
    try_run(cfg, opts).expect("session demo")
}

fn with_checkpoint(path: &Path, kill_after: Option<u64>) -> SessionDemoOptions {
    SessionDemoOptions {
        checkpoint: Some(path.to_path_buf()),
        kill_after,
    }
}

/// Copies the checkpoint at `from` (and its `.bak`) to `to`, keeping
/// only the first `len` bytes of the primary.
fn truncated_copy(from: &Path, to: &Path, len: usize) {
    let primary = std::fs::read(from).expect("read checkpoint");
    assert!(len < primary.len(), "truncation must drop bytes");
    std::fs::write(to, &primary[..len]).expect("write truncated checkpoint");
    std::fs::copy(bak_of(from), bak_of(to)).expect("copy .bak");
}

fn window_lines(transcript: &str) -> Vec<&str> {
    transcript
        .lines()
        .filter(|l| l.starts_with("window="))
        .collect()
}

#[test]
fn killed_and_restored_session_matches_uninterrupted_run() {
    let mut transcripts = Vec::new();
    for threads in [1usize, 4] {
        let cfg = CampaignConfig {
            threads,
            ..CampaignConfig::default()
        };
        let full = run(&cfg, &SessionDemoOptions::default());

        let ckpt = temp_checkpoint(&format!("t{threads}"));
        cleanup(&ckpt);
        let killed = run(&cfg, &with_checkpoint(&ckpt, Some(13)));
        assert!(
            killed
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("killed")),
            "killed run must end on a killed marker, got:\n{killed}"
        );
        // A torn primary: the save of window 12, kept as `.bak`, resumes.
        let torn = temp_checkpoint(&format!("t{threads}_torn"));
        truncated_copy(&ckpt, &torn, 5000);
        let from_bak = run(&cfg, &with_checkpoint(&torn, None));
        cleanup(&torn);
        assert!(
            from_bak.starts_with("resumed window=12\n"),
            "a truncated primary must resume from the .bak, got:\n{from_bak}"
        );
        assert_eq!(
            window_lines(&full)[12..],
            window_lines(&from_bak)[..],
            "threads={threads}: resume from the .bak diverged"
        );

        let resumed = run(&cfg, &with_checkpoint(&ckpt, None));
        cleanup(&ckpt);
        assert!(
            resumed.starts_with("resumed window=13"),
            "resume must pick up at the killed cursor, got:\n{resumed}"
        );

        let stitched: Vec<&str> = window_lines(&killed)
            .into_iter()
            .chain(window_lines(&resumed))
            .collect();
        assert_eq!(
            window_lines(&full),
            stitched,
            "threads={threads}: stitched kill+restore transcript diverged"
        );
        transcripts.push(full);
    }
    // The uninterrupted transcript must also be byte-identical across
    // worker thread counts.
    assert_eq!(
        transcripts[0], transcripts[1],
        "session transcript must not depend on threads"
    );
}

#[test]
fn damaged_or_foreign_checkpoints_are_errors_and_a_missing_one_calibrates() {
    let cfg = CampaignConfig::default();
    let ckpt = temp_checkpoint("damaged");
    let torn = temp_checkpoint("damaged_torn");
    cleanup(&ckpt);

    // A missing file calibrates.
    let first = run(&cfg, &with_checkpoint(&ckpt, Some(1)));
    assert!(first.starts_with("calibrated threshold="), "got:\n{first}");

    // One save: the `.bak` is the empty log the first save rotated out,
    // so a damaged primary has nothing to fall back to — and a rerun,
    // after the first open truncated the damage away, still refuses.
    for cut in CUTS {
        truncated_copy(&ckpt, &torn, cut);
        for attempt in 0..2 {
            let err = try_run(&cfg, &with_checkpoint(&torn, None)).unwrap_err();
            assert!(
                err.contains("no intact record"),
                "cut {cut} attempt {attempt}: {err}"
            );
        }
        cleanup(&torn);
    }

    // Neither does a garbage `.bak`.
    truncated_copy(&ckpt, &torn, 5000);
    std::fs::write(bak_of(&torn), b"garbage").unwrap();
    let err = try_run(&cfg, &with_checkpoint(&torn, None)).unwrap_err();
    assert!(err.contains("no intact record"), "got: {err}");
    cleanup(&torn);

    // Two saves: the `.bak` holds window 0's save, so every cut resumes
    // at window 1 on the timeline of the run that wrote it.
    cleanup(&ckpt);
    let killed = run(&cfg, &with_checkpoint(&ckpt, Some(2)));
    for cut in CUTS {
        truncated_copy(&ckpt, &torn, cut);
        let resumed = run(&cfg, &with_checkpoint(&torn, Some(1)));
        cleanup(&torn);
        assert!(
            resumed.starts_with("resumed window=1\n"),
            "cut {cut}: got:\n{resumed}"
        );
        assert_eq!(
            window_lines(&resumed),
            window_lines(&killed)[1..],
            "cut {cut}"
        );
    }
    cleanup(&ckpt);

    // Empty and garbage files are not checkpoints.
    for contents in [&[][..], &b"MPSC"[..], &b"definitely not a checkpoint"[..]] {
        std::fs::write(&ckpt, contents).unwrap();
        let err = try_run(&cfg, &with_checkpoint(&ckpt, None)).unwrap_err();
        assert!(err.contains("bad shard log header"), "got: {err}");
    }
    cleanup(&ckpt);
}

//! Golden digests of `repro all` and of the other run modes.
//!
//! Every figure and table of the reproduction must stay byte-identical
//! unless a change re-baselines it on purpose. This test runs
//! `repro --threads 2 --csvdir <tmp> all` and compares the CRC-64 of its
//! stdout and of each CSV against `GOLDEN_repro_all.txt` at the workspace
//! root; the stdout of `repro stream`, `repro --session` and
//! `repro fleet --chaos` is pinned the same way. It takes minutes in a
//! debug build, so it runs only in release:
//! `cargo test --release -p mpdf-eval --test repro_all_golden`.
//!
//! An intentional change to the output updates the golden file in the
//! same change, with the evidence that the figures still hold; on a
//! mismatch the test prints the new digest lines.

use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::Command;

use mpdf_fleet::log::crc64;

const GOLDEN: &str = include_str!("../../../GOLDEN_repro_all.txt");

/// The other run modes: golden line name and `repro` arguments. Each is
/// deterministic at any thread count and takes well under a second.
const MODES: [(&str, &[&str]); 3] = [
    ("mode:stream", &["stream", "--threads", "2"]),
    ("mode:session", &["--threads", "2", "--session"]),
    ("mode:fleet-chaos", &["fleet", "--threads", "2", "--chaos"]),
];

fn digest_line(name: &str, bytes: &[u8]) -> String {
    format!("{name} {:016x}", crc64(bytes))
}

/// Golden lines: non-empty, non-comment lines of the golden file.
fn golden_lines() -> impl Iterator<Item = &'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

fn is_mode_line(line: &str) -> bool {
    MODES
        .iter()
        .any(|(name, _)| line.split(' ').next() == Some(name))
}

fn run_repro<S: AsRef<OsStr> + std::fmt::Debug>(args: &[S]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; run with --release"
)]
fn repro_all_matches_the_golden_digest() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mpdf_repro_all_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = run_repro(&[
        OsStr::new("--threads"),
        OsStr::new("2"),
        OsStr::new("--csvdir"),
        dir.as_os_str(),
        OsStr::new("all"),
    ]);
    let mut actual = vec![digest_line("stdout", &stdout)];
    let mut csvs: Vec<_> = std::fs::read_dir(&dir)
        .expect("read csv dir")
        .map(|e| e.expect("csv dir entry").path())
        .collect();
    csvs.sort();
    for path in &csvs {
        let name = path.file_name().expect("file name").to_string_lossy();
        actual.push(digest_line(&name, &std::fs::read(path).expect("read csv")));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let expected: Vec<&str> = golden_lines().filter(|l| !is_mode_line(l)).collect();
    assert_eq!(
        actual,
        expected,
        "repro all drifted from GOLDEN_repro_all.txt; new digest:\n{}",
        actual.join("\n")
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in a debug build; run with --release")]
fn run_modes_match_their_golden_digests() {
    let actual: Vec<String> = MODES
        .iter()
        .map(|(name, args)| digest_line(name, &run_repro(args)))
        .collect();
    let expected: Vec<&str> = golden_lines().filter(|l| is_mode_line(l)).collect();
    assert_eq!(
        actual,
        expected,
        "run-mode stdout drifted from GOLDEN_repro_all.txt; new digest:\n{}",
        actual.join("\n")
    );
}

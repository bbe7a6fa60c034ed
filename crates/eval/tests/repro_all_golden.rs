//! Golden digest of `repro all`.
//!
//! Every figure and table of the reproduction must stay byte-identical
//! unless a change re-baselines it on purpose. This test runs
//! `repro --threads 2 --csvdir <tmp> all` and compares the CRC-64 of its
//! stdout and of each CSV against `GOLDEN_repro_all.txt` at the workspace
//! root. It takes minutes in a debug build, so it runs only in release:
//! `cargo test --release -p mpdf-eval --test repro_all_golden`.
//!
//! An intentional change to the output updates the golden file in the
//! same change, with the evidence that the figures still hold; on a
//! mismatch the test prints the new digest lines.

use std::path::PathBuf;
use std::process::Command;

use mpdf_fleet::log::crc64;

const GOLDEN: &str = include_str!("../../../GOLDEN_repro_all.txt");

fn digest_line(name: &str, bytes: &[u8]) -> String {
    format!("{name} {:016x}", crc64(bytes))
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
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--threads", "2", "--csvdir"])
        .arg(&dir)
        .arg("all")
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro all failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut actual = vec![digest_line("stdout", &out.stdout)];
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
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(
        actual,
        expected,
        "repro all drifted from GOLDEN_repro_all.txt; new digest:\n{}",
        actual.join("\n")
    );
}

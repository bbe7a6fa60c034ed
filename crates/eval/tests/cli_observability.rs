//! Every `repro` mode honours `--trace`, `--metrics` and `--trajectory`.
//!
//! The stream and fleet modes replace the experiment fan-out, so they
//! must still pass through the shared observability setup: each flag
//! writes a non-empty artifact (the metrics snapshot carrying stage
//! latencies), and stdout stays byte-identical to the flagless run.

use std::ffi::OsString;
use std::path::PathBuf;
use std::process::Command;

fn repro(args: &[OsString]) -> Vec<u8> {
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

fn check_mode(tag: &str, args: &[&str]) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mpdf_cli_obs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("trace.ndjson");
    let metrics = dir.join("metrics.json");
    let trajectory = dir.join("trajectory.ndjson");

    let plain: Vec<OsString> = args.iter().map(OsString::from).collect();
    let mut flagged = plain.clone();
    for (flag, path) in [
        ("--trace", &trace),
        ("--metrics", &metrics),
        ("--trajectory", &trajectory),
    ] {
        flagged.push(flag.into());
        flagged.push(path.into());
    }
    flagged.extend(["--traj-every".into(), "1".into()]);
    assert_eq!(
        String::from_utf8_lossy(&repro(&plain)),
        String::from_utf8_lossy(&repro(&flagged)),
        "{tag}: observability changed stdout"
    );
    for path in [&trace, &metrics, &trajectory] {
        let len = std::fs::metadata(path)
            .unwrap_or_else(|e| panic!("{tag}: {} not written: {e}", path.display()))
            .len();
        assert!(len > 0, "{tag}: {} is empty", path.display());
    }
    let snapshot = std::fs::read_to_string(&metrics).expect("read metrics");
    assert!(
        snapshot.contains("\"sum_ns\""),
        "{tag}: --metrics recorded no stage latencies"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_mode_writes_every_observability_artifact() {
    check_mode("stream", &["stream", "--episodes", "1"]);
}

#[test]
fn fleet_mode_writes_every_observability_artifact() {
    check_mode("fleet", &["fleet", "--links", "4", "--ticks", "3"]);
}

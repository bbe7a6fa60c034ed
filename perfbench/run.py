#!/usr/bin/env python3
"""Builds the perfbench package from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <campaign|stream|fleet_durable> \
        --seed <n> --seconds <s> --trace <0|1>

The package is built in release mode, offline, into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). Before the workload's own
output, one line stamps the run with the environment fingerprint: CPU
model, nproc, rustc version, git revision (or a hash of the source tree
when the checkout is not a git repository) and build profile. The last
stdout line is the workload's JSON result. A failed build exits non-zero
without a result.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROFILE = "release"


def run_quiet(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def tree_hash():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        base = ROOT / top
        if base.is_dir():
            files += [p for p in base.rglob("*") if p.is_file() and "target" not in p.parts]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fingerprint():
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": run_quiet(["rustc", "-V"]) or "unknown",
        "git_rev": run_quiet(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "tree": tree_hash(),
        "profile": PROFILE,
    }


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_FINGERPRINT"] = json.dumps(fingerprint(), sort_keys=True)
    sys.stdout.flush()
    bench = subprocess.run([str(target / PROFILE / "perfbench"), *sys.argv[1:]], cwd=ROOT, env=env)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())

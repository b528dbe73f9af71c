#!/usr/bin/env python3
"""Build and run the served-frame benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload whole-256 --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it from the repository root with the
same arguments. Build output goes to stderr; the benchmark's own output,
ending in one JSON result line, goes to stdout. The exit code is the
benchmark's, or the build's when the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_GLOBS = ("Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml",
                "perfbench/src/**/*.rs", "perfbench/Cargo.toml")


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in ROOT.glob(g) if p.is_file()})
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def commit_id():
    """The checkout's git commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_COMMIT"] = commit_id()
    env["PERFBENCH_SOURCE"] = source_digest()
    sys.stdout.flush()
    bench = subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]],
                           cwd=ROOT, env=env)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())

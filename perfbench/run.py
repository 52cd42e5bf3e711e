#!/usr/bin/env python3
"""Served-path benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload exam-durable --seed 1 --seconds 15 --trace 0

Builds the release `mine` binary and the load generator (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs one workload. The
load generator's last line of standard output is the JSON result; everything
before it is the run header, traffic record and checks. Build output goes
to standard error. See perfbench/README.md.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
# Seconds the load generator may take after the builds; it is killed (with every
# server it started) past this.
RUN_TIMEOUT = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build(target, *args):
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def output(*command):
    try:
        return subprocess.run(command, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def source_id():
    """The commit, or a digest of the sources when this is no git checkout."""
    commit = output("git", "rev-parse", "--short=12", "HEAD")
    if commit:
        return commit
    paths = []
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"]:
        full = os.path.join(ROOT, top)
        if os.path.isfile(full):
            paths.append(full)
        for base, dirs, files in os.walk(full):
            dirs[:] = [d for d in dirs if d != "target"]
            paths.extend(os.path.join(base, name) for name in files)
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    for needed in ["Cargo.toml", "crates/server", "src/bin/mine.rs"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"run from the repository root: {needed} is missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target, "--bin", "mine")
    build(target, "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    workload = args[args.index("--workload") + 1]
    command = [
        os.path.join(target, "release", "mine-perfbench"),
        *args,
        "--mine", os.path.join(target, "release", "mine"),
        "--work", os.path.join(ROOT, ".bench_work", workload),
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
        "--rustc", output("rustc", "--version") or "unknown",
        "--commit", source_id(),
    ]
    # A session of its own, so a timeout can stop the load generator and every
    # server it started.
    bench = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"error: load generator exceeded {RUN_TIMEOUT} s", file=sys.stderr)
        code = 1
    try:
        os.killpg(bench.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    bench.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()

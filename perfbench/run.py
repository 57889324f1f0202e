#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|anneal|serve --seed N \
        --seconds S --trace 0|1

The harness (``perfbench/harness``) is a Cargo package of its own that
depends on the repository's crates by path. It is built with
``cargo build --release --offline`` into ``$CARGO_TARGET_DIR`` (default
``.bench_build``). Build output goes to stderr; stdout carries the
harness's metadata line, extended here with the git revision, a digest
of the sources and ``rustc -V``, and then the result line.

Exits 0 only when every op verified. A checkout without the
repository's sources exits 2 before building anything.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "harness"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Everything the measured program is built from.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench/harness"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["sweep", "anneal", "serve"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seed >= 2**64:
        p.error("--seed must fit in a u64")
    if not 0 < a.seconds <= 3600:
        p.error("--seconds must be in (0, 3600]")
    return a


def source_digest():
    """SHA-256 over every source file the measured binary is built from."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "target" not in f.relative_to(ROOT).parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = parse_args()
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail("the repository's crates are not in this checkout; nothing to build", 2)

    env = dict(os.environ)
    target = pathlib.Path(os.path.abspath(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build"))
    env["CARGO_TARGET_DIR"] = str(target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HARNESS / "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build took longer than {BUILD_TIMEOUT_S} s")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run took longer than {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"harness exited {run.returncode} without a result")
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])

    meta["git_rev"] = capture(["git", "rev-parse", "HEAD"])
    meta["source_sha256"] = source_digest()
    meta["rustc"] = capture(["rustc", "-V"])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        result["correct"] = False

    for line in lines[:-2]:
        print(line)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    sys.exit(run.returncode if result["correct"] else max(run.returncode, 1))


if __name__ == "__main__":
    main()

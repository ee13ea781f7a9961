#!/usr/bin/env python3
"""Build the perfbench benchmark from source, run it, and append one record
to perfbench/history.jsonl.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark's standard output is passed through unchanged; its last line
is the JSON result. Cargo builds into $CARGO_TARGET_DIR (default
.bench_build at the repository root). The exit code is non-zero, and no
result is printed, if the build or the run fails.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "history.jsonl")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def command_output(cmd):
    """First line of a command's output, or "unknown" if it fails."""
    try:
        out = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout
        return out.strip().splitlines()[0] if out.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def tree_digest():
    """SHA-256 over the sources the benchmark builds, to compare like code
    where there is no git metadata."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    for top in tops:
        base = os.path.join(ROOT, top)
        files = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            files += [
                os.path.join(dirpath, f)
                for f in filenames
                if f.endswith((".rs", ".toml", ".lock", ".py", ".txt"))
            ]
        for path in sorted(files):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def pin_to_one_cpu():
    """Run the benchmark on one CPU of this process's affinity set.

    On a small shared VM, a process that keeps two vCPUs busy loses a
    large and varying share of them to the hypervisor (steal time), which
    moved job times by up to 2x between runs; on one vCPU it loses next to
    nothing. The simulator's results do not depend on the core count.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def append_history(args, stdout, result):
    parallelism = re.search(r"available_parallelism=(\d+)", stdout)
    record = {
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "args": args,
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "tree_digest": tree_digest(),
        "nproc": command_output(["nproc"]),
        "available_parallelism": int(parallelism.group(1)) if parallelism else None,
        "rustc": command_output(["rustc", "-V"]),
        "result": result,
    }
    try:
        with open(HISTORY, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as e:
        print(f"perfbench: history not written: {e}", file=sys.stderr)


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    # One glibc malloc arena: the memory high-water mark then reflects what
    # the program holds, not how the allocator spread its rank threads over
    # arenas (peak_rss_mb of one xpic_ckpt job read 256-389 MB across runs
    # with the default arenas and 223-234 MB with one).
    env["MALLOC_ARENA_MAX"] = "1"
    try:
        run = subprocess.run(
            [exe, *args, "--out-dir", os.path.join(HERE, "out")],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=pin_to_one_cpu,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(run.stdout)
        print("perfbench: no JSON result on the last line", file=sys.stderr)
        return 1
    append_history(args, run.stdout, result)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

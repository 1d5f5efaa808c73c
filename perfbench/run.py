#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

`--workload all` runs every workload in BENCHMARK.json in turn and ends with
one JSON object whose metric names carry a "<workload>." prefix. Run from
the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the library in src/) into
.bench_build/perfbench; later calls only rebuild what changed. The program
then runs under a deadline in its own process group: a run that crashes or
passes the deadline has the whole group killed and reaped and counts as
failed. Rendezvous directories and temporary files live under .bench_run/
and are removed after every run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
output check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_ROOT = ROOT / ".bench_run"
BINARY = BUILD_DIR / "perfbench"
# The program's own deadline. A run takes about --seconds plus a few
# seconds of set-up and checks; this leaves a wide margin under the
# 180-second limit a run must meet.
DEADLINE_S = float(os.environ.get("PERFBENCH_DEADLINE_S", "160"))


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/; run from a full checkout", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    with open(log, "w") as out:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                fail("cmake configure failed; see " + str(log), 3)
        cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", "4"]
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
            fail("build failed; see " + str(log), 3)


def source_digest():
    """sha256 over the library and benchmark sources: a revision stamp that
    works in checkouts without git metadata."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for p in sorted((ROOT / base).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def kill_group(pgid):
    """SIGKILLs a process group and waits until no member is left."""
    for _ in range(200):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return True
        except PermissionError:
            return False
        time.sleep(0.025)
    return False


def run_program(workload, args, run_dir):
    """Runs the program in its own session; returns (exit status, stdout,
    error or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", os.path.relpath(run_dir, ROOT)]
    if args.trace == 1:
        cmd += ["--spans-out", os.path.relpath(RUN_ROOT / f"spans-{workload}.csv", ROOT)]
    env = dict(os.environ, TMPDIR=str(run_dir))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    error = None
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        out, _ = proc.communicate()
        error = f"deadline of {DEADLINE_S:.0f} s passed; process group killed"
    # Reap anything the program left behind (mesh groups are in its group).
    if not kill_group(proc.pid):
        error = error or "could not stop every process of the run"
    if error is None and proc.returncode < 0:
        error = f"program died on signal {-proc.returncode}"
    return proc.returncode, out, error


def run_workload(workload, args):
    """Runs one workload, prints its report lines, returns its result."""
    RUN_ROOT.mkdir(exist_ok=True)
    run_dir = RUN_ROOT / f"r{os.getpid()}"
    run_dir.mkdir()
    try:
        code, out, error = run_program(workload, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    for line in lines:
        print(line)
    if code == 2 and result is None and error is None:
        fail("the program rejected its arguments", 2)
    if result is None or error is not None:
        print("FAILED: " + (error or f"program exited with status {code} without a result"))
        attempted = max(1, result["attempted"] if result else 1)
        result = {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}
    elif code != 0:
        result["correct"] = False
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    names = [args.workload]
    if args.workload == "all":
        names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    results = {}
    for name in names:
        if len(names) > 1:
            print("== " + name)
        results[name] = run_workload(name, args)
    print("provenance-source " + json.dumps({"src_sha256_16": source_digest()}))
    if len(names) == 1:
        result = results[names[0]]
    else:
        # One object for all workloads: metric names gain a "<workload>." prefix.
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

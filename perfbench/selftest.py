#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py [--seconds 2]

Run from the root of a checkout; takes a few minutes. Checks:
  1. BENCHMARK.json and every printed metric: names match [A-Za-z0-9_.-]+,
     every metric carries a unit, and each run prints exactly the metrics
     BENCHMARK.json lists for its mode.
  2. Count metrics repeat exactly across two traced runs of one seed, and
     the data-dependent ones change under another seed (the ones fixed by
     the schedule are listed, not required to change).
  3. In every traced run the layer self times plus sim.other_s sum to the
     traced step wall (sim.step_s).
  4. Failure paths: a run past its deadline exits non-zero, reports every
     attempted run as failed and leaves no process or rendezvous directory
     behind; a directory without the library sources exits non-zero without
     printing a result.
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Counts fixed by the schedule rather than by particle positions: they
# repeat under every seed unless a particle changes team, which happens
# rarely in short runs. They are still required to repeat exactly.
# transport_bytes belongs here: group 0 owns every team leader, so it sends
# every team's block each step and the total depends on n alone.
SCHEDULE_COUNTS = {"vmpi.ledger_messages", "vmpi.transport_frames", "vmpi.transport_bytes",
                   "vmpi.transport_retransmits", "core.migrants", "support.sched_steals"}
# Data-dependent counts: must repeat for one seed and change under another.
DATA_COUNTS = {"particles.pairs_examined", "particles.pairs_in_range",
               "particles.pairs_evaluated", "vmpi.ledger_bytes"}
# Layer self times that tile the traced step wall, with sim.other_s.
LAYER_SELF = ["particles.sweep_s", "particles.integrate_s", "vmpi.broadcast_s", "vmpi.skew_s",
              "vmpi.shift_s", "vmpi.reduce_s", "vmpi.transport_send_s",
              "vmpi.transport_recv_wait_s", "vmpi.wire_serialize_s", "vmpi.wire_deserialize_s",
              "core.reassign_s", "support.parallel_tasks_s", "sim.other_s"]


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def bench(workload, seed, seconds, trace, env=None, cwd=ROOT, cmd=None):
    proc = subprocess.run((cmd or RUN) + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stdout


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]] + list(expected[0]) + list(expected[1])
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "BENCHMARK.json names match [A-Za-z0-9_.-]+ and are unique")

    traced = {}
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            code, res, _ = bench(w, 1, args.seconds, trace)
            check(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
                  f"{w} --trace {trace}: exit 0, correct, no failed run")
            got = res["metrics"]
            check(set(got) == set(expected[trace]) and
                  all(NAME.match(k) and v["unit"] == expected[trace][k] for k, v in got.items()),
                  f"{w} --trace {trace}: prints every listed metric, each with its unit")
            if trace == 1:
                traced[w] = {k: v["value"] for k, v in got.items()}
                total = sum(traced[w][k] for k in LAYER_SELF)
                check(abs(total - traced[w]["sim.step_s"]) <= 1e-9 * traced[w]["sim.step_s"],
                      f"{w}: layer self times + sim.other_s = sim.step_s ({total:.9g})")

    for w in ("cutoff_uniform", "mesh_cutoff_g2"):
        again = {k: v["value"] for k, v in bench(w, 1, args.seconds, 1)[1]["metrics"].items()}
        other = {k: v["value"] for k, v in bench(w, 2, args.seconds, 1)[1]["metrics"].items()}
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
        check(all(traced[w][k] == again[k] for k in counts),
              f"{w}: every count metric repeats exactly for one seed")
        check(all(traced[w][k] != other[k] for k in DATA_COUNTS),
              f"{w}: data-dependent counts change under another seed ({', '.join(sorted(DATA_COUNTS))})")
        same = sorted(k for k in SCHEDULE_COUNTS if traced[w][k] == other[k])
        print(f"     {w}: schedule counts equal under both seeds: {', '.join(same) or 'none'}")

    # A deadline far shorter than the run: killed, counted, cleaned up.
    env = dict(os.environ, PERFBENCH_DEADLINE_S="1")
    code, res, _ = bench("mesh_cutoff_g2", 1, 30, 0, env=env)
    check(code != 0 and res is not None and not res["correct"] and res["failed"] == res["attempted"] > 0,
          "a run past its deadline exits non-zero and counts every attempted run as failed")
    left = subprocess.run(["pgrep", "-f", str(ROOT / ".bench_build" / "perfbench" / "perfbench")],
                          capture_output=True, text=True).stdout.split()
    run_root = ROOT / ".bench_run"
    dirs = [p for p in run_root.iterdir() if p.is_dir()] if run_root.exists() else []
    check(not left and not dirs, "no process and no rendezvous directory is left behind")

    # Only BENCHMARK.json and perfbench/: the program cannot be built.
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, res, out = bench("cutoff_uniform", 1, 1, 0, cwd=tmp,
                               cmd=[sys.executable, str(Path(tmp) / "perfbench" / "run.py")])
        check(code != 0 and res is None, "without the library sources: non-zero exit, no result")
    print("all self-tests passed")


if __name__ == "__main__":
    main()

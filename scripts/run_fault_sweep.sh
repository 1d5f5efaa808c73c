#!/usr/bin/env bash
# Build the fault-sweep bench and regenerate BENCH_faults.json at the repo
# root.
#
# Usage:
#     scripts/run_fault_sweep.sh [build-dir] [extra fault_sweep args...]
#
# The bench replays the paper's Fig 2b/2d panels under straggler, degraded-
# link, lossy, and combined fault scenarios (a fixed --fault-seed, so the
# JSON is reproducible) and records the per-c critical path plus retry and
# timeout counts. Its rows are virtual seconds from the cost model, so no
# architecture flag changes them.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-bench}"
shift || true

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" --target fault_sweep -j "$(nproc)"

"${build_dir}/bench/fault_sweep" \
    --out="${repo_root}/BENCH_faults.json" "$@"

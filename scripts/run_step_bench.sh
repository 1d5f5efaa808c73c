#!/usr/bin/env bash
# Build the end-to-end step-throughput bench (with the library's own
# flags, as users build the library) and regenerate BENCH_step.json at the
# repo root.
#
# Usage:
#     scripts/run_step_bench.sh [build-dir] [extra step_bench args...]
#
# The bench drives sim::Simulation (full timestep: staging collectives,
# force sweeps, reduce, integrate, re-assign) for the cutoff and all-pairs
# configurations at 1/4 host threads, and records host steps/sec per case
# plus the host's core count and CPU model. It also runs the socket-mesh
# arm first (owner-computes over forked process groups {2,4}; pass
# --socket-steps=0 to skip it).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-bench}"
shift || true

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" --target step_bench -j "$(nproc)"

"${build_dir}/bench/step_bench" \
    --out="${repo_root}/BENCH_step.json" "$@"

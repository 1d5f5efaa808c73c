// Kernel-engine throughput bench: pairs/sec for every force kernel at
// n in {64, 256, 1024, 4096} across the host sweep arms, emitted as JSON so
// the perf trajectory is recorded (BENCH_kernels.json at the repo root),
// not asserted from memory. This measures HOST time — the quantity the
// batched engine is allowed to change — never virtual machine time.
//
// Arms per (kernel, n):
//   scalar          the reference AoS double-loop
//   batched_full    batched engine, full N^2 sweep (the pre-N3L path)
//   batched         batched engine, N3L half-sweep (the default)
//   batched_<simd>  half-sweep pinned to one SIMD backend (lane-pipeline
//                   kernels only; exact paths are bitwise identical, so
//                   their checksums must agree)
//   batched_fast    half-sweep + the opt-in rsqrt fast path (inverse-cube
//                   kernels only; checksum may differ in the last bits)
//
// Every arm reports a force checksum (sum of |fx| + |fy| after one sweep,
// %.17g): equal checksums across arms demonstrate the bitwise contract on
// the exact paths; the fast arm documents how far it strays.
//
//   ./bench/kernel_engines_bench --out=BENCH_kernels.json --min-ms=150
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "particles/batched_engine.hpp"
#include "particles/cell_list.hpp"
#include "particles/init.hpp"
#include "particles/kernels.hpp"
#include "particles/simd/simd.hpp"
#include "support/cli.hpp"

namespace {

using namespace canb;
using particles::Box;
using particles::KernelEngine;
namespace simd = particles::simd;

volatile double g_sink = 0.0;  ///< defeats dead-code elimination of the sweeps

struct Arm {
  std::string name;
  double pairs_per_sec = 0.0;
  double checksum = 0.0;  ///< sum |fx| + |fy| after one sweep from rest
};

struct Measurement {
  std::string kernel;
  int n = 0;
  std::vector<Arm> arms;

  const Arm* find(const std::string& name) const {
    for (const auto& a : arms)
      if (a.name == name) return &a;
    return nullptr;
  }
  double speedup() const {
    const Arm* s = find("scalar");
    const Arm* b = find("batched");
    return (s != nullptr && b != nullptr && s->pairs_per_sec > 0.0)
               ? b->pairs_per_sec / s->pairs_per_sec
               : 0.0;
  }
};

/// One sweep configuration under measurement.
struct ArmConfig {
  KernelEngine engine = KernelEngine::Batched;
  particles::SweepTuning tuning{};
  simd::Backend backend = simd::max_supported();
  bool fast_rsqrt = false;
};

/// Runs the sweep repeatedly until `min_ms` of wall time accumulates (after
/// one warmup iteration) and returns the best pairs/sec over `repeats`
/// timed windows — the google-benchmark convention, hand-rolled so this
/// driver can emit its own JSON.
template <class K>
Arm measure_arm(std::string name, const K& kernel, int n, const ArmConfig& arm, double min_ms,
                int repeats) {
  const Box box = Box::reflective_2d(1.0);
  auto ps = particles::init_uniform(n, box, 1);
  const auto pairs_per_iter = static_cast<double>(n) * static_cast<double>(n - 1);
  simd::set_backend(arm.backend);
  simd::set_fast_rsqrt(arm.fast_rsqrt);
  particles::SweepScratch scratch;
  const auto run_once = [&] {
    particles::clear_forces(ps);
    const auto count = particles::accumulate_forces_with(
        arm.engine, std::span<particles::Particle>(ps), std::span<const particles::Particle>(ps),
        box, kernel, 0.0, &scratch, arm.tuning);
    g_sink = g_sink + static_cast<double>(count.within_cutoff) + static_cast<double>(ps[0].fx);
  };
  run_once();  // warmup: faults pages, primes caches and the SoA scratch

  Arm out;
  out.name = std::move(name);
  for (const auto& p : ps) out.checksum += std::fabs(static_cast<double>(p.fx)) +
                                           std::fabs(static_cast<double>(p.fy));
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    long iters = 0;
    double elapsed = 0.0;
    do {
      run_once();
      ++iters;
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (elapsed * 1e3 < min_ms);
    out.pairs_per_sec =
        std::max(out.pairs_per_sec, static_cast<double>(iters) * pairs_per_iter / elapsed);
  }
  simd::set_fast_rsqrt(false);
  return out;
}

/// Cell-list cutoff sweep over a resident SoaBlock — the path the serial
/// reference and the spatial baselines run under a cutoff. Pairs/sec counts
/// applied (in-cutoff) pair interactions; the scalar and batched paths
/// apply identical pair sets by construction, and the checksum (forces
/// after one sweep from rest, as for the whole-block arms) shows they
/// agree.
template <class K>
Arm measure_cell_list_arm(std::string name, const K& kernel, int n, double cutoff,
                          KernelEngine engine, double min_ms, int repeats) {
  const Box box = Box::reflective_2d(1.0);
  particles::SoaBlock ps(particles::init_uniform(n, box, 1));
  particles::SweepScratch scratch;
  double pairs_per_iter = 0.0;
  const auto run_once = [&] {
    ps.clear_forces();
    const auto applied =
        particles::cell_list_forces(ps, box, kernel, cutoff, engine, &scratch);
    pairs_per_iter = static_cast<double>(applied);
    g_sink = g_sink + static_cast<double>(applied) + ps.fx[0];
  };
  run_once();  // warmup: faults pages, primes caches and the SoA scratch

  Arm out;
  out.name = std::move(name);
  for (std::size_t i = 0; i < ps.size(); ++i)
    out.checksum += std::fabs(ps.fx[i]) + std::fabs(ps.fy[i]);
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    long iters = 0;
    double elapsed = 0.0;
    do {
      run_once();
      ++iters;
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (elapsed * 1e3 < min_ms);
    out.pairs_per_sec =
        std::max(out.pairs_per_sec, static_cast<double>(iters) * pairs_per_iter / elapsed);
  }
  return out;
}

template <class K>
Measurement measure_cell_list(const std::string& name, const K& kernel, int n, double cutoff,
                              double min_ms, int repeats) {
  Measurement m;
  m.kernel = name;
  m.n = n;
  m.arms.push_back(
      measure_cell_list_arm("scalar", kernel, n, cutoff, KernelEngine::Scalar, min_ms, repeats));
  m.arms.push_back(measure_cell_list_arm("batched", kernel, n, cutoff, KernelEngine::Batched,
                                         min_ms, repeats));
  return m;
}

/// `lanes`: the kernel has a SIMD lane pipeline, so pin each backend in
/// turn. `fast`: the kernel routes through inv_cube_lanes, so the opt-in
/// rsqrt arm is meaningful.
template <class K>
Measurement measure(const std::string& name, const K& kernel, int n, double min_ms, int repeats,
                    bool lanes, bool fast) {
  Measurement m;
  m.kernel = name;
  m.n = n;
  {
    ArmConfig scalar;
    scalar.engine = KernelEngine::Scalar;
    m.arms.push_back(measure_arm("scalar", kernel, n, scalar, min_ms, repeats));
  }
  ArmConfig batched;  // defaults: widest backend, exact arithmetic
  batched.tuning.half_sweep = false;
  m.arms.push_back(measure_arm("batched_full", kernel, n, batched, min_ms, repeats));
  batched.tuning.half_sweep = true;
  m.arms.push_back(measure_arm("batched", kernel, n, batched, min_ms, repeats));
  if (lanes) {
    for (int b = 0; b <= static_cast<int>(simd::max_supported()); ++b) {
      ArmConfig pinned = batched;
      pinned.backend = static_cast<simd::Backend>(b);
      m.arms.push_back(measure_arm(std::string("batched_") + simd::backend_name(pinned.backend),
                                   kernel, n, pinned, min_ms, repeats));
    }
  }
  if (fast) {
    ArmConfig fastarm = batched;
    fastarm.fast_rsqrt = true;
    m.arms.push_back(measure_arm("batched_fast", kernel, n, fastarm, min_ms, repeats));
  }
  return m;
}

void write_json(const std::string& path, const std::vector<Measurement>& ms, double min_ms,
                int repeats) {
  obs::RunManifest manifest;
  manifest.machine = "host";
  manifest.set("min_ms", min_ms)
      .set("repeats", repeats)
      .set("simd_max", simd::backend_name(simd::max_supported()));
  obs::BenchJsonWriter out(path, "kernel_engines", "pairs_per_sec", manifest);
  for (const auto& m : ms) {
    out.row([&](obs::JsonWriter& w) {
      w.kv("kernel", m.kernel).kv("n", m.n);
      for (const auto& a : m.arms) w.kv(a.name, a.pairs_per_sec);
      w.kv("speedup", m.speedup());
      char buf[40];
      for (const auto& a : m.arms) {
        std::snprintf(buf, sizeof buf, "%.17g", a.checksum);
        w.kv("checksum_" + a.name, std::string(buf));
      }
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"out", "min-ms", "repeats"});
  const std::string out_path = args.get("out", "BENCH_kernels.json");
  const double min_ms = args.get_double("min-ms", 150.0);
  const int repeats = static_cast<int>(args.get_int("repeats", 3));
  const simd::Backend saved_backend = simd::active();

  std::vector<Measurement> ms;
  for (const int n : {64, 256, 1024, 4096}) {
    ms.push_back(measure("InverseSquare", particles::InverseSquareRepulsion{1e-4, 1e-2}, n,
                         min_ms, repeats, /*lanes=*/true, /*fast=*/true));
    ms.push_back(measure("Gravity", particles::Gravity{1e-4, 1e-2}, n, min_ms, repeats,
                         /*lanes=*/true, /*fast=*/true));
    ms.push_back(measure("LennardJones", particles::LennardJones{1e-6, 0.05}, n, min_ms, repeats,
                         /*lanes=*/false, /*fast=*/false));
    ms.push_back(measure("Yukawa", particles::Yukawa{1e-3, 0.1, 1e-2}, n, min_ms, repeats,
                         /*lanes=*/true, /*fast=*/false));
    ms.push_back(measure("Morse", particles::Morse{1e-4, 8.0, 0.1}, n, min_ms, repeats,
                         /*lanes=*/true, /*fast=*/false));
    ms.push_back(measure("SoftSphere", particles::SoftSphere{5.0, 0.06}, n, min_ms, repeats,
                         /*lanes=*/false, /*fast=*/false));
  }
  simd::set_backend(saved_backend);
  // The cell-list cutoff sweep (resident SoaBlock, rc = 0.1): the gather-by-
  // index-list path every cutoff method's host loop runs, as opposed to the
  // whole-block sweeps above.
  for (const int n : {1024, 4096, 16384}) {
    ms.push_back(measure_cell_list("InverseSquareCellList",
                                   particles::InverseSquareRepulsion{1e-4, 1e-2}, n, 0.1,
                                   min_ms, repeats));
  }

  write_json(out_path, ms, min_ms, repeats);
  std::cout << "kernel            n      arm             pairs/sec     checksum\n";
  for (const auto& m : ms) {
    for (const auto& a : m.arms) {
      std::printf("%-17s %-6d %-15s %-13.4g %.17g\n", m.kernel.c_str(), m.n, a.name.c_str(),
                  a.pairs_per_sec, a.checksum);
    }
    if (m.find("batched") != nullptr && m.find("scalar") != nullptr)
      std::printf("%-17s %-6d batched/scalar speedup: %.2fx\n", m.kernel.c_str(), m.n,
                  m.speedup());
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

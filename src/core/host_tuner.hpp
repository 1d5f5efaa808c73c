// Host-side sweep autotuning.
//
// core::Autotuner picks the replication factor c by evaluating candidate
// schedules on the *virtual* machine model. HostTuner is its host-side
// sibling: it picks the knobs that change only host wall time — the SIMD
// backend of the resident force sweep (particles/sweep.hpp), the host
// thread count, and the task scheduler — by timing that sweep on real
// SoaBlocks. Nothing here reads or writes the virtual cost model; every
// backend of the sweep is bitwise identical, so applying any choice this
// tuner makes leaves ledgers, traces, and trajectories unchanged.
//
// Decisions persist to a small JSON cache keyed by CPU + build
// (TuningCache), so repeat runs skip the calibration; a key mismatch
// silently discards the file rather than applying another machine's
// numbers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "machine/machine_model.hpp"
#include "particles/init.hpp"
#include "particles/kernels.hpp"
#include "particles/simd/simd.hpp"
#include "particles/soa_block.hpp"
#include "particles/sweep.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace canb::core {

/// One persisted tuning decision for a (kernel, block size, distribution)
/// on this machine + build.
struct HostTuneEntry {
  std::string kernel;
  std::uint64_t n = 0;
  int threads = 1;
  std::string backend = "scalar";
  /// Host scheduler over per-rank/per-cell tasks: "static" or "stealing"
  /// (support/parallel.hpp). Execution order only — results are bitwise
  /// identical either way, so applying a cached value is always safe.
  std::string sched = "static";
  int steal_grain = 1;  ///< tasks clipped per steal under "stealing"
  /// Workload shape the entry was calibrated on ("uniform", "plummer",
  /// "ring", "clusters"): clustered inputs pick different schedulers than
  /// uniform ones, so the cache keys on it.
  std::string distribution = "uniform";
  double pairs_per_sec = 0.0;  ///< measured throughput of the choice
};

/// The JSON tuning cache. Format (docs/TUNING.md):
///   { "schema": "canb-host-tuning-v3", "machine": "...", "build": "...",
///     "entries": [ { "kernel": ..., "n": ..., ... } ] }
/// Older files (v1: no scheduler/distribution fields; v2: engine, tile,
/// half-sweep and inline-lane knobs) fail the schema check and are
/// discarded whole — the cost is one re-tune, never a misapplied knob.
class TuningCache {
 public:
  static constexpr const char* kSchema = "canb-host-tuning-v3";

  /// CPU identity: /proc/cpuinfo model name (or "unknown-cpu") plus the
  /// widest SIMD backend, so a binary migrated to a narrower machine
  /// re-tunes instead of requesting unsupported lanes.
  static std::string machine_key();
  /// Compiler identity (__VERSION__ + pointer width): a rebuild with a
  /// different toolchain re-tunes.
  static std::string build_key();

  /// Loads `path`. A missing file, a parse problem, or a schema/machine/
  /// build key mismatch all yield an EMPTY cache carrying the current
  /// keys — stale or foreign entries are never applied.
  static TuningCache load_or_empty(const std::string& path);

  /// Writes the cache as JSON; false on I/O failure.
  bool save(const std::string& path) const;

  const HostTuneEntry* find(std::string_view kernel, std::uint64_t n,
                            std::string_view distribution = "uniform") const;
  /// Upserts by (kernel, n, distribution).
  void put(HostTuneEntry e);

  const std::vector<HostTuneEntry>& entries() const noexcept { return entries_; }
  const std::string& machine() const noexcept { return machine_; }
  const std::string& build() const noexcept { return build_; }

 private:
  std::string machine_ = machine_key();
  std::string build_ = build_key();
  std::vector<HostTuneEntry> entries_;
};

/// A tuning decision in applied form. The caller is responsible for
/// installing it (simd::set_backend, host pool size and scheduler) — the
/// tuner itself restores all global state after calibration.
struct HostTuneChoice {
  particles::simd::Backend backend = particles::simd::Backend::Scalar;
  int threads = 1;
  /// Scheduler for the host pool's task loops. Advisory like `threads`:
  /// the caller installs it on the pool it attaches (set_sched_mode /
  /// set_steal_grain). Never changes results, only execution order.
  SchedMode sched = SchedMode::kStatic;
  int steal_grain = 1;
  double pairs_per_sec = 0.0;
  bool from_cache = false;
};

HostTuneChoice choice_from_entry(const HostTuneEntry& e);
HostTuneEntry entry_from_choice(std::string kernel, std::uint64_t n, std::string distribution,
                                const HostTuneChoice& c);

/// Bridges host calibration into the virtual cost model: replaces the
/// model's per-interaction compute constant with the measured sweep rate,
/// gamma = 1 / pairs_per_sec. With this, core::Autotuner's c-choice weighs
/// communication against the compute throughput this machine actually
/// delivers instead of the preset's nominal constant. Returns `model`
/// unchanged when the choice carries no measurement.
machine::MachineModel with_measured_gamma(machine::MachineModel model,
                                          const HostTuneChoice& choice);

template <particles::ForceKernel K>
class HostTuner {
 public:
  struct Config {
    particles::Box box = particles::Box::reflective_2d(1.0);
    K kernel{};
    double cutoff = 0.0;
    std::uint64_t n = 1024;        ///< representative per-block particle count
    double sample_seconds = 0.01;  ///< min measured wall time per candidate
    int max_threads = 0;           ///< thread candidates up to this (0 = hardware)
    std::uint64_t seed = 1234;     ///< calibration particle placement
    /// Workload shape to calibrate on: "uniform" (default), "plummer",
    /// "ring", or "clusters". Shapes the calibration block AND the skew of
    /// the scheduler trial's per-task loads, and keys the cache entry.
    std::string distribution = "uniform";
  };

  struct Candidate {
    std::string name;  ///< "sweep/<backend>", e.g. "sweep/avx2"
    HostTuneChoice choice;
  };

  struct Result {
    HostTuneChoice best;
    /// Every sweep candidate measured, in trial order; empty when the
    /// result was served from a cache.
    std::vector<Candidate> candidates;
  };

  explicit HostTuner(Config cfg) : cfg_(std::move(cfg)) {
    CANB_REQUIRE(cfg_.n >= 2, "host tuner needs at least 2 particles");
    cfg_.box.validate();
  }

  /// Runs the calibration sweep. Global SIMD dispatch state is saved and
  /// restored; the returned choice is NOT installed.
  Result tune() const {
    namespace simd = particles::simd;
    const simd::Backend saved_backend = simd::active();

    particles::SoaBlock block(make_block(static_cast<int>(cfg_.n)));
    const double pairs = static_cast<double>(cfg_.n) * static_cast<double>(cfg_.n - 1);

    // One candidate per SIMD backend of the resident sweep.
    Result result;
    double best = -1.0;
    for (int b = 0; b <= static_cast<int>(simd::max_supported()); ++b) {
      HostTuneChoice c;
      c.backend = static_cast<simd::Backend>(b);
      c.pairs_per_sec = pairs / time_sweep(block, c.backend);
      if (best < 0.0 || c.pairs_per_sec > best) {
        best = c.pairs_per_sec;
        result.best = c;
      }
      result.candidates.push_back({std::string("sweep/") + simd::backend_name(c.backend), c});
    }

    result.best.threads = tune_threads(result.best);
    tune_sched(result.best);

    simd::set_backend(saved_backend);
    return result;
  }

  /// Cache-aware entry point. When `force` is false and the cache holds an
  /// entry for (kernel, n), that entry is returned without measuring;
  /// otherwise a calibration runs and its winner is upserted into `cache`
  /// (the caller persists it with TuningCache::save).
  Result tune_with_cache(TuningCache& cache, bool force = false) const {
    if (!force) {
      if (const HostTuneEntry* e = cache.find(K::kName, cfg_.n, cfg_.distribution)) {
        Result r;
        r.best = choice_from_entry(*e);
        return r;
      }
    }
    Result r = tune();
    cache.put(entry_from_choice(K::kName, cfg_.n, cfg_.distribution, r.best));
    return r;
  }

  const Config& config() const noexcept { return cfg_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Calibration particles shaped per Config::distribution. Unknown names
  /// fall back to uniform (the tuner must never fail a run over a label).
  particles::Block make_block(int n) const {
    if (cfg_.distribution == "plummer")
      return particles::init_plummer(n, cfg_.box, 0.1, cfg_.seed);
    if (cfg_.distribution == "ring")
      return particles::init_ring(n, cfg_.box, 0.35, 0.05, cfg_.seed);
    if (cfg_.distribution == "clusters")
      return particles::init_clusters(n, cfg_.box, 4, 0.05, cfg_.seed);
    return particles::init_uniform(n, cfg_.box, cfg_.seed);
  }

  /// One resident sweep of a block against itself (forces accumulate
  /// across calls; only the timing matters here).
  void sweep_self(particles::SoaBlock& block) const {
    particles::sweep_blocks(block, block, cfg_.box, cfg_.kernel, cfg_.cutoff);
  }

  /// Seconds per self-sweep of the calibration block on `backend`
  /// (installed for the duration of the measurement).
  double time_sweep(particles::SoaBlock& block, particles::simd::Backend backend) const {
    particles::simd::set_backend(backend);
    return time_call([&] { sweep_self(block); }, cfg_.sample_seconds);
  }

  /// Picks the host thread count: R independent block sweeps (the engines'
  /// per-rank loop shape) across a pool of T threads, for T in powers of
  /// two up to max_threads. Serial wins on a serial machine.
  int tune_threads(const HostTuneChoice& sweep_choice) const {
    int hw = cfg_.max_threads;
    if (hw <= 0) hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw <= 1) return 1;
    particles::simd::set_backend(sweep_choice.backend);

    const int blocks = std::max(4, 2 * hw);
    // Smaller per-rank blocks keep the thread calibration cheap; relative
    // scaling, not absolute throughput, is what this measurement ranks.
    const int bn = static_cast<int>(std::min<std::uint64_t>(cfg_.n, 512));
    std::vector<particles::SoaBlock> ranks;
    ranks.reserve(static_cast<std::size_t>(blocks));
    for (int r = 0; r < blocks; ++r)
      ranks.emplace_back(particles::init_uniform(bn, cfg_.box, cfg_.seed + 7919u * (r + 1)));

    int best_t = 1;
    double best_rate = -1.0;
    for (int t = 1; t <= hw; t = t < hw && 2 * t > hw ? hw : 2 * t) {
      ThreadPool pool(t);
      const auto call = [&] {
        pool.parallel_for_chunks(0, blocks, [&](int b, int e) {
          for (int r = b; r < e; ++r) sweep_self(ranks[static_cast<std::size_t>(r)]);
        });
      };
      const double sec = time_call(call, cfg_.sample_seconds);
      const double rate = 1.0 / sec;
      if (rate > best_rate) {
        best_rate = rate;
        best_t = t;
      }
    }
    return best_t;
  }

  /// Picks the scheduler (static vs stealing, and the steal grain) by
  /// timing parallel_tasks over x-slab sub-blocks of a distribution-shaped
  /// workload — the same task shape and cost-hint skew the engines submit.
  /// Serial pools keep the static default: there is nobody to steal from.
  void tune_sched(HostTuneChoice& choice) const {
    choice.sched = SchedMode::kStatic;
    choice.steal_grain = 1;
    if (choice.threads <= 1) return;
    particles::simd::set_backend(choice.backend);

    const int tasks = std::max(8, 4 * choice.threads);
    const int total = static_cast<int>(std::min<std::uint64_t>(cfg_.n * 4, 8192));
    const particles::Block all = make_block(std::max(total, 2 * tasks));
    // Slab split along x: clustered distributions concentrate most
    // particles (hence ~quadratic sweep cost) in a few slabs, which is
    // exactly the imbalance stealing exists to absorb.
    std::vector<particles::SoaBlock> slabs(static_cast<std::size_t>(tasks));
    for (const particles::Particle& p : all) {
      int s = static_cast<int>(static_cast<double>(p.px) / cfg_.box.lx *
                               static_cast<double>(tasks));
      slabs[static_cast<std::size_t>(std::clamp(s, 0, tasks - 1))].push_back(p);
    }
    std::vector<double> cost(static_cast<std::size_t>(tasks));
    for (int t = 0; t < tasks; ++t) {
      const double ns = static_cast<double>(slabs[static_cast<std::size_t>(t)].size());
      cost[static_cast<std::size_t>(t)] = ns * ns;
    }
    ThreadPool pool(choice.threads);
    const auto rate_of = [&](SchedMode mode, int grain) {
      pool.set_sched_mode(mode);
      pool.set_steal_grain(grain);
      const auto call = [&] {
        pool.parallel_tasks(
            tasks, [&](int t, int) { sweep_self(slabs[static_cast<std::size_t>(t)]); },
            cost.data());
      };
      return 1.0 / time_call(call, cfg_.sample_seconds);
    };

    double best = rate_of(SchedMode::kStatic, 1);
    for (const int grain : {1, 2, 4}) {
      const double rate = rate_of(SchedMode::kStealing, grain);
      if (rate > best) {
        best = rate;
        choice.sched = SchedMode::kStealing;
        choice.steal_grain = grain;
      }
    }
  }

  template <class F>
  static double time_call(const F& f, double min_seconds) {
    f();  // warm caches and code
    int reps = 1;
    for (;;) {
      const auto t0 = Clock::now();
      for (int i = 0; i < reps; ++i) f();
      const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
      if (dt >= min_seconds) return dt / reps;
      const int grown = dt <= 0.0 ? reps * 8
                                  : static_cast<int>(static_cast<double>(reps) *
                                                     (min_seconds / dt) * 1.25) +
                                        1;
      reps = std::min(grown, reps * 16);
    }
  }

  Config cfg_;
};

}  // namespace canb::core

// TuningCache persistence and HostTuner calibration contracts
// (core/host_tuner.hpp): the cache round-trips exactly, any mismatch —
// schema, machine, build, or plain corruption — discards the file instead
// of applying foreign numbers, and a calibration run ranks real candidates,
// never leaks SIMD dispatch state, and is skipped entirely on a cache hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/host_tuner.hpp"
#include "particles/kernels.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace canb;
using core::HostTuneChoice;
using core::HostTuneEntry;
using core::HostTuner;
using core::TuningCache;
namespace simd = particles::simd;

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

HostTuneEntry sample_entry() {
  HostTuneEntry e;
  e.kernel = "inverse_square";
  e.n = 1024;
  e.threads = 4;
  e.backend = "sse2";
  e.sched = "stealing";
  e.steal_grain = 2;
  e.distribution = "plummer";
  e.pairs_per_sec = 3.0517578125e8;
  return e;
}

// --- cache persistence -----------------------------------------------------

TEST(TuningCache, KeysAreStableAndDescriptive) {
  EXPECT_EQ(TuningCache::machine_key(), TuningCache::machine_key());
  EXPECT_EQ(TuningCache::build_key(), TuningCache::build_key());
  EXPECT_NE(TuningCache::machine_key().find(simd::backend_name(simd::max_supported())),
            std::string::npos);
  EXPECT_FALSE(TuningCache::build_key().empty());
}

TEST(TuningCache, MissingFileYieldsEmptyCacheWithCurrentKeys) {
  const TuningCache cache = TuningCache::load_or_empty(temp_path("does_not_exist.json"));
  EXPECT_TRUE(cache.entries().empty());
  EXPECT_EQ(cache.machine(), TuningCache::machine_key());
  EXPECT_EQ(cache.build(), TuningCache::build_key());
}

TEST(TuningCache, SaveLoadRoundTripsEveryField) {
  const std::string path = temp_path("tuning_roundtrip.json");
  TuningCache cache;
  HostTuneEntry a = sample_entry();
  a.pairs_per_sec = 123456789.0123456;  // %.17g must round-trip doubles exactly
  HostTuneEntry b = sample_entry();
  b.kernel = "yukawa";
  b.n = 64;
  b.threads = 1;
  b.backend = "avx2";
  b.sched = "static";
  b.steal_grain = 1;
  b.distribution = "uniform";
  cache.put(a);
  cache.put(b);
  ASSERT_TRUE(cache.save(path));

  const TuningCache loaded = TuningCache::load_or_empty(path);
  ASSERT_EQ(loaded.entries().size(), 2u);
  for (const HostTuneEntry& want : {a, b}) {
    const HostTuneEntry* got = loaded.find(want.kernel, want.n, want.distribution);
    ASSERT_NE(got, nullptr) << want.kernel;
    EXPECT_EQ(got->threads, want.threads);
    EXPECT_EQ(got->backend, want.backend);
    EXPECT_EQ(got->sched, want.sched);
    EXPECT_EQ(got->steal_grain, want.steal_grain);
    EXPECT_EQ(got->distribution, want.distribution);
    EXPECT_EQ(got->pairs_per_sec, want.pairs_per_sec);
  }
  EXPECT_EQ(loaded.find("inverse_square", 999), nullptr);
  // The cache keys on distribution too: same (kernel, n) under a different
  // workload shape is a different entry.
  EXPECT_EQ(loaded.find("inverse_square", 1024, "uniform"), nullptr);
  std::remove(path.c_str());
}

TEST(TuningCache, PutUpsertsByKernelSizeAndDistribution) {
  TuningCache cache;
  cache.put(sample_entry());
  HostTuneEntry updated = sample_entry();
  updated.backend = "avx2";
  updated.pairs_per_sec = 9e8;
  cache.put(updated);
  ASSERT_EQ(cache.entries().size(), 1u);
  EXPECT_EQ(cache.entries()[0].backend, "avx2");

  HostTuneEntry other = sample_entry();
  other.n = 2048;
  cache.put(other);
  EXPECT_EQ(cache.entries().size(), 2u);

  HostTuneEntry shaped = sample_entry();
  shaped.distribution = "uniform";  // same kernel + n, new workload shape
  cache.put(shaped);
  EXPECT_EQ(cache.entries().size(), 3u);
}

TEST(TuningCache, CorruptFileYieldsEmptyCache) {
  const std::string path = temp_path("tuning_corrupt.json");
  for (const char* text : {"", "{ not json at all", "[1,2,3]",
                           "{\"schema\": \"canb-host-tuning-v3\", \"entries\": 7}"}) {
    spit(path, text);
    const TuningCache cache = TuningCache::load_or_empty(path);
    EXPECT_TRUE(cache.entries().empty()) << "text: " << text;
    EXPECT_EQ(cache.machine(), TuningCache::machine_key());
  }
  std::remove(path.c_str());
}

TEST(TuningCache, V1SchemaFileIsDiscardedWhole) {
  // A pre-scheduler cache (schema v1, no sched/steal_grain/distribution
  // fields) must be dropped by the schema gate, not half-parsed.
  const std::string path = temp_path("tuning_v1.json");
  std::string v1 = "{\n  \"schema\": \"canb-host-tuning-v1\",\n  \"machine\": ";
  v1 += '"' + TuningCache::machine_key() + "\",\n  \"build\": \"" + TuningCache::build_key();
  v1 +=
      "\",\n  \"entries\": [\n    {\"kernel\": \"inverse_square\", \"n\": 1024, "
      "\"engine\": \"batched\", \"tile\": 32, \"half_sweep\": true, \"threads\": 4, "
      "\"backend\": \"sse2\", \"pairs_per_sec\": 3e8}\n  ]\n}\n";
  spit(path, v1);
  EXPECT_TRUE(TuningCache::load_or_empty(path).entries().empty());
  std::remove(path.c_str());
}

TEST(TuningCache, V2SchemaFileIsDiscardedWhole) {
  // A cache from before the single resident sweep (schema v2: engine,
  // tile, half-sweep and inline-lane knobs) is dropped by the schema gate,
  // so none of those knobs can be half-applied.
  const std::string path = temp_path("tuning_v2.json");
  std::string v2 = "{\n  \"schema\": \"canb-host-tuning-v2\",\n  \"machine\": ";
  v2 += '"' + TuningCache::machine_key() + "\",\n  \"build\": \"" + TuningCache::build_key();
  v2 +=
      "\",\n  \"entries\": [\n    {\"kernel\": \"inverse_square\", \"n\": 1024, "
      "\"engine\": \"batched\", \"tile\": 32, \"half_sweep\": true, \"threads\": 4, "
      "\"backend\": \"sse2\", \"sched\": \"static\", \"steal_grain\": 1, "
      "\"inline_lane_max\": 192, \"distribution\": \"uniform\", \"pairs_per_sec\": 3e8}\n"
      "  ]\n}\n";
  spit(path, v2);
  EXPECT_TRUE(TuningCache::load_or_empty(path).entries().empty());
  std::remove(path.c_str());
}

TEST(TuningCache, EntryMissingSchedulerFieldsDiscardsWholeFile) {
  // v3 schema claiming a v1-shaped entry: every field is mandatory.
  const std::string path = temp_path("tuning_missing_sched.json");
  TuningCache cache;
  cache.put(sample_entry());
  ASSERT_TRUE(cache.save(path));
  std::string text = slurp(path);
  for (const char* field :
       {"\"threads\": 4, ", "\"sched\": \"stealing\", ", "\"steal_grain\": 2, ",
        "\"distribution\": \"plummer\", "}) {
    std::string pruned = text;
    const auto pos = pruned.find(field);
    ASSERT_NE(pos, std::string::npos) << field;
    pruned.erase(pos, std::string(field).size());
    spit(path, pruned);
    EXPECT_TRUE(TuningCache::load_or_empty(path).entries().empty()) << "pruned: " << field;
  }
  std::remove(path.c_str());
}

TEST(TuningCache, ForeignKeyDiscardsWholeFile) {
  const std::string path = temp_path("tuning_foreign.json");
  TuningCache cache;
  cache.put(sample_entry());
  ASSERT_TRUE(cache.save(path));
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());

  struct Tamper {
    std::string from, to;
  };
  const Tamper tampers[] = {
      {TuningCache::kSchema, "canb-host-tuning-v0"},
      {TuningCache::machine_key(), "some other machine [avx2]"},
      {TuningCache::build_key(), "gcc 0.0.0 p64"},
  };
  for (const auto& t : tampers) {
    std::string tampered = text;
    const auto pos = tampered.find(t.from);
    ASSERT_NE(pos, std::string::npos) << t.from;
    tampered.replace(pos, t.from.size(), t.to);
    spit(path, tampered);
    const TuningCache loaded = TuningCache::load_or_empty(path);
    EXPECT_TRUE(loaded.entries().empty()) << "tampered key: " << t.from;
  }
  std::remove(path.c_str());
}

TEST(TuningCache, InvalidEntryFieldDiscardsWholeFile) {
  const std::string path = temp_path("tuning_badentry.json");
  TuningCache cache;
  cache.put(sample_entry());
  ASSERT_TRUE(cache.save(path));
  std::string text = slurp(path);
  const auto pos = text.find("\"sse2\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "\"mmx\"");  // unknown backend: fail closed, re-tune
  spit(path, text);
  EXPECT_TRUE(TuningCache::load_or_empty(path).entries().empty());

  text = slurp(path);  // restore is easier via a fresh save
  TuningCache again;
  again.put(sample_entry());
  ASSERT_TRUE(again.save(path));
  text = slurp(path);
  const auto spos = text.find("\"stealing\"");
  ASSERT_NE(spos, std::string::npos);
  text.replace(spos, 10, "\"wishful\"");  // unknown scheduler mode: same rule
  spit(path, text);
  EXPECT_TRUE(TuningCache::load_or_empty(path).entries().empty());
  std::remove(path.c_str());
}

// --- entry <-> choice conversion -------------------------------------------

TEST(TuneChoice, EntryRoundTripsThroughChoice) {
  const HostTuneEntry e = sample_entry();
  const HostTuneChoice c = core::choice_from_entry(e);
  EXPECT_EQ(c.backend, std::min(simd::Backend::Sse2, simd::max_supported()));
  EXPECT_EQ(c.threads, e.threads);
  EXPECT_EQ(c.sched, canb::SchedMode::kStealing);
  EXPECT_EQ(c.steal_grain, e.steal_grain);
  EXPECT_TRUE(c.from_cache);
  EXPECT_EQ(c.pairs_per_sec, e.pairs_per_sec);

  const HostTuneEntry back = core::entry_from_choice(e.kernel, e.n, e.distribution, c);
  EXPECT_EQ(back.kernel, e.kernel);
  EXPECT_EQ(back.n, e.n);
  EXPECT_EQ(back.threads, e.threads);
  EXPECT_EQ(back.backend, simd::backend_name(c.backend));
  EXPECT_EQ(back.sched, e.sched);
  EXPECT_EQ(back.steal_grain, e.steal_grain);
  EXPECT_EQ(back.distribution, e.distribution);
}

TEST(TuneChoice, MeasuredThroughputFeedsMachineGamma) {
  machine::MachineModel m;
  m.gamma = 5e-8;  // the preset's nominal constant
  HostTuneChoice c;
  c.pairs_per_sec = 0.0;  // no measurement: model unchanged
  EXPECT_EQ(core::with_measured_gamma(m, c).gamma, 5e-8);
  c.pairs_per_sec = 2.5e8;
  EXPECT_DOUBLE_EQ(core::with_measured_gamma(m, c).gamma, 4e-9);
}

TEST(TuneChoice, BackendClampsToHardwareSupport) {
  HostTuneEntry e = sample_entry();
  e.backend = "avx2";  // widest possible request
  const HostTuneChoice c = core::choice_from_entry(e);
  EXPECT_LE(c.backend, simd::max_supported());
  e.threads = 0;  // degenerate thread count normalizes to serial
  EXPECT_GE(core::choice_from_entry(e).threads, 1);
}

// --- calibration -----------------------------------------------------------

using Tuner = HostTuner<particles::InverseSquareRepulsion>;

Tuner::Config quick_config() {
  Tuner::Config cfg;
  cfg.kernel = {1e-4, 1e-2};
  cfg.n = 48;
  cfg.sample_seconds = 5e-4;  // keep the whole calibration well under a second
  cfg.max_threads = 2;
  return cfg;
}

TEST(HostTunerTest, TuneRanksCandidatesAndRestoresSimdState) {
  const simd::Backend saved_backend = simd::active();
  // Pin the narrowest backend: the calibration installs every backend in
  // turn and must put this one back.
  simd::set_backend(simd::Backend::Scalar);

  const Tuner tuner(quick_config());
  const Tuner::Result result = tuner.tune();

  // One candidate per SIMD backend of the resident sweep.
  const std::size_t backends = static_cast<std::size_t>(simd::max_supported()) + 1;
  ASSERT_EQ(result.candidates.size(), backends);
  for (std::size_t b = 0; b < backends; ++b) {
    EXPECT_EQ(result.candidates[b].choice.backend, static_cast<simd::Backend>(b));
    EXPECT_EQ(result.candidates[b].name,
              std::string("sweep/") + simd::backend_name(static_cast<simd::Backend>(b)));
  }
  EXPECT_GT(result.best.pairs_per_sec, 0.0);
  EXPECT_FALSE(result.best.from_cache);
  EXPECT_GE(result.best.threads, 1);
  EXPECT_LE(result.best.threads, 2);
  for (const auto& c : result.candidates) {
    EXPECT_GT(c.choice.pairs_per_sec, 0.0) << c.name;
    EXPECT_LE(c.choice.pairs_per_sec, result.best.pairs_per_sec) << c.name;
  }

  EXPECT_EQ(simd::active(), simd::Backend::Scalar);
  simd::set_backend(saved_backend);
}

TEST(HostTunerTest, CacheHitSkipsCalibrationAndForceOverridesIt) {
  TuningCache cache;
  const Tuner tuner(quick_config());

  const Tuner::Result first = tuner.tune_with_cache(cache);
  EXPECT_FALSE(first.candidates.empty());
  ASSERT_NE(cache.find(particles::InverseSquareRepulsion::kName, 48), nullptr);

  const Tuner::Result hit = tuner.tune_with_cache(cache);
  EXPECT_TRUE(hit.candidates.empty());  // served from the cache, no timing
  EXPECT_TRUE(hit.best.from_cache);
  EXPECT_EQ(hit.best.pairs_per_sec, first.best.pairs_per_sec);

  const Tuner::Result forced = tuner.tune_with_cache(cache, /*force=*/true);
  EXPECT_FALSE(forced.candidates.empty());
  EXPECT_FALSE(forced.best.from_cache);
}

TEST(HostTunerTest, ClusteredCalibrationYieldsInstallableSchedulerChoice) {
  Tuner::Config cfg = quick_config();
  cfg.distribution = "plummer";  // triggers the skewed scheduler trial
  const Tuner tuner(cfg);
  const Tuner::Result result = tuner.tune();
  EXPECT_GE(result.best.steal_grain, 1);
  EXPECT_GE(result.best.threads, 1);
  const core::HostTuneEntry e =
      core::entry_from_choice("inverse_square", cfg.n, cfg.distribution, result.best);
  EXPECT_TRUE(canb::parse_sched_mode(e.sched).has_value());
  EXPECT_EQ(e.distribution, "plummer");
  // Cache keying separates the shapes: a plummer entry never answers a
  // uniform lookup.
  TuningCache cache;
  cache.put(e);
  EXPECT_EQ(cache.find("inverse_square", cfg.n, "uniform"), nullptr);
  EXPECT_NE(cache.find("inverse_square", cfg.n, "plummer"), nullptr);
}

// --- CLI plumbing ----------------------------------------------------------

TEST(TuneMode, ParsesAndNamesRoundTrip) {
  using sim::TuneMode;
  EXPECT_EQ(sim::parse_tune_mode("off"), TuneMode::Off);
  EXPECT_EQ(sim::parse_tune_mode("auto"), TuneMode::Auto);
  EXPECT_EQ(sim::parse_tune_mode("force"), TuneMode::Force);
  EXPECT_FALSE(sim::parse_tune_mode("always").has_value());
  EXPECT_FALSE(sim::parse_tune_mode("").has_value());
  for (const auto m : {TuneMode::Off, TuneMode::Auto, TuneMode::Force})
    EXPECT_EQ(sim::parse_tune_mode(sim::tune_mode_name(m)), m);
}

}  // namespace

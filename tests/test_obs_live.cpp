// Live observability plane, single-process side: snapshot wire round-trip
// and merge semantics (obs/snapshot.hpp), Prometheus format validation,
// the flight recorder's ring/median/straggler behavior, the HTTP scrape
// server driven by a raw-socket client, and the plane's bitwise inertness
// at the Simulation level. The multi-process mesh aggregation path is
// covered by tests/test_obs_e2e.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "machine/presets.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/serve.hpp"
#include "obs/snapshot.hpp"
#include "obs/step_series.hpp"
#include "particles/init.hpp"
#include "sim/simulation.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace {

using namespace canb;

// --- snapshot wire round-trip ----------------------------------------------

/// Canonical comparison: two registries are equal iff their Prometheus
/// exposition (deterministic family/series order) matches.
std::string canon(const obs::MetricsRegistry& reg) { return obs::to_prometheus(reg); }

/// A registry of process-local families with seeded but arbitrary values,
/// including histogram observations past the last edge (+Inf bucket).
obs::MetricsRegistry make_local_registry(std::uint64_t seed) {
  obs::MetricsRegistry reg;
  SplitMix64 rng(seed);
  reg.counter("canb_transport_frames_sent_total", {{"group", std::to_string(seed % 4)}}, "frames")
      .inc(rng.next() % 1000);
  reg.counter("canb_transport_bytes_sent_total", {{"group", std::to_string(seed % 4)}}, "bytes")
      .inc(rng.next() % 100000);
  reg.counter("canb_sched_tasks_total", {}, "tasks").inc(rng.next() % 500);
  reg.gauge("canb_worker_busy_seconds", {{"worker", "0"}}, "busy")
      .set(static_cast<double>(rng.next() % 1000) / 256.0);
  auto& h = reg.histogram("canb_sched_wait_seconds", {0.5, 1.0, 2.0}, {}, "wait dist");
  const int obs_n = static_cast<int>(rng.next() % 20);
  for (int i = 0; i < obs_n; ++i) {
    h.observe(static_cast<double>(rng.next() % 16) / 4.0);  // up to 3.75 > last edge
  }
  h.observe(100.0);  // always at least one +Inf observation
  return reg;
}

TEST(ObsSnapshot, RoundTripPreservesRegistry) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 2013ull}) {
    const auto reg = make_local_registry(seed);
    wire::Bytes buf;
    obs::snapshot_to_bytes(reg, /*group=*/3, /*step=*/17, buf);
    const auto snap = obs::snapshot_from_bytes(buf);
    EXPECT_EQ(snap.group, 3);
    EXPECT_EQ(snap.step, 17u);
    EXPECT_EQ(canon(snap.metrics), canon(reg)) << "seed " << seed;
  }
}

// A snapshot frame is another process's bytes: every truncation throws,
// and a frame with flipped bytes decodes or throws — a corrupt count never
// aborts or allocates what it asks for (the ASan/UBSan CI leg runs these).

wire::Bytes labeled_snapshot() {
  auto reg = make_local_registry(5);
  reg.counter("canb_transport_retransmits_total", {{"group", "1"}, {"peer", "0"}}, "retx").inc(3);
  wire::Bytes buf;
  obs::snapshot_to_bytes(reg, 1, 9, buf);
  return buf;
}

TEST(ObsSnapshot, EveryTruncationThrows) {
  const auto buf = labeled_snapshot();
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_THROW(obs::snapshot_from_bytes(std::span<const std::byte>(buf).first(len)),
                 wire::DecodeError)
        << "prefix of " << len << " of " << buf.size() << " bytes";
  }
}

TEST(ObsSnapshot, FlippedBytesDecodeOrThrow) {
  const auto buf = labeled_snapshot();
  SplitMix64 rng(2013);
  int thrown = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    wire::Bytes bad = buf;
    const int flips = 1 + static_cast<int>(rng.next() % 3);
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(rng.next() % bad.size());
      bad[at] ^= static_cast<std::byte>(1u + rng.next() % 255u);
    }
    // wire::DecodeError for framing, PreconditionError for a registry the
    // frame describes but the library rejects (unsorted edges, ...). Any
    // other exception (std::bad_alloc from a trusted count) fails the test.
    try {
      (void)obs::snapshot_from_bytes(bad);
    } catch (const wire::DecodeError&) {
      ++thrown;
    } catch (const PreconditionError&) {
      ++thrown;
    }
  }
  EXPECT_GT(thrown, 0);
}

TEST(ObsSnapshot, EmptyRegistryRoundTrips) {
  obs::MetricsRegistry reg;
  wire::Bytes buf;
  obs::snapshot_to_bytes(reg, 1, 0, buf);
  const auto snap = obs::snapshot_from_bytes(buf);
  EXPECT_TRUE(snap.metrics.empty());
  EXPECT_EQ(snap.group, 1);
}

TEST(ObsSnapshot, FilterDropsReplicatedFamilies) {
  obs::MetricsRegistry reg;
  reg.counter("canb_transport_frames_sent_total").inc(5);  // process-local
  reg.counter("canb_messages_total").inc(7);               // SPMD replica
  reg.gauge("canb_rank_clock_seconds", {{"rank", "0"}}).set(1.0);
  wire::Bytes buf;
  obs::snapshot_to_bytes(reg, 0, 0, buf);  // process_local_only = true
  const auto snap = obs::snapshot_from_bytes(buf);
  EXPECT_EQ(snap.metrics.families().size(), 1u);
  EXPECT_TRUE(snap.metrics.families().count("canb_transport_frames_sent_total"));
}

TEST(ObsSnapshot, ProcessLocalPrefixes) {
  EXPECT_TRUE(obs::process_local_metric("canb_transport_frames_sent_total"));
  EXPECT_TRUE(obs::process_local_metric("canb_sched_calls_total"));
  EXPECT_TRUE(obs::process_local_metric("canb_worker_idle_seconds"));
  EXPECT_TRUE(obs::process_local_metric("canb_tasks_per_worker"));
  EXPECT_TRUE(obs::process_local_metric("canb_host_phase_seconds"));
  // Sweep counters are host truth: under owner-computes each process only
  // sweeps its owned ranks, so they diverge across the mesh and must ride
  // the per-group snapshot (the mesh merge sums them back to the total).
  EXPECT_TRUE(obs::process_local_metric("canb_sweep_pairs_computed_total"));
  EXPECT_TRUE(obs::process_local_metric("canb_sweep_pairs_total"));
  EXPECT_TRUE(obs::process_local_metric("canb_local_ranks"));
  EXPECT_FALSE(obs::process_local_metric("canb_messages_total"));
  EXPECT_FALSE(obs::process_local_metric("canb_rank_clock_seconds"));
  EXPECT_FALSE(obs::process_local_metric("canb_steps_total"));
  EXPECT_FALSE(obs::process_local_metric("canb_build_info"));
}

// The property the mesh relies on: merging through serialization equals
// merging in-process, +Inf buckets and empty registries included.
TEST(ObsSnapshot, MergeCommutesWithSerialization) {
  for (std::uint64_t seed : {2ull, 11ull, 2013ull}) {
    const auto a = make_local_registry(seed);
    const auto b = make_local_registry(seed + 1);

    obs::MetricsRegistry in_process;
    obs::merge_registry(in_process, a);
    obs::merge_registry(in_process, b);

    wire::Bytes ba, bb;
    obs::snapshot_to_bytes(a, 0, 0, ba);
    obs::snapshot_to_bytes(b, 1, 0, bb);
    obs::MetricsRegistry via_wire;
    obs::merge_registry(via_wire, obs::snapshot_from_bytes(ba).metrics);
    obs::merge_registry(via_wire, obs::snapshot_from_bytes(bb).metrics);

    EXPECT_EQ(canon(via_wire), canon(in_process)) << "seed " << seed;

    // Merging an empty registry is the identity.
    obs::MetricsRegistry plus_empty = in_process;
    obs::merge_registry(plus_empty, obs::MetricsRegistry{});
    EXPECT_EQ(canon(plus_empty), canon(in_process));
  }
}

TEST(ObsSnapshot, MergeSumsCountersAndHistograms) {
  obs::MetricsRegistry a, b;
  a.counter("canb_transport_frames_sent_total").inc(10);
  b.counter("canb_transport_frames_sent_total").inc(32);
  a.histogram("canb_h", {1.0, 2.0}).observe(0.5);
  a.histogram("canb_h", {1.0, 2.0}).observe(9.0);  // +Inf bucket
  b.histogram("canb_h", {1.0, 2.0}).observe(1.5);

  obs::MetricsRegistry merged;
  obs::merge_registry(merged, a);
  obs::merge_registry(merged, b);
  EXPECT_EQ(merged.counter("canb_transport_frames_sent_total").value(), 42u);
  auto& h = merged.histogram("canb_h", {1.0, 2.0});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.counts().back(), 1u);  // the +Inf observation survived
  EXPECT_DOUBLE_EQ(h.sum(), 11.0);
}

TEST(ObsSnapshot, MergeLabelsGaugesWithGroup) {
  obs::MetricsRegistry src, dst;
  src.gauge("canb_worker_busy_seconds", {{"worker", "0"}}).set(2.5);
  src.gauge("canb_sched_info", {{"group", "1"}, {"mode", "largest-first"}}).set(1.0);
  obs::merge_registry(dst, src, "2");
  // The unlabeled gauge gains group="2"; the pre-labeled one is untouched.
  const auto& fam = dst.families().at("canb_worker_busy_seconds");
  ASSERT_EQ(fam.series.size(), 1u);
  EXPECT_NE(fam.series.begin()->first.find("group=\"2\""), std::string::npos);
  const auto& info = dst.families().at("canb_sched_info");
  EXPECT_NE(info.series.begin()->first.find("group=\"1\""), std::string::npos);
}

TEST(ObsSnapshot, HistogramMergeRejectsMismatchedEdges) {
  auto a = obs::Histogram(std::vector<double>{1.0, 2.0});
  const auto b = obs::Histogram(std::vector<double>{1.0, 3.0});
  EXPECT_THROW(a.merge_from(b), PreconditionError);
}

TEST(ObsSnapshot, FromPartsValidatesCounts) {
  EXPECT_THROW(obs::Histogram::from_parts({1.0}, {1, 2, 3}, 6, 0.0), PreconditionError);
  EXPECT_THROW(obs::Histogram::from_parts({1.0}, {1, 2}, 5, 0.0), PreconditionError);
  const auto h = obs::Histogram::from_parts({1.0}, {1, 2}, 3, 4.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 4.5);
}

// --- Prometheus validation --------------------------------------------------

TEST(ObsPrometheus, RealExportValidates) {
  const auto reg = make_local_registry(5);
  const auto err = obs::validate_prometheus(obs::to_prometheus(reg));
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(ObsPrometheus, ValidatorRejectsStructuralFaults) {
  // HELP without TYPE.
  EXPECT_TRUE(obs::validate_prometheus("# HELP canb_x help\ncanb_x 1\n").has_value());
  // Sample with no TYPE declaration.
  EXPECT_TRUE(obs::validate_prometheus("canb_y 1\n").has_value());
  // Non-monotone histogram buckets.
  const std::string bad_hist =
      "# TYPE canb_h histogram\n"
      "canb_h_bucket{le=\"1\"} 5\n"
      "canb_h_bucket{le=\"+Inf\"} 3\n"
      "canb_h_sum 1\ncanb_h_count 3\n";
  EXPECT_TRUE(obs::validate_prometheus(bad_hist).has_value());
  // _count disagreeing with the +Inf bucket.
  const std::string bad_count =
      "# TYPE canb_h histogram\n"
      "canb_h_bucket{le=\"1\"} 1\n"
      "canb_h_bucket{le=\"+Inf\"} 3\n"
      "canb_h_sum 1\ncanb_h_count 4\n";
  EXPECT_TRUE(obs::validate_prometheus(bad_count).has_value());
  // Missing +Inf bucket entirely.
  const std::string no_inf =
      "# TYPE canb_h histogram\n"
      "canb_h_bucket{le=\"1\"} 1\n";
  EXPECT_TRUE(obs::validate_prometheus(no_inf).has_value());
  // A correct document passes.
  const std::string good =
      "# HELP canb_h help\n"
      "# TYPE canb_h histogram\n"
      "canb_h_bucket{le=\"1\"} 1\n"
      "canb_h_bucket{le=\"+Inf\"} 3\n"
      "canb_h_sum 1.5\ncanb_h_count 3\n";
  EXPECT_FALSE(obs::validate_prometheus(good).has_value());
}

// --- flight recorder ---------------------------------------------------------

obs::StepSample sample_with_wall(int step, double wall) {
  obs::StepSample s;
  s.step = step;
  s.wall_seconds = wall;
  return s;
}

TEST(ObsStepSeries, RingEvictsOldestAndKeepsOrder) {
  obs::StepSeries series(4);
  for (int i = 1; i <= 6; ++i) series.record(sample_with_wall(i, 0.01));
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.recorded_total(), 6u);
  const auto samples = series.samples();
  ASSERT_EQ(samples.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(samples[static_cast<std::size_t>(i)].step, i + 3);
}

TEST(ObsStepSeries, StragglerNeedsWarmupThenFlags) {
  obs::StepSeries series(64, /*straggler_factor=*/3.0);
  // A huge early outlier is NOT flagged: fewer than kMinSamplesForMedian
  // resident samples.
  EXPECT_FALSE(series.record(sample_with_wall(1, 10.0)));
  for (int i = 2; i <= 9; ++i) EXPECT_FALSE(series.record(sample_with_wall(i, 0.010)));
  // Median is ~0.010 now; 0.020 stays under 3x, 0.050 trips it.
  EXPECT_FALSE(series.record(sample_with_wall(10, 0.020)));
  int sink_calls = 0;
  series.set_straggler_sink([&](const obs::StepSample& s) {
    ++sink_calls;
    EXPECT_TRUE(s.straggler);
    EXPECT_EQ(s.step, 11);
  });
  EXPECT_TRUE(series.record(sample_with_wall(11, 0.050)));
  EXPECT_EQ(sink_calls, 1);
  // Only the flagged sample lands in stragglers(); the warmup outlier
  // stays an ordinary resident sample.
  ASSERT_EQ(series.stragglers().size(), 1u);
  EXPECT_EQ(series.stragglers().back().step, 11);
}

TEST(ObsStepSeries, JsonExportCarriesSamplesAndManifest) {
  obs::StepSeries series(8);
  series.record(sample_with_wall(1, 0.01));
  obs::RunManifest manifest;
  manifest.machine = "testbox";
  manifest.compiler = "test-cc";
  manifest.git = "deadbeef";
  manifest.simd = "scalar";
  std::ostringstream out;
  obs::write_step_series(out, series, manifest);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"kind\":\"step_series\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"build\":{\"compiler\":\"test-cc\""), std::string::npos);
  EXPECT_NE(doc.find("\"recorded_total\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"wall_seconds\":0.01"), std::string::npos);
}

// --- HTTP scrape server ------------------------------------------------------

/// Minimal blocking HTTP client for the loopback server under test.
std::string http_get(int port, const std::string& path, const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const std::string request = method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

TEST(ObsServe, ServesPublishedContentOnAllRoutes) {
  obs::MetricsServer server(0);  // ephemeral port
  ASSERT_GT(server.port(), 0);

  obs::LiveContent content;
  content.prometheus = "# TYPE canb_x counter\ncanb_x 7\n";
  content.healthz = "{\"state\":\"running\",\"step\":3}";
  server.publish(content);

  const auto metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_EQ(body_of(metrics), content.prometheus);

  const auto health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(body_of(health), content.healthz);

  EXPECT_NE(http_get(server.port(), "/").find("canb live observability"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/nope").find("404"), std::string::npos);
  // Spans/trace not published yet: those routes 404 instead of crashing.
  EXPECT_NE(http_get(server.port(), "/spans.csv").find("404"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/trace.json").find("404"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/metrics", "POST").find("405"), std::string::npos);

  // A later publish replaces what /metrics serves.
  content.prometheus = "# TYPE canb_x counter\ncanb_x 8\n";
  server.publish(content);
  EXPECT_NE(body_of(http_get(server.port(), "/metrics")).find("canb_x 8"), std::string::npos);
  EXPECT_GE(server.requests_served(), 8u);
  server.stop();
}

TEST(ObsServe, ContentLengthMatchesBody) {
  obs::MetricsServer server(0);
  obs::LiveContent content;
  content.prometheus = "# TYPE canb_y gauge\ncanb_y 1.5\n";
  content.healthz = "{}";
  server.publish(content);
  const auto response = http_get(server.port(), "/metrics");
  const auto pos = response.find("Content-Length: ");
  ASSERT_NE(pos, std::string::npos);
  const auto len = std::stoul(response.substr(pos + 16));
  EXPECT_EQ(len, body_of(response).size());
}

// --- bitwise inertness at the Simulation level -------------------------------

using Sim = sim::Simulation<particles::InverseSquareRepulsion>;

Sim::Config live_config() {
  Sim::Config cfg;
  cfg.method = sim::Method::CaCutoff;
  cfg.p = 32;
  cfg.c = 2;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  cfg.cutoff = 0.12;
  cfg.dt = 1e-4;
  return cfg;
}

particles::Block run_with(obs::ObsLevel level, bool serve, int series_capacity) {
  auto cfg = live_config();
  cfg.obs = level;
  if (serve) cfg.serve_port = 0;
  cfg.series_capacity = series_capacity;
  Sim s(cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  s.run(8);
  if (level != obs::ObsLevel::Off) s.finalize_telemetry();
  return s.gather();
}

bool blocks_bitwise_equal(const particles::Block& a, const particles::Block& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::bit_cast<std::uint32_t>(a[i].px) != std::bit_cast<std::uint32_t>(b[i].px) ||
        std::bit_cast<std::uint32_t>(a[i].py) != std::bit_cast<std::uint32_t>(b[i].py) ||
        std::bit_cast<std::uint32_t>(a[i].vx) != std::bit_cast<std::uint32_t>(b[i].vx) ||
        std::bit_cast<std::uint32_t>(a[i].vy) != std::bit_cast<std::uint32_t>(b[i].vy))
      return false;
  }
  return true;
}

TEST(ObsServe, LivePlaneIsBitwiseInert) {
  const auto baseline = run_with(obs::ObsLevel::Off, false, 0);
  const auto with_plane = run_with(obs::ObsLevel::Metrics, true, 64);
  EXPECT_TRUE(blocks_bitwise_equal(baseline, with_plane))
      << "attaching the scrape server + flight recorder changed the trajectory";
}

TEST(ObsServe, SimulationServesLiveStepCount) {
  auto cfg = live_config();
  cfg.obs = obs::ObsLevel::Metrics;
  cfg.serve_port = 0;
  cfg.series_capacity = 16;
  Sim s(cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  ASSERT_NE(s.server(), nullptr);
  s.run(5);
  const auto health = body_of(http_get(s.server()->port(), "/healthz"));
  EXPECT_NE(health.find("\"step\":5"), std::string::npos) << health;
  EXPECT_NE(health.find("\"state\":\"running\""), std::string::npos);
  const auto metrics = body_of(http_get(s.server()->port(), "/metrics"));
  EXPECT_NE(metrics.find("canb_steps_total 5"), std::string::npos);
  EXPECT_NE(metrics.find("canb_build_info"), std::string::npos);
  const auto err = obs::validate_prometheus(metrics);
  EXPECT_FALSE(err.has_value()) << *err;
  s.finalize_telemetry();
  EXPECT_NE(body_of(http_get(s.server()->port(), "/healthz")).find("\"state\":\"finished\""),
            std::string::npos);
  ASSERT_NE(s.step_series(), nullptr);
  EXPECT_EQ(s.step_series()->recorded_total(), 5u);
}

// A run whose step throws says so on /healthz, with the error, before the
// server goes away (run_simulation publishes it, then lingers).
TEST(ObsServe, HealthzReportsAFailedRun) {
  auto cfg = live_config();
  cfg.obs = obs::ObsLevel::Metrics;
  cfg.serve_port = 0;
  Sim s(cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  ASSERT_NE(s.server(), nullptr);
  s.run(2);
  s.publish_failure("socket transport: group 0 lost peer group 1 (\"eof\")");
  const auto health = body_of(http_get(s.server()->port(), "/healthz"));
  EXPECT_EQ(health.rfind("{\"state\":\"failed\",", 0), 0u) << health;
  EXPECT_NE(health.find("\"error\":\"socket transport: group 0 lost peer group 1 "
                        "(\\\"eof\\\")\""),
            std::string::npos)
      << health;
  EXPECT_NE(health.find("\"step\":2"), std::string::npos) << health;
  const auto err = obs::validate_prometheus(body_of(http_get(s.server()->port(), "/metrics")));
  EXPECT_FALSE(err.has_value()) << *err;
}

}  // namespace

#include "obs/snapshot.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"

namespace canb::obs {
namespace {

// "CSNP" — guards against a data-flow frame straying onto the reserved tag.
constexpr std::uint32_t kSnapshotMagic = 0x43534e50u;
constexpr std::uint32_t kSnapshotVersion = 1;

void put_string(wire::Writer& w, const std::string& s) {
  w.scalar<std::uint64_t>(s.size());
  w.raw(s.data(), s.size());
}

std::string get_string(wire::Reader& r) {
  const std::size_t n = r.count(1);
  std::string s(n, '\0');
  r.raw(s.data(), n);
  return s;
}

}  // namespace

bool process_local_metric(std::string_view family_name) noexcept {
  // Fabric, host scheduler, host data-plane, and host sweep families
  // diverge across OS processes (under owner-computes each group sweeps
  // only its owned ranks); everything else is an SPMD replica of the
  // virtual cost plane that only group 0 exports.
  static constexpr std::string_view kPrefixes[] = {
      "canb_transport_", "canb_sched_",       "canb_worker_",
      "canb_tasks_per_worker", "canb_host_phase_seconds", "canb_sweep_",
      "canb_local_ranks",
  };
  for (const auto p : kPrefixes) {
    if (family_name.substr(0, p.size()) == p) return true;
  }
  return false;
}

void snapshot_to_bytes(const MetricsRegistry& reg, int group, std::uint64_t step,
                       wire::Bytes& out, bool process_local_only) {
  wire::Writer w(out);
  w.scalar(kSnapshotMagic);
  w.scalar(kSnapshotVersion);
  w.scalar<std::int32_t>(group);
  w.scalar(step);

  std::uint64_t n_families = 0;
  for (const auto& [name, family] : reg.families()) {
    if (!process_local_only || process_local_metric(name)) ++n_families;
  }
  w.scalar(n_families);

  for (const auto& [name, family] : reg.families()) {
    if (process_local_only && !process_local_metric(name)) continue;
    put_string(w, family.name);
    put_string(w, family.help);
    w.scalar<std::uint8_t>(static_cast<std::uint8_t>(family.type));
    w.scalar<std::uint64_t>(family.series.size());
    for (const auto& [key, series] : family.series) {
      w.scalar<std::uint64_t>(series.labels.size());
      for (const auto& [k, v] : series.labels) {
        put_string(w, k);
        put_string(w, v);
      }
      switch (family.type) {
        case MetricType::Counter:
          w.scalar(std::get<Counter>(series.metric).value());
          break;
        case MetricType::Gauge:
          w.scalar(std::get<Gauge>(series.metric).value());
          break;
        case MetricType::Histogram: {
          const auto& h = std::get<Histogram>(series.metric);
          w.lane(h.edges());
          w.lane(h.counts());
          w.scalar(h.count());
          w.scalar(h.sum());
          break;
        }
      }
    }
  }
}

RegistrySnapshot snapshot_from_bytes(std::span<const std::byte> in) {
  wire::Reader r(in);
  if (r.scalar<std::uint32_t>() != kSnapshotMagic)
    throw wire::DecodeError("telemetry snapshot frame: bad magic");
  if (r.scalar<std::uint32_t>() != kSnapshotVersion)
    throw wire::DecodeError("telemetry snapshot frame: unsupported version");

  RegistrySnapshot snap;
  snap.group = r.scalar<std::int32_t>();
  snap.step = r.scalar<std::uint64_t>();

  const auto n_families = r.scalar<std::uint64_t>();
  for (std::uint64_t f = 0; f < n_families; ++f) {
    const std::string name = get_string(r);
    const std::string help = get_string(r);
    const auto type = static_cast<MetricType>(r.scalar<std::uint8_t>());
    const auto n_series = r.scalar<std::uint64_t>();
    for (std::uint64_t s = 0; s < n_series; ++s) {
      // A label is two length-prefixed strings: at least 16 bytes.
      const std::size_t n_labels = r.count(2 * sizeof(std::uint64_t));
      Labels labels;
      labels.reserve(n_labels);
      for (std::size_t l = 0; l < n_labels; ++l) {
        std::string k = get_string(r);
        std::string v = get_string(r);
        labels.emplace_back(std::move(k), std::move(v));
      }
      switch (type) {
        case MetricType::Counter:
          snap.metrics.counter(name, labels, help).inc(r.scalar<std::uint64_t>());
          break;
        case MetricType::Gauge:
          snap.metrics.gauge(name, labels, help).set(r.scalar<double>());
          break;
        case MetricType::Histogram: {
          std::vector<double> edges;
          std::vector<std::uint64_t> counts;
          r.lane(edges);
          r.lane(counts);
          const auto count = r.scalar<std::uint64_t>();
          const auto sum = r.scalar<double>();
          Histogram& dst = snap.metrics.histogram(name, edges, labels, help);
          dst.merge_from(Histogram::from_parts(std::move(edges), std::move(counts), count, sum));
          break;
        }
        default:
          throw wire::DecodeError("telemetry snapshot frame: unknown metric type");
      }
    }
  }
  if (!r.done()) throw wire::DecodeError("telemetry snapshot frame: trailing bytes");
  return snap;
}

void merge_registry(MetricsRegistry& dst, const MetricsRegistry& src,
                    const std::string& group_label) {
  for (const auto& [name, family] : src.families()) {
    for (const auto& [key, series] : family.series) {
      switch (family.type) {
        case MetricType::Counter:
          dst.counter(name, series.labels, family.help)
              .inc(std::get<Counter>(series.metric).value());
          break;
        case MetricType::Gauge: {
          Labels labels = series.labels;
          const bool has_group =
              std::any_of(labels.begin(), labels.end(),
                          [](const auto& kv) { return kv.first == "group"; });
          if (!group_label.empty() && !has_group) labels.emplace_back("group", group_label);
          dst.gauge(name, labels, family.help).set(std::get<Gauge>(series.metric).value());
          break;
        }
        case MetricType::Histogram: {
          const auto& h = std::get<Histogram>(series.metric);
          dst.histogram(name, h.edges(), series.labels, family.help).merge_from(h);
          break;
        }
      }
    }
  }
}

MeshAggregator::MeshAggregator(std::shared_ptr<vmpi::Transport> transport)
    : transport_(std::move(transport)) {
  CANB_REQUIRE(transport_ != nullptr, "MeshAggregator needs a transport");
  group_ = transport_->group();
  groups_ = transport_->groups();
  CANB_REQUIRE(groups_ >= 1, "MeshAggregator: transport reports no groups");
  push_rank_.assign(static_cast<std::size_t>(groups_), -1);
  for (int rank = 0; rank < transport_->ranks(); ++rank) {
    const int g = transport_->owner_group(rank);
    CANB_REQUIRE(g >= 0 && g < groups_, "MeshAggregator: rank owned by out-of-range group");
    if (push_rank_[static_cast<std::size_t>(g)] < 0) push_rank_[static_cast<std::size_t>(g)] = rank;
  }
  for (int g = 0; g < groups_; ++g) {
    CANB_REQUIRE(push_rank_[static_cast<std::size_t>(g)] >= 0,
                 "MeshAggregator: group owns no ranks");
  }
}

void MeshAggregator::exchange(const MetricsRegistry& local, std::uint64_t step) {
  if (groups_ <= 1) return;
  if (group_ != 0) {
    snapshot_to_bytes(local, group_, step, buf_);
    transport_->send(push_rank_[static_cast<std::size_t>(group_)], push_rank_[0],
                     snapshot_tag(group_), buf_);
  } else {
    for (int g = 1; g < groups_; ++g) {
      transport_->recv(push_rank_[static_cast<std::size_t>(g)], push_rank_[0],
                       snapshot_tag(g), buf_);
      latest_[g] = snapshot_from_bytes(buf_);
    }
  }
  ++exchanges_;
}

MetricsRegistry MeshAggregator::merged(const MetricsRegistry& base) const {
  MetricsRegistry out = base;
  for (const auto& [g, snap] : latest_) {
    merge_registry(out, snap.metrics, std::to_string(g));
  }
  return out;
}

}  // namespace canb::obs

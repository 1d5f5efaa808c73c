#include "vmpi/transport.hpp"

#include <utility>

#include "support/assert.hpp"

namespace canb::vmpi {

namespace {

std::pair<std::uint64_t, std::uint64_t> modeled_key(int src, int dst, std::uint64_t tag) noexcept {
  return {(static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
              static_cast<std::uint32_t>(dst),
          tag};
}

}  // namespace

const char* transport_kind_name(TransportKind k) noexcept {
  switch (k) {
    case TransportKind::Modeled: return "modeled";
    case TransportKind::Socket: return "socket";
  }
  return "unknown";
}

std::optional<TransportKind> parse_transport_kind(std::string_view name) noexcept {
  if (name == "modeled") return TransportKind::Modeled;
  if (name == "socket") return TransportKind::Socket;
  return std::nullopt;
}

const char* exec_mode_name(ExecMode m) noexcept {
  switch (m) {
    case ExecMode::Lockstep: return "lockstep";
    case ExecMode::OwnerComputes: return "owner_computes";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ModeledTransport

ModeledTransport::ModeledTransport(int ranks) : ranks_(ranks) {
  CANB_REQUIRE(ranks >= 1, "transport needs at least one rank");
}

void ModeledTransport::send(int src, int dst, std::uint64_t tag,
                            std::span<const std::byte> payload) {
  CANB_ASSERT(0 <= src && src < ranks_ && 0 <= dst && dst < ranks_);
  queues_[modeled_key(src, dst, tag)].emplace_back(payload.begin(), payload.end());
  stats_.frames_sent += 1;
  stats_.bytes_sent += payload.size();
}

void ModeledTransport::recv(int src, int dst, std::uint64_t tag, wire::Bytes& out) {
  auto it = queues_.find(modeled_key(src, dst, tag));
  CANB_ASSERT_MSG(it != queues_.end() && !it->second.empty(),
                  "ModeledTransport::recv before matching send (serial backend cannot block)");
  out = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  stats_.frames_received += 1;
  stats_.bytes_received += out.size();
}

}  // namespace canb::vmpi

#include "vmpi/reliable.hpp"

#include <utility>

#include "support/assert.hpp"

namespace canb::vmpi {

void encode_frame(const Frame& f, wire::Bytes& out) {
  wire::Writer w(out);
  const std::uint64_t body = kFrameHeaderBytes + f.payload.size();
  w.scalar<std::uint64_t>(body);
  w.scalar<std::uint8_t>(static_cast<std::uint8_t>(f.kind));
  w.scalar<std::uint32_t>(f.src);
  w.scalar<std::uint32_t>(f.dst);
  w.scalar<std::uint64_t>(f.tag);
  w.scalar<std::uint64_t>(f.seq);
  w.raw(f.payload.data(), f.payload.size());
}

Frame decode_frame_header(std::span<const std::byte> body) {
  CANB_ASSERT_MSG(body.size() >= kFrameHeaderBytes, "frame body shorter than header");
  wire::Reader r(body.first(kFrameHeaderBytes));
  Frame f;
  f.kind = static_cast<FrameKind>(r.scalar<std::uint8_t>());
  f.src = r.scalar<std::uint32_t>();
  f.dst = r.scalar<std::uint32_t>();
  f.tag = r.scalar<std::uint64_t>();
  f.seq = r.scalar<std::uint64_t>();
  return f;
}

std::span<const std::byte> frame_payload(std::span<const std::byte> body) {
  CANB_ASSERT_MSG(body.size() >= kFrameHeaderBytes, "frame body shorter than header");
  return body.subspan(kFrameHeaderBytes);
}

Frame decode_frame_body(std::span<const std::byte> body) {
  Frame f = decode_frame_header(body);
  const auto payload = frame_payload(body);
  f.payload.assign(payload.begin(), payload.end());
  return f;
}

std::uint64_t ReliableSender::send(Frame frame, double now, const Emit& emit) {
  frame.seq = next_seq_++;
  emit(frame);
  stats_.data_sent += 1;
  Pending p;
  p.deadline = now + cfg_.rto;
  p.rto = cfg_.rto;
  p.attempts = 1;
  p.frame = std::move(frame);
  const std::uint64_t seq = p.frame.seq;
  pending_.push_back(std::move(p));
  return seq;
}

void ReliableSender::on_ack(std::uint64_t acked) {
  while (!pending_.empty() && pending_.front().frame.seq < acked) pending_.pop_front();
}

double ReliableSender::poll(double now, const Emit& emit) {
  double earliest = std::numeric_limits<double>::infinity();
  for (auto& p : pending_) {
    if (p.deadline <= now) {
      CANB_ASSERT_MSG(p.attempts < cfg_.max_attempts,
                      "reliable channel: frame unacked after max_attempts transmissions");
      emit(p.frame);
      p.attempts += 1;
      stats_.retransmits += 1;
      stats_.timeouts += 1;
      stats_.backoff_wait += p.rto;
      p.rto *= cfg_.backoff;
      p.deadline = now + p.rto;
    }
    if (p.deadline < earliest) earliest = p.deadline;
  }
  return earliest;
}

std::uint64_t ReliableReceiver::on_data(Frame&& f, const Deliver& deliver) {
  if (f.seq < next_expected_) {
    // Already delivered: a retransmit of something our ack for which was
    // lost or late. Discard, but re-ack so the sender can release it.
    stats_.duplicates_dropped += 1;
  } else if (f.seq == next_expected_) {
    next_expected_ += 1;
    stats_.delivered += 1;
    deliver(std::move(f));
    // Drain any stashed successors that are now contiguous.
    for (auto it = stashed_.begin();
         it != stashed_.end() && it->first == next_expected_;) {
      next_expected_ += 1;
      stats_.delivered += 1;
      deliver(std::move(it->second));
      it = stashed_.erase(it);
    }
  } else {
    // Out of order: hold until the gap fills. A duplicate of an already
    // stashed frame is dropped by the map insert.
    auto [it, inserted] = stashed_.try_emplace(f.seq, std::move(f));
    (void)it;
    if (inserted) {
      stats_.reordered_held += 1;
    } else {
      stats_.duplicates_dropped += 1;
    }
  }
  stats_.acks_sent += 1;
  return next_expected_;
}

}  // namespace canb::vmpi

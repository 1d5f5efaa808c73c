// Byte-level payload serialization for real transports.
//
// The vmpi primitives move typed payload buffers (SoaBlock, PhantomBlock,
// engine-private carried structs) between ranks. A real transport moves
// bytes, so every payload type that wants to cross a wire provides a
// lossless encode/decode pair. Two dispatch arms:
//
//   - member customization: `void wire_put(wire::Writer&) const` and
//     `void wire_get(wire::Reader&)` on the payload type;
//   - trivially-copyable fallback: raw object bytes (PhantomBlock, ints).
//
// Encoding is byte-exact, not human-readable: float/double lanes are copied
// bit-for-bit, which is what makes the cross-backend parity suites able to
// demand *bitwise* identical trajectories after a round trip through a
// socket. Integers in framing positions (counts) are fixed-width u64 in
// native byte order — all endpoints of an in-host or same-arch run agree,
// and cross-arch transport is out of scope for now.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "support/assert.hpp"

namespace canb::wire {

using Bytes = std::vector<std::byte>;

/// Appends scalars / raw ranges to a byte vector. The target vector is
/// cleared on construction; capacity is retained, so reusing one Bytes
/// buffer across rounds amortizes to zero allocations.
class Writer {
 public:
  explicit Writer(Bytes& out) noexcept : out_(&out) { out.clear(); }

  void raw(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = out_->size();
    out_->resize(at + n);
    std::memcpy(out_->data() + at, p, n);
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  void scalar(const T& v) {
    raw(&v, sizeof v);
  }

  /// Length-prefixed trivially-copyable lane (one SoA column).
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void lane(const std::vector<T>& v) {
    scalar<std::uint64_t>(static_cast<std::uint64_t>(v.size()));
    raw(v.data(), v.size() * sizeof(T));
  }

 private:
  Bytes* out_;
};

/// Consumes what Writer produced. Underflow is an internal invariant
/// violation (a framing bug), not a user error: CANB_ASSERT aborts.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> in) noexcept : in_(in) {}

  void raw(void* p, std::size_t n) {
    CANB_ASSERT_MSG(pos_ + n <= in_.size(), "wire::Reader underflow");
    if (n != 0) std::memcpy(p, in_.data() + pos_, n);
    pos_ += n;
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  T scalar() {
    T v;
    raw(&v, sizeof v);
    return v;
  }

  /// Inverse of Writer::lane. Resizes the destination (capacity-preserving
  /// when shrinking, like the SoaBlock assign family).
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void lane(std::vector<T>& v) {
    const auto n = static_cast<std::size_t>(scalar<std::uint64_t>());
    v.resize(n);
    raw(v.data(), n * sizeof(T));
  }

  std::size_t remaining() const noexcept { return in_.size() - pos_; }
  bool done() const noexcept { return pos_ == in_.size(); }

 private:
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

template <class B>
concept HasMemberWire = requires(const B& cb, Writer& w, B& b, Reader& r) {
  cb.wire_put(w);
  b.wire_get(r);
};

/// True when B can cross a byte transport losslessly. Payload types that
/// are neither (the baselines' engine-private structs) make the primitives
/// fall back to the in-process data move; they never cross a process
/// boundary, because a transport carries only the CA methods.
template <class B>
constexpr bool serializable = HasMemberWire<B> || std::is_trivially_copyable_v<B>;

template <class B>
void put(Writer& w, const B& b) {
  if constexpr (HasMemberWire<B>) {
    b.wire_put(w);
  } else {
    static_assert(std::is_trivially_copyable_v<B>, "payload type has no wire support");
    w.scalar(b);
  }
}

template <class B>
void get(Reader& r, B& b) {
  if constexpr (HasMemberWire<B>) {
    b.wire_get(r);
  } else {
    static_assert(std::is_trivially_copyable_v<B>, "payload type has no wire support");
    b = r.scalar<B>();
  }
}

/// One-shot encode into a reusable buffer.
template <class B>
void to_bytes(const B& b, Bytes& out) {
  Writer w(out);
  put(w, b);
}

/// One-shot decode; the payload must consume the frame exactly.
template <class B>
void from_bytes(B& b, std::span<const std::byte> in) {
  Reader r(in);
  get(r, b);
  CANB_ASSERT_MSG(r.done(), "wire::from_bytes: trailing bytes in frame");
}

}  // namespace canb::wire

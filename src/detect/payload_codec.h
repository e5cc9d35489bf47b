// Little-endian raw-byte payload codec shared by the streaming-detector
// checkpoint (streaming.cpp) and the θ_hm signature cache (hm_cache.cpp).
//
// The encoded payload is framed, versioned, and CRC-checked by the
// checkpoint writer; these helpers only serialize trivially-copyable scalars
// and arrays into/out of a contiguous buffer, throwing
// util::ParseError on any read past the end so a truncated payload can never
// be half-applied.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace tradeplot::detect {

class PayloadWriter {
 public:
  /// kCount only adds up the bytes it is given: size() is then the exact
  /// payload length, for a kWrite writer to reserve() up front.
  enum class Mode { kWrite, kCount };

  explicit PayloadWriter(Mode mode = Mode::kWrite) : mode_(mode) {}

  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    size_ += sizeof(value);
    if (mode_ == Mode::kCount) return;
    const char* bytes = reinterpret_cast<const char*>(&value);
    buf_.append(bytes, sizeof(value));
  }

  /// The elements' raw bytes, no length prefix (the reader must know it).
  template <typename T>
  void put_array(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    size_ += v.size() * sizeof(T);
    if (mode_ == Mode::kCount || v.empty()) return;
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::string& bytes() const { return buf_; }

 private:
  Mode mode_;
  std::size_t size_ = 0;
  std::string buf_;
};

class PayloadReader {
 public:
  explicit PayloadReader(const std::string& buf) : buf_(buf) {}

  template <typename T>
  T take() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    if (pos_ + sizeof(value) > buf_.size())
      throw util::ParseError("checkpoint: truncated payload");
    std::memcpy(&value, buf_.data() + pos_, sizeof(value));
    pos_ += sizeof(value);
    return value;
  }

  /// Replaces `out` with the next `n` elements. Checks that their bytes are
  /// in the payload before allocating anything, so a corrupt count can
  /// never trigger a huge allocation.
  template <typename T>
  void take_array(std::vector<T>& out, std::uint64_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > remaining() / sizeof(T)) throw util::ParseError("checkpoint: truncated payload");
    out.resize(static_cast<std::size_t>(n));
    if (n != 0) std::memcpy(out.data(), buf_.data() + pos_, out.size() * sizeof(T));
    pos_ += out.size() * sizeof(T);
  }

  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }

 private:
  const std::string& buf_;
  std::size_t pos_ = 0;
};

}  // namespace tradeplot::detect

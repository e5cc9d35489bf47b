// Little-endian raw-byte payload codec shared by the streaming-detector
// checkpoint (streaming.cpp) and the θ_hm signature cache (hm_cache.cpp).
//
// The encoded payload is framed, versioned, and CRC-checked by the
// checkpoint writer; these helpers only serialize trivially-copyable scalars
// and arrays into a buffer or a stream and out of a contiguous buffer,
// throwing util::ParseError on any read past the end so a truncated payload
// can never be half-applied.
#pragma once

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/checksum.h"
#include "util/error.h"

namespace tradeplot::detect {

class PayloadWriter {
 public:
  /// kCount only adds up the bytes it is given: size() is then the exact
  /// payload length, for a checkpoint header to announce before the payload.
  /// kWrite keeps the whole payload in bytes() (the benchmark's replay
  /// detector and the codec tests read it there). A writer bound to a stream
  /// (the second constructor) sends it on through a staging buffer instead.
  enum class Mode { kWrite, kCount };

  explicit PayloadWriter(Mode mode = Mode::kWrite) : mode_(mode) {}

  /// Streams the payload to `out` through a kStagingBytes buffer; an array
  /// at least that large goes to `out` straight from its vector. The CRC-32
  /// runs over each piece as it leaves, so the payload is never held whole.
  /// Throws util::IoError as soon as `out` fails.
  explicit PayloadWriter(std::ostream& out) : mode_(Mode::kWrite), out_(&out) {
    buf_.reserve(kStagingBytes);
  }

  static constexpr std::size_t kStagingBytes = std::size_t{64} << 10;

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    size_ += sizeof(value);
    if (mode_ == Mode::kCount) return;
    if (out_ != nullptr && buf_.size() + sizeof(value) > kStagingBytes) spill();
    const char* bytes = reinterpret_cast<const char*>(&value);
    buf_.append(bytes, sizeof(value));
  }

  /// The elements' raw bytes, no length prefix (the reader must know it).
  template <typename T>
  void put_array(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = v.size() * sizeof(T);
    size_ += n;
    if (mode_ == Mode::kCount || v.empty()) return;
    const char* bytes = reinterpret_cast<const char*>(v.data());
    if (out_ != nullptr && buf_.size() + n > kStagingBytes) {
      spill();
      if (n >= kStagingBytes) {
        emit(bytes, n);
        return;
      }
    }
    buf_.append(bytes, n);
  }

  /// Stream mode: writes what is still staged and returns the CRC-32 of the
  /// whole payload (util::crc32 of its size() bytes).
  std::uint32_t finish() {
    spill();
    return crc_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// kWrite mode without a stream: the payload so far.
  [[nodiscard]] const std::string& bytes() const { return buf_; }

 private:
  void spill() {
    emit(buf_.data(), buf_.size());
    buf_.clear();
  }

  void emit(const char* data, std::size_t n) {
    crc_ = util::crc32(data, n, crc_);
    if (!out_->write(data, static_cast<std::streamsize>(n)))
      throw util::IoError("checkpoint write failed");
  }

  Mode mode_;
  std::ostream* out_ = nullptr;
  std::size_t size_ = 0;
  std::uint32_t crc_ = 0;
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

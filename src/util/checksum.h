// Data integrity checksums.
//
// crc32 implements the IEEE 802.3 CRC (reflected polynomial 0xEDB88320),
// the same function used by zlib/PNG/Ethernet. The checkpoint format (see
// detect/streaming.h) appends it to every serialized payload so that a
// truncated or bit-flipped checkpoint is rejected on restore instead of
// silently resurrecting corrupt detector state.
//
// Inputs of 64 bytes and more run a PCLMULQDQ fold on x86 CPUs that have it
// (chosen once per process from CPUID); the result is the same bit for bit
// as the bytewise table loop that serves everything else.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tradeplot::util {

/// CRC-32 of `n` bytes at `data`. `seed` is the running CRC from a previous
/// call, letting large payloads be checksummed in chunks:
///   crc32(b, n1 + n2) == crc32(b + n1, n2, crc32(b, n1)).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

}  // namespace tradeplot::util

// Tests for util::crc32 (src/util/checksum.h). Inputs of 64 bytes and more
// take the carry-less-multiply fold on CPUs that have it, shorter ones and
// the tail the bytewise loop; every result must equal a plain bitwise CRC.
#include "util/checksum.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace tradeplot::util {
namespace {

/// The definition, one bit at a time: no table, no fold.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t n, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng.next());
  return out;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32("", 0, 0x12345678u), 0x12345678u);  // no bytes, no change
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  const std::string zeros(4096, '\0');
  EXPECT_EQ(crc32(zeros.data(), zeros.size()),
            reference_crc32(reinterpret_cast<const unsigned char*>(zeros.data()), zeros.size(),
                            0));
}

TEST(Crc32, SeedChainsAtEverySplit) {
  const std::vector<unsigned char> buf = random_bytes(1024, 7);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    SCOPED_TRACE("split at " + std::to_string(split));
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split, crc32(buf.data(), split)), whole);
  }
}

TEST(Crc32, MatchesTheBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = random_bytes(1100 + 16, 11);
  for (const std::uint32_t seed : {0u, 0xFFFFFFFFu, 0x9E3779B9u}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t n = 0; n <= 1100; ++n) {
        const unsigned char* p = buf.data() + offset;
        ASSERT_EQ(crc32(p, n, seed), reference_crc32(p, n, seed))
            << "seed " << seed << " offset " << offset << " length " << n;
      }
    }
  }
}

TEST(Crc32, MatchesTheBitwiseReferenceOnALargeBuffer) {
  const std::vector<unsigned char> buf = random_bytes(8u << 20, 20100621);
  EXPECT_EQ(crc32(buf.data(), buf.size()), reference_crc32(buf.data(), buf.size(), 0));
}

}  // namespace
}  // namespace tradeplot::util

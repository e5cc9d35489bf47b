// Blocked Bloom filter over 64-bit keys.
//
// The θ_hm distance cache (detect::HmCache) keeps the last window's pair
// distances in a hash map keyed by packed host pairs, and the dense distance
// fill probes it for every pair. In a partially warm window many probes miss,
// and a hash-map miss still costs a bucket walk. This filter sits in front of
// such stores: `maybe_contains` returning false is a guarantee the key was
// never inserted, so the caller can skip the map probe entirely. False
// positives only cost the probe that would have happened anyway; they can
// never change a verdict.
//
// Design: single-cache-line-free "blocked" scheme collapsed to one 64-bit
// word per key. The mixed hash picks a word with its high bits and two bit
// positions inside that word with its low bits, so each probe touches exactly
// one word (one cache line) and needs one multiply-shift hash. With
// bits >= 16 per expected key the two-bit-per-key false-positive rate stays
// around 1-2%, which is plenty for a probe gate.
//
// Not thread-safe for concurrent insert; concurrent `maybe_contains` against
// a quiescent filter is fine (plain loads of plain stores published by the
// caller's own synchronization).
#pragma once

#include <cstdint>
#include <vector>

namespace tradeplot::util {

class BloomFilter {
 public:
  BloomFilter() = default;

  // Sizes the filter for `expected_keys` insertions and clears it. Capacity
  // is rounded up to a power of two of at least 1024 bits (16 words) so the
  // word index is a mask, never a modulo.
  void reset(std::size_t expected_keys) {
    std::uint64_t bits = 1024;
    const std::uint64_t want =
        expected_keys > 64 ? static_cast<std::uint64_t>(expected_keys) * 16 : 1024;
    while (bits < want) bits <<= 1;
    words_.assign(static_cast<std::size_t>(bits >> 6), 0);
    mask_ = (bits >> 6) - 1;
  }

  bool empty() const { return words_.empty(); }

  void clear() {
    words_.clear();
    mask_ = 0;
  }

  void insert(std::uint64_t key) {
    const std::uint64_t h = mix(key);
    words_[static_cast<std::size_t>((h >> 32) & mask_)] |= word_bits(h);
  }

  // False => the key was definitely never inserted. True => probe the store.
  // An empty (never-reset) filter returns true for every key: "no filter"
  // must degrade to "always probe", never to "always skip".
  bool maybe_contains(std::uint64_t key) const {
    if (words_.empty()) return true;
    const std::uint64_t h = mix(key);
    const std::uint64_t bits = word_bits(h);
    return (words_[static_cast<std::size_t>((h >> 32) & mask_)] & bits) == bits;
  }

 private:
  // splitmix64 finalizer: full-avalanche, so packed sequential pair keys
  // spread across the whole word array.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  static std::uint64_t word_bits(std::uint64_t h) {
    return (1ull << (h & 63)) | (1ull << ((h >> 6) & 63));
  }

  std::vector<std::uint64_t> words_;
  std::uint64_t mask_ = 0;
};

}  // namespace tradeplot::util

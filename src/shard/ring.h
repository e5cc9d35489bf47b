// Consistent-hash ring assigning source hosts to worker shards.
//
// StreamingDetector (StreamingConfig::shards > 1) partitions the per-host
// state of one detection window across N workers. The partition must be (a) deterministic — every
// run, every process, every shard count maps a host the same way, because
// checkpoints encode per-shard state; (b) balanced — per-shard host counts
// within a few percent of n/N so the slowest shard does not dominate the
// window close; and (c) stable under resharding — growing N by one should
// move ~1/N of the hosts, not reshuffle everything, so an operator can
// re-bucket a saved trace (trace_tool shard) and compare runs.
//
// Standard construction: each shard contributes `vnodes` points on a
// 64-bit ring, at splitmix64(shard, replica); a host lands on the first
// point clockwise from splitmix64(address). splitmix64 is a fixed public
// mixing function, so the mapping is a pure function of (shards, vnodes,
// address) — nothing about it depends on process, platform, or time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "simnet/address.h"

namespace tradeplot::shard {

/// The 64-bit finalizer from the splitmix64 PRNG: bijective, cheap, and
/// avalanching — a fixed constant of the checkpoint format, never to change.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class HashRing {
 public:
  static constexpr std::size_t kDefaultVnodes = 64;

  /// Throws util::ConfigError if shards == 0 or vnodes == 0.
  explicit HashRing(std::size_t shards, std::size_t vnodes = kDefaultVnodes);

  /// The shard owning `host` (uniform across the ring; one-shard rings
  /// short-circuit to 0).
  [[nodiscard]] std::size_t shard_of(simnet::Ipv4 host) const;

  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] std::size_t vnodes() const { return vnodes_; }

 private:
  std::size_t shards_;
  std::size_t vnodes_;
  /// Ring points sorted by (hash, shard) — the shard tiebreak makes the
  /// astronomically-unlikely hash collision deterministic too.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
  /// Lookup index over the ring: the hash space cut into a power-of-two
  /// count of equal buckets (>= 4 per point), first_[b] the first point at
  /// or past bucket b's start. A lookup scans only its bucket's few points
  /// instead of binary-searching the whole ring; the answer is the same.
  std::vector<std::uint32_t> first_;
  unsigned shift_ = 64;
};

}  // namespace tradeplot::shard

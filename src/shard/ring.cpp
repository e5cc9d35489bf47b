#include "shard/ring.h"

#include <algorithm>

#include "util/error.h"

namespace tradeplot::shard {

HashRing::HashRing(std::size_t shards, std::size_t vnodes)
    : shards_(shards), vnodes_(vnodes) {
  if (shards == 0) throw util::ConfigError("HashRing: shards must be > 0");
  if (vnodes == 0) throw util::ConfigError("HashRing: vnodes must be > 0");
  if (shards == 1) return;  // every host maps to shard 0; no ring needed
  points_.reserve(shards * vnodes);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t r = 0; r < vnodes; ++r) {
      // Mix the (shard, replica) pair through two rounds so replica points
      // of one shard are spread independently.
      const std::uint64_t point =
          splitmix64(splitmix64(static_cast<std::uint64_t>(s) << 32 | r));
      points_.emplace_back(point, static_cast<std::uint32_t>(s));
    }
  }
  std::sort(points_.begin(), points_.end());

  std::size_t buckets = 1;
  for (shift_ = 64; buckets < 4 * points_.size(); buckets *= 2) --shift_;
  first_.resize(buckets);
  std::size_t i = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint64_t bucket_start = static_cast<std::uint64_t>(b) << shift_;
    while (i < points_.size() && points_[i].first < bucket_start) ++i;
    first_[b] = static_cast<std::uint32_t>(i);
  }
}

std::size_t HashRing::shard_of(simnet::Ipv4 host) const {
  if (shards_ == 1) return 0;
  const std::uint64_t h = splitmix64(host.value());
  // The first point past h (upper bound), starting from h's bucket.
  std::size_t i = first_[h >> shift_];
  while (i < points_.size() && points_[i].first <= h) ++i;
  if (i == points_.size()) i = 0;  // wrap past the last point
  return points_[i].second;
}

}  // namespace tradeplot::shard

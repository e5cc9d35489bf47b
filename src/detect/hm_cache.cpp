#include "detect/hm_cache.h"

#include <algorithm>
#include <cstring>

#include "detect/payload_codec.h"

namespace tradeplot::detect {

std::uint64_t HmCache::pair_key(simnet::Ipv4 a, simnet::Ipv4 b) {
  const std::uint32_t lo = a.value() < b.value() ? a.value() : b.value();
  const std::uint32_t hi = a.value() < b.value() ? b.value() : a.value();
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void HmCache::rebuild_distance_filter() {
  distance_filter_.reset(distances.size());
  for (const auto& [key, entry] : distances) distance_filter_.insert(key);
}

void HmCache::clear() {
  signatures.clear();
  distances.clear();
  distance_filter_.clear();
  signatures_built = 0;
  signatures_reused = 0;
  distances_computed = 0;
  distances_reused = 0;
}

void HmCache::encode(PayloadWriter& w) const {
  w.put(static_cast<std::uint64_t>(signatures.size()));
  for (const auto& [host, entry] : signatures) {
    w.put(host.value());
    w.put(entry.hash);
    w.put(static_cast<std::uint64_t>(entry.signature.size()));
    for (const stats::SignaturePoint& p : entry.signature) {
      w.put(p.position);
      w.put(p.weight);
    }
  }
  w.put(static_cast<std::uint64_t>(distances.size()));
  for (const auto& [key, entry] : distances) {
    w.put(key);
    w.put(entry.hash_lo);
    w.put(entry.hash_hi);
    w.put(entry.distance);
  }
  w.put(signatures_built);
  w.put(signatures_reused);
  w.put(distances_computed);
  w.put(distances_reused);
}

void HmCache::decode(PayloadReader& r) {
  HmCache fresh;
  // Reserve no more entries than the remaining bytes could hold, so a
  // corrupt count cannot force a huge allocation before truncation shows.
  const auto sig_count = r.take<std::uint64_t>();
  fresh.signatures.reserve(std::min<std::uint64_t>(sig_count, r.remaining() / 20));
  for (std::uint64_t i = 0; i < sig_count; ++i) {
    const simnet::Ipv4 host(r.take<std::uint32_t>());
    SignatureEntry entry;
    entry.hash = r.take<std::uint64_t>();
    const auto points = r.take<std::uint64_t>();
    entry.signature.reserve(std::min<std::uint64_t>(points, r.remaining() / 16));
    for (std::uint64_t p = 0; p < points; ++p) {
      const double position = r.take<double>();
      const double weight = r.take<double>();
      entry.signature.push_back({position, weight});
    }
    fresh.signatures.emplace(host, std::move(entry));
  }
  const auto pair_count = r.take<std::uint64_t>();
  fresh.distances.reserve(std::min<std::uint64_t>(pair_count, r.remaining() / 32));
  for (std::uint64_t i = 0; i < pair_count; ++i) {
    const auto key = r.take<std::uint64_t>();
    DistanceEntry entry;
    entry.hash_lo = r.take<std::uint64_t>();
    entry.hash_hi = r.take<std::uint64_t>();
    entry.distance = r.take<double>();
    fresh.distances.emplace(key, entry);
  }
  fresh.signatures_built = r.take<std::uint64_t>();
  fresh.signatures_reused = r.take<std::uint64_t>();
  fresh.distances_computed = r.take<std::uint64_t>();
  fresh.distances_reused = r.take<std::uint64_t>();
  fresh.rebuild_distance_filter();
  *this = std::move(fresh);
}

std::uint64_t hm_content_hash(std::span<const double> samples, double fixed_bin_width,
                              int distance_mode) {
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  const auto mix_bytes = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= kPrime;
    }
  };
  mix_bytes(&fixed_bin_width, sizeof(fixed_bin_width));
  mix_bytes(&distance_mode, sizeof(distance_mode));
  const std::uint64_t count = samples.size();
  mix_bytes(&count, sizeof(count));
  if (!samples.empty()) mix_bytes(samples.data(), samples.size() * sizeof(double));
  return h;
}

}  // namespace tradeplot::detect

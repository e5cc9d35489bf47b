// Cross-window signature and distance cache for the θ_hm test.
//
// StreamingDetector recomputes the full θ_hm stage every window even when
// most hosts' timing evidence is unchanged — per-host histogram signatures
// are rebuilt and the O(n²) distance matrix is recomputed from scratch.
// HmCache keys each host's signature by a cheap content hash of its timing
// buffer (the pooled interstitials the signature is built from, plus the
// signature-shaping config), and each pairwise distance by the two hosts'
// hashes. At window close, human_machine_test reuses every cached signature
// and distance whose inputs are unchanged and recomputes only the rows of
// hosts whose buffers changed.
//
// Reused values were produced by the same kernels on identical inputs, so a
// cached window is bit-identical to a cold one — the cache changes wall
// clock, never verdicts. Retention is one window: entries not touched by the
// latest window are dropped, bounding memory (and checkpoint size) at the
// last window's host and pair counts.
//
// The cache serializes through the streaming checkpoint codec (payload
// version 2), so a monitor resumed with --resume keeps its warm state.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>

#include "simnet/address.h"
#include "stats/histogram.h"
#include "util/bloom.h"

namespace tradeplot::detect {

class PayloadReader;
class PayloadWriter;

class HmCache {
 public:
  struct SignatureEntry {
    std::uint64_t hash = 0;
    stats::Signature signature;
  };
  /// Distance between two hosts' signatures, valid only while both hosts'
  /// content hashes match the stored pair (hash_lo/hash_hi follow the
  /// address order of the pair key: lower address first).
  struct DistanceEntry {
    std::uint64_t hash_lo = 0;
    std::uint64_t hash_hi = 0;
    double distance = 0.0;
  };

  std::unordered_map<simnet::Ipv4, SignatureEntry> signatures;
  std::unordered_map<std::uint64_t, DistanceEntry> distances;

  /// Cumulative recompute accounting across windows: how many signatures /
  /// distance cells were rebuilt vs. served from cache. The streaming tests
  /// assert on deltas of these to prove that a one-host change recomputes
  /// only that host's signature and matrix rows.
  std::uint64_t signatures_built = 0;
  std::uint64_t signatures_reused = 0;
  std::uint64_t distances_computed = 0;
  std::uint64_t distances_reused = 0;

  /// Order-insensitive key for a host pair (lower address in the high bits).
  [[nodiscard]] static std::uint64_t pair_key(simnet::Ipv4 a, simnet::Ipv4 b);

  /// Probe gate for `distances`: false guarantees the key is absent, so the
  /// hash-map find can be skipped entirely. The dense distance fill probes
  /// every pair of every cached window, and in a partially warm window many
  /// of those pairs (changed hosts' rows, newly arrived hosts) were never
  /// cached; each map miss would still walk a bucket. False positives just
  /// fall through to the find — they can never change what is served.
  [[nodiscard]] bool distance_maybe_cached(std::uint64_t key) const {
    return distance_filter_.maybe_contains(key);
  }

  /// Rebuilds the probe gate from the current `distances` keys. Must be
  /// called after replacing the map wholesale (window retention, decode);
  /// until the first rebuild the gate conservatively answers "maybe" for
  /// every key, degrading to the plain find. Not serialized — decode
  /// rebuilds it from the restored map.
  void rebuild_distance_filter();

  /// Drops all entries and zeroes the counters.
  void clear();

  /// Appends the cache to a checkpoint payload / restores it. decode reads
  /// exactly what encode wrote and throws util::ParseError on truncation.
  void encode(PayloadWriter& w) const;
  void decode(PayloadReader& r);

 private:
  util::BloomFilter distance_filter_;
};

/// FNV-1a content hash of a host's timing buffer plus the signature-shaping
/// parameters (fixed bin width and distance mode — a config change must
/// never resurrect a signature built under different binning).
[[nodiscard]] std::uint64_t hm_content_hash(std::span<const double> samples,
                                            double fixed_bin_width, int distance_mode);

}  // namespace tradeplot::detect

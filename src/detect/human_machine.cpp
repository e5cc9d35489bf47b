#include "detect/human_machine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "detect/hm_cache.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "stats/descriptive.h"
#include "stats/emd.h"
#include "stats/flat_signature.h"
#include "stats/hcluster.h"
#include "stats/histogram.h"
#include "util/error.h"
#include "util/parallel.h"

namespace tradeplot::detect {

namespace {

/// theta_hm metric handles: signature / distance provenance counters (the
/// cross-window cache's hit economics) plus per-tile kernel timings.
struct HmObs {
  obs::Counter& signatures_built = obs::Registry::global().counter(
      "tradeplot_hm_signatures_total", "theta_hm host signatures, by provenance",
      {{"op", "built"}});
  obs::Counter& signatures_reused = obs::Registry::global().counter(
      "tradeplot_hm_signatures_total", "theta_hm host signatures, by provenance",
      {{"op", "reused"}});
  obs::Counter& distances_computed = obs::Registry::global().counter(
      "tradeplot_hm_distances_total", "theta_hm pairwise distances, by provenance",
      {{"op", "computed"}});
  obs::Counter& distances_reused = obs::Registry::global().counter(
      "tradeplot_hm_distances_total", "theta_hm pairwise distances, by provenance",
      {{"op", "reused"}});
  obs::Histogram& tile_seconds = obs::Registry::global().histogram(
      "tradeplot_pairwise_tile_seconds",
      "Wall-clock duration of one pairwise distance tile", obs::duration_buckets(),
      {{"kernel", "bin_l1"}});
  obs::Counter& degenerate_hosts = obs::Registry::global().counter(
      "tradeplot_hm_degenerate_hosts_total",
      "theta_hm hosts skipped for degenerate timing evidence");
  obs::Counter& cluster_exact_evals = obs::Registry::global().counter(
      "tradeplot_cluster_exact_evals_total",
      "theta_hm exact kernel evaluations by the clustering engine");

  static HmObs& get() {
    static HmObs o;
    return o;
  }
};

/// S1: a negative or non-finite fixed_bin_width used to fall silently back to
/// the 60 s grid inside bin_l1_grid; it is a misconfiguration and is rejected
/// up front. 0 stays valid (the documented FD / 60 s fallback sentinel).
void validate_config(const HumanMachineConfig& config) {
  if (!std::isfinite(config.fixed_bin_width) || config.fixed_bin_width < 0.0) {
    throw util::ConfigError(
        "theta_hm: fixed_bin_width must be a finite, non-negative seconds value");
  }
}

/// S2: a signature the distance kernels would reject (zero mass, non-finite
/// or negative weight, non-finite position). Such a host is skipped and
/// accounted instead of aborting the whole window.
bool degenerate_signature(const stats::Signature& s) {
  double mass = 0.0;
  for (const stats::SignaturePoint& p : s) {
    if (!std::isfinite(p.position) || !std::isfinite(p.weight) || p.weight < 0.0) return true;
    mass += p.weight;
  }
  return !(mass > 0.0);
}

/// All signatures re-binned once onto the absolute grid, stored flat. The
/// per-pair kernel is then a straight L1 sweep with no lookups and no
/// allocation. Two storage forms, bit-identical in the sums they produce
/// (the sweep visits bins in ascending order either way, and bins where both
/// signatures are empty contribute an exact 0.0):
///  * dense  — one weight vector per signature over the population's full
///             [lo, hi] bin span; branch-free sweep. Used when the span is
///             modest (the realistic case: interstitials bounded by the
///             detection window over a 60 s grid).
///  * sparse — per-signature sorted (bin, weight) arrays with a merge
///             sweep; keeps memory O(points) when outlier positions blow
///             the span up.
class FlatBinSet {
 public:
  FlatBinSet(const std::vector<stats::Signature>& sigs, double grid, std::size_t threads) {
    const std::size_t n = sigs.size();
    // Validate serially, up front: a malformed signature must throw on the
    // calling thread before any worker starts.
    for (const stats::Signature& s : sigs) {
      double mass = 0.0;
      for (const stats::SignaturePoint& p : s) {
        if (p.weight < 0.0) throw util::ConfigError("bin-L1: negative signature weight");
        mass += p.weight;
      }
      if (!(mass > 0.0)) throw util::ConfigError("bin-L1: signature has no mass");
    }

    // Re-bin each signature once (weights accumulated in point order, bins
    // sorted). Each slot is written by exactly one task.
    std::vector<std::vector<std::pair<long long, double>>> sparse(n);
    util::parallel_for(0, n, 8, threads, [&](std::size_t i) {
      // floor, not truncation: casting p.position / grid rounds toward zero
      // and would merge the two grid cells straddling 0 into one bin.
      std::map<long long, double> acc;
      for (const stats::SignaturePoint& p : sigs[i]) {
        acc[std::llround(std::floor(p.position / grid))] += p.weight;
      }
      sparse[i].assign(acc.begin(), acc.end());
    });

    offsets_.resize(n + 1, 0);
    long long lo = 0, hi = -1;
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      offsets_[i + 1] = offsets_[i] + sparse[i].size();
      if (!sparse[i].empty()) {
        lo = any ? std::min(lo, sparse[i].front().first) : sparse[i].front().first;
        hi = any ? std::max(hi, sparse[i].back().first) : sparse[i].back().first;
        any = true;
      }
    }
    bins_.resize(offsets_[n]);
    bin_weights_.resize(offsets_[n]);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < sparse[i].size(); ++k) {
        bins_[offsets_[i] + k] = sparse[i][k].first;
        bin_weights_[offsets_[i] + k] = sparse[i][k].second;
      }
    }

    constexpr long long kDenseMaxBins = 4096;
    if (any && hi - lo + 1 <= kDenseMaxBins) {
      dense_ = true;
      lo_ = lo;
      width_ = static_cast<std::size_t>(hi - lo + 1);
      dense_weights_.assign(n * width_, 0.0);
      util::parallel_for(0, n, 8, threads, [&](std::size_t i) {
        double* row = dense_weights_.data() + i * width_;
        for (std::size_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
          row[static_cast<std::size_t>(bins_[k] - lo_)] = bin_weights_[k];
        }
      });
    }
  }

  [[nodiscard]] double l1(std::size_t i, std::size_t j) const {
    double l1 = 0.0;
    if (dense_) {
      const double* a = dense_weights_.data() + i * width_;
      const double* b = dense_weights_.data() + j * width_;
      for (std::size_t k = 0; k < width_; ++k) l1 += std::abs(a[k] - b[k]);
      return l1;
    }
    std::size_t a = offsets_[i], b = offsets_[j];
    const std::size_t a_end = offsets_[i + 1], b_end = offsets_[j + 1];
    while (a < a_end || b < b_end) {
      if (b >= b_end || (a < a_end && bins_[a] < bins_[b])) {
        l1 += bin_weights_[a++];
      } else if (a >= a_end || bins_[b] < bins_[a]) {
        l1 += bin_weights_[b++];
      } else {
        l1 += std::abs(bin_weights_[a++] - bin_weights_[b++]);
      }
    }
    return l1;
  }

 private:
  std::vector<long long> bins_;
  std::vector<double> bin_weights_;
  std::vector<std::size_t> offsets_;  // n + 1 entries into the sparse arrays
  bool dense_ = false;
  long long lo_ = 0;
  std::size_t width_ = 0;
  std::vector<double> dense_weights_;  // n * width_ when dense
};

/// Calls tile(i_begin, i_end, j_begin, j_end) on the pool once for every
/// k_tile-square tile on or above the diagonal of an n×n matrix. A task that
/// writes its tile's cells (i, j), j > i, and their mirrors is the only
/// writer of those cells, so any worker order produces the identical matrix.
template <typename TileFn>
void for_each_upper_tile(std::size_t n, std::size_t k_tile, std::size_t threads,
                         const TileFn& tile) {
  const std::size_t side = (n + k_tile - 1) / k_tile;
  std::vector<std::pair<std::size_t, std::size_t>> tiles;
  tiles.reserve(side * (side + 1) / 2);
  for (std::size_t ti = 0; ti < side; ++ti) {
    for (std::size_t tj = ti; tj < side; ++tj) tiles.emplace_back(ti, tj);
  }
  util::parallel_for(0, tiles.size(), 1, threads, [&](std::size_t t) {
    const auto [ti, tj] = tiles[t];
    tile(ti * k_tile, std::min(n, (ti + 1) * k_tile), tj * k_tile,
         std::min(n, (tj + 1) * k_tile));
  });
}

double bin_l1_grid(const HumanMachineConfig& config) {
  return config.fixed_bin_width > 0.0 ? config.fixed_bin_width : 60.0;
}

/// The one source of θ_hm leaf distances: the cross-window HmCache first (a
/// pair is served when both hosts' content hashes still match its entry),
/// then the flat kernels — the 4-lane EMD sweep in blocks of four (per-lane
/// bit-identical to the scalar kernel), the scalar kernel for the tail, or
/// the bin-L1 sweep. Every pair is evaluated as (low, high) leaf index: the
/// EMD merge sweep is not bitwise symmetric under tied positions, so one
/// operand order keeps every value bit-identical at every thread count.
///
/// resolve_all() fills the n×n matrix; retain_into_cache() then keeps exactly
/// this window's pairs (one-window retention bounds the cache, and its
/// checkpoint image, by the last window's size) and books the HmCache
/// counters.
class LeafResolver {
 public:
  LeafResolver(const std::vector<stats::Signature>& signatures,
               const std::vector<simnet::Ipv4>& hosts,
               const std::vector<std::uint64_t>& hashes, const HumanMachineConfig& config,
               HmCache* cache)
      : hosts_(hosts), hashes_(hashes), cache_(cache),
        threads_(util::resolve_threads(config.threads)) {
    if (config.distance == HmDistance::kBinL1) {
      bins_.emplace(signatures, bin_l1_grid(config), config.threads);
    } else {
      flat_.emplace(signatures, config.threads);
    }
  }

  /// Every pair into a row-major n×n matrix, filled in 32×32 tiles of the
  /// upper triangle on the pool. Each tile task probes the cache for its
  /// pairs (thread-safe; skipped without a cache), runs its cold pairs row by
  /// row through four-lane blocks, and writes each value and its mirror; only
  /// tile edges share a cache line between tasks.
  [[nodiscard]] const std::vector<double>& resolve_all() {
    const std::size_t n = hosts_.size();
    matrix_.assign(n * n, 0.0);
    const auto put = [&](std::size_t i, std::size_t j, double v) {
      matrix_[i * n + j] = v;
      matrix_[j * n + i] = v;
    };
    for_each_upper_tile(n, 32, threads_, [&](std::size_t i_begin, std::size_t i_end,
                                             std::size_t j_begin, std::size_t j_end) {
      std::uint64_t evals = 0;
      for (std::size_t i = i_begin; i < i_end; ++i) {
        const std::size_t a4[4] = {i, i, i, i};
        std::size_t b4[4];
        double out4[4];
        std::size_t lanes = 0;
        const auto flush = [&] {
          eval_block(a4, b4, lanes, out4);
          for (std::size_t l = 0; l < lanes; ++l) put(i, b4[l], out4[l]);
          evals += lanes;
          lanes = 0;
        };
        for (std::size_t j = std::max(i + 1, j_begin); j < j_end; ++j) {
          double v = 0.0;
          if (cache_ != nullptr && cache_probe(i, j, v)) {
            put(i, j, v);
            continue;
          }
          b4[lanes++] = j;
          if (lanes == 4) flush();
        }
        flush();
      }
      kernel_evals_.fetch_add(evals, std::memory_order_relaxed);
    });
    return matrix_;
  }

  [[nodiscard]] std::uint64_t kernel_evals() const {
    return kernel_evals_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }

  /// One-window retention of the matrix's upper triangle, so the next warm
  /// window's pairs become pure cache hits; books this window's HmCache
  /// counters.
  void retain_into_cache() {
    if (cache_ == nullptr) return;
    const std::size_t n = hosts_.size();
    std::unordered_map<std::uint64_t, HmCache::DistanceEntry> retained;
    retained.reserve(n * (n - 1) / 2);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const bool i_low = hosts_[i].value() < hosts_[j].value();
        retained.emplace(HmCache::pair_key(hosts_[i], hosts_[j]),
                         HmCache::DistanceEntry{i_low ? hashes_[i] : hashes_[j],
                                                i_low ? hashes_[j] : hashes_[i],
                                                matrix_[i * n + j]});
      }
    }
    cache_->distances = std::move(retained);
    cache_->rebuild_distance_filter();
    cache_->distances_computed += kernel_evals();
    cache_->distances_reused += cache_hits();
  }

 private:
  /// Cross-window cache probe (thread-safe: map reads only, atomic counter).
  /// True and fills `v` when the cached value's content hashes still match.
  bool cache_probe(std::size_t i, std::size_t j, double& v) {
    if (cache_ == nullptr) return false;
    const std::uint64_t key = HmCache::pair_key(hosts_[i], hosts_[j]);
    // Bloom gate: in a partially warm window most probed pairs (changed
    // hosts' rows, new hosts) were never cached, and the filter answers
    // "definitely absent" without a bucket walk.
    if (!cache_->distance_maybe_cached(key)) return false;
    const auto it = cache_->distances.find(key);
    if (it == cache_->distances.end()) return false;
    const bool i_low = hosts_[i].value() < hosts_[j].value();
    const std::uint64_t hash_lo = i_low ? hashes_[i] : hashes_[j];
    const std::uint64_t hash_hi = i_low ? hashes_[j] : hashes_[i];
    if (it->second.hash_lo != hash_lo || it->second.hash_hi != hash_hi) return false;
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    v = it->second.distance;
    return true;
  }

  /// The exact kernel for one (a, b) pair, a < b.
  [[nodiscard]] double kernel(std::size_t a, std::size_t b) const {
    return bins_ ? bins_->l1(a, b) : stats::emd_1d_presorted(flat_->view(a), flat_->view(b));
  }

  /// Exact distances of `lanes` (a[l], b[l]) pairs, a[l] < b[l], lanes <= 4:
  /// one 4-lane EMD sweep for a full EMD block, the scalar kernel otherwise.
  void eval_block(const std::size_t* a, const std::size_t* b, std::size_t lanes,
                  double* out) const {
    if (flat_ && lanes == 4) {
      flat_->emd_x4(a, b, out);
      return;
    }
    for (std::size_t l = 0; l < lanes; ++l) out[l] = kernel(a[l], b[l]);
  }

  const std::vector<simnet::Ipv4>& hosts_;
  const std::vector<std::uint64_t>& hashes_;
  HmCache* cache_;
  std::size_t threads_;
  std::optional<FlatBinSet> bins_;
  std::optional<stats::FlatSignatureSet> flat_;
  std::vector<double> matrix_;  // n×n
  std::atomic<std::uint64_t> kernel_evals_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
};

/// θ_hm preparation: eligibility screen, content hashes, parallel signature
/// build, degenerate compaction, and cache signature retention. When fewer
/// than min_cluster_size hosts survive, prep stops where the distance stage
/// would have been skipped (ready stays false and the cache is left
/// untouched).
struct HmPrep {
  std::vector<simnet::Ipv4> hosts;
  std::vector<const HostFeatures*> eligible;
  std::vector<std::uint64_t> hashes;  // filled only when a cache is in play
  std::vector<stats::Signature> signatures;
  bool ready = false;
};

HmPrep prepare_hm(const FeatureMap& features, const HostSet& input,
                  const HumanMachineConfig& config, HmCache* cache, HostSet& skipped,
                  HostSet& degenerate, bool& degraded) {
  HmPrep prep;
  const std::size_t min_required = std::max<std::size_t>(config.min_cluster_size, 1);
  const auto mark_degenerate = [&](simnet::Ipv4 host) {
    skipped.push_back(host);
    degenerate.push_back(host);
    degraded = true;
    if (obs::enabled()) HmObs::get().degenerate_hosts.add(1);
  };

  // Select eligible hosts serially (cheap), then build the histogram
  // signatures in parallel — each host writes only its own slot, so the
  // signature list is identical for every thread count. A host whose timing
  // buffer cannot produce a valid histogram (empty, or containing non-finite
  // samples the kernels would reject) is skipped and accounted as degenerate
  // instead of aborting the window.
  std::vector<simnet::Ipv4>& hosts = prep.hosts;
  std::vector<const HostFeatures*>& eligible = prep.eligible;
  for (const simnet::Ipv4 host : input) {
    const auto it = features.find(host);
    if (it == features.end())
      throw util::ConfigError("host " + host.to_string() + " missing from feature map");
    const HostFeatures& f = it->second;
    if (f.interstitials.size() < config.min_samples) {
      skipped.push_back(host);
      continue;
    }
    const bool finite = std::all_of(f.interstitials.begin(), f.interstitials.end(),
                                    [](double v) { return std::isfinite(v); });
    if (f.interstitials.empty() || !finite) {
      mark_degenerate(host);
      continue;
    }
    hosts.push_back(host);
    eligible.push_back(&f);
  }
  if (hosts.size() < min_required) return prep;

  // Content hashes of the timing buffers gate signature reuse: a host whose
  // interstitials are byte-identical to its cached entry keeps its signature
  // (and, below, its distance rows) without recomputation.
  std::vector<std::uint64_t>& hashes = prep.hashes;
  std::vector<std::uint8_t> reuse_signature;
  if (cache != nullptr) {
    hashes.resize(hosts.size());
    reuse_signature.assign(hosts.size(), 0);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      hashes[i] = hm_content_hash(eligible[i]->interstitials, config.fixed_bin_width,
                                  static_cast<int>(config.distance));
      const auto it = cache->signatures.find(hosts[i]);
      reuse_signature[i] = it != cache->signatures.end() && it->second.hash == hashes[i];
    }
  }

  std::vector<stats::Signature>& signatures = prep.signatures;
  signatures.resize(hosts.size());
  {
    const obs::StageTimer sig_timer(obs::Stage::kSignatureBuild);
    util::parallel_for(0, hosts.size(), 1, config.threads, [&](std::size_t i) {
      if (cache != nullptr && reuse_signature[i]) {
        signatures[i] = cache->signatures.at(hosts[i]).signature;
        return;
      }
      const HostFeatures& f = *eligible[i];
      const stats::Histogram hist =
          config.fixed_bin_width > 0.0
              ? stats::Histogram(f.interstitials, config.fixed_bin_width)
              : stats::Histogram::with_fd_width(f.interstitials);
      signatures[i] = config.distance == HmDistance::kEmdBinIndex ? hist.index_signature()
                                                                  : hist.signature();
    });
  }
  // Post-build screen: a histogram can still be degenerate (zero total mass,
  // non-finite bin centres from pathological widths). Compact such hosts out
  // of every parallel array before the distance stage — the kernels would
  // otherwise throw and abort the whole window.
  {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (degenerate_signature(signatures[i])) {
        mark_degenerate(hosts[i]);
        continue;
      }
      if (kept != i) {
        hosts[kept] = hosts[i];
        eligible[kept] = eligible[i];
        signatures[kept] = std::move(signatures[i]);
        if (cache != nullptr) {
          hashes[kept] = hashes[i];
          reuse_signature[kept] = reuse_signature[i];
        }
      }
      ++kept;
    }
    if (kept != hosts.size()) {
      hosts.resize(kept);
      eligible.resize(kept);
      signatures.resize(kept);
      if (cache != nullptr) {
        hashes.resize(kept);
        reuse_signature.resize(kept);
      }
    }
  }
  if (hosts.size() < min_required) return prep;

  if (cache != nullptr) {
    const std::size_t built_before = cache->signatures_built;
    const std::size_t reused_before = cache->signatures_reused;
    std::unordered_map<simnet::Ipv4, HmCache::SignatureEntry> retained;
    retained.reserve(hosts.size());
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (reuse_signature[i]) {
        ++cache->signatures_reused;
      } else {
        ++cache->signatures_built;
      }
      retained.emplace(hosts[i], HmCache::SignatureEntry{hashes[i], signatures[i]});
    }
    cache->signatures = std::move(retained);
    if (obs::enabled()) {
      HmObs& o = HmObs::get();
      o.signatures_built.add(cache->signatures_built - built_before);
      o.signatures_reused.add(cache->signatures_reused - reused_before);
    }
  } else if (obs::enabled()) {
    HmObs::get().signatures_built.add(hosts.size());
  }
  prep.ready = true;
  return prep;
}

}  // namespace

std::vector<double> pairwise_bin_l1(const std::vector<stats::Signature>& sigs,
                                    const HumanMachineConfig& config) {
  validate_config(config);
  const std::size_t n = sigs.size();
  const FlatBinSet bins(sigs, bin_l1_grid(config), config.threads);
  std::vector<double> d(n * n, 0.0);
  if (n < 2) return d;
  for_each_upper_tile(n, 64, config.threads, [&](std::size_t i_begin, std::size_t i_end,
                                                 std::size_t j_begin, std::size_t j_end) {
    const obs::ScopedTimer tile_timer(obs::enabled() ? &HmObs::get().tile_seconds : nullptr);
    for (std::size_t i = i_begin; i < i_end; ++i) {
      for (std::size_t j = std::max(i + 1, j_begin); j < j_end; ++j) {
        d[i * n + j] = bins.l1(i, j);
        d[j * n + i] = d[i * n + j];
      }
    }
  });
  return d;
}

HumanMachineResult human_machine_test(const FeatureMap& features, const HostSet& input,
                                      const HumanMachineConfig& config, HmCache* cache) {
  validate_config(config);
  HumanMachineResult result;
  const auto finish = [&result] {
    std::sort(result.skipped.begin(), result.skipped.end());
    std::sort(result.degenerate.begin(), result.degenerate.end());
  };

  HmPrep prep = prepare_hm(features, input, config, cache, result.skipped,
                           result.degenerate, result.degraded);
  if (!prep.ready) {
    finish();
    return result;
  }
  std::vector<simnet::Ipv4>& hosts = prep.hosts;
  std::vector<std::uint64_t>& hashes = prep.hashes;
  std::vector<stats::Signature>& signatures = prep.signatures;

  const std::size_t n = hosts.size();
  result.prune.pairs_total = static_cast<std::uint64_t>(n) * (n - 1) / 2;

  LeafResolver resolver(signatures, hosts, hashes, config, cache);
  const std::vector<double>& distances = [&]() -> const std::vector<double>& {
    const obs::StageTimer dist_timer(obs::Stage::kPairwiseDistance);
    return resolver.resolve_all();
  }();
  const auto groups = [&] {
    const obs::StageTimer cluster_timer(obs::Stage::kClustering);
    const stats::Dendrogram dendrogram = stats::agglomerative_average_linkage(distances, n);
    return dendrogram.cut_top_fraction(config.cut_fraction);
  }();
  std::vector<double> diameters;
  for (const auto& group : groups) {
    if (group.size() < config.min_cluster_size) continue;
    HostCluster cluster;
    for (const std::size_t idx : group) cluster.members.push_back(hosts[idx]);
    cluster.diameter = stats::cluster_diameter(distances, n, group);
    diameters.push_back(cluster.diameter);
    result.clusters.push_back(std::move(cluster));
  }

  resolver.retain_into_cache();
  result.prune.exact_kernel_evals = resolver.kernel_evals();
  result.prune.cache_hits = resolver.cache_hits();
  if (obs::enabled()) {
    HmObs& o = HmObs::get();
    o.distances_computed.add(resolver.kernel_evals());
    o.distances_reused.add(resolver.cache_hits());
    o.cluster_exact_evals.add(resolver.kernel_evals());
  }
  if (result.clusters.empty()) {
    finish();
    return result;
  }

  result.tau_hm = stats::quantile(diameters, config.diameter_percentile);
  for (HostCluster& cluster : result.clusters) {
    cluster.kept = cluster.diameter <= result.tau_hm;
    if (cluster.kept) {
      result.flagged.insert(result.flagged.end(), cluster.members.begin(),
                            cluster.members.end());
    }
  }
  std::sort(result.flagged.begin(), result.flagged.end());
  finish();
  return result;
}

}  // namespace tradeplot::detect

#include "stats/hcluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "stats/simd.h"
#include "util/bloom.h"
#include "util/error.h"
#include "util/flat_map.h"

namespace tradeplot::stats {

Dendrogram::Dendrogram(std::size_t leaves, std::vector<Merge> merges)
    : leaves_(leaves), merges_(std::move(merges)) {
  if (leaves_ == 0) throw util::ConfigError("dendrogram with no leaves");
  if (merges_.size() + 1 != leaves_ && !(leaves_ == 1 && merges_.empty()))
    throw util::ConfigError("dendrogram must have exactly n-1 merges");
}

std::vector<std::vector<std::size_t>> Dendrogram::components(
    const std::vector<bool>& keep_merge) const {
  // Union-find over leaves; apply kept merges only. Each node is represented
  // by a *structural* leaf — its left-descent leaf — so the result is the
  // plain graph connectivity after deleting the cut links, independent of
  // merge processing order. (An earlier version walked merges in height
  // order and chained representatives through internal-node slots; floating-
  // point rounding makes UPGMA heights non-monotone at noise level, the sort
  // then places a parent before its child, and the walk read uninitialized
  // slots — orphaning whole subtrees on near-tie populations.)
  std::vector<std::size_t> left_leaf(leaves_ + merges_.size());
  std::iota(left_leaf.begin(), left_leaf.begin() + static_cast<std::ptrdiff_t>(leaves_), 0);
  for (std::size_t k = 0; k < merges_.size(); ++k) {
    std::size_t x = merges_[k].left;
    while (x >= leaves_) x = merges_[x - leaves_].left;
    left_leaf[leaves_ + k] = x;
  }
  std::vector<std::size_t> parent(leaves_);
  std::iota(parent.begin(), parent.end(), 0);
  const std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t k = 0; k < merges_.size(); ++k) {
    if (!keep_merge[k]) continue;
    const Merge& m = merges_[k];
    const std::size_t a = find(left_leaf[m.left]);
    const std::size_t b = find(left_leaf[m.right]);
    parent[b] = a;
  }
  std::vector<std::vector<std::size_t>> groups;
  std::vector<int> group_of(leaves_, -1);
  for (std::size_t leaf = 0; leaf < leaves_; ++leaf) {
    const std::size_t root = find(leaf);
    if (group_of[root] < 0) {
      group_of[root] = static_cast<int>(groups.size());
      groups.emplace_back();
    }
    groups[static_cast<std::size_t>(group_of[root])].push_back(leaf);
  }
  for (auto& g : groups) std::sort(g.begin(), g.end());
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return groups;
}

std::vector<std::vector<std::size_t>> Dendrogram::cut_top_fraction(double fraction) const {
  if (fraction < 0.0 || fraction > 1.0)
    throw util::ConfigError("cut fraction must be in [0,1]");
  const std::size_t links = merges_.size();
  const auto to_cut = static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(links)));
  // Indices of the `to_cut` merges with the largest heights (ties: later
  // merges cut first, matching the intuition that higher merges are weaker).
  std::vector<std::size_t> order(links);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    if (merges_[a].height != merges_[b].height) return merges_[a].height > merges_[b].height;
    return a > b;
  });
  std::vector<bool> keep(links, true);
  for (std::size_t i = 0; i < to_cut && i < links; ++i) keep[order[i]] = false;
  return components(keep);
}

std::vector<std::vector<std::size_t>> Dendrogram::cut_at_height(double threshold) const {
  std::vector<bool> keep(merges_.size());
  for (std::size_t k = 0; k < merges_.size(); ++k) keep[k] = merges_[k].height <= threshold;
  return components(keep);
}

namespace {

// The NN-chain discovers merges in an order that is not globally sorted by
// height (only locally reducible). Downstream cuts assume height order, so
// sort and remap internal node ids to the new positions.
std::vector<Merge> sort_merges_by_height(std::vector<Merge> merges, std::size_t n) {
  std::vector<std::size_t> order(merges.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return merges[a].height < merges[b].height;
  });
  std::vector<std::size_t> new_pos(merges.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) new_pos[order[pos]] = pos;
  std::vector<Merge> sorted;
  sorted.reserve(merges.size());
  for (const std::size_t old_idx : order) {
    Merge m = merges[old_idx];
    if (m.left >= n) m.left = n + new_pos[m.left - n];
    if (m.right >= n) m.right = n + new_pos[m.right - n];
    sorted.push_back(m);
  }
  return sorted;
}

}  // namespace

Dendrogram agglomerative_average_linkage(std::span<const double> distances, std::size_t n) {
  if (n == 0) throw util::ConfigError("clustering zero items");
  if (distances.size() != n * n) throw util::ConfigError("distance matrix size mismatch");
  if (n == 1) return Dendrogram(1, {});

  // Working copy of the distance matrix; clusters are "active" slots.
  std::vector<double> d(distances.begin(), distances.end());
  std::vector<std::size_t> size(n, 1);
  std::vector<bool> active(n, true);
  // node_id[i]: dendrogram node currently represented by slot i.
  std::vector<std::size_t> node_id(n);
  std::iota(node_id.begin(), node_id.end(), 0);

  const auto dist = [&](std::size_t a, std::size_t b) -> double& { return d[a * n + b]; };

  std::vector<Merge> merges;
  merges.reserve(n - 1);

  // Nearest-neighbour chain: average linkage is reducible, so following
  // nearest neighbours until a reciprocal pair is found yields the exact
  // UPGMA merge order in O(n^2) total.
  std::vector<std::size_t> chain;
  chain.reserve(n);
  std::size_t remaining = n;
  while (remaining > 1) {
    if (chain.empty()) {
      for (std::size_t i = 0; i < n; ++i)
        if (active[i]) {
          chain.push_back(i);
          break;
        }
    }
    for (;;) {
      const std::size_t top = chain.back();
      // Nearest active neighbour of `top` (prefer the previous chain element
      // on ties so reciprocal pairs terminate the walk).
      std::size_t nearest = top;
      double best = std::numeric_limits<double>::max();
      const std::size_t prev = chain.size() >= 2 ? chain[chain.size() - 2] : n;
      for (std::size_t j = 0; j < n; ++j) {
        if (!active[j] || j == top) continue;
        const double dj = dist(top, j);
        if (dj < best - 1e-15 || (std::abs(dj - best) <= 1e-15 && j == prev)) {
          best = dj;
          nearest = j;
        }
      }
      if (chain.size() >= 2 && nearest == chain[chain.size() - 2]) {
        // Reciprocal nearest neighbours: merge top and nearest.
        const std::size_t a = chain[chain.size() - 2];
        const std::size_t b = top;
        chain.pop_back();
        chain.pop_back();
        const double height = dist(a, b);
        merges.push_back(Merge{node_id[a], node_id[b], height, size[a] + size[b]});
        // Lance-Williams UPGMA update into slot a.
        for (std::size_t k = 0; k < n; ++k) {
          if (!active[k] || k == a || k == b) continue;
          const double na = static_cast<double>(size[a]);
          const double nb = static_cast<double>(size[b]);
          const double merged = (na * dist(a, k) + nb * dist(b, k)) / (na + nb);
          dist(a, k) = merged;
          dist(k, a) = merged;
        }
        size[a] += size[b];
        active[b] = false;
        node_id[a] = n + merges.size() - 1;
        --remaining;
        break;
      }
      chain.push_back(nearest);
    }
  }
  return Dendrogram(n, sort_merges_by_height(std::move(merges), n));
}

namespace {

/// Sparse store of resolved dendrogram-node-pair distances plus the
/// Lance-Williams replay machinery. Node ids are the dendrogram's: leaves
/// 0..n-1, internal node n+k formed by the k-th merge. Ids are immutable and
/// a later-formed node always has the larger id, so a cluster-pair value can
/// be replayed bottom-up with exactly the floating-point expression — and
/// operand order — the dense driver used when it eagerly updated its matrix:
///   d(X, Y) = (|Xl| * d(Xl, Y) + |Xr| * d(Xr, Y)) / (|Xl| + |Xr|)
/// where X is the later-formed of the two and (Xl, Xr) its children. By
/// induction every memoized value is bit-identical to the dense matrix cell
/// it stands for.
class ResolvedStore {
 public:
  struct Internal {
    std::size_t left;    // node id of the slot that survived the merge
    std::size_t right;   // node id of the slot that was absorbed
    double n_left;       // leaves under `left` at merge time
    double n_right;      // leaves under `right` at merge time
  };

  ResolvedStore(std::size_t leaves, const LeafDistanceFn& leaf_distance,
                PruneCounters* counters, bool collect_timing)
      : leaves_(leaves), leaf_distance_(leaf_distance), counters_(counters),
        collect_timing_(collect_timing) {
    memo_.reserve(leaves * 8);
    internal_.reserve(leaves);
    // The Bloom filter shadows every memoized key: NN scans probe mostly
    // absent pairs, and a definite-miss answer here skips the hash-map
    // find (hash + bucket walk + probable cache miss) entirely.
    bloom_.reset(leaves * 8);
  }

  void record_merge(std::size_t left_id, std::size_t right_id, double n_left,
                    double n_right) {
    internal_.push_back(Internal{left_id, right_id, n_left, n_right});
  }

  /// Seeds a leaf-pair value computed elsewhere (e.g. a pivot column entry).
  /// `value` must be bit-identical to what leaf_distance would return for
  /// the pair; the pair then never pays its kernel inside a replay.
  void seed(std::size_t a, std::size_t b, double value) { remember(key(a, b), value); }

  /// Memoized value for a node pair, or nullptr if it was never resolved.
  /// Never triggers resolution work.
  [[nodiscard]] const double* lookup(std::size_t ida, std::size_t idb) const {
    const std::uint64_t k = key(ida, idb);
    if (!bloom_.maybe_contains(k)) {
      if (counters_ != nullptr) ++counters_->bloom_skips;
      return nullptr;
    }
    return memo_.find(k);
  }

  /// True when resolve(ida, idb) would complete without invoking the leaf
  /// kernel — every unmemoized pair underneath decomposes into memoized
  /// leaf-pair values, so the replay is pure Lance-Williams arithmetic.
  [[nodiscard]] bool resolvable_from_cache(std::size_t ida, std::size_t idb) const {
    check_stack_.clear();
    check_stack_.emplace_back(ida, idb);
    while (!check_stack_.empty()) {
      const auto [x, y] = check_stack_.back();
      check_stack_.pop_back();
      if (contains(key(x, y))) continue;
      if (x < leaves_ && y < leaves_) return false;
      const std::size_t split = std::max(x, y);
      const std::size_t other = std::min(x, y);
      const Internal& node = internal_[split - leaves_];
      check_stack_.emplace_back(node.left, other);
      check_stack_.emplace_back(node.right, other);
    }
    return true;
  }

  /// Appends every unmemoized *leaf* pair that resolve(ida, idb) would feed
  /// through the kernel, as (min, max) leaf indices. The decomposition walk
  /// expands disjoint subtree cross-products, so pairs within one call are
  /// distinct — and calls for different scan survivors j stay distinct too,
  /// because the j subtrees are disjoint.
  void collect_missing(std::size_t ida, std::size_t idb,
                       std::vector<std::pair<std::uint32_t, std::uint32_t>>& out) const {
    check_stack_.clear();
    check_stack_.emplace_back(ida, idb);
    while (!check_stack_.empty()) {
      const auto [x, y] = check_stack_.back();
      check_stack_.pop_back();
      if (contains(key(x, y))) continue;
      if (x < leaves_ && y < leaves_) {
        out.emplace_back(static_cast<std::uint32_t>(std::min(x, y)),
                         static_cast<std::uint32_t>(std::max(x, y)));
        continue;
      }
      const std::size_t split = std::max(x, y);
      const std::size_t other = std::min(x, y);
      const Internal& node = internal_[split - leaves_];
      check_stack_.emplace_back(node.left, other);
      check_stack_.emplace_back(node.right, other);
    }
  }

  [[nodiscard]] double resolve(std::size_t ida, std::size_t idb) {
    if (!collect_timing_) return resolve_impl(ida, idb);
    const auto t0 = std::chrono::steady_clock::now();
    const double leaf_before = leaf_seconds_;
    const double v = resolve_impl(ida, idb);
    const double total =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    replay_seconds_ += total - (leaf_seconds_ - leaf_before);
    return v;
  }

  [[nodiscard]] double leaf_seconds() const { return leaf_seconds_; }
  [[nodiscard]] double replay_seconds() const { return replay_seconds_; }

 private:
  [[nodiscard]] double resolve_impl(std::size_t ida, std::size_t idb) {
    if (const double* hit = memo_.find(key(ida, idb)); hit != nullptr) return *hit;
    // Iterative post-order expansion: a pair is computable once both child
    // pairs of its later-formed side are memoized.
    stack_.clear();
    stack_.emplace_back(ida, idb);
    while (!stack_.empty()) {
      const auto [x, y] = stack_.back();
      const std::uint64_t k = key(x, y);
      if (memo_.contains(k)) {
        stack_.pop_back();
        continue;
      }
      if (x < leaves_ && y < leaves_) {
        remember(k, leaf_value(x, y));
        stack_.pop_back();
        continue;
      }
      // Split the later-formed (larger-id) side.
      const std::size_t split = std::max(x, y);
      const std::size_t other = std::min(x, y);
      const Internal& node = internal_[split - leaves_];
      const double* left = memo_.find(key(node.left, other));
      const double* right = memo_.find(key(node.right, other));
      if (left != nullptr && right != nullptr) {
        remember(k, (node.n_left * *left + node.n_right * *right) /
                        (node.n_left + node.n_right));
        stack_.pop_back();
      } else {
        if (left == nullptr) stack_.emplace_back(node.left, other);
        if (right == nullptr) stack_.emplace_back(node.right, other);
      }
    }
    return *memo_.find(key(ida, idb));
  }

  double leaf_value(std::size_t x, std::size_t y) {
    if (!collect_timing_) return x < y ? leaf_distance_(x, y) : leaf_distance_(y, x);
    const auto t0 = std::chrono::steady_clock::now();
    const double v = x < y ? leaf_distance_(x, y) : leaf_distance_(y, x);
    leaf_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return v;
  }

  void remember(std::uint64_t k, double v) {
    memo_.insert(k, v);
    bloom_.insert(k);
  }

  /// Bloom-gated membership test; miss answers skip the hash map.
  [[nodiscard]] bool contains(std::uint64_t k) const {
    return bloom_.maybe_contains(k) && memo_.contains(k);
  }

  [[nodiscard]] static std::uint64_t key(std::size_t a, std::size_t b) {
    const std::uint64_t lo = std::min(a, b);
    const std::uint64_t hi = std::max(a, b);
    return (lo << 32) | hi;
  }

  std::size_t leaves_;
  const LeafDistanceFn& leaf_distance_;
  PruneCounters* counters_;
  bool collect_timing_;
  double leaf_seconds_ = 0.0;
  double replay_seconds_ = 0.0;
  util::BloomFilter bloom_;
  util::Flat64Map memo_;
  std::vector<Internal> internal_;
  std::vector<std::pair<std::size_t, std::size_t>> stack_;
  mutable std::vector<std::pair<std::size_t, std::size_t>> check_stack_;
};

/// Admissibility margin: the bounds are computed with reassociated (possibly
/// SIMD) sums and running means, so the mathematically admissible value
/// carries a few ulps of rounding. Shaving a relative 1e-9 plus an absolute
/// 1e-12 keeps the computed bound below the true one for any realistic
/// distance magnitude; the loss of pruning power is negligible.
double with_margin(double bound) { return bound * (1.0 - 1e-9) - 1e-12; }

constexpr double kInfD = std::numeric_limits<double>::infinity();
// Elimination slack. The dense comparator's winner is within ~2e-15 of the
// true scan minimum, so a candidate provably more than 1e-12 above the
// minimum can neither win nor tie-with-prev; 1e-12 also dominates the
// with_margin() rounding allowance on the bounds themselves.
constexpr double kCutSlack = 1e-12;

/// The lazy nearest-neighbour chain behind average_linkage_cut_pruned.
///
/// Verdict-relevant behaviour — which slot every scan selects, which pairs
/// merge, and every resolved height — is bit-identical to the dense driver's
/// at every thread count; all machinery below only changes *how much work* a
/// scan pays:
///
///  * Pivot means live column-major (cols_[p * n + slot]) so pass 1 is one
///    SIMD interval sweep per scan instead of n strided bound evaluations;
///    dead slots are poisoned to +inf, whose intervals can never win.
///  * An adjacency overlay (per-slot lists of resolved neighbours, validated
///    by slot versions) replaces the per-candidate memo probe of pass 1:
///    a version match certifies slot and pair identity, so the interval
///    collapses to the exact point without hashing at all.
///  * A chain-local scan cache remembers each slot's surviving candidates.
///    When the chain re-enters a slot whose state is unchanged, the rescan
///    only visits the cached survivors plus slots merged since — sound while
///    the scan floor (ub_min) keeps falling, because every other slot was
///    eliminated against a threshold at least as large.
///  * With PruneOptions::batch_leaf set and threads > 1, the missing leaf
///    pairs behind a scan's unresolved survivors are evaluated as one batch
///    (in parallel, results committed serially in pair order) instead of one
///    at a time through the incremental gate. This resolves a superset of
///    the serial gate's pairs — counters vary with the thread count — but
///    every value is exact, so the selection is unchanged.
class PrunedChainEngine {
 public:
  /// A merge in chain-discovery order. `lo`/`hi` bound the true (dense) merge
  /// height; lo == hi with exact == true once the height is known bit-exactly.
  struct ChainMerge {
    std::size_t left;
    std::size_t right;
    double lo;
    double hi;
    bool exact;
    // Synthesized by the top-of-tree early stop: stands for a dense merge
    // already proven to land in the cut set. Must never be resolved — its
    // node ids have no ResolvedStore entry.
    bool forced = false;
  };

  PrunedChainEngine(std::size_t n, const LeafDistanceFn& leaf_distance,
                    const PruneFeatures& features, const PruneOptions& opts,
                    PruneCounters& c)
      : n_(n),
        pivots_(features.pivots),
        grid_bins_(features.grid_bins),
        grid_half_width_(features.grid_half_width),
        opts_(opts),
        c_(c),
        store_(n, leaf_distance, &c, opts.collect_timing) {
    if (pivots_ > 0) {
      cols_.resize(pivots_ * n_);
      for (std::size_t i = 0; i < n_; ++i)
        for (std::size_t p = 0; p < pivots_; ++p)
          cols_[p * n_ + i] = features.pivot_distances[i * pivots_ + p];
      top_vals_.resize(pivots_);
    }
    if (grid_bins_ > 0) {
      grid_mean_.assign(features.grid, features.grid + n_ * grid_bins_);
      snap_mean_.assign(features.snap_cost, features.snap_cost + n_);
    }
    size_.assign(n_, 1);
    active_.assign(n_, 1);
    node_id_.resize(n_);
    std::iota(node_id_.begin(), node_id_.end(), 0);
    slot_version_.assign(n_, 0);
    adj_.resize(n_);
    scan_cache_.resize(n_);
    lo_buf_.assign(n_, 0.0);
    hi_buf_.assign(n_, 0.0);
    exact_buf_.assign(n_, 0);
    in_cand_.assign(n_, 0);
    pass_idx_.resize(n_);
    chain_merges_.reserve(n_ - 1);
    chain_.reserve(n_);
    remaining_ = n_;
    if (features.pivot_leaves != nullptr) {
      // The pivot columns ARE exact leaf distances, so every (leaf, pivot)
      // pair starts resolved for free: seeded into the memo (a replay that
      // crosses a pivot leaf skips its kernel) and into the adjacency
      // overlay (a scan from or over a pivot sees the point, not a bound).
      for (std::size_t p = 0; p < pivots_; ++p) {
        const std::size_t s = features.pivot_leaves[p];
        for (std::size_t i = 0; i < n_; ++i) {
          if (i == s) continue;
          const double v = cols_[p * n_ + i];
          store_.seed(i, s, v);
          register_pair(i, s, v);
        }
      }
    }
  }

  /// Runs the chain to completion, or until the early stop proves the rest
  /// of the tree is cut (possible only when to_cut_total > 0).
  void run(std::size_t to_cut_total) {
    std::size_t next_check = std::numeric_limits<std::size_t>::max();
    while (remaining_ > 1) {
      if (to_cut_total > 0 && remaining_ - 1 <= to_cut_total &&
          remaining_ <= next_check) {
        if (try_early_stop(to_cut_total)) break;
        // Not provable yet; back off geometrically so the bound sweep
        // amortizes to a constant number of attempts.
        next_check = remaining_ - std::max<std::size_t>(1, remaining_ / 8);
      }
      if (chain_.empty()) {
        for (std::size_t i = 0; i < n_; ++i) {
          if (active_[i] != 0) {
            chain_.push_back(i);
            break;
          }
        }
      }
      for (;;) {
        const std::size_t top = chain_.back();
        const std::size_t prev = chain_.size() >= 2 ? chain_[chain_.size() - 2] : n_;
        const std::size_t nearest = scan_and_select(top, prev);
        if (chain_.size() >= 2 && nearest == prev) {
          merge_reciprocal();
          break;
        }
        chain_.push_back(nearest);
      }
    }
  }

  [[nodiscard]] std::vector<ChainMerge>& merges() { return chain_merges_; }
  [[nodiscard]] ResolvedStore& store() { return store_; }

  /// Folds the engine's phase clocks into the counters. Call once, after all
  /// resolution work (including cut classification) is done.
  void finalize_timing() {
    if (!opts_.collect_timing) return;
    c_.bound_scan_seconds += scan_seconds_;
    c_.exact_eval_seconds += store_.leaf_seconds() + batch_seconds_;
    c_.replay_seconds += store_.replay_seconds();
  }

 private:
  struct AdjEntry {
    std::uint32_t slot;
    std::uint32_t version;  // slot_version_ of `slot` at insertion
    double value;
  };
  struct ScanCache {
    std::size_t base_epoch = 0;  // merge_log_ length when the cache was filled
    std::uint32_t self_version = 0;
    double threshold = 0.0;  // ub_min of the cached scan
    bool valid = false;
    std::vector<std::uint32_t> survivors;
  };

  static constexpr std::size_t kMaxCachedSurvivors = 4096;
  static constexpr std::size_t kMaxReuseCandidates = 4096;
  // Early-stop tier limits: the exact pairwise heap is O(active²) and the
  // kernel-free tightening sweep is O(links · subtree walk); both are cheap
  // insurance at detector scale and ruinous at 100k hosts, so each engages
  // only below its limit. Above the limits the projection bound stands in.
  static constexpr std::size_t kHeapActiveLimit = 2048;
  static constexpr std::size_t kTightenMergeLimit = 8192;

  using Clock = std::chrono::steady_clock;

  [[nodiscard]] Clock::time_point timing_start() const {
    return opts_.collect_timing ? Clock::now() : Clock::time_point{};
  }

  [[nodiscard]] double col(std::size_t p, std::size_t slot) const {
    return cols_[p * n_ + slot];
  }

  [[nodiscard]] double pivot_lb(std::size_t a, std::size_t b) const {
    double lb = 0.0;
    for (std::size_t p = 0; p < pivots_; ++p)
      lb = std::max(lb, std::abs(col(p, a) - col(p, b)));
    return with_margin(lb);
  }
  // Triangle upper bound through the pivots: for every pivot p,
  // d(x, y) <= d(x, p) + d(p, y), and averaging over the cross pairs of two
  // clusters preserves it, so mean_A(p) + mean_B(p) >= avg-linkage d(A, B).
  // Margin goes *up* here — an upper bound must never under-state.
  [[nodiscard]] double pivot_ub(std::size_t a, std::size_t b) const {
    if (pivots_ == 0) return kInfD;
    double ub = kInfD;
    for (std::size_t p = 0; p < pivots_; ++p) ub = std::min(ub, col(p, a) + col(p, b));
    return ub * (1.0 + 1e-9) + 1e-12;
  }
  [[nodiscard]] double grid_lb(std::size_t a, std::size_t b) const {
    const double l1 = simd::l1_distance(grid_mean_.data() + a * grid_bins_,
                                        grid_mean_.data() + b * grid_bins_, grid_bins_);
    return with_margin(grid_half_width_ * l1 - snap_mean_[a] - snap_mean_[b]);
  }

  void register_pair(std::size_t a, std::size_t b, double value) {
    adj_[a].push_back(AdjEntry{static_cast<std::uint32_t>(b), slot_version_[b], value});
    adj_[b].push_back(AdjEntry{static_cast<std::uint32_t>(a), slot_version_[a], value});
  }

  // Pass 1, full sweep: one SIMD interval computation over the contiguous
  // pivot columns, margins applied per active candidate, then the adjacency
  // overlay collapses every still-valid resolved neighbour to its exact
  // point (a version match certifies both the slot and the pair's node
  // identity are unchanged since insertion).
  void full_scan(std::size_t top, double& ub_min) {
    ub_min = kInfD;
    std::memset(exact_buf_.data(), 0, n_);
    if (pivots_ > 0) {
      for (std::size_t p = 0; p < pivots_; ++p) top_vals_[p] = col(p, top);
      simd::pivot_interval_sweep(cols_.data(), n_, pivots_, top_vals_.data(), n_,
                                 lo_buf_.data(), hi_buf_.data());
      // The margin pass runs branch-free over every row: retired slots carry
      // +inf poison in their columns (lo = hi = +inf, inert under min), and
      // top's own row — the one live row whose raw hi (2·mean_top) could
      // undercut the real minimum — is neutralized first.
      hi_buf_[top] = kInfD;
      ub_min = simd::margin_min_sweep(lo_buf_.data(), hi_buf_.data(), n_);
      c_.scanned += remaining_ - 1;
    } else {
      for (std::size_t j = 0; j < n_; ++j) {
        if (active_[j] == 0 || j == top) continue;
        ++c_.scanned;
        lo_buf_[j] = 0.0;
        hi_buf_[j] = kInfD;
      }
    }
    for (const AdjEntry& e : adj_[top]) {
      if (slot_version_[e.slot] != e.version) continue;
      lo_buf_[e.slot] = hi_buf_[e.slot] = e.value;
      exact_buf_[e.slot] = 1;
      ub_min = std::min(ub_min, e.value);
    }
  }

  // Pass 1, reduced sweep over the cached candidate set. Candidates are the
  // cached survivors plus every slot touched by a merge since the cache was
  // filled. Any other slot was eliminated at the cached scan with
  // lo > threshold + slack and its bound inputs are unchanged since (it took
  // part in no merge, and `top` is unchanged by the version check), so as
  // long as the new scan floor has not risen above the cached threshold the
  // old eliminations still hold against it. The monotone rule below
  // (threshold := new ub_min on every reuse) keeps that invariant across
  // arbitrarily many chained reuses.
  [[nodiscard]] bool try_reduced_scan(std::size_t top, const ScanCache& sc,
                                      double& ub_min) {
    cand_.clear();
    const auto add = [&](std::uint32_t j) {
      if (j == top || active_[j] == 0 || in_cand_[j] != 0) return;
      in_cand_[j] = 1;
      cand_.push_back(j);
    };
    for (const std::uint32_t j : sc.survivors) add(j);
    for (std::size_t e = sc.base_epoch; e < merge_log_.size(); ++e) add(merge_log_[e]);
    for (const std::uint32_t j : cand_) in_cand_[j] = 0;
    if (cand_.size() > kMaxReuseCandidates) return false;
    // Candidate order must match the full sweep's ascending-slot order so
    // the tie-with-prev selection below sees candidates in the same order
    // the dense comparator would.
    std::sort(cand_.begin(), cand_.end());
    ub_min = kInfD;
    for (const std::uint32_t j : cand_) {
      ++c_.scanned;
      in_cand_[j] = 1;
      exact_buf_[j] = 0;
      lo_buf_[j] = pivots_ > 0 ? pivot_lb(top, j) : 0.0;
      hi_buf_[j] = pivot_ub(top, j);
      ub_min = std::min(ub_min, hi_buf_[j]);
    }
    // Memoized candidates collapse to their exact values through the
    // adjacency overlay instead of a hash probe per candidate. The overlay is
    // complete here: a memo entry is keyed by the pair's current node ids,
    // every resolution of a still-current pair also registered it in both
    // slots' adjacency lists, and a merge that retires a node id bumps the
    // slot version that guards the entry. The overlay only lowers hi (an
    // exact value never exceeds its admissible upper bound), so folding its
    // values into ub_min afterwards yields the same minimum the probe-first
    // loop computed.
    for (const AdjEntry& e : adj_[top]) {
      if (slot_version_[e.slot] != e.version || in_cand_[e.slot] == 0) continue;
      lo_buf_[e.slot] = hi_buf_[e.slot] = e.value;
      exact_buf_[e.slot] = 1;
      ub_min = std::min(ub_min, e.value);
    }
    for (const std::uint32_t j : cand_) in_cand_[j] = 0;
    return ub_min <= sc.threshold;
  }

  // Pass 2: a candidate whose lower bound clears ub_min + slack sits
  // provably above the scan winner and is dropped unseen; the grid bound
  // only runs for pivot survivors. At least one candidate survives (the
  // one attaining ub_min bounds itself below it).
  void build_survivors(std::size_t top, double ub_min, bool reduced) {
    survivors_.clear();
    const auto consider = [&](std::size_t j) {
      if (exact_buf_[j] == 0) {
        if (lo_buf_[j] > ub_min + kCutSlack) {
          ++c_.skipped_pivot;
          return;
        }
        if (grid_bins_ > 0 && grid_lb(top, j) > ub_min + kCutSlack) {
          ++c_.skipped_grid;
          return;
        }
      }
      survivors_.push_back(static_cast<std::uint32_t>(j));
    };
    if (reduced) {
      for (const std::uint32_t j : cand_) consider(j);
    } else if (pivots_ > 0) {
      // After a full sweep every row holds a usable lower bound: retired
      // slots carry +inf and fail any finite threshold, and top is poisoned
      // here for the same effect, so one SIMD compare-compress replaces the
      // branchy all-slots walk. An exact row above the bar is dropped too —
      // its value exceeds ub_min + kCutSlack while the eventual winner sits
      // at or below ub_min, so it can neither win nor tie the selection.
      lo_buf_[top] = kInfD;
      const std::size_t passed =
          simd::filter_le(lo_buf_.data(), n_, ub_min + kCutSlack, pass_idx_.data());
      c_.skipped_pivot += remaining_ - 1 >= passed ? remaining_ - 1 - passed : 0;
      for (std::size_t k = 0; k < passed; ++k) {
        const std::uint32_t j = pass_idx_[k];
        if (exact_buf_[j] == 0 && grid_bins_ > 0 && grid_lb(top, j) > ub_min + kCutSlack) {
          ++c_.skipped_grid;
          continue;
        }
        survivors_.push_back(j);
      }
    } else {
      for (std::size_t j = 0; j < n_; ++j) {
        if (active_[j] == 0 || j == top) continue;
        consider(j);
      }
    }
  }

  [[nodiscard]] std::size_t scan_and_select(std::size_t top, std::size_t prev) {
    const auto t0 = timing_start();
    double ub_min = kInfD;
    bool reduced = false;
    {
      ScanCache& sc = scan_cache_[top];
      if (sc.valid && sc.self_version == slot_version_[top]) {
        reduced = try_reduced_scan(top, sc, ub_min);
        if (!reduced) sc.valid = false;
      }
    }
    if (reduced) {
      build_survivors(top, ub_min, /*reduced=*/true);
      if (survivors_.empty()) {
        // Only reachable with vacuous bounds (every candidate dead); the
        // full sweep below re-establishes a non-empty survivor set.
        reduced = false;
      } else {
        ++c_.scan_cache_hits;
      }
    }
    if (!reduced) {
      full_scan(top, ub_min);
      build_survivors(top, ub_min, /*reduced=*/false);
    }
    ScanCache& sc = scan_cache_[top];
    if (survivors_.size() <= kMaxCachedSurvivors) {
      sc.base_epoch = merge_log_.size();
      sc.self_version = slot_version_[top];
      sc.threshold = ub_min;
      sc.survivors.assign(survivors_.begin(), survivors_.end());
      sc.valid = true;
    } else {
      sc.valid = false;
    }
    if (opts_.collect_timing)
      scan_seconds_ += std::chrono::duration<double>(Clock::now() - t0).count();
    return select_nearest(top, prev);
  }

  [[nodiscard]] std::size_t select_nearest(std::size_t top, std::size_t prev) {
    if (survivors_.size() == 1) {
      // The dense comparator would pick the sole survivor whatever its
      // value; no resolution needed.
      return survivors_[0];
    }
    std::size_t nearest = top;
    double best = std::numeric_limits<double>::max();
    const auto consider = [&](std::uint32_t j, double dj) {
      if (dj < best - 1e-15 || (std::abs(dj - best) <= 1e-15 && j == prev)) {
        best = dj;
        nearest = j;
      }
    };
    // Resolve-and-consider for a pending block of gate-passing unresolved
    // survivors. Their missing leaf pairs are evaluated together through the
    // caller's batch kernel (which feeds the SIMD x4 sweep / thread pool),
    // then each survivor commits serially in slot order so the comparator
    // observes the exact same (j, value) sequence the one-at-a-time path
    // would have produced.
    const auto flush_block = [&](std::size_t top_id) {
      if (block_.empty()) return;
      if (opts_.batch_leaf) {
        batch_pairs_.clear();
        for (const std::uint32_t j : block_)
          store_.collect_missing(top_id, node_id_[j], batch_pairs_);
        if (batch_pairs_.size() >= 4) {
          batch_vals_.resize(batch_pairs_.size());
          const auto t0 = timing_start();
          opts_.batch_leaf(std::span<const std::pair<std::uint32_t, std::uint32_t>>(
                               batch_pairs_.data(), batch_pairs_.size()),
                           batch_vals_.data());
          if (opts_.collect_timing)
            batch_seconds_ += std::chrono::duration<double>(Clock::now() - t0).count();
          for (std::size_t k = 0; k < batch_pairs_.size(); ++k) {
            const auto [x, y] = batch_pairs_[k];
            store_.seed(x, y, batch_vals_[k]);
            if (opts_.on_leaf_resolved) opts_.on_leaf_resolved(x, y, batch_vals_[k]);
          }
        }
      }
      for (const std::uint32_t j : block_) {
        ++c_.resolved_cluster_pairs;
        const double dj = store_.resolve(top_id, node_id_[j]);
        register_pair(top, j, dj);
        lo_buf_[j] = hi_buf_[j] = dj;
        exact_buf_[j] = 1;
        consider(j, dj);
      }
      block_.clear();
    };
    // Gated lookahead: walk survivors in slot order, applying the
    // incremental lower-bound gate against the running best, but resolve
    // gate-passers in blocks of up to four so their leaf pairs fill the
    // batch kernel's vector lanes. A blocked candidate is resolved before
    // later block members could have tightened best, so it may be resolved
    // where the strict one-at-a-time gate would have skipped it — extra
    // exact work, never less — but its exact value dj >= its admissible
    // lower bound, so the comparator outcome (nearest, best) is identical:
    // anything the strict gate would have skipped still loses by
    // dj >= lo > best + 1e-15.
    const std::size_t block_cap = opts_.batch_leaf ? 4 : 1;  // serial: strict gate
    block_.clear();
    for (const std::uint32_t j : survivors_) {
      if (exact_buf_[j] != 0) {
        // Exact candidates must hit the comparator in slot order relative
        // to blocked ones; drain the block first.
        flush_block(node_id_[top]);
        consider(j, lo_buf_[j]);
        continue;
      }
      // Incremental gate: once a candidate's admissible lower bound sits
      // above best + tie-tolerance it can neither win nor tie in the dense
      // comparator, so its exact value is never observed.
      if (lo_buf_[j] > best + 1e-15) {
        ++c_.skipped_pivot;
        continue;
      }
      if (grid_bins_ > 0 && grid_lb(top, j) > best + 1e-15) {
        ++c_.skipped_grid;
        continue;
      }
      block_.push_back(j);
      if (block_.size() == block_cap) flush_block(node_id_[top]);
    }
    flush_block(node_id_[top]);
    return nearest;
  }

  void merge_reciprocal() {
    const std::size_t a = chain_[chain_.size() - 2];
    const std::size_t b = chain_.back();
    chain_.pop_back();
    chain_.pop_back();
    ChainMerge cm{node_id_[a], node_id_[b], 0.0, 0.0, false};
    if (const double* hv = store_.lookup(cm.left, cm.right); hv != nullptr) {
      cm.lo = cm.hi = *hv;
      cm.exact = true;
    } else {
      double lo = pivots_ > 0 ? pivot_lb(a, b) : 0.0;
      if (grid_bins_ > 0) lo = std::max(lo, grid_lb(a, b));
      cm.lo = std::max(lo, 0.0);
      cm.hi = pivot_ub(a, b);
    }
    chain_merges_.push_back(cm);
    store_.record_merge(cm.left, cm.right, static_cast<double>(size_[a]),
                        static_cast<double>(size_[b]));
    const double na = static_cast<double>(size_[a]);
    const double nb = static_cast<double>(size_[b]);
    if (pivots_ > 0) {
      for (std::size_t p = 0; p < pivots_; ++p) {
        double* colp = cols_.data() + p * n_;
        colp[a] = (na * colp[a] + nb * colp[b]) / (na + nb);
        colp[b] = kInfD;  // poison: a dead slot's interval can never win
      }
    }
    if (grid_bins_ > 0) {
      double* ga = grid_mean_.data() + a * grid_bins_;
      const double* gb = grid_mean_.data() + b * grid_bins_;
      for (std::size_t w = 0; w < grid_bins_; ++w)
        ga[w] = (na * ga[w] + nb * gb[w]) / (na + nb);
      snap_mean_[a] = (na * snap_mean_[a] + nb * snap_mean_[b]) / (na + nb);
    }
    size_[a] += size_[b];
    active_[b] = 0;
    node_id_[a] = n_ + chain_merges_.size() - 1;
    ++slot_version_[a];
    ++slot_version_[b];
    adj_[a].clear();
    adj_[b].clear();
    scan_cache_[a].valid = false;
    scan_cache_[b].valid = false;
    merge_log_.push_back(static_cast<std::uint32_t>(a));
    merge_log_.push_back(static_cast<std::uint32_t>(b));
    --remaining_;
  }

  [[nodiscard]] bool try_early_stop(std::size_t to_cut_total) {
    const auto t0 = timing_start();
    const double leaf0 = store_.leaf_seconds();
    const double replay0 = store_.replay_seconds();
    const bool stopped = early_stop_impl(to_cut_total);
    if (opts_.collect_timing) {
      // Bound-sweep time only; any resolution work inside is already on the
      // store's leaf/replay clocks.
      scan_seconds_ += std::chrono::duration<double>(Clock::now() - t0).count() -
                       (store_.leaf_seconds() - leaf0) -
                       (store_.replay_seconds() - replay0);
    }
    return stopped;
  }

  // Top-of-tree early stop. The running minimum over active inter-cluster
  // distances never decreases under average linkage (a Lance-Williams
  // average of two values is never below their minimum), so every future
  // merge height is >= the current minimum, which is itself >= future_lo,
  // the smallest admissible lower bound over active pairs. A past link whose
  // upper bound is <= future_lo therefore sorts keep-ward of every future
  // link (height ties break toward the earlier chain index). If the links
  // above that bar plus all remaining future links fit inside the cut
  // budget, every future merge is provably cut: the top of the tree cannot
  // influence the kept partition, so the chain stops and the missing links
  // are synthesized as forced-cut placeholders. This is what lets the
  // big-cluster x big-cluster merges near the root — the most expensive
  // resolutions of the whole run — never pay their exact kernels.
  [[nodiscard]] bool early_stop_impl(std::size_t to_cut_total) {
    // Kernel-free tightening: a pending link whose leaf pairs are all
    // memoized resolves exactly by pure Lance-Williams arithmetic.
    if (chain_merges_.size() <= kTightenMergeLimit) {
      for (ChainMerge& m : chain_merges_) {
        if (!m.exact && !m.forced && store_.resolvable_from_cache(m.left, m.right)) {
          const double h = store_.resolve(m.left, m.right);
          m.lo = m.hi = h;
          m.exact = true;
        }
      }
    }
    active_slots_.clear();
    for (std::size_t s = 0; s < n_; ++s)
      if (active_[s] != 0) active_slots_.push_back(s);
    double future_lo;
    if (active_slots_.size() > kHeapActiveLimit) {
      future_lo = projected_future_lo();
    } else {
      future_lo = heap_future_lo();
    }
    std::size_t above = 0;
    for (const ChainMerge& m : chain_merges_)
      if (m.hi > future_lo) ++above;
    if (above + (remaining_ - 1) > to_cut_total) return false;
    std::size_t cur = std::numeric_limits<std::size_t>::max();
    for (const std::size_t s : active_slots_) {
      if (cur == std::numeric_limits<std::size_t>::max()) {
        cur = node_id_[s];
        continue;
      }
      chain_merges_.push_back(
          ChainMerge{cur, node_id_[s], future_lo, kInfD, false, true});
      cur = n_ + chain_merges_.size() - 1;
    }
    return true;
  }

  // Lower bound on the smallest active inter-cluster distance. A pair
  // whose pivot bound is vacuous (two clusters that look alike through
  // every pivot) would pin future_lo near zero and make the stop
  // unprovable, so small pairs are resolved exactly in ascending-bound
  // order while that is cheap — results are memoized, the chain reuses
  // them, and future_lo climbs to the true minimum. Resolving one pair
  // memoizes only values inside its own two subtrees and active nodes
  // root disjoint subtrees, so no other active pair's bound moves: the
  // bounds can be heapified once per check and consumed with O(log)
  // reinsertions instead of an O(active^2) rescan per resolution.
  [[nodiscard]] double heap_future_lo() {
    constexpr std::size_t kCheapResolve = 256;
    struct BoundEntry {
      double lo;
      std::size_t a, b;
      bool exact;
      bool refined;
    };
    const auto later = [](const BoundEntry& x, const BoundEntry& y) {
      if (x.lo != y.lo) return x.lo > y.lo;  // min-heap on the bound...
      if (x.a != y.a) return x.a > y.a;      // ...slot-ordered on ties, so
      return x.b > y.b;                      // the sweep is deterministic
    };
    const std::size_t m = active_slots_.size();
    std::vector<BoundEntry> heap;
    heap.reserve(m * (m - 1) / 2);
    // Seed every pair with its pivot-only bound from the pass-1 SIMD sweep
    // over a compacted copy of the active pivot columns (the full columns
    // are mostly dead slots by the time this tier engages). The per-pair
    // refinements — memo lookup and grid bound — cost a hash probe and a
    // bin-L1 each and are deferred to pop time: most pairs are never popped.
    if (pivots_ > 0) {
      compact_cols_.resize(pivots_ * m);
      for (std::size_t p = 0; p < pivots_; ++p)
        for (std::size_t k = 0; k < m; ++k)
          compact_cols_[p * m + k] = col(p, active_slots_[k]);
      for (std::size_t ai = 0; ai + 1 < m; ++ai) {
        for (std::size_t p = 0; p < pivots_; ++p) top_vals_[p] = compact_cols_[p * m + ai];
        simd::pivot_interval_sweep(compact_cols_.data(), m, pivots_, top_vals_.data(), m,
                                   lo_buf_.data(), hi_buf_.data());
        const std::size_t a = active_slots_[ai];
        for (std::size_t bi = ai + 1; bi < m; ++bi)
          heap.push_back(BoundEntry{std::max(with_margin(lo_buf_[bi]), 0.0), a,
                                    active_slots_[bi], false, false});
      }
    } else {
      for (std::size_t ai = 0; ai + 1 < m; ++ai)
        for (std::size_t bi = ai + 1; bi < m; ++bi)
          heap.push_back(
              BoundEntry{0.0, active_slots_[ai], active_slots_[bi], false, false});
    }
    std::make_heap(heap.begin(), heap.end(), later);
    double future_lo = kInfD;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      BoundEntry e = heap.back();
      heap.pop_back();
      if (!e.refined) {
        if (const double* mv = store_.lookup(node_id_[e.a], node_id_[e.b]); mv != nullptr) {
          e.lo = *mv;
          e.exact = true;
        } else if (grid_bins_ > 0) {
          e.lo = std::max(e.lo, grid_lb(e.a, e.b));
        }
        e.refined = true;
        // Refinement only raises the bound. If another pair now sorts ahead,
        // reinsert and keep popping: entries still leave this loop in
        // ascending refined (lo, a, b) order — exactly the order the
        // refine-everything-upfront version processed them — because an
        // unrefined entry's seed bound never overstates its refined bound.
        if (!heap.empty() && later(e, heap.front())) {
          heap.push_back(e);
          std::push_heap(heap.begin(), heap.end(), later);
          continue;
        }
      }
      if (e.exact || size_[e.a] * size_[e.b] > kCheapResolve) {
        future_lo = e.lo;
        break;
      }
      ++c_.resolved_cluster_pairs;
      const double d = store_.resolve(node_id_[e.a], node_id_[e.b]);
      register_pair(e.a, e.b, d);
      heap.push_back(BoundEntry{d, e.a, e.b, true, true});
      std::push_heap(heap.begin(), heap.end(), later);
    }
    return future_lo;
  }

  // Cheap O(pivots · active log active) stand-in for the pairwise heap when
  // the active set is large. For every pair (A, B) and every pivot column q,
  // max_p |mean_A(p) - mean_B(p)| >= |mean_A(q) - mean_B(q)| >= the smallest
  // adjacent gap of column q's sorted active values; so the max over columns
  // of that gap lower-bounds every active pair's distance. Vacuous (zero)
  // when any two clusters coincide through some pivot — the geometric
  // backoff then retries until the heap tier takes over.
  [[nodiscard]] double projected_future_lo() {
    if (pivots_ == 0) return 0.0;
    double lo = 0.0;
    for (std::size_t p = 0; p < pivots_; ++p) {
      proj_.clear();
      for (const std::size_t s : active_slots_) proj_.push_back(col(p, s));
      std::sort(proj_.begin(), proj_.end());
      double gap = kInfD;
      for (std::size_t k = 1; k < proj_.size(); ++k)
        gap = std::min(gap, proj_[k] - proj_[k - 1]);
      lo = std::max(lo, gap);
    }
    return std::max(0.0, with_margin(lo));
  }

  std::size_t n_;
  std::size_t pivots_;
  std::size_t grid_bins_;
  double grid_half_width_;
  const PruneOptions& opts_;
  PruneCounters& c_;
  ResolvedStore store_;
  std::vector<double> cols_;  // column-major pivot means, cols_[p * n_ + slot]
  std::vector<double> top_vals_;
  std::vector<double> grid_mean_;
  std::vector<double> snap_mean_;
  std::vector<std::size_t> size_;
  std::vector<char> active_;
  std::vector<std::size_t> node_id_;
  std::vector<std::uint32_t> slot_version_;
  std::vector<std::vector<AdjEntry>> adj_;
  std::vector<ScanCache> scan_cache_;
  std::vector<std::uint32_t> merge_log_;  // (a, b) slot pairs, merge order
  std::vector<double> lo_buf_;
  std::vector<double> hi_buf_;
  std::vector<char> exact_buf_;
  std::vector<char> in_cand_;
  std::vector<std::uint32_t> cand_;
  std::vector<std::uint32_t> pass_idx_;  // filter_le output scratch
  std::vector<std::uint32_t> survivors_;
  std::vector<ChainMerge> chain_merges_;
  std::vector<std::size_t> chain_;
  std::size_t remaining_ = 0;
  std::vector<std::size_t> active_slots_;
  std::vector<double> proj_;
  std::vector<double> compact_cols_;  // heap-tier scratch: active pivot columns
  std::vector<std::pair<std::uint32_t, std::uint32_t>> batch_pairs_;
  std::vector<double> batch_vals_;
  std::vector<std::uint32_t> block_;  // gated-lookahead pending survivors
  double scan_seconds_ = 0.0;
  double batch_seconds_ = 0.0;
};

}  // namespace

std::vector<std::vector<std::size_t>> average_linkage_cut_pruned(
    std::size_t n, const LeafDistanceFn& leaf_distance, const PruneFeatures& features,
    double fraction, const PruneOptions& options, PruneCounters* counters) {
  if (n == 0) throw util::ConfigError("clustering zero items");
  if (fraction < 0.0 || fraction > 1.0)
    throw util::ConfigError("cut fraction must be in [0,1]");
  if (n == 1) return {{0}};

  PruneCounters local;
  PruneCounters& c = counters != nullptr ? *counters : local;

  // Cut budget, fixed up front: the chain always produces exactly n - 1
  // links (real or synthesized), so the fraction resolves before clustering.
  const std::size_t links_total = n - 1;
  const auto to_cut_total =
      static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(links_total)));

  PrunedChainEngine engine(n, leaf_distance, features, options, c);
  engine.run(to_cut_total);
  std::vector<PrunedChainEngine::ChainMerge>& chain_merges = engine.merges();
  ResolvedStore& store = engine.store();
  // --- Cut classification -------------------------------------------------
  // cut_top_fraction deletes the to_cut largest merges under the total order
  // (height asc, then position in the height-sorted dendrogram asc); a
  // stable sort by height over chain order makes that exactly
  // (height asc, chain index asc). Classify each merge as keep/cut from the
  // intervals alone where possible; resolve pendings only while the
  // partition stays ambiguous.
  const std::size_t links = chain_merges.size();
  const auto to_cut = static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(links)));
  const std::size_t keep_count = links - std::min(to_cut, links);

  std::vector<char> keep(links, 0);
  std::vector<char> decided(links, 0);
  using Key = std::pair<double, std::size_t>;  // (height bound, chain index)
  std::vector<Key> sorted_lo(links);
  std::vector<Key> sorted_hi(links);
  for (;;) {
    // Merge k surely precedes merge m iff (hi_k, k) < (lo_m, m): its height
    // is then no larger, and on possible equality the chain index decides.
    for (std::size_t k = 0; k < links; ++k) {
      sorted_lo[k] = Key(chain_merges[k].lo, k);
      sorted_hi[k] = Key(chain_merges[k].hi, k);
    }
    std::sort(sorted_lo.begin(), sorted_lo.end());
    std::sort(sorted_hi.begin(), sorted_hi.end());
    bool all_decided = true;
    for (std::size_t k = 0; k < links; ++k) {
      const Key lo_key(chain_merges[k].lo, k);
      const Key hi_key(chain_merges[k].hi, k);
      // # merges surely before k / surely after k; self never qualifies.
      const auto before = static_cast<std::size_t>(
          std::lower_bound(sorted_hi.begin(), sorted_hi.end(), lo_key) - sorted_hi.begin());
      const auto after = static_cast<std::size_t>(
          sorted_lo.end() - std::upper_bound(sorted_lo.begin(), sorted_lo.end(), hi_key));
      if (after >= to_cut) {
        decided[k] = 1;
        keep[k] = 1;
      } else if (before >= keep_count) {
        decided[k] = 1;
        keep[k] = 0;
      } else {
        decided[k] = 0;
        all_decided = false;
      }
    }
    if (all_decided) break;
    // Resolve the undecided pendings; if the ambiguity sits entirely in
    // already-decided pendings overlapping an undecided exact merge, fall
    // back to resolving every pending (correctness backstop — the next
    // round then classifies from points alone).
    bool resolved_any = false;
    for (std::size_t k = 0; k < links; ++k) {
      if (decided[k] == 0 && !chain_merges[k].exact && !chain_merges[k].forced) {
        ++c.resolved_cluster_pairs;
        const double h = store.resolve(chain_merges[k].left, chain_merges[k].right);
        chain_merges[k].lo = chain_merges[k].hi = h;
        chain_merges[k].exact = true;
        resolved_any = true;
      }
    }
    if (!resolved_any) {
      for (std::size_t k = 0; k < links; ++k) {
        if (!chain_merges[k].exact && !chain_merges[k].forced) {
          ++c.resolved_cluster_pairs;
          const double h = store.resolve(chain_merges[k].left, chain_merges[k].right);
          chain_merges[k].lo = chain_merges[k].hi = h;
          chain_merges[k].exact = true;
        }
      }
    }
  }

  engine.finalize_timing();

  // --- Components ---------------------------------------------------------
  // Union-find identical to Dendrogram::components, processed in chain order
  // (valid: every merge references nodes formed earlier in the chain, and
  // the kept-link leaf partition is order-independent).
  std::vector<std::size_t> parent(n + links);
  std::iota(parent.begin(), parent.end(), 0);
  const std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<std::size_t> rep(n + links);
  std::iota(rep.begin(), rep.end(), 0);
  for (std::size_t k = 0; k < links; ++k) {
    const auto& m = chain_merges[k];
    const std::size_t a = find(rep[m.left]);
    const std::size_t b = find(rep[m.right]);
    if (keep[k] != 0) {
      parent[b] = a;
      rep[n + k] = a;
    } else {
      rep[n + k] = a;
    }
  }
  std::vector<std::vector<std::size_t>> groups;
  std::vector<int> group_of(n + links, -1);
  for (std::size_t leaf = 0; leaf < n; ++leaf) {
    const std::size_t root = find(leaf);
    if (group_of[root] < 0) {
      group_of[root] = static_cast<int>(groups.size());
      groups.emplace_back();
    }
    groups[static_cast<std::size_t>(group_of[root])].push_back(leaf);
  }
  for (auto& g : groups) std::sort(g.begin(), g.end());
  std::sort(groups.begin(), groups.end(),
            [](const auto& x, const auto& y) { return x.front() < y.front(); });
  return groups;
}

double cluster_diameter(std::span<const double> distances, std::size_t n,
                        std::span<const std::size_t> members) {
  double diameter = 0.0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      diameter = std::max(diameter, distances[members[i] * n + members[j]]);
    }
  }
  return diameter;
}

}  // namespace tradeplot::stats

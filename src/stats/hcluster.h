// Agglomerative hierarchical clustering with average linkage (UPGMA).
//
// The paper (§IV-C) merges the two closest hosts at each step, building a
// dendrogram whose link weights are the average distance between the pair of
// subtrees each link connects; the final clusters are formed "by cutting the
// top 5% links with the largest weights".
//
// Implementation: nearest-neighbour-chain algorithm with Lance–Williams
// updates — O(n^2) time, O(n^2) space — which produces exactly the UPGMA
// dendrogram.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

namespace tradeplot::stats {

/// One merge step of the dendrogram. Leaves are items 0..n-1; the k-th merge
/// creates internal node n+k joining `left` and `right` at `height` (their
/// average inter-cluster distance).
struct Merge {
  std::size_t left;
  std::size_t right;
  double height;
  std::size_t size;  // number of leaves under the new node
};

class Dendrogram {
 public:
  Dendrogram(std::size_t leaves, std::vector<Merge> merges);

  [[nodiscard]] std::size_t leaf_count() const { return leaves_; }
  [[nodiscard]] const std::vector<Merge>& merges() const { return merges_; }

  /// Clusters obtained by deleting the ceil(fraction * #links) links with
  /// the largest heights (the paper's cut; fraction in [0,1]). Each returned
  /// cluster is a sorted list of leaf indices; clusters are ordered by their
  /// smallest leaf.
  [[nodiscard]] std::vector<std::vector<std::size_t>> cut_top_fraction(double fraction) const;

  /// Clusters obtained by deleting every link with height > threshold.
  [[nodiscard]] std::vector<std::vector<std::size_t>> cut_at_height(double threshold) const;

 private:
  [[nodiscard]] std::vector<std::vector<std::size_t>> components(
      const std::vector<bool>& keep_merge) const;

  std::size_t leaves_;
  std::vector<Merge> merges_;
};

/// Runs UPGMA over a dense symmetric distance matrix (row-major, n x n).
/// Throws util::ConfigError if n == 0 or the matrix size is not n*n.
[[nodiscard]] Dendrogram agglomerative_average_linkage(std::span<const double> distances,
                                                       std::size_t n);

/// Maximum pairwise distance among `members` under the given matrix.
/// Returns 0 for clusters of size < 2.
[[nodiscard]] double cluster_diameter(std::span<const double> distances, std::size_t n,
                                      std::span<const std::size_t> members);

// ---------------------------------------------------------------------------
// Pruned (lazy) average linkage — the sub-quadratic θ_hm clustering path.
//
// agglomerative_average_linkage needs every one of the n(n-1)/2 leaf
// distances up front, which is the O(n²) exact-kernel wall. The pruned
// driver runs the *same* nearest-neighbour-chain algorithm but resolves
// distances lazily: every candidate in a nearest-neighbour scan is first
// tested against a cheap admissible lower bound, and only candidates whose
// bound could still win (or tie, under the chain's 1e-15 tolerance) pay for
// an exact resolution. Resolved values are memoized sparsely by dendrogram
// node id, and cluster-cluster values are replayed through the identical
// Lance-Williams recurrence — same operand order, same rounding — so every
// value the pruned run observes is bit-identical to the corresponding dense
// matrix entry, and every merge it makes is the one the exhaustive run
// makes (same pairs, same tie behaviour). Exactness does not depend on the
// quality of the bounds; bad bounds only cost speed.
// ---------------------------------------------------------------------------

/// Leaf-level features backing the admissible cluster lower bounds. All
/// pointers borrow caller storage and must outlive the clustering call.
///
///  * pivot tier — pivot_distances[i * pivots + p] is the *exact* distance
///    from leaf i to the p-th pivot leaf under the same metric as
///    leaf_distance. Because the metric satisfies the triangle inequality,
///    |d(i,p) - d(j,p)| <= d(i,j); averaging preserves the bound, so the
///    running per-cluster pivot-distance means give
///    max_p |mean_A(p) - mean_B(p)| <= avg-linkage distance(A, B).
///  * grid tier (optional, grid_bins == 0 disables) — grid[i * grid_bins + b]
///    is leaf i's unit-mass histogram over a shared uniform grid,
///    snap_cost[i] the EMD cost of snapping leaf i onto that grid, and
///    grid_half_width half the grid spacing. For 1-D EMD,
///    d(i,j) >= grid_half_width * L1(grid_i, grid_j) - snap_cost_i -
///    snap_cost_j, and the bound again survives averaging into clusters.
struct PruneFeatures {
  const double* pivot_distances = nullptr;
  std::size_t pivots = 0;
  const double* grid = nullptr;
  std::size_t grid_bins = 0;
  const double* snap_cost = nullptr;
  double grid_half_width = 0.0;
  /// Optional: the leaf index backing each pivot column. When set, the
  /// engine seeds its resolved-pair store with the pivot columns for free
  /// point intervals; pivot_distances[i * pivots + p] must then be
  /// bit-identical to what leaf_distance would return for (i, pivot_leaves[p]).
  const std::size_t* pivot_leaves = nullptr;
};

/// Work accounting for one pruned clustering run.
struct PruneCounters {
  std::uint64_t scanned = 0;                 // candidate slots examined in NN scans
  std::uint64_t skipped_pivot = 0;           // pruned by the pivot-mean bound
  std::uint64_t skipped_grid = 0;            // pruned by the grid bound
  std::uint64_t resolved_cluster_pairs = 0;  // exact cluster-pair resolutions
  std::uint64_t scan_cache_hits = 0;  // NN scans served by the chain-local candidate cache
  std::uint64_t bloom_skips = 0;      // memo probes skipped by the Bloom gate
  // Per-phase wall-clock, filled only under PruneOptions::collect_timing.
  // pivot_build_seconds is the caller's slot: the neighbor index is built
  // before the engine runs, so the engine never touches it.
  double pivot_build_seconds = 0.0;
  double bound_scan_seconds = 0.0;
  double exact_eval_seconds = 0.0;
  double replay_seconds = 0.0;
};

/// Exact leaf-pair distance, i < j. Must return the same value as the dense
/// matrix entry the exhaustive path would have used (same kernel, same
/// inputs); called serially, at most once per pair.
using LeafDistanceFn = std::function<double(std::size_t, std::size_t)>;

/// Batch leaf-pair evaluator: writes out[k] = the exact distance for the
/// k-th (i, j) pair, i < j. Must produce values bit-identical to
/// leaf_distance for the same pair — it exists so independent resolutions
/// can run on a thread pool; any parallelism inside is the implementation's
/// to synchronize. Pairs within one call are distinct.
using BatchLeafFn = std::function<void(
    std::span<const std::pair<std::uint32_t, std::uint32_t>>, double*)>;

/// Notified (serially, on the engine thread) for every leaf pair resolved
/// through batch_leaf, so callers memoizing leaf distances themselves (e.g.
/// for cache retention) see batch-resolved values too.
using LeafResolvedSink = std::function<void(std::size_t, std::size_t, double)>;

/// Tuning knobs for the pruned driver. Defaults reproduce the serial
/// behaviour; none of the options can change a verdict — batch resolution
/// may resolve *more* pairs than the serial gate (counters vary with
/// `threads`), but every resolved value is exact, so merges, heights, and
/// groups are bit-identical at every thread count.
struct PruneOptions {
  /// Worker count for batch leaf resolution (pass the already-resolved
  /// count; 0/1 keeps resolution serial).
  std::size_t threads = 1;
  BatchLeafFn batch_leaf;             // optional parallel leaf-pair evaluator
  LeafResolvedSink on_leaf_resolved;  // optional observer for batch-resolved pairs
  bool collect_timing = false;        // fill the phase-seconds counters
};

/// The sub-quadratic verdict path: UPGMA + cut_top_fraction fused, with
/// deferred heights for the links the cut discards.
///
/// A lazy driver that produced the full dendrogram would still pay
/// quadratic kernel work on the top of the tree: a root-level merge height
/// is the average of *every* cross leaf distance between its two sides, so
/// producing the exact height of every merge forces nearly every far pair
/// through the kernel. But the detector never reads those heights —
/// cut_top_fraction deletes the ceil(fraction * (n-1)) heaviest links, and
/// average linkage is monotone (d(A∪B, C) >= min(d(A,C), d(B,C)) >= d(A,B)
/// when (A,B) is the minimal pair), so the cut links are precisely the ones
/// whose exact heights the verdict ignores.
///
/// This driver therefore runs the lazy nearest-neighbour chain but:
///  * eliminates scan candidates with an *upper* bound too (min over pivots
///    of mean_A(p) + mean_B(p) >= avg-linkage distance), so a scan whose
///    survivors reduce to one slot picks its nearest neighbour without
///    resolving any distance at all — the dense comparator would have picked
///    that slot whatever its value;
///  * records a merge whose exact height was never needed as a *pending*
///    link carrying admissible [lower, upper] height bounds;
///  * classifies kept-vs-cut links at the end: a pending link whose lower
///    bound exceeds every kept exact height is provably cut and its exact
///    height is never computed; a pending link that straddles the boundary
///    is resolved exactly (correctness never depends on bound quality).
///
/// leaf_distance(i, j), i < j, must return what the dense matrix entry
/// would hold; memory is O(resolved pairs), never O(n²). Returns exactly
/// Dendrogram::cut_top_fraction(fraction)'s components for the dendrogram
/// agglomerative_average_linkage(dense_matrix, n) builds — same groups, same
/// ordering, same tie behaviour at the cut boundary. Throws
/// util::ConfigError if n == 0 or fraction is outside [0, 1].
[[nodiscard]] std::vector<std::vector<std::size_t>> average_linkage_cut_pruned(
    std::size_t n, const LeafDistanceFn& leaf_distance, const PruneFeatures& features,
    double fraction, const PruneOptions& options = {}, PruneCounters* counters = nullptr);

}  // namespace tradeplot::stats

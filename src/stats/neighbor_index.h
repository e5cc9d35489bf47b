// Pruned-neighbor index for the θ_hm clustering path: precomputed leaf-level
// features that back admissible lower bounds on pairwise (and, averaged,
// cluster-pairwise) distances, so the lazy clustering driver can skip the
// exact kernel for pairs that cannot be near.
//
// Two tiers, both true lower bounds of the exact metric:
//
//  * Pivot tier — EMD-1d (and bin-L1) are genuine metrics, so for any pivot
//    leaf p the reverse triangle inequality gives
//        |d(i, p) - d(j, p)| <= d(i, j).
//    The index picks `pivots` leaves by the deterministic farthest-point
//    heuristic (first leaf, then repeatedly the leaf maximising its distance
//    to the chosen set; ties to the lowest index) and stores the exact
//    distance from every leaf to every pivot — n·P exact evaluations that
//    replace up to n(n-1)/2.
//
//  * Grid tier (EMD metrics only) — every signature is snapped onto one
//    shared uniform grid of `grid_bins` cells spanning the population's
//    support. For distributions living on a lattice with spacing g, moving
//    one unit of mass between distinct lattice points costs at least g and
//    reduces the binned L1 discrepancy by at most 2, so
//        EMD(snap(a), snap(b)) >= (g/2) · L1(grid_a, grid_b),
//    and un-snapping costs at most the per-signature snap displacement:
//        EMD(a, b) >= (g/2) · L1(grid_a, grid_b) - snap_a - snap_b.
//    The L1 sweep is a dense, SIMD-friendly loop ~25x cheaper than the exact
//    EMD kernel (see stats/simd.h).
//
// The index never affects values, only which pairs pay the exact kernel —
// see average_linkage_cut_pruned for the exactness contract.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "stats/flat_signature.h"
#include "stats/hcluster.h"

namespace tradeplot::stats {

class NeighborIndex {
 public:
  /// Exact pairwise metric between leaves i and j. Must be pure and safe to
  /// call concurrently for distinct arguments (the pivot columns are
  /// computed with parallel_for).
  using PairDistanceFn = std::function<double(std::size_t, std::size_t)>;

  /// Builds the pivot tier: selects min(pivots, n) pivot leaves and computes
  /// every leaf's exact distance to each. `threads` follows resolve_threads
  /// semantics; the selection and the distance table are bit-identical for
  /// every thread count (each column entry is an independent pure call).
  NeighborIndex(std::size_t n, const PairDistanceFn& distance, std::size_t pivots,
                std::size_t threads);

  /// Adds the grid tier from preprocessed (normalized, sorted) signatures.
  /// No-op when grid_bins == 0, n == 0, or the population's support spans a
  /// single point (the bound would be vacuous).
  void build_grid(const FlatSignatureSet& flat, std::size_t grid_bins,
                  std::size_t threads);

  /// Borrowed views into the index, in the layout the pruned clustering
  /// driver consumes. Valid while the index is alive.
  [[nodiscard]] PruneFeatures features() const;

  [[nodiscard]] const std::vector<std::size_t>& pivot_leaves() const { return pivot_leaves_; }
  /// Row-major [leaf * pivot_count + p] exact distances.
  [[nodiscard]] const std::vector<double>& pivot_distances() const { return pivot_distances_; }
  [[nodiscard]] std::size_t pivot_count() const { return pivot_leaves_.size(); }
  [[nodiscard]] std::size_t grid_bins() const { return grid_bins_; }

  /// Leaf-level admissible lower bound on d(i, j) — the max of both tiers,
  /// margin-adjusted exactly as the clustering driver applies it. Exposed
  /// for the admissibility property tests.
  [[nodiscard]] double lower_bound(std::size_t i, std::size_t j) const;

 private:
  std::size_t n_;
  std::vector<std::size_t> pivot_leaves_;
  std::vector<double> pivot_distances_;  // n_ x pivot_leaves_.size(), row-major
  std::size_t grid_bins_ = 0;
  double grid_half_width_ = 0.0;
  std::vector<double> grid_;       // n_ x grid_bins_, unit-mass histograms
  std::vector<double> snap_cost_;  // n_
};

}  // namespace tradeplot::stats

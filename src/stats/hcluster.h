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
#include <span>
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

}  // namespace tradeplot::stats

#include "stats/hcluster.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "util/error.h"

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

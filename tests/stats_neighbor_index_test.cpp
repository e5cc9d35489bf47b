#include "stats/neighbor_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "stats/emd.h"
#include "stats/flat_signature.h"
#include "stats/hcluster.h"
#include "stats/simd.h"
#include "util/error.h"
#include "util/rng.h"

namespace tradeplot::stats {
namespace {

// A mix of tight "timer" signatures (several families around shared centres)
// and scattered "human" ones — the post-funnel shape the pruned path exists
// for, plus exact duplicates to exercise tie handling.
std::vector<Signature> mixed_population(util::Pcg32& rng, std::size_t n) {
  std::vector<Signature> sigs;
  sigs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Signature s;
    const auto points = static_cast<std::size_t>(rng.uniform_int(2, 24));
    if (i % 3 == 0) {
      const double centre = 30.0 * static_cast<double>(1 + i % 4);
      for (std::size_t k = 0; k < points; ++k) {
        s.push_back({centre + rng.uniform(-1.0, 1.0), rng.uniform(0.1, 2.0)});
      }
    } else {
      for (std::size_t k = 0; k < points; ++k) {
        s.push_back({rng.lognormal(4.0, 1.0), rng.uniform(0.1, 2.0)});
      }
    }
    sigs.push_back(std::move(s));
  }
  // Exact duplicates: distance-0 pairs and merge-height ties.
  if (n > 4) {
    sigs[1] = sigs[0];
    sigs[n - 1] = sigs[n - 2];
  }
  return sigs;
}

std::vector<double> dense_matrix(const FlatSignatureSet& flat) {
  const std::size_t n = flat.size();
  std::vector<double> d(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      d[i * n + j] = d[j * n + i] = emd_1d_presorted(flat.view(i), flat.view(j));
    }
  }
  return d;
}

TEST(NeighborIndex, LowerBoundNeverExceedsExactDistance) {
  util::Pcg32 rng(0x1DF1);
  for (const std::size_t n : {8u, 40u, 96u}) {
    const std::vector<Signature> sigs = mixed_population(rng, n);
    const FlatSignatureSet flat(sigs, 1);
    NeighborIndex index(
        n, [&](std::size_t i, std::size_t j) { return emd_1d_presorted(flat.view(i), flat.view(j)); },
        8, 1);
    index.build_grid(flat, 64, 1);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double exact = emd_1d_presorted(flat.view(i), flat.view(j));
        ASSERT_LE(index.lower_bound(i, j), exact) << "pair " << i << "," << j;
      }
    }
  }
}

TEST(NeighborIndex, PivotSelectionIsThreadCountInvariant) {
  util::Pcg32 rng(0x1DF2);
  const std::vector<Signature> sigs = mixed_population(rng, 70);
  const FlatSignatureSet flat(sigs, 1);
  const auto pair_fn = [&](std::size_t i, std::size_t j) {
    return emd_1d_presorted(flat.view(i), flat.view(j));
  };
  const NeighborIndex reference(70, pair_fn, 8, 1);
  for (const std::size_t threads : {2u, 8u}) {
    const NeighborIndex index(70, pair_fn, 8, threads);
    EXPECT_EQ(index.pivot_leaves(), reference.pivot_leaves()) << threads << " threads";
    ASSERT_EQ(index.pivot_distances().size(), reference.pivot_distances().size());
    EXPECT_EQ(std::memcmp(index.pivot_distances().data(), reference.pivot_distances().data(),
                          reference.pivot_distances().size() * sizeof(double)),
              0)
        << threads << " threads";
  }
}

TEST(NeighborIndex, DegenerateShapesStaySane) {
  // n == 1: no pairs, index must simply not blow up.
  const std::vector<Signature> one = {{{10.0, 1.0}}};
  const FlatSignatureSet flat_one(one, 1);
  NeighborIndex index_one(
      1, [&](std::size_t i, std::size_t j) { return emd_1d_presorted(flat_one.view(i), flat_one.view(j)); },
      8, 1);
  EXPECT_LE(index_one.pivot_count(), 1u);

  // All leaves coincident: farthest-point selection stops early and the
  // lower bound for identical signatures must be <= 0-distance.
  const std::vector<Signature> same(6, Signature{{42.0, 1.0}});
  const FlatSignatureSet flat_same(same, 1);
  NeighborIndex index_same(
      6, [&](std::size_t i, std::size_t j) { return emd_1d_presorted(flat_same.view(i), flat_same.view(j)); },
      4, 1);
  index_same.build_grid(flat_same, 16, 1);  // single support point: tier disabled
  EXPECT_LT(index_same.pivot_count(), 4u);
  EXPECT_LE(index_same.lower_bound(0, 5), 0.0);
}

// The paper's 5% cut, the detector's default 25%, and a deeper cut.
constexpr double kCutFractions[] = {0.05, 0.25, 0.3};

TEST(PrunedCut, GroupsMatchDenseCutAtEverySize) {
  util::Pcg32 rng(0x1DF3);
  for (const std::size_t n : {2u, 3u, 17u, 60u, 120u}) {
    const std::vector<Signature> sigs = mixed_population(rng, n);
    const FlatSignatureSet flat(sigs, 1);
    const std::vector<double> matrix = dense_matrix(flat);
    const Dendrogram dense = agglomerative_average_linkage(matrix, n);

    NeighborIndex index(
        n, [&](std::size_t i, std::size_t j) { return emd_1d_presorted(flat.view(i), flat.view(j)); },
        8, 1);
    index.build_grid(flat, 64, 1);
    for (const double fraction : kCutFractions) {
      PruneCounters counters;
      const auto got = average_linkage_cut_pruned(
          n, [&](std::size_t i, std::size_t j) { return matrix[i * n + j]; }, index.features(),
          fraction, {}, &counters);
      EXPECT_EQ(got, dense.cut_top_fraction(fraction)) << "n=" << n << " fraction=" << fraction;
      if (n >= 60) {
        EXPECT_GT(counters.skipped_pivot + counters.skipped_grid, 0u)
            << "n=" << n << " fraction=" << fraction;
      }
    }
  }
}

TEST(PrunedCut, ExactWithNoFeaturesAtAll) {
  // Empty PruneFeatures: every bound is vacuous, nothing is skipped, and the
  // driver degrades to a lazy but complete NN-chain — still exact.
  util::Pcg32 rng(0x1DF4);
  const std::size_t n = 24;
  const std::vector<Signature> sigs = mixed_population(rng, n);
  const FlatSignatureSet flat(sigs, 1);
  const std::vector<double> matrix = dense_matrix(flat);
  const Dendrogram dense = agglomerative_average_linkage(matrix, n);
  for (const double fraction : kCutFractions) {
    PruneCounters counters;
    EXPECT_EQ(average_linkage_cut_pruned(
                  n, [&](std::size_t i, std::size_t j) { return matrix[i * n + j]; },
                  PruneFeatures{}, fraction, {}, &counters),
              dense.cut_top_fraction(fraction))
        << "fraction=" << fraction;
    EXPECT_EQ(counters.skipped_pivot, 0u);
    EXPECT_EQ(counters.skipped_grid, 0u);
  }
}

TEST(PrunedCut, GroupsMatchDenseCutAcrossFractionsAndSeeds) {
  // The fused UPGMA+cut driver must reproduce the exhaustive
  // dendrogram-then-cut groups exactly — same partition, same ordering —
  // across sizes, cut fractions (including the degenerate 0 and 1), and
  // random populations, while never resolving more than the dense driver.
  for (const std::uint32_t seed : {0x2DF1u, 0x2DF2u, 0x2DF3u}) {
    util::Pcg32 rng(seed);
    for (const std::size_t n : {2u, 3u, 9u, 33u, 90u}) {
      const std::vector<Signature> sigs = mixed_population(rng, n);
      const FlatSignatureSet flat(sigs, 1);
      const std::vector<double> matrix = dense_matrix(flat);
      const Dendrogram dense = agglomerative_average_linkage(matrix, n);

      NeighborIndex index(
          n,
          [&](std::size_t i, std::size_t j) { return emd_1d_presorted(flat.view(i), flat.view(j)); },
          8, 1);
      index.build_grid(flat, 64, 1);
      for (const double fraction : {0.0, 0.05, 0.3, 1.0}) {
        PruneCounters counters;
        const auto got = average_linkage_cut_pruned(
            n, [&](std::size_t i, std::size_t j) { return matrix[i * n + j]; },
            index.features(), fraction, {}, &counters);
        const auto want = dense.cut_top_fraction(fraction);
        ASSERT_EQ(got, want) << "seed=" << seed << " n=" << n << " fraction=" << fraction;
      }
    }
  }
}

TEST(PrunedCut, WorksWithoutFeaturesAndRejectsBadInput) {
  util::Pcg32 rng(0x2DF4);
  const std::size_t n = 21;
  const std::vector<Signature> sigs = mixed_population(rng, n);
  const FlatSignatureSet flat(sigs, 1);
  const std::vector<double> matrix = dense_matrix(flat);
  const Dendrogram dense = agglomerative_average_linkage(matrix, n);
  const auto leaf = [&](std::size_t i, std::size_t j) { return matrix[i * n + j]; };
  EXPECT_EQ(average_linkage_cut_pruned(n, leaf, PruneFeatures{}, 0.05),
            dense.cut_top_fraction(0.05));
  EXPECT_EQ(average_linkage_cut_pruned(1, leaf, PruneFeatures{}, 0.05),
            (std::vector<std::vector<std::size_t>>{{0}}));
  EXPECT_THROW((void)average_linkage_cut_pruned(0, leaf, PruneFeatures{}, 0.05),
               util::ConfigError);
  EXPECT_THROW((void)average_linkage_cut_pruned(n, leaf, PruneFeatures{}, -0.1),
               util::ConfigError);
  EXPECT_THROW((void)average_linkage_cut_pruned(n, leaf, PruneFeatures{}, 1.1),
               util::ConfigError);
}

TEST(PrunedCut, BatchResolutionKeepsGroupsIdentical) {
  // The gated-lookahead batch path (PruneOptions::batch_leaf) may resolve
  // more pairs than the strict serial gate, but every value is exact, so the
  // groups must match the dense cut — at every worker count, with the
  // observer seeing each batch-resolved pair exactly once and bit-exact.
  util::Pcg32 rng(0x1DF5);
  for (const std::size_t n : {17u, 60u, 120u}) {
    const std::vector<Signature> sigs = mixed_population(rng, n);
    const FlatSignatureSet flat(sigs, 1);
    const std::vector<double> matrix = dense_matrix(flat);
    const Dendrogram dense = agglomerative_average_linkage(matrix, n);
    NeighborIndex index(
        n, [&](std::size_t i, std::size_t j) { return emd_1d_presorted(flat.view(i), flat.view(j)); },
        8, 1);
    index.build_grid(flat, 64, 1);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      for (const double fraction : kCutFractions) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " threads=" << threads << " fraction=" << fraction);
        PruneOptions options;
        options.threads = threads;
        options.batch_leaf = [&](std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
                                 double* out) {
          for (std::size_t k = 0; k < pairs.size(); ++k)
            out[k] = matrix[pairs[k].first * n + pairs[k].second];
        };
        std::vector<char> observed(n * n, 0);
        options.on_leaf_resolved = [&](std::size_t i, std::size_t j, double v) {
          EXPECT_EQ(observed[i * n + j]++, 0) << i << "," << j << " observed twice";
          EXPECT_EQ(std::memcmp(&v, &matrix[i * n + j], sizeof v), 0) << i << "," << j;
        };
        EXPECT_EQ(average_linkage_cut_pruned(
                      n, [&](std::size_t i, std::size_t j) { return matrix[i * n + j]; },
                      index.features(), fraction, options),
                  dense.cut_top_fraction(fraction));
      }
    }
  }
}

TEST(NeighborIndex, BoundsAdmissibleUnderSimdSweep) {
  // Brute-force cross-check of the vectorized pass-1 path: for every active
  // "top" leaf, run the same pivot_interval_sweep + margin pass the engine
  // runs over its column-major pivot storage, and verify each candidate's
  // margined interval brackets the exact distance. This is the admissibility
  // property the whole elimination tier rides on.
  util::Pcg32 rng(0x1DF6);
  const std::size_t n = 72;
  const std::vector<Signature> sigs = mixed_population(rng, n);
  const FlatSignatureSet flat(sigs, 1);
  NeighborIndex index(
      n, [&](std::size_t i, std::size_t j) { return emd_1d_presorted(flat.view(i), flat.view(j)); },
      8, 1);
  const PruneFeatures f = index.features();
  // Engine layout: column-major, cols[p * n + k] = pivot_distances[k * p + p].
  std::vector<double> cols(f.pivots * n);
  for (std::size_t p = 0; p < f.pivots; ++p)
    for (std::size_t k = 0; k < n; ++k) cols[p * n + k] = f.pivot_distances[k * f.pivots + p];
  std::vector<double> top_vals(f.pivots);
  std::vector<double> lo(n);
  std::vector<double> hi(n);
  for (std::size_t top = 0; top < n; ++top) {
    for (std::size_t p = 0; p < f.pivots; ++p) top_vals[p] = cols[p * n + top];
    simd::pivot_interval_sweep(cols.data(), n, f.pivots, top_vals.data(), n, lo.data(),
                               hi.data());
    hi[top] = std::numeric_limits<double>::infinity();
    (void)simd::margin_min_sweep(lo.data(), hi.data(), n);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == top) continue;
      const double exact = emd_1d_presorted(flat.view(top), flat.view(j));
      ASSERT_LE(lo[j], exact) << "top=" << top << " j=" << j;
      ASSERT_GE(hi[j], exact) << "top=" << top << " j=" << j;
    }
  }
}

TEST(SimdL1, MatchesScalarLoop) {
  util::Pcg32 rng(0x51D1);
  for (const std::size_t n : {0u, 1u, 3u, 8u, 64u, 257u}) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform(-5.0, 5.0);
      b[i] = rng.uniform(-5.0, 5.0);
    }
    double scalar = 0.0;
    for (std::size_t i = 0; i < n; ++i) scalar += std::abs(a[i] - b[i]);
    // The dispatched kernel may reassociate; equality up to a tiny relative
    // tolerance is the contract (bounds consume it through with_margin).
    EXPECT_NEAR(simd::l1_distance(a.data(), b.data(), n), scalar,
                1e-12 * (1.0 + scalar));
  }
}

}  // namespace
}  // namespace tradeplot::stats

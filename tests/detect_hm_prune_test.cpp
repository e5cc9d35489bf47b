// Property tests of the sub-quadratic θ_hm path: for every population the
// pruned run's observable result — flagged set, clusters, diameters, τ_hm —
// must be bit-identical to the exhaustive run's, because the lazy clustering
// driver resolves exactly the same floating-point values the dense matrix
// would have held. These tests sweep randomized populations (tie-heavy,
// duplicate-heavy, tiny, and mixed), all three distance modes, and the
// cache-warm path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "detect/hm_cache.h"
#include "detect/human_machine.h"
#include "util/rng.h"

namespace tradeplot::detect {
namespace {

simnet::Ipv4 host(std::uint32_t id) {
  return simnet::Ipv4(10, static_cast<std::uint8_t>(id >> 8), static_cast<std::uint8_t>(id), 1);
}

struct Population {
  FeatureMap features;
  HostSet input;

  void add(std::uint32_t id, std::vector<double> gaps) {
    HostFeatures f;
    f.host = host(id);
    f.flows_initiated = gaps.size() + 1;
    f.interstitials = std::move(gaps);
    input.push_back(f.host);
    features.emplace(f.host, std::move(f));
  }
};

// A randomized post-funnel population: several bot families sharing timers,
// a human remnant, plus exact-duplicate timing buffers (distance-0 pairs and
// merge-height ties — the cases naive pruning gets wrong).
Population random_population(util::Pcg32& rng, std::size_t n) {
  Population pop;
  std::vector<double> last;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> gaps(60);
    const int kind = rng.uniform_int(0, 3);
    if (kind == 0 && !last.empty()) {
      gaps = last;  // exact duplicate of the previous host
    } else if (kind <= 1) {
      const double period = 15.0 * static_cast<double>(1 + rng.uniform_int(0, 3));
      for (double& g : gaps) g = period + rng.uniform(-0.5, 0.5);
    } else {
      for (double& g : gaps) g = rng.lognormal(4.0 + rng.uniform(0.0, 1.5), 1.0);
    }
    last = gaps;
    pop.add(static_cast<std::uint32_t>(i), std::move(gaps));
  }
  return pop;
}

void expect_same_result(const HumanMachineResult& got, const HumanMachineResult& want) {
  EXPECT_EQ(got.flagged, want.flagged);
  EXPECT_EQ(got.skipped, want.skipped);
  EXPECT_EQ(got.degenerate, want.degenerate);
  EXPECT_EQ(got.degraded, want.degraded);
  const double gt = got.tau_hm;
  const double wt = want.tau_hm;
  EXPECT_EQ(std::memcmp(&gt, &wt, sizeof gt), 0) << gt << " vs " << wt;
  ASSERT_EQ(got.clusters.size(), want.clusters.size());
  for (std::size_t c = 0; c < want.clusters.size(); ++c) {
    EXPECT_EQ(got.clusters[c].members, want.clusters[c].members) << "cluster " << c;
    EXPECT_EQ(got.clusters[c].kept, want.clusters[c].kept) << "cluster " << c;
    const double gd = got.clusters[c].diameter;
    const double wd = want.clusters[c].diameter;
    EXPECT_EQ(std::memcmp(&gd, &wd, sizeof gd), 0) << "cluster " << c;
  }
}

TEST(HmPrune, VerdictsBitIdenticalAcrossRandomPopulations) {
  util::Pcg32 rng(0x9A11);
  for (const std::size_t n : {3u, 4u, 13u, 48u, 110u}) {
    for (int round = 0; round < 3; ++round) {
      const Population pop = random_population(rng, n);
      HumanMachineConfig exhaustive;
      exhaustive.min_samples = 10;
      exhaustive.pruning = HmPruning::kExhaustive;
      HumanMachineConfig pruned = exhaustive;
      pruned.pruning = HmPruning::kPruned;
      const HumanMachineResult want = human_machine_test(pop.features, pop.input, exhaustive);
      const HumanMachineResult got = human_machine_test(pop.features, pop.input, pruned);
      SCOPED_TRACE(testing::Message() << "n=" << n << " round=" << round);
      expect_same_result(got, want);
      EXPECT_TRUE(got.prune.used);
      EXPECT_FALSE(want.prune.used);
      EXPECT_LE(got.prune.exact_kernel_evals, want.prune.exact_kernel_evals);
    }
  }
}

TEST(HmPrune, AllDistanceModesAgree) {
  util::Pcg32 rng(0x9A12);
  const Population pop = random_population(rng, 72);
  for (const HmDistance d : {HmDistance::kEmd, HmDistance::kEmdBinIndex, HmDistance::kBinL1}) {
    HumanMachineConfig exhaustive;
    exhaustive.min_samples = 10;
    exhaustive.distance = d;
    exhaustive.pruning = HmPruning::kExhaustive;
    HumanMachineConfig pruned = exhaustive;
    pruned.pruning = HmPruning::kPruned;
    SCOPED_TRACE(testing::Message() << "distance mode " << static_cast<int>(d));
    expect_same_result(human_machine_test(pop.features, pop.input, pruned),
                       human_machine_test(pop.features, pop.input, exhaustive));
  }
}

TEST(HmPrune, TieHeavyPopulationsAgree) {
  // Every host one of two exact timing buffers: the distance matrix is full
  // of exact zeros and equal heights — pure tie-resolution stress.
  Population pop;
  std::vector<double> a(50, 30.0);
  std::vector<double> b(50, 90.0);
  for (std::uint32_t i = 0; i < 80; ++i) pop.add(i, i % 2 == 0 ? a : b);
  HumanMachineConfig exhaustive;
  exhaustive.min_samples = 10;
  exhaustive.pruning = HmPruning::kExhaustive;
  HumanMachineConfig pruned = exhaustive;
  pruned.pruning = HmPruning::kPruned;
  expect_same_result(human_machine_test(pop.features, pop.input, pruned),
                     human_machine_test(pop.features, pop.input, exhaustive));
}

TEST(HmPrune, ThreadCountDoesNotChangePrunedResult) {
  util::Pcg32 rng(0x9A13);
  const Population pop = random_population(rng, 90);
  HumanMachineConfig serial;
  serial.min_samples = 10;
  serial.pruning = HmPruning::kPruned;
  serial.threads = 1;
  const HumanMachineResult reference = human_machine_test(pop.features, pop.input, serial);
  for (const std::size_t threads : {2u, 8u}) {
    HumanMachineConfig config = serial;
    config.threads = threads;
    SCOPED_TRACE(testing::Message() << threads << " threads");
    expect_same_result(human_machine_test(pop.features, pop.input, config), reference);
  }
}

TEST(HmPrune, EnvThreadCountInvariantOnTieHeavyPopulation) {
  // threads = 0 defers to TRADEPLOT_THREADS; the tie-heavy population (all
  // distances exact zeros or exact duplicates) is where a racy reduction
  // order would first show as a different merge sequence. Every env setting
  // must produce the serial reference bit-for-bit.
  Population pop;
  std::vector<double> a(50, 30.0);
  std::vector<double> b(50, 90.0);
  for (std::uint32_t i = 0; i < 80; ++i) pop.add(i, i % 2 == 0 ? a : b);
  HumanMachineConfig config;
  config.min_samples = 10;
  config.pruning = HmPruning::kPruned;
  config.threads = 1;
  const HumanMachineResult reference = human_machine_test(pop.features, pop.input, config);
  config.threads = 0;
  for (const char* threads : {"1", "2", "8"}) {
    ASSERT_EQ(setenv("TRADEPLOT_THREADS", threads, 1), 0);
    SCOPED_TRACE(testing::Message() << "TRADEPLOT_THREADS=" << threads);
    expect_same_result(human_machine_test(pop.features, pop.input, config), reference);
  }
  unsetenv("TRADEPLOT_THREADS");
}

TEST(HmPrune, EnvThreadCountInvariantOnWarmCacheWindow) {
  // The cache-warm path resolves everything through memo probes; mixing it
  // with batch resolution at different thread counts must not change what
  // gets retained or returned.
  util::Pcg32 rng(0x9A18);
  const Population pop = random_population(rng, 84);
  HumanMachineConfig config;
  config.min_samples = 10;
  config.pruning = HmPruning::kPruned;
  config.threads = 1;
  HmCache reference_cache;
  (void)human_machine_test(pop.features, pop.input, config, &reference_cache);
  const HumanMachineResult reference =
      human_machine_test(pop.features, pop.input, config, &reference_cache);
  config.threads = 0;
  for (const char* threads : {"1", "2", "8"}) {
    ASSERT_EQ(setenv("TRADEPLOT_THREADS", threads, 1), 0);
    SCOPED_TRACE(testing::Message() << "TRADEPLOT_THREADS=" << threads);
    HmCache cache;
    const HumanMachineResult cold = human_machine_test(pop.features, pop.input, config, &cache);
    const HumanMachineResult warm = human_machine_test(pop.features, pop.input, config, &cache);
    expect_same_result(warm, reference);
    expect_same_result(cold, reference);
    EXPECT_EQ(warm.prune.exact_kernel_evals, 0u);
  }
  unsetenv("TRADEPLOT_THREADS");
}

TEST(HmPrune, PhaseTimingFieldsFollowCollectFlag) {
  util::Pcg32 rng(0x9A19);
  const Population pop = random_population(rng, 96);
  HumanMachineConfig config;
  config.min_samples = 10;
  config.pruning = HmPruning::kPruned;
  const HumanMachineResult off = human_machine_test(pop.features, pop.input, config);
  EXPECT_EQ(off.prune.pivot_build_ms, 0.0);
  EXPECT_EQ(off.prune.bound_scan_ms, 0.0);
  EXPECT_EQ(off.prune.exact_eval_ms, 0.0);
  EXPECT_EQ(off.prune.replay_ms, 0.0);
  config.collect_phase_timing = true;
  const HumanMachineResult on = human_machine_test(pop.features, pop.input, config);
  expect_same_result(on, off);  // timing must never perturb the verdict
  // Steady clocks are monotone, so every phase is non-negative, and a
  // 96-host pruned run always does pivot construction and bound scans.
  EXPECT_GT(on.prune.pivot_build_ms, 0.0);
  EXPECT_GT(on.prune.bound_scan_ms, 0.0);
  EXPECT_GE(on.prune.exact_eval_ms, 0.0);
  EXPECT_GE(on.prune.replay_ms, 0.0);
}

TEST(HmPrune, AutoSwitchesAtPruneMinHosts) {
  util::Pcg32 rng(0x9A14);
  const Population small = random_population(rng, kHmPruneMinHosts - 1);
  const Population large = random_population(rng, kHmPruneMinHosts);
  HumanMachineConfig config;
  config.min_samples = 10;
  const HumanMachineResult below = human_machine_test(small.features, small.input, config);
  const HumanMachineResult above = human_machine_test(large.features, large.input, config);
  // Every host is eligible, so the engines switch exactly at the constant.
  EXPECT_EQ(below.prune.pairs_total, (kHmPruneMinHosts - 1) * (kHmPruneMinHosts - 2) / 2);
  EXPECT_EQ(above.prune.pairs_total, kHmPruneMinHosts * (kHmPruneMinHosts - 1) / 2);
  EXPECT_FALSE(below.prune.used);
  EXPECT_TRUE(above.prune.used);
  EXPECT_GT(above.prune.skipped_pivot + above.prune.skipped_grid, 0u);
  EXPECT_LT(above.prune.exact_kernel_evals, above.prune.pairs_total);
}

TEST(HmPrune, PrunedPathReducesExactEvalsOnClusterablePopulations) {
  // The acceptance-shaped claim in miniature: on a population of tight bot
  // families plus scattered humans, the pruned path must evaluate the exact
  // kernel for well under a third of the pair space.
  util::Pcg32 rng(0x9A15);
  Population pop;
  for (std::uint32_t i = 0; i < 128; ++i) {
    std::vector<double> gaps(80);
    if (i < 112) {
      // 16 timer families with geometrically shrinking period gaps: tight
      // within a family, well separated across families. Shrinking gaps
      // keep each family's nearest neighbour on its denser side, so the
      // NN-chain finishes families before inter-family merges start and the
      // pruned driver's bounds carry almost every cross-family decision.
      const double period =
          8.0 + 500.0 * (1.0 - std::pow(0.96, static_cast<double>(i % 16)));
      for (double& g : gaps) g = period + rng.uniform(-0.25, 0.25);
    } else {
      for (double& g : gaps) g = rng.lognormal(4.5, 1.0);
    }
    pop.add(i, std::move(gaps));
  }
  HumanMachineConfig pruned;
  pruned.min_samples = 10;
  pruned.pruning = HmPruning::kPruned;
  HumanMachineConfig exhaustive = pruned;
  exhaustive.pruning = HmPruning::kExhaustive;
  const HumanMachineResult got = human_machine_test(pop.features, pop.input, pruned);
  const HumanMachineResult want = human_machine_test(pop.features, pop.input, exhaustive);
  expect_same_result(got, want);
  EXPECT_LT(got.prune.exact_kernel_evals, got.prune.pairs_total / 3);
}

TEST(HmPrune, WarmCacheWindowRunsZeroExactKernels) {
  util::Pcg32 rng(0x9A16);
  const Population pop = random_population(rng, 80);
  HumanMachineConfig config;
  config.min_samples = 10;
  config.pruning = HmPruning::kPruned;
  HmCache cache;
  const HumanMachineResult cold = human_machine_test(pop.features, pop.input, config, &cache);
  const std::uint64_t computed_after_cold = cache.distances_computed;
  const HumanMachineResult warm = human_machine_test(pop.features, pop.input, config, &cache);
  expect_same_result(warm, cold);
  // Identical inputs: every pivot column and chain resolution is a cache
  // hit; the exact kernel never runs and nothing new is computed.
  EXPECT_EQ(warm.prune.exact_kernel_evals, 0u);
  EXPECT_EQ(cache.distances_computed, computed_after_cold);
  EXPECT_GT(warm.prune.cache_hits, 0u);

  // And the cached pruned window is bit-identical to an uncached one.
  const HumanMachineResult uncached = human_machine_test(pop.features, pop.input, config);
  expect_same_result(warm, uncached);
}

TEST(HmPrune, CachedPrunedWindowMatchesCachedExhaustiveWindow) {
  // The sparse retention must serve the same values the dense retention
  // would have: run cold+warm under both strategies and compare everything.
  util::Pcg32 rng(0x9A17);
  const Population pop = random_population(rng, 70);
  HumanMachineConfig pruned;
  pruned.min_samples = 10;
  pruned.pruning = HmPruning::kPruned;
  HumanMachineConfig exhaustive = pruned;
  exhaustive.pruning = HmPruning::kExhaustive;
  HmCache pruned_cache;
  HmCache exhaustive_cache;
  (void)human_machine_test(pop.features, pop.input, pruned, &pruned_cache);
  (void)human_machine_test(pop.features, pop.input, exhaustive, &exhaustive_cache);
  const HumanMachineResult warm_pruned =
      human_machine_test(pop.features, pop.input, pruned, &pruned_cache);
  const HumanMachineResult warm_exhaustive =
      human_machine_test(pop.features, pop.input, exhaustive, &exhaustive_cache);
  expect_same_result(warm_pruned, warm_exhaustive);
}

TEST(HmPrune, OneCacheServesBothEngines) {
  // Both engines resolve and retain leaf distances through the same
  // resolver, so a cache left by one engine serves the other: window 1 on
  // one engine, window 2 (one host changed) on the other, in both orders.
  // Each window equals its cache-off run, and the cache books exactly the
  // pairs the window resolved.
  util::Pcg32 rng(0x9A1A);
  const Population first_window = random_population(rng, 70);
  Population second_window = first_window;
  second_window.features.at(host(5)).interstitials.push_back(42.0);
  for (const bool dense_first : {true, false}) {
    SCOPED_TRACE(dense_first ? "dense then pruned" : "pruned then dense");
    HumanMachineConfig first;
    first.min_samples = 10;
    first.pruning = dense_first ? HmPruning::kExhaustive : HmPruning::kPruned;
    HumanMachineConfig second = first;
    second.pruning = dense_first ? HmPruning::kPruned : HmPruning::kExhaustive;
    HmCache cache;
    std::uint64_t booked = 0;
    const auto newly_booked = [&] {
      const std::uint64_t total = cache.distances_computed + cache.distances_reused;
      const std::uint64_t delta = total - booked;
      booked = total;
      return delta;
    };

    const HumanMachineResult w1 =
        human_machine_test(first_window.features, first_window.input, first, &cache);
    expect_same_result(w1, human_machine_test(first_window.features, first_window.input, first));
    EXPECT_EQ(newly_booked(), w1.prune.resolved_pairs);

    const HumanMachineResult w2 =
        human_machine_test(second_window.features, second_window.input, second, &cache);
    expect_same_result(w2,
                       human_machine_test(second_window.features, second_window.input, second));
    EXPECT_EQ(newly_booked(), w2.prune.resolved_pairs);
    EXPECT_GT(w2.prune.cache_hits, 0u);
  }
}

}  // namespace
}  // namespace tradeplot::detect

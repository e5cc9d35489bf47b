#include "detect/human_machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>

#include "detect/hm_cache.h"
#include "util/error.h"
#include "util/rng.h"

namespace tradeplot::detect {
namespace {

simnet::Ipv4 host(std::uint8_t last_octet) { return simnet::Ipv4(128, 2, 0, last_octet); }

HostFeatures with_interstitials(std::uint8_t last_octet, std::vector<double> gaps) {
  HostFeatures f;
  f.host = host(last_octet);
  f.flows_initiated = gaps.size() + 1;
  f.interstitials = std::move(gaps);
  return f;
}

// `count` samples at `period` with +-jitter noise: a machine timer.
std::vector<double> machine_gaps(util::Pcg32& rng, double period, double jitter,
                                 std::size_t count) {
  std::vector<double> gaps(count);
  for (double& g : gaps) g = period + rng.uniform(-jitter, jitter);
  return gaps;
}

// Heavy-tailed human gaps with a per-host scale.
std::vector<double> human_gaps(util::Pcg32& rng, double mu, std::size_t count) {
  std::vector<double> gaps(count);
  for (double& g : gaps) g = rng.lognormal(mu, 1.0);
  return gaps;
}

struct Population {
  FeatureMap features;
  HostSet input;

  void add(HostFeatures f) {
    input.push_back(f.host);
    features.emplace(f.host, std::move(f));
  }
};

Population bots_and_humans() {
  util::Pcg32 rng(1);
  Population pop;
  // Five "bots" sharing a 30 s timer.
  for (std::uint8_t b = 1; b <= 5; ++b) {
    pop.add(with_interstitials(b, machine_gaps(rng, 30.0, 0.5, 400)));
  }
  // Twelve humans at assorted scales.
  for (std::uint8_t h = 20; h < 32; ++h) {
    pop.add(with_interstitials(h, human_gaps(rng, 5.0 + (h % 5) * 0.4, 300)));
  }
  return pop;
}

TEST(HumanMachineTest, BotsClusterTogetherAndSurvive) {
  Population pop = bots_and_humans();
  const HumanMachineResult result = human_machine_test(pop.features, pop.input, {});
  // All five machine-driven hosts flagged...
  for (std::uint8_t b = 1; b <= 5; ++b) {
    EXPECT_TRUE(std::binary_search(result.flagged.begin(), result.flagged.end(), host(b)))
        << "bot " << int(b);
  }
  // ...and they sit in one pure, tight cluster.
  bool found_pure_bot_cluster = false;
  for (const HostCluster& cluster : result.clusters) {
    std::size_t bots = 0;
    for (const simnet::Ipv4 member : cluster.members) {
      if (member <= host(5)) ++bots;
    }
    if (bots == 5 && cluster.members.size() == 5) {
      found_pure_bot_cluster = true;
      EXPECT_TRUE(cluster.kept);
    }
  }
  EXPECT_TRUE(found_pure_bot_cluster);
}

TEST(HumanMachineTest, MinSamplesSkipsQuietHosts) {
  util::Pcg32 rng(2);
  Population pop = bots_and_humans();
  pop.add(with_interstitials(99, {1.0, 2.0}));  // 2 samples only
  HumanMachineConfig config;
  config.min_samples = 10;
  const HumanMachineResult result = human_machine_test(pop.features, pop.input, config);
  EXPECT_TRUE(std::binary_search(result.skipped.begin(), result.skipped.end(), host(99)));
  EXPECT_FALSE(std::binary_search(result.flagged.begin(), result.flagged.end(), host(99)));
}

TEST(HumanMachineTest, TooFewEligibleHostsReturnsEmpty) {
  util::Pcg32 rng(3);
  Population pop;
  pop.add(with_interstitials(1, machine_gaps(rng, 10, 0.1, 100)));
  const HumanMachineResult result = human_machine_test(pop.features, pop.input, {});
  EXPECT_TRUE(result.flagged.empty());
  EXPECT_TRUE(result.clusters.empty());
}

TEST(HumanMachineTest, SingletonClustersAreNeverFlagged) {
  util::Pcg32 rng(4);
  Population pop;
  // Two wildly different hosts: after any cut they are singletons.
  pop.add(with_interstitials(1, machine_gaps(rng, 10, 0.1, 100)));
  pop.add(with_interstitials(2, machine_gaps(rng, 5000, 1, 100)));
  const HumanMachineResult result = human_machine_test(pop.features, pop.input, {});
  EXPECT_TRUE(result.flagged.empty());
}

TEST(HumanMachineTest, DiameterPercentileControlsStrictness) {
  Population pop = bots_and_humans();
  HumanMachineConfig strict;
  strict.diameter_percentile = 0.0;  // only the single tightest cluster
  const HumanMachineResult strict_result = human_machine_test(pop.features, pop.input, strict);
  HumanMachineConfig lax;
  lax.diameter_percentile = 1.0;  // every cluster survives
  const HumanMachineResult lax_result = human_machine_test(pop.features, pop.input, lax);
  EXPECT_LE(strict_result.flagged.size(), lax_result.flagged.size());
  // At percentile 1.0, all clustered hosts are flagged.
  std::size_t clustered = 0;
  for (const auto& c : lax_result.clusters) clustered += c.members.size();
  EXPECT_EQ(lax_result.flagged.size(), clustered);
}

TEST(HumanMachineTest, FixedBinWidthVariantRuns) {
  Population pop = bots_and_humans();
  HumanMachineConfig config;
  config.fixed_bin_width = 10.0;
  const HumanMachineResult result = human_machine_test(pop.features, pop.input, config);
  // The bots' shared timer must still be visible with a sane fixed width.
  for (std::uint8_t b = 1; b <= 5; ++b) {
    EXPECT_TRUE(std::binary_search(result.flagged.begin(), result.flagged.end(), host(b)));
  }
}

TEST(HumanMachineTest, AlternativeDistancesRun) {
  Population pop = bots_and_humans();
  for (const HmDistance d :
       {HmDistance::kEmd, HmDistance::kEmdBinIndex, HmDistance::kBinL1}) {
    HumanMachineConfig config;
    config.distance = d;
    const HumanMachineResult result = human_machine_test(pop.features, pop.input, config);
    EXPECT_FALSE(result.clusters.empty());
  }
}

TEST(PairwiseBinL1, MassStraddlingZeroLandsInDistinctBins) {
  // Regression: binning with a truncating cast mapped +-grid/2 both to bin
  // 0, so two point masses on opposite sides of 0 compared as identical.
  // Floor-based binning puts them one bin apart: total L1 mass of 2.
  HumanMachineConfig config;
  config.fixed_bin_width = 60.0;
  const std::vector<stats::Signature> sigs = {{{-30.0, 1.0}}, {{30.0, 1.0}}};
  const std::vector<double> d = pairwise_bin_l1(sigs, config);
  EXPECT_DOUBLE_EQ(d[0 * 2 + 1], 2.0);
  EXPECT_DOUBLE_EQ(d[1 * 2 + 0], 2.0);
}

TEST(PairwiseBinL1, NegativeAxisBinsConsistentWithPositive) {
  // Mass at -90 and -30 (bins -2 and -1) must be as far apart as mass at
  // +30 and +90 (bins 0 and 1): truncation used to squash the negative
  // pair into adjacent-looking bins asymmetrically.
  HumanMachineConfig config;
  config.fixed_bin_width = 60.0;
  const std::vector<stats::Signature> sigs = {
      {{-90.0, 1.0}}, {{-30.0, 1.0}}, {{30.0, 1.0}}, {{90.0, 1.0}}};
  const std::vector<double> d = pairwise_bin_l1(sigs, config);
  EXPECT_DOUBLE_EQ(d[0 * 4 + 1], d[2 * 4 + 3]);  // one bin apart each
  EXPECT_DOUBLE_EQ(d[1 * 4 + 2], 2.0);           // -30 vs 30: different bins
}

// The pre-flat formulation of pairwise_bin_l1 for one pair: accumulate each
// signature into an ordered map keyed by the floor bin, then L1 over the
// union of bins in ascending order — the operation sequence the flat
// dense/sparse kernels must reproduce exactly.
double reference_bin_l1(const stats::Signature& a, const stats::Signature& b, double grid) {
  const auto binned = [grid](const stats::Signature& s) {
    std::map<long long, double> acc;
    for (const stats::SignaturePoint& p : s) {
      acc[std::llround(std::floor(p.position / grid))] += p.weight;
    }
    return acc;
  };
  const std::map<long long, double> wa = binned(a);
  const std::map<long long, double> wb = binned(b);
  double l1 = 0.0;
  auto ia = wa.begin();
  auto ib = wb.begin();
  while (ia != wa.end() || ib != wb.end()) {
    if (ib == wb.end() || (ia != wa.end() && ia->first < ib->first)) {
      l1 += std::abs(ia->second);
      ++ia;
    } else if (ia == wa.end() || ib->first < ia->first) {
      l1 += std::abs(ib->second);
      ++ib;
    } else {
      l1 += std::abs(ia->second - ib->second);
      ++ia;
      ++ib;
    }
  }
  return l1;
}

stats::Signature random_l1_sig(util::Pcg32& rng, bool wide) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 30));
  stats::Signature s;
  for (std::size_t i = 0; i < n; ++i) {
    // `wide` scatters mass far enough that the population overflows the
    // dense-bin budget and the sparse merge path runs instead.
    const double scale = wide ? 1.0e7 : 600.0;
    s.push_back({rng.uniform(-scale, scale), rng.uniform(0.0, 2.0)});
  }
  s[0].weight += 0.125;
  return s;
}

TEST(PairwiseBinL1, FlatKernelMatchesOrderedMapReferenceBitwise) {
  util::Pcg32 rng(0xB117);
  HumanMachineConfig config;
  config.fixed_bin_width = 60.0;
  for (const bool wide : {false, true}) {
    std::vector<stats::Signature> sigs;
    for (int i = 0; i < 20; ++i) sigs.push_back(random_l1_sig(rng, wide));
    const std::vector<double> d = pairwise_bin_l1(sigs, config);
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      for (std::size_t j = i + 1; j < sigs.size(); ++j) {
        const double ref = reference_bin_l1(sigs[i], sigs[j], 60.0);
        const double got = d[i * sigs.size() + j];
        ASSERT_EQ(std::memcmp(&ref, &got, sizeof ref), 0)
            << (wide ? "sparse" : "dense") << " pair " << i << "," << j << ": reference "
            << ref << " vs flat " << got;
        ASSERT_EQ(got, d[j * sigs.size() + i]);  // mirrored
      }
    }
  }
}

TEST(PairwiseBinL1, BitIdenticalAcrossThreadCounts) {
  util::Pcg32 rng(0xB118);
  std::vector<stats::Signature> sigs;
  for (int i = 0; i < 65; ++i) sigs.push_back(random_l1_sig(rng, false));
  HumanMachineConfig serial;
  serial.fixed_bin_width = 60.0;
  serial.threads = 1;
  const std::vector<double> reference = pairwise_bin_l1(sigs, serial);
  for (const std::size_t threads : {2u, 8u}) {
    HumanMachineConfig config;
    config.fixed_bin_width = 60.0;
    config.threads = threads;
    const std::vector<double> d = pairwise_bin_l1(sigs, config);
    ASSERT_EQ(std::memcmp(reference.data(), d.data(), d.size() * sizeof(double)), 0)
        << threads << " threads";
  }
}

TEST(PairwiseBinL1, ValidatesSignaturesUpFrontWithPinnedMessages) {
  HumanMachineConfig config;
  config.threads = 8;  // the throw must happen before any worker runs
  const auto message = [&](const std::vector<stats::Signature>& sigs) -> std::string {
    try {
      (void)pairwise_bin_l1(sigs, config);
    } catch (const util::ConfigError& e) {
      return e.what();
    }
    return "(no throw)";
  };
  EXPECT_EQ(message({{{1.0, 1.0}}, {{2.0, -0.25}}}),
            "config error: bin-L1: negative signature weight");
  EXPECT_EQ(message({{{1.0, 1.0}}, {{2.0, 0.0}}}),
            "config error: bin-L1: signature has no mass");
}

TEST(HumanMachineTest, RejectsNegativeOrNonFiniteFixedBinWidth) {
  // S1 regression: a negative or non-finite width used to fall silently
  // back to the 60 s bin-L1 grid. It is a misconfiguration and must throw;
  // 0 stays valid as the documented FD / 60 s fallback sentinel.
  Population pop = bots_and_humans();
  for (const double bad : {-1.0, -0.0625, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    HumanMachineConfig config;
    config.fixed_bin_width = bad;
    EXPECT_THROW((void)human_machine_test(pop.features, pop.input, config),
                 util::ConfigError)
        << "width " << bad;
    config.distance = HmDistance::kBinL1;
    EXPECT_THROW((void)pairwise_bin_l1({{{1.0, 1.0}}, {{2.0, 1.0}}}, config),
                 util::ConfigError)
        << "width " << bad;
  }
  HumanMachineConfig zero;
  zero.fixed_bin_width = 0.0;
  EXPECT_NO_THROW((void)human_machine_test(pop.features, pop.input, zero));
}

TEST(HumanMachineTest, DegenerateHostIsSkippedNotFatal) {
  // S2 regression: a host whose timing buffer holds non-finite samples used
  // to throw from the signature/distance kernels and abort the whole
  // window. It must instead be skipped and accounted, with the remaining
  // hosts' verdict identical to a run that never saw it.
  Population clean = bots_and_humans();
  const HumanMachineResult want = human_machine_test(clean.features, clean.input, {});

  Population dirty = bots_and_humans();
  std::vector<double> bad(50, 10.0);
  bad[17] = std::numeric_limits<double>::quiet_NaN();
  dirty.add(with_interstitials(99, std::move(bad)));
  const HumanMachineResult got = human_machine_test(dirty.features, dirty.input, {});

  EXPECT_TRUE(got.degraded);
  EXPECT_EQ(got.degenerate, HostSet{host(99)});
  EXPECT_TRUE(std::binary_search(got.skipped.begin(), got.skipped.end(), host(99)));
  EXPECT_EQ(got.flagged, want.flagged);
  EXPECT_EQ(got.tau_hm, want.tau_hm);  // bitwise: the host never entered
  ASSERT_EQ(got.clusters.size(), want.clusters.size());
  for (std::size_t c = 0; c < want.clusters.size(); ++c) {
    EXPECT_EQ(got.clusters[c].members, want.clusters[c].members);
    EXPECT_EQ(got.clusters[c].diameter, want.clusters[c].diameter);
  }

  // Infinity is as degenerate as NaN.
  Population inf_pop = bots_and_humans();
  std::vector<double> inf_gaps(50, 10.0);
  inf_gaps[3] = HUGE_VAL;
  inf_pop.add(with_interstitials(98, std::move(inf_gaps)));
  const HumanMachineResult inf_got =
      human_machine_test(inf_pop.features, inf_pop.input, {});
  EXPECT_TRUE(inf_got.degraded);
  EXPECT_EQ(inf_got.degenerate, HostSet{host(98)});
  EXPECT_EQ(inf_got.flagged, want.flagged);
}

TEST(HumanMachineTest, CleanWindowIsNotDegraded) {
  Population pop = bots_and_humans();
  const HumanMachineResult result = human_machine_test(pop.features, pop.input, {});
  EXPECT_FALSE(result.degraded);
  EXPECT_TRUE(result.degenerate.empty());
}

TEST(HumanMachineTest, ThreadCountDoesNotChangeTheResult) {
  Population pop = bots_and_humans();
  HumanMachineConfig serial;
  serial.threads = 1;
  const HumanMachineResult reference = human_machine_test(pop.features, pop.input, serial);
  for (const std::size_t threads : {2u, 8u}) {
    HumanMachineConfig config;
    config.threads = threads;
    const HumanMachineResult result = human_machine_test(pop.features, pop.input, config);
    EXPECT_EQ(result.flagged, reference.flagged) << threads << " threads";
    EXPECT_EQ(result.tau_hm, reference.tau_hm) << threads << " threads";
    ASSERT_EQ(result.clusters.size(), reference.clusters.size());
    for (std::size_t c = 0; c < result.clusters.size(); ++c) {
      EXPECT_EQ(result.clusters[c].members, reference.clusters[c].members);
      EXPECT_EQ(result.clusters[c].diameter, reference.clusters[c].diameter);
    }
  }
}

TEST(HumanMachineTest, JitteredAndDilutedBotsEscape) {
  // The paper's Fig. 12 mechanism in miniature. Jitter alone does not break
  // the similarity of bots running the same algorithm (their smeared
  // distributions stay identical); what pushes them apart is the smear
  // *combined* with the traffic of the host each bot rides on — once the
  // comb no longer dominates, the per-carrier background differences do.
  util::Pcg32 rng(5);
  Population pop;
  for (std::uint8_t b = 1; b <= 5; ++b) {
    // timer 30 s + uniform jitter of +-300 s, mixed with the carrier's own
    // human traffic at a per-host scale.
    std::vector<double> gaps(400);
    for (double& g : gaps) g = 30.0 + rng.uniform(0.0, 600.0);
    const auto background = human_gaps(rng, 5.5 + b * 0.5, 120);
    gaps.insert(gaps.end(), background.begin(), background.end());
    pop.add(with_interstitials(b, std::move(gaps)));
  }
  for (std::uint8_t h = 20; h < 32; ++h) {
    pop.add(with_interstitials(h, human_gaps(rng, 5.0 + (h % 5) * 0.4, 300)));
  }
  const HumanMachineResult result = human_machine_test(pop.features, pop.input, {});
  std::size_t flagged_bots = 0;
  for (std::uint8_t b = 1; b <= 5; ++b) {
    if (std::binary_search(result.flagged.begin(), result.flagged.end(), host(b)))
      ++flagged_bots;
  }
  EXPECT_LT(flagged_bots, 5u);
}

// A randomized post-funnel population of `n` hosts (addresses 10.x.y.1, so n
// may exceed 255): bot families sharing timers, a human remnant, and
// exact-duplicate timing buffers (distance-0 pairs and merge-height ties).
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
    HostFeatures f;
    f.host = simnet::Ipv4(10, static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i), 1);
    f.flows_initiated = gaps.size() + 1;
    f.interstitials = std::move(gaps);
    pop.add(std::move(f));
  }
  return pop;
}

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_result(const HumanMachineResult& got, const HumanMachineResult& want) {
  EXPECT_EQ(got.flagged, want.flagged);
  EXPECT_EQ(got.skipped, want.skipped);
  EXPECT_EQ(got.degenerate, want.degenerate);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_TRUE(bit_equal(got.tau_hm, want.tau_hm)) << got.tau_hm << " vs " << want.tau_hm;
  ASSERT_EQ(got.clusters.size(), want.clusters.size());
  for (std::size_t c = 0; c < want.clusters.size(); ++c) {
    EXPECT_EQ(got.clusters[c].members, want.clusters[c].members) << "cluster " << c;
    EXPECT_EQ(got.clusters[c].kept, want.clusters[c].kept) << "cluster " << c;
    EXPECT_TRUE(bit_equal(got.clusters[c].diameter, want.clusters[c].diameter))
        << "cluster " << c;
  }
}

TEST(HumanMachineTest, EnvThreadCountInvariantOnTieHeavyPopulation) {
  // threads = 0 defers to TRADEPLOT_THREADS. The tie-heavy population (all
  // distances exact zeros or exact duplicates) is where a racy fill order
  // would first show as a different merge sequence, and its 80 hosts span
  // several 32×32 distance tiles. Every env setting must produce the serial
  // reference bit-for-bit.
  Population pop;
  const std::vector<double> a(50, 30.0);
  const std::vector<double> b(50, 90.0);
  for (std::uint8_t i = 0; i < 80; ++i) pop.add(with_interstitials(i, i % 2 == 0 ? a : b));
  HumanMachineConfig config;
  config.min_samples = 10;
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

TEST(HumanMachineTest, EnvThreadCountInvariantOnWarmCacheWindow) {
  // A warm window serves every pair from the cache inside the parallel tile
  // fill; the thread count must change neither what is returned nor what is
  // retained, and the warm window runs no exact kernel.
  util::Pcg32 rng(0x9A18);
  const Population pop = random_population(rng, 84);
  HumanMachineConfig config;
  config.min_samples = 10;
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

TEST(HmPrune, WarmCacheWindowRunsZeroExactKernels) {
  // The HmPruneStats counters of a warm window over several 32×32 tiles:
  // every pair is a cache hit, the exact kernel never runs, nothing new is
  // computed, and the result is bit-identical to the cold and an uncached run.
  util::Pcg32 rng(0x9A16);
  const Population pop = random_population(rng, 80);
  HumanMachineConfig config;
  config.min_samples = 10;
  HmCache cache;
  const HumanMachineResult cold = human_machine_test(pop.features, pop.input, config, &cache);
  const std::uint64_t computed_after_cold = cache.distances_computed;
  const HumanMachineResult warm = human_machine_test(pop.features, pop.input, config, &cache);
  expect_same_result(warm, cold);
  EXPECT_EQ(warm.prune.exact_kernel_evals, 0u);
  EXPECT_EQ(warm.prune.cache_hits, warm.prune.pairs_total);
  EXPECT_GT(warm.prune.cache_hits, 0u);
  EXPECT_EQ(cache.distances_computed, computed_after_cold);
  expect_same_result(warm, human_machine_test(pop.features, pop.input, config));
}

TEST(HumanMachineTest, OneEngineAtEverySize) {
  // 300 eligible hosts: every pair is resolved (kernel or cache) at any
  // population size, and the result does not depend on the thread count.
  util::Pcg32 rng(0x9A1C);
  const Population pop = random_population(rng, 300);
  HumanMachineConfig config;
  config.min_samples = 10;
  config.threads = 1;
  const HumanMachineResult serial = human_machine_test(pop.features, pop.input, config);
  EXPECT_EQ(serial.prune.pairs_total, 300u * 299u / 2u);
  EXPECT_EQ(serial.prune.exact_kernel_evals + serial.prune.cache_hits, serial.prune.pairs_total);
  config.threads = 4;
  const HumanMachineResult parallel = human_machine_test(pop.features, pop.input, config);
  EXPECT_EQ(parallel.prune.exact_kernel_evals + parallel.prune.cache_hits,
            parallel.prune.pairs_total);
  expect_same_result(parallel, serial);
}

}  // namespace
}  // namespace tradeplot::detect

// Cross-window θ_hm signature/distance caching: reuse must be gated on the
// timing-buffer content hash, a one-host change must rebuild only that
// host's signature and matrix rows (asserted via the recompute counters),
// verdicts must be bit-identical with the cache on or off, and the warm
// state must survive a checkpoint/restore cycle.
#include "detect/hm_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "detect/find_plotters.h"
#include "detect/human_machine.h"
#include "detect/payload_codec.h"
#include "detect/streaming.h"
#include "netflow/flow_record.h"
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

struct Population {
  FeatureMap features;
  HostSet input;

  void add(HostFeatures f) {
    input.push_back(f.host);
    features.emplace(f.host, std::move(f));
  }
};

// Five machine-timed hosts plus eight human-timed ones, all eligible.
Population population(std::uint64_t seed) {
  util::Pcg32 rng(seed);
  Population pop;
  for (std::uint8_t b = 1; b <= 5; ++b) {
    std::vector<double> gaps(200);
    for (double& g : gaps) g = 30.0 + rng.uniform(-0.5, 0.5);
    pop.add(with_interstitials(b, std::move(gaps)));
  }
  for (std::uint8_t h = 20; h < 28; ++h) {
    std::vector<double> gaps(150);
    for (double& g : gaps) g = rng.lognormal(5.0 + (h % 4) * 0.4, 1.0);
    pop.add(with_interstitials(h, std::move(gaps)));
  }
  return pop;
}

void expect_results_equal(const HumanMachineResult& a, const HumanMachineResult& b) {
  EXPECT_EQ(a.flagged, b.flagged);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.tau_hm, b.tau_hm);  // bitwise: cached values must be exact
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].members, b.clusters[i].members);
    EXPECT_EQ(a.clusters[i].diameter, b.clusters[i].diameter);
    EXPECT_EQ(a.clusters[i].kept, b.clusters[i].kept);
  }
}

TEST(HmCache, PairKeyIsOrderInsensitiveAndInjective) {
  const simnet::Ipv4 a = host(1), b = host(2), c = host(3);
  EXPECT_EQ(HmCache::pair_key(a, b), HmCache::pair_key(b, a));
  EXPECT_NE(HmCache::pair_key(a, b), HmCache::pair_key(a, c));
  EXPECT_NE(HmCache::pair_key(a, b), HmCache::pair_key(b, c));
}

TEST(HmCache, ContentHashTracksSamplesAndConfig) {
  const std::vector<double> samples = {1.0, 2.5, 4.0};
  const std::vector<double> mutated = {1.0, 2.5, 4.000001};
  const std::uint64_t base = hm_content_hash(samples, 0.0, 0);
  EXPECT_EQ(base, hm_content_hash(samples, 0.0, 0));
  EXPECT_NE(base, hm_content_hash(mutated, 0.0, 0));
  EXPECT_NE(base, hm_content_hash(samples, 60.0, 0));
  EXPECT_NE(base, hm_content_hash(samples, 0.0, 2));
}

TEST(HmCache, FirstWindowIsAllMissesAndMatchesCachelessRun) {
  const Population pop = population(7);
  const HumanMachineResult without = human_machine_test(pop.features, pop.input, {});
  HmCache cache;
  const HumanMachineResult with =
      human_machine_test(pop.features, pop.input, {}, &cache);
  expect_results_equal(without, with);

  const std::uint64_t n = 13, pairs = n * (n - 1) / 2;
  EXPECT_EQ(cache.signatures_built, n);
  EXPECT_EQ(cache.signatures_reused, 0u);
  EXPECT_EQ(cache.distances_computed, pairs);
  EXPECT_EQ(cache.distances_reused, 0u);
  EXPECT_EQ(cache.signatures.size(), n);
  EXPECT_EQ(cache.distances.size(), pairs);
}

TEST(HmCache, IdenticalSecondWindowReusesEverything) {
  const Population pop = population(8);
  HmCache cache;
  const HumanMachineResult first =
      human_machine_test(pop.features, pop.input, {}, &cache);
  const HumanMachineResult second =
      human_machine_test(pop.features, pop.input, {}, &cache);
  expect_results_equal(first, second);

  const std::uint64_t n = 13, pairs = n * (n - 1) / 2;
  EXPECT_EQ(cache.signatures_built, n);  // only the first window built
  EXPECT_EQ(cache.signatures_reused, n);
  EXPECT_EQ(cache.distances_computed, pairs);
  EXPECT_EQ(cache.distances_reused, pairs);
}

TEST(HmCache, OneHostChangeRecomputesOnlyItsRows) {
  Population pop = population(9);
  HmCache cache;
  (void)human_machine_test(pop.features, pop.input, {}, &cache);

  // Mutate one host's timing buffer; every other host is untouched.
  pop.features.at(host(3)).interstitials.push_back(12.25);
  const HumanMachineResult cached =
      human_machine_test(pop.features, pop.input, {}, &cache);
  const HumanMachineResult cold = human_machine_test(pop.features, pop.input, {});
  expect_results_equal(cold, cached);

  const std::uint64_t n = 13, pairs = n * (n - 1) / 2;
  EXPECT_EQ(cache.signatures_built, n + 1);       // only host(3) rebuilt
  EXPECT_EQ(cache.signatures_reused, n - 1);      // everyone else reused
  EXPECT_EQ(cache.distances_computed, pairs + (n - 1));  // host(3)'s rows
  EXPECT_EQ(cache.distances_reused, pairs - (n - 1));    // all other pairs
}

TEST(HmCache, BinL1ModeIsCachedAndBitIdenticalToo) {
  Population pop = population(10);
  HumanMachineConfig config;
  config.distance = HmDistance::kBinL1;
  HmCache cache;
  (void)human_machine_test(pop.features, pop.input, config, &cache);
  pop.features.at(host(22)).interstitials.push_back(500.0);
  const HumanMachineResult cached =
      human_machine_test(pop.features, pop.input, config, &cache);
  const HumanMachineResult cold = human_machine_test(pop.features, pop.input, config);
  expect_results_equal(cold, cached);
  EXPECT_EQ(cache.signatures_built, 14u);
  EXPECT_EQ(cache.distances_computed, 78u + 12u);
}

TEST(HmCache, WarmWindowComputesNothingNewAndRunsNoKernels) {
  // A fully warm window serves every pair from the cache: the exact kernel
  // never runs, nothing new is computed, and the result is bit-identical to
  // the cold window and to an uncached run.
  const Population pop = population(13);
  HmCache cache;
  const HumanMachineResult cold = human_machine_test(pop.features, pop.input, {}, &cache);
  const std::uint64_t computed_before = cache.distances_computed;
  const HumanMachineResult warm = human_machine_test(pop.features, pop.input, {}, &cache);
  EXPECT_EQ(warm.prune.exact_kernel_evals, 0u);
  EXPECT_EQ(warm.prune.cache_hits, warm.prune.pairs_total);
  EXPECT_EQ(cache.distances_computed, computed_before);
  expect_results_equal(cold, warm);
  expect_results_equal(human_machine_test(pop.features, pop.input, {}), warm);
}

TEST(HmCache, ConfigChangeInvalidatesEverything) {
  const Population pop = population(11);
  HumanMachineConfig config;
  HmCache cache;
  (void)human_machine_test(pop.features, pop.input, config, &cache);
  // Same timing buffers, different binning: nothing may be reused.
  config.fixed_bin_width = 45.0;
  (void)human_machine_test(pop.features, pop.input, config, &cache);
  EXPECT_EQ(cache.signatures_built, 26u);
  EXPECT_EQ(cache.signatures_reused, 0u);
  EXPECT_EQ(cache.distances_reused, 0u);
}

TEST(HmCache, EncodeDecodeRoundTripsExactly) {
  const Population pop = population(12);
  HmCache cache;
  (void)human_machine_test(pop.features, pop.input, {}, &cache);
  ASSERT_FALSE(cache.signatures.empty());
  ASSERT_FALSE(cache.distances.empty());

  PayloadWriter w;
  cache.encode(w);
  PayloadReader r(w.bytes());
  HmCache restored;
  restored.decode(r);
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(restored.signatures_built, cache.signatures_built);
  EXPECT_EQ(restored.signatures_reused, cache.signatures_reused);
  EXPECT_EQ(restored.distances_computed, cache.distances_computed);
  EXPECT_EQ(restored.distances_reused, cache.distances_reused);
  ASSERT_EQ(restored.signatures.size(), cache.signatures.size());
  for (const auto& [ip, entry] : cache.signatures) {
    ASSERT_TRUE(restored.signatures.contains(ip));
    const HmCache::SignatureEntry& other = restored.signatures.at(ip);
    EXPECT_EQ(other.hash, entry.hash);
    ASSERT_EQ(other.signature.size(), entry.signature.size());
    for (std::size_t i = 0; i < entry.signature.size(); ++i) {
      EXPECT_EQ(other.signature[i].position, entry.signature[i].position);
      EXPECT_EQ(other.signature[i].weight, entry.signature[i].weight);
    }
  }
  ASSERT_EQ(restored.distances.size(), cache.distances.size());
  for (const auto& [key, entry] : cache.distances) {
    ASSERT_TRUE(restored.distances.contains(key));
    EXPECT_EQ(restored.distances.at(key).hash_lo, entry.hash_lo);
    EXPECT_EQ(restored.distances.at(key).hash_hi, entry.hash_hi);
    EXPECT_EQ(restored.distances.at(key).distance, entry.distance);
  }

  // A truncated payload must be rejected, never half-applied.
  const std::string truncated = w.bytes().substr(0, w.bytes().size() / 2);
  PayloadReader bad(truncated);
  HmCache scratch;
  EXPECT_THROW(scratch.decode(bad), util::ParseError);
}

// ---------------------------------------------------------------------------
// Streaming: the cache across real window boundaries.
// ---------------------------------------------------------------------------

constexpr double kWindow = 1000.0;

// Six subject hosts (octets 1-6) plus one sacrificial high-volume host
// (octet 9) that θ_vol excludes, so exactly the six subjects reach θ_hm.
// Every flow is established; the pipeline below is configured so reduction
// and θ_vol pass the subjects through.
struct SpacedTrace {
  std::vector<netflow::FlowRecord> flows;

  // 8 flows from `src` to one external destination, `gap` seconds apart,
  // starting at window_start + gap. Integer gaps keep the window-relative
  // interstitials bit-identical across windows.
  void add_host(std::uint8_t octet, double window_start, double gap,
                std::uint64_t bytes_per_flow) {
    for (int i = 0; i < 8; ++i) {
      netflow::FlowRecord r;
      r.src = host(octet);
      r.dst = simnet::Ipv4(4, 4, octet, 1);
      r.sport = 40000;
      r.dport = 80;
      r.start_time = window_start + gap * (i + 1);
      r.end_time = r.start_time + 1.0;
      r.pkts_src = 10;
      r.pkts_dst = 10;
      r.bytes_src = bytes_per_flow;
      r.bytes_dst = 64;
      r.state = netflow::FlowState::kEstablished;
      flows.push_back(r);
    }
  }

  // One window of traffic. `mutate_first` changes host 1's spacing, altering
  // only that host's timing buffer relative to the previous window.
  void add_window(double window_start, bool mutate_first) {
    for (std::uint8_t h = 1; h <= 6; ++h) {
      const double gap = (h == 1 && mutate_first) ? 27.0 : 20.0 + h;
      add_host(h, window_start, gap, 100u * h);
    }
    add_host(9, window_start, 13.0, 10000);  // sacrificial θ_vol maximum
  }
};

StreamingConfig streaming_config(bool signature_cache) {
  StreamingConfig cfg;
  cfg.window = kWindow;
  cfg.is_internal = default_internal_predicate;
  cfg.signature_cache = signature_cache;
  cfg.pipeline.reduction.percentile = 0.0;
  cfg.pipeline.reduction.comparison = ReductionComparison::kInclusive;
  cfg.pipeline.volume.percentile = 1.0;
  cfg.pipeline.human_machine.min_samples = 5;
  cfg.pipeline.human_machine.min_cluster_size = 3;
  return cfg;
}

std::vector<WindowVerdict> run(const std::vector<netflow::FlowRecord>& flows,
                               const StreamingConfig& cfg, HmCache* final_cache = nullptr) {
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(cfg, [&](const WindowVerdict& v) { verdicts.push_back(v); });
  for (const auto& r : flows) detector.ingest(r);
  detector.flush();
  if (final_cache != nullptr) *final_cache = detector.hm_cache();
  return verdicts;
}

void expect_verdicts_equal(const std::vector<WindowVerdict>& a,
                           const std::vector<WindowVerdict>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(a[i].result.plotters, b[i].result.plotters);
    EXPECT_EQ(a[i].result.vol_or_churn, b[i].result.vol_or_churn);
    EXPECT_EQ(a[i].result.hm.flagged, b[i].result.hm.flagged);
    EXPECT_EQ(a[i].result.hm.tau_hm, b[i].result.hm.tau_hm);  // bitwise
  }
}

TEST(HmCacheStreaming, SecondWindowReusesUnchangedHostsOnly) {
  SpacedTrace trace;
  trace.add_window(0.0, false);
  trace.add_window(kWindow, true);  // host 1's spacing changes

  HmCache cache;
  const auto cached = run(trace.flows, streaming_config(true), &cache);
  ASSERT_EQ(cached.size(), 2u);
  // Both windows funnel exactly the six subjects into θ_hm.
  EXPECT_EQ(cached[0].result.vol_or_churn.size(), 6u);
  EXPECT_EQ(cached[1].result.vol_or_churn.size(), 6u);

  // Window 1: 6 builds, 15 pair computes. Window 2: host 1 rebuilt, its 5
  // rows recomputed, the other 10 pairs and 5 signatures served from cache.
  EXPECT_EQ(cache.signatures_built, 7u);
  EXPECT_EQ(cache.signatures_reused, 5u);
  EXPECT_EQ(cache.distances_computed, 20u);
  EXPECT_EQ(cache.distances_reused, 10u);

  // The cache changes wall clock, never verdicts.
  const auto cold = run(trace.flows, streaming_config(false));
  expect_verdicts_equal(cached, cold);
}

TEST(HmCacheStreaming, KillAndRestoreKeepsTheWarmCache) {
  SpacedTrace trace;
  trace.add_window(0.0, false);
  trace.add_window(kWindow, true);

  const StreamingConfig cfg = streaming_config(true);
  HmCache uninterrupted_cache;
  const auto expected = run(trace.flows, cfg, &uninterrupted_cache);
  ASSERT_EQ(expected.size(), 2u);

  // Kill after the first window-2 flow (window 1's verdict has fired and
  // populated the cache), restore into a fresh detector, finish the trace.
  const std::size_t kill_at = 57;  // 7 hosts x 8 flows + 1
  std::vector<WindowVerdict> verdicts;
  const auto sink = [&](const WindowVerdict& v) { verdicts.push_back(v); };
  std::stringstream image;
  {
    StreamingDetector first(cfg, sink);
    for (std::size_t i = 0; i < kill_at; ++i) first.ingest(trace.flows[i]);
    first.save_checkpoint(image);
  }
  StreamingDetector resumed(cfg, sink);
  resumed.restore_checkpoint(image);
  EXPECT_EQ(resumed.hm_cache().signatures.size(), 6u);  // warm state restored
  EXPECT_EQ(resumed.hm_cache().distances.size(), 15u);
  for (std::size_t i = kill_at; i < trace.flows.size(); ++i)
    resumed.ingest(trace.flows[i]);
  resumed.flush();

  expect_verdicts_equal(verdicts, expected);
  // The resumed window 2 reused the five unchanged hosts from the restored
  // cache — same counters as the uninterrupted run.
  EXPECT_EQ(resumed.hm_cache().signatures_built, uninterrupted_cache.signatures_built);
  EXPECT_EQ(resumed.hm_cache().signatures_reused, uninterrupted_cache.signatures_reused);
  EXPECT_EQ(resumed.hm_cache().distances_computed,
            uninterrupted_cache.distances_computed);
  EXPECT_EQ(resumed.hm_cache().distances_reused, uninterrupted_cache.distances_reused);
}

TEST(HmCacheStreaming, RestoredWindowReusesMultiDestinationSignatures) {
  // Each subject contacts two destinations with different spacings, so its
  // pooled interstitials depend on the order the destinations are pooled
  // in, and so does the content hash the cache keys on. Both windows carry
  // the same timing, so the uninterrupted run serves window 2's signatures
  // from window 1. A detector killed mid-window 2 and restored must pool in
  // the same canonical order and reuse just as much.
  std::vector<netflow::FlowRecord> flows;
  for (const double start : {0.0, kWindow}) {
    for (std::uint8_t h = 1; h <= 6; ++h) {
      const double gap = 20.0 + h;
      for (std::uint8_t d = 1; d <= 2; ++d) {
        const double spacing = gap * d + (d - 1);
        for (int i = 0; i < 5; ++i) {
          netflow::FlowRecord r;
          r.src = host(h);
          r.dst = simnet::Ipv4(4, 4, h, d);
          r.start_time = start + spacing * (i + 1);
          r.end_time = r.start_time + 1.0;
          r.pkts_src = 10;
          r.pkts_dst = 10;
          r.bytes_src = 100u * h;
          r.bytes_dst = 64;
          flows.push_back(r);
        }
      }
    }
    SpacedTrace sacrificial;
    sacrificial.add_host(9, start, 13.0, 10000);
    flows.insert(flows.end(), sacrificial.flows.begin(), sacrificial.flows.end());
  }
  std::stable_sort(flows.begin(), flows.end(), [](const auto& a, const auto& b) {
    return a.start_time < b.start_time;
  });

  const StreamingConfig cfg = streaming_config(true);
  HmCache uninterrupted_cache;
  const auto expected = run(flows, cfg, &uninterrupted_cache);
  ASSERT_EQ(expected.size(), 2u);
  ASSERT_GE(expected[1].result.vol_or_churn.size(), 6u);
  // Window 2 rebuilt nothing in the uninterrupted run.
  ASSERT_EQ(uninterrupted_cache.signatures_reused, expected[1].result.vol_or_churn.size());

  std::size_t kill_at = 0;
  while (flows[kill_at].start_time < kWindow) ++kill_at;
  kill_at += (flows.size() - kill_at) / 2;
  std::vector<WindowVerdict> verdicts;
  const auto sink = [&](const WindowVerdict& v) { verdicts.push_back(v); };
  std::stringstream image;
  {
    StreamingDetector first(cfg, sink);
    for (std::size_t i = 0; i < kill_at; ++i) first.ingest(flows[i]);
    first.save_checkpoint(image);
  }
  StreamingDetector resumed(cfg, sink);
  resumed.restore_checkpoint(image);
  for (std::size_t i = kill_at; i < flows.size(); ++i) resumed.ingest(flows[i]);
  resumed.flush();

  expect_verdicts_equal(verdicts, expected);
  EXPECT_EQ(resumed.hm_cache().signatures_built, uninterrupted_cache.signatures_built);
  EXPECT_EQ(resumed.hm_cache().signatures_reused, uninterrupted_cache.signatures_reused);
  EXPECT_EQ(resumed.hm_cache().distances_reused, uninterrupted_cache.distances_reused);
}

TEST(HmCacheStreaming, CacheOffLeavesCacheEmpty) {
  SpacedTrace trace;
  trace.add_window(0.0, false);
  HmCache cache;
  (void)run(trace.flows, streaming_config(false), &cache);
  EXPECT_TRUE(cache.signatures.empty());
  EXPECT_TRUE(cache.distances.empty());
  EXPECT_EQ(cache.signatures_built, 0u);
}

}  // namespace
}  // namespace tradeplot::detect

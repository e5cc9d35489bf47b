// The sharded StreamingDetector (StreamingConfig::shards > 1) and its ring.
//
// The contracts under test, in the order the subsystem makes them:
//   * HashRing — deterministic, balanced, ConfigError on degenerate
//     geometry, short-circuit at one shard;
//   * exactness — verdicts are bit-identical to shards=1 at every shard
//     count and every θ_hm thread count, on seeded Storm, Nugache and
//     benign-only campus traces, and across a kill/restore at a random
//     record cut;
//   * timing budget — per-shard shedding marks the window degraded (such
//     windows are exempt from cross-shard-count equality);
//   * checkpoints — shard-count mismatches are ConfigError, corruption is
//     ParseError.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "botnet/honeynet.h"
#include "detect/streaming.h"
#include "eval/day.h"
#include "netflow/flow_batch.h"
#include "shard/ring.h"
#include "shard/sharded_detector.h"
#include "trace/campus.h"
#include "util/error.h"
#include "util/rng.h"

namespace tradeplot::shard {
namespace {

bool is_internal(simnet::Ipv4 a) { return (a.value() >> 24) == 10; }

// ---------------------------------------------------------------------------
// Workload: one detection window with a separable population. "Bot" hosts
// run a 60 s timer with millisecond jitter and fail often (they pass data
// reduction and cluster tightly under θ_hm); "human" hosts browse with
// lognormal gaps and mostly succeed. Every host revisits a small destination
// pool so it accrues enough interstitial samples to be θ_hm-eligible.

struct Event {
  double t;
  simnet::Ipv4 src, dst;
  std::uint64_t bytes_src, bytes_dst;
  bool failed;
};

std::vector<netflow::FlowBatch> make_window(std::size_t hosts, std::size_t bots,
                                            std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<Event> events;
  for (std::size_t h = 0; h < hosts; ++h) {
    const bool bot = h < bots;
    const simnet::Ipv4 src(10, static_cast<std::uint8_t>(h >> 8),
                           static_cast<std::uint8_t>(h), 1);
    std::array<simnet::Ipv4, 6> pool{};
    for (std::size_t d = 0; d < pool.size(); ++d) {
      // One internal destination per host keeps the responder path hot.
      pool[d] = d == 0 ? simnet::Ipv4(10, static_cast<std::uint8_t>((h + 7) >> 8),
                                      static_cast<std::uint8_t>(h + 7), 2)
                       : simnet::Ipv4(198, static_cast<std::uint8_t>(h % 251),
                                      static_cast<std::uint8_t>(d), 7);
    }
    double t = rng.uniform(0.0, 600.0);
    for (int i = 0; i < 130; ++i) {
      t += bot ? 60.0 + rng.uniform(-0.05, 0.05) : rng.lognormal(3.6, 1.0);
      Event e;
      e.t = t;
      e.src = src;
      e.dst = pool[static_cast<std::size_t>(i) % pool.size()];
      e.bytes_src = bot ? 250 : 4000 + static_cast<std::uint64_t>(rng.uniform_int(0, 40000));
      e.bytes_dst = bot ? 120 : 9000 + static_cast<std::uint64_t>(rng.uniform_int(0, 90000));
      e.failed = rng.uniform(0.0, 1.0) < (bot ? 0.45 : 0.05);
      events.push_back(e);
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t != b.t ? a.t < b.t : a.src < b.src;
  });

  std::vector<netflow::FlowBatch> batches;
  batches.emplace_back();
  for (const Event& e : events) {
    if (batches.back().full()) batches.emplace_back();
    netflow::FlowBatch& b = batches.back();
    const std::size_t row = b.append_default();
    b.src()[row] = e.src;
    b.dst()[row] = e.dst;
    b.start_time()[row] = e.t;
    b.end_time()[row] = e.t + 0.5;
    b.bytes_src()[row] = e.bytes_src;
    b.bytes_dst()[row] = e.bytes_dst;
    b.state()[row] = e.failed ? netflow::FlowState::kAttempted
                              : netflow::FlowState::kEstablished;
  }
  return batches;
}

detect::StreamingConfig streaming_config() {
  detect::StreamingConfig cfg;
  cfg.is_internal = is_internal;
  return cfg;
}

ShardedConfig sharded_config(std::size_t shards) {
  ShardedConfig cfg;
  cfg.shards = shards;
  cfg.is_internal = is_internal;
  return cfg;
}

std::vector<detect::WindowVerdict> run_sharded(std::size_t shards,
                                               const std::vector<netflow::FlowBatch>& batches) {
  std::vector<detect::WindowVerdict> verdicts;
  ShardedDetector detector(sharded_config(shards),
                           [&](const detect::WindowVerdict& v) { verdicts.push_back(v); });
  for (const netflow::FlowBatch& b : batches) detector.ingest(b);
  detector.flush();
  return verdicts;
}

std::vector<detect::WindowVerdict> run_streaming(
    const std::vector<netflow::FlowBatch>& batches) {
  std::vector<detect::WindowVerdict> verdicts;
  detect::StreamingDetector detector(
      streaming_config(), [&](const detect::WindowVerdict& v) { verdicts.push_back(v); });
  for (const netflow::FlowBatch& b : batches) detector.ingest(b);
  detector.flush();
  return verdicts;
}

detect::HostSet sorted(detect::HostSet s) {
  std::sort(s.begin(), s.end());
  return s;
}

void expect_verdicts_bit_identical(const std::vector<detect::WindowVerdict>& a,
                                   const std::vector<detect::WindowVerdict>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].window_index, b[i].window_index);
    EXPECT_EQ(a[i].window_start, b[i].window_start);
    EXPECT_EQ(a[i].flows_seen, b[i].flows_seen);
    EXPECT_EQ(a[i].degraded, b[i].degraded);
    EXPECT_EQ(a[i].features.size(), b[i].features.size());
    EXPECT_EQ(sorted(a[i].result.plotters), sorted(b[i].result.plotters));
    EXPECT_EQ(sorted(a[i].result.reduced), sorted(b[i].result.reduced));
    EXPECT_EQ(sorted(a[i].result.s_vol), sorted(b[i].result.s_vol));
    EXPECT_EQ(sorted(a[i].result.s_churn), sorted(b[i].result.s_churn));
    EXPECT_EQ(a[i].result.hm.tau_hm, b[i].result.hm.tau_hm);
    ASSERT_EQ(a[i].result.hm.clusters.size(), b[i].result.hm.clusters.size());
    for (std::size_t c = 0; c < a[i].result.hm.clusters.size(); ++c) {
      EXPECT_EQ(a[i].result.hm.clusters[c].members, b[i].result.hm.clusters[c].members);
      EXPECT_EQ(a[i].result.hm.clusters[c].diameter, b[i].result.hm.clusters[c].diameter);
      EXPECT_EQ(a[i].result.hm.clusters[c].kept, b[i].result.hm.clusters[c].kept);
    }
  }
}

// ---------------------------------------------------------------------------
// HashRing

TEST(HashRingTest, DeterministicAcrossInstances) {
  const HashRing a(8), b(8);
  util::Pcg32 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const simnet::Ipv4 host(static_cast<std::uint32_t>(rng.uniform_int(0, 0x7fffffff)));
    EXPECT_EQ(a.shard_of(host), b.shard_of(host));
  }
}

TEST(HashRingTest, SingleShardShortCircuits) {
  const HashRing ring(1);
  util::Pcg32 rng(5);
  for (int i = 0; i < 100; ++i) {
    const simnet::Ipv4 host(static_cast<std::uint32_t>(rng.uniform_int(0, 0x7fffffff)));
    EXPECT_EQ(ring.shard_of(host), 0u);
  }
}

TEST(HashRingTest, BalancedWithinTolerance) {
  const std::size_t shards = 8;
  const HashRing ring(shards);
  std::vector<std::size_t> counts(shards, 0);
  for (std::uint32_t h = 0; h < 20000; ++h)
    ++counts[ring.shard_of(simnet::Ipv4(10, static_cast<std::uint8_t>(h >> 8),
                                        static_cast<std::uint8_t>(h), 1))];
  const double mean = 20000.0 / static_cast<double>(shards);
  for (const std::size_t c : counts) {
    // 64 vnodes/shard keeps the heaviest shard well under 2x the mean.
    EXPECT_GT(static_cast<double>(c), 0.5 * mean);
    EXPECT_LT(static_cast<double>(c), 1.7 * mean);
  }
}

TEST(HashRingTest, BucketIndexAgreesWithBinarySearchOverTheRing) {
  // The ring's definition, spelled out: sorted (point, shard) pairs, and a
  // host lands on the first point clockwise of its hash (upper bound,
  // wrapping). The bucket-indexed lookup must give the same shard for every
  // host — the mapping is a constant of the checkpoint format.
  util::Pcg32 rng(17);
  for (const std::size_t shards : {2u, 3u, 4u, 8u, 16u}) {
    for (const std::size_t vnodes : {1u, 7u, 64u}) {
      std::vector<std::pair<std::uint64_t, std::uint32_t>> points;
      for (std::size_t s = 0; s < shards; ++s)
        for (std::size_t r = 0; r < vnodes; ++r)
          points.emplace_back(shard::splitmix64(shard::splitmix64(std::uint64_t{s} << 32 | r)),
                              static_cast<std::uint32_t>(s));
      std::sort(points.begin(), points.end());
      const HashRing ring(shards, vnodes);
      for (int i = 0; i < 20000; ++i) {
        const simnet::Ipv4 host(rng());
        const std::uint64_t h = shard::splitmix64(host.value());
        auto it = std::upper_bound(points.begin(), points.end(),
                                   std::make_pair(h, ~std::uint32_t{0}));
        if (it == points.end()) it = points.begin();
        ASSERT_EQ(ring.shard_of(host), it->second)
            << "shards=" << shards << " vnodes=" << vnodes << " host=" << host.to_string();
      }
    }
  }
}

TEST(HashRingTest, RejectsDegenerateGeometry) {
  EXPECT_THROW(HashRing(0), util::ConfigError);
  EXPECT_THROW(HashRing(4, 0), util::ConfigError);
}

// ---------------------------------------------------------------------------
// shards == 1: bit-identity with the single streaming detector

TEST(ShardedDetectorTest, OneShardMatchesStreamingDetectorBitForBit) {
  const auto batches = make_window(160, 12, 41);
  const auto oracle = run_sharded(1, batches);
  const auto reference = run_streaming(batches);
  ASSERT_FALSE(reference.empty());
  expect_verdicts_bit_identical(oracle, reference);
}

// ---------------------------------------------------------------------------
// shards > 1 on the separable window: every stage, θ_hm included, matches
// the single-detector oracle exactly (the merge has no error bound to report)

class MergedOracleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MergedOracleTest, ScalarStagesMatchOracleWithZeroErrorBound) {
  const std::size_t shards = GetParam();
  const auto batches = make_window(220, 16, 43);
  const auto reference = run_streaming(batches);
  const auto merged = run_sharded(shards, batches);
  ASSERT_EQ(reference.size(), 1u);
  ASSERT_EQ(merged.size(), 1u);

  EXPECT_EQ(sorted(merged[0].result.input), sorted(reference[0].result.input));
  EXPECT_EQ(sorted(merged[0].result.vol_or_churn), sorted(reference[0].result.vol_or_churn));
  EXPECT_FALSE(reference[0].result.plotters.empty());
  expect_verdicts_bit_identical(merged, reference);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, MergedOracleTest, ::testing::Values(2u, 8u));

// ---------------------------------------------------------------------------
// Exactness: every shard count and θ_hm thread count reproduces shards=1
// bit for bit on seeded campus traces.

enum class Overlay { kStorm, kNugache, kBenign };

const char* overlay_name(Overlay o) {
  switch (o) {
    case Overlay::kStorm: return "storm";
    case Overlay::kNugache: return "nugache";
    case Overlay::kBenign: return "benign";
  }
  return "?";
}

/// A two-hour campus window (with the botnet overlay, if any) as time-ordered
/// batches of at most 4096 rows, streamed in 1 h detection windows. Built
/// once per overlay and shared across the parameterized cases.
const std::vector<netflow::FlowBatch>& campus_trace(Overlay overlay) {
  static std::map<Overlay, std::vector<netflow::FlowBatch>> cache;
  const auto it = cache.find(overlay);
  if (it != cache.end()) return it->second;

  botnet::HoneynetConfig honeynet;
  honeynet.seed = 31;
  honeynet.duration = 2 * 3600.0;
  honeynet.overnet_size = 150;
  honeynet.nugache_bots = 30;
  const netflow::TraceSet none;
  const netflow::TraceSet storm =
      overlay == Overlay::kStorm ? botnet::generate_storm_trace(honeynet) : none;
  const netflow::TraceSet nugache =
      overlay == Overlay::kNugache ? botnet::generate_nugache_trace(honeynet) : none;
  trace::CampusConfig campus;
  campus.seed = 31;
  campus.window = 2 * 3600.0;
  campus.web_clients = 150;
  campus.idle_hosts = 50;
  campus.gnutella_hosts = 5;
  campus.emule_hosts = 5;
  campus.bittorrent_hosts = 8;
  campus.kad_overlay_size = 120;
  campus.bt_overlay_size = 120;
  const eval::DayData day = eval::make_day(campus, storm, nugache, 0);

  std::vector<netflow::FlowBatch> batches;
  for (const netflow::FlowRecord& r : day.combined.flows()) {
    if (batches.empty() || batches.back().size() == 4096) batches.emplace_back(4096);
    batches.back().push_back(r);
  }
  return cache.emplace(overlay, std::move(batches)).first->second;
}

std::vector<detect::WindowVerdict> run_campus(Overlay overlay, std::size_t shards,
                                              std::size_t threads) {
  detect::StreamingConfig cfg;
  cfg.shards = shards;
  cfg.window = 3600.0;
  cfg.is_internal = detect::default_internal_predicate;
  cfg.pipeline.human_machine.threads = threads;
  std::vector<detect::WindowVerdict> verdicts;
  detect::StreamingDetector detector(
      cfg, [&](const detect::WindowVerdict& v) { verdicts.push_back(v); });
  for (const netflow::FlowBatch& b : campus_trace(overlay)) detector.ingest(b);
  detector.flush();
  return verdicts;
}

struct EquivalenceCase {
  Overlay overlay;
  std::size_t shards;
  std::size_t threads;
};

void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << overlay_name(c.overlay) << " shards=" << c.shards << " threads=" << c.threads;
}

class ShardEquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ShardEquivalenceTest, VerdictsBitIdenticalToOneShard) {
  const EquivalenceCase c = GetParam();
  const auto reference = run_campus(c.overlay, 1, 1);
  ASSERT_EQ(reference.size(), 2u);
  bool theta_hm_ran = false;
  for (const detect::WindowVerdict& v : reference) {
    EXPECT_FALSE(v.degraded);
    theta_hm_ran = theta_hm_ran || !v.result.hm.clusters.empty();
  }
  EXPECT_TRUE(theta_hm_ran) << "trace too small to exercise θ_hm";
  expect_verdicts_bit_identical(run_campus(c.overlay, c.shards, c.threads), reference);
}

std::vector<EquivalenceCase> equivalence_cases() {
  std::vector<EquivalenceCase> cases;
  for (const Overlay o : {Overlay::kStorm, Overlay::kNugache, Overlay::kBenign})
    for (const std::size_t shards : {1u, 2u, 4u, 8u})
      for (const std::size_t threads : {1u, 4u}) cases.push_back({o, shards, threads});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    TracesShardsThreads, ShardEquivalenceTest, ::testing::ValuesIn(equivalence_cases()),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return std::string(overlay_name(info.param.overlay)) + "_shards" +
             std::to_string(info.param.shards) + "_threads" +
             std::to_string(info.param.threads);
    });

TEST(ShardedCheckpointTest, KillAndRestoreAtRandomRecordCut) {
  const std::vector<netflow::FlowBatch>& batches = campus_trace(Overlay::kStorm);
  const auto reference = run_campus(Overlay::kStorm, 1, 1);
  std::size_t rows = 0;
  for (const netflow::FlowBatch& b : batches) rows += b.size();

  detect::StreamingConfig cfg;
  cfg.shards = 4;
  cfg.window = 3600.0;
  cfg.is_internal = detect::default_internal_predicate;
  util::Pcg32 rng(97);
  for (int trial = 0; trial < 3; ++trial) {
    const auto cut = static_cast<std::size_t>(rng.uniform_int(1, static_cast<long>(rows) - 1));
    SCOPED_TRACE("cut at record " + std::to_string(cut));
    std::vector<detect::WindowVerdict> resumed;
    const auto sink = [&](const detect::WindowVerdict& v) { resumed.push_back(v); };
    std::stringstream image;
    std::size_t b = 0, row = 0;
    {
      detect::StreamingDetector first(cfg, sink);
      std::size_t left = cut;
      for (; left > 0; ++b) {
        const std::size_t take = std::min(left, batches[b].size());
        first.ingest(batches[b], 0, take);
        left -= take;
        row = take;
      }
      first.save_checkpoint(image);
      // `first` is abandoned here: the simulated kill -9.
    }
    detect::StreamingDetector second(cfg, sink);
    second.restore_checkpoint(image);
    EXPECT_EQ(second.flows_ingested_total(), cut);
    if (row < batches[b - 1].size()) second.ingest(batches[b - 1], row, batches[b - 1].size());
    for (; b < batches.size(); ++b) second.ingest(batches[b]);
    second.flush();
    expect_verdicts_bit_identical(resumed, reference);
  }
}

TEST(ShardedDetectorTest, TimingBudgetShedsPerShardAndMarksDegraded) {
  // Each shard sheds against budget/shards over its own hosts, so the shed
  // set differs from shards=1: degraded windows are exempt from cross-N
  // equality, but they must say so, and scalar evidence stays exact.
  const auto batches = make_window(160, 12, 71);
  detect::StreamingConfig cfg = streaming_config();
  cfg.shards = 4;
  cfg.timing_budget = 4000;
  std::vector<detect::WindowVerdict> verdicts;
  detect::StreamingDetector detector(
      cfg, [&](const detect::WindowVerdict& v) { verdicts.push_back(v); });
  for (const netflow::FlowBatch& b : batches) detector.ingest(b);
  detector.flush();
  const auto unlimited = run_sharded(4, batches);
  ASSERT_EQ(verdicts.size(), 1u);
  ASSERT_EQ(unlimited.size(), 1u);
  EXPECT_TRUE(verdicts[0].degraded);
  EXPECT_GT(verdicts[0].hosts_shed, 0u);
  EXPECT_GT(verdicts[0].timing_samples_shed, 0u);
  EXPECT_FALSE(unlimited[0].degraded);
  ASSERT_EQ(verdicts[0].features.size(), unlimited[0].features.size());
  for (const auto& [host, f] : unlimited[0].features) {
    const detect::HostFeatures& shed = verdicts[0].features.at(host);
    EXPECT_EQ(shed.flows_initiated, f.flows_initiated);
    EXPECT_EQ(shed.flows_failed, f.flows_failed);
    EXPECT_EQ(shed.bytes_sent_initiated, f.bytes_sent_initiated);
  }
}

TEST(ShardedDetectorTest, MergedRunIsDeterministic) {
  const auto batches = make_window(120, 8, 47);
  const auto a = run_sharded(4, batches);
  const auto b = run_sharded(4, batches);
  expect_verdicts_bit_identical(a, b);
}

// ---------------------------------------------------------------------------
// Checkpoints

TEST(ShardedCheckpointTest, KillAndRestoreResumesBitIdentically) {
  const auto batches = make_window(100, 8, 53);
  const std::size_t cut = batches.size() / 2;
  const auto tmp = std::filesystem::temp_directory_path() / "tp_shard_ckpt_test.bin";

  const auto reference = run_sharded(4, batches);

  std::vector<detect::WindowVerdict> resumed;
  const auto sink = [&](const detect::WindowVerdict& v) { resumed.push_back(v); };
  {
    ShardedDetector first(sharded_config(4), sink);
    for (std::size_t i = 0; i < cut; ++i) first.ingest(batches[i]);
    first.save_checkpoint_file(tmp.string());
    // `first` is abandoned here: the simulated kill -9.
  }
  ShardedDetector second(sharded_config(4), sink);
  second.restore_checkpoint_file(tmp.string());
  for (std::size_t i = cut; i < batches.size(); ++i) second.ingest(batches[i]);
  second.flush();
  std::filesystem::remove(tmp);

  expect_verdicts_bit_identical(resumed, reference);
}

TEST(ShardedCheckpointTest, GeometryMismatchIsConfigError) {
  const auto batches = make_window(60, 4, 59);
  const auto tmp = std::filesystem::temp_directory_path() / "tp_shard_geom_test.bin";
  {
    ShardedDetector d(sharded_config(2), [](const detect::WindowVerdict&) {});
    for (const netflow::FlowBatch& b : batches) d.ingest(b);
    d.save_checkpoint_file(tmp.string());
  }
  ShardedDetector other(sharded_config(4), [](const detect::WindowVerdict&) {});
  EXPECT_THROW(other.restore_checkpoint_file(tmp.string()), util::ConfigError);

  ShardedDetector one(sharded_config(1), [](const detect::WindowVerdict&) {});
  EXPECT_THROW(one.restore_checkpoint_file(tmp.string()), util::ConfigError);
  std::filesystem::remove(tmp);
}

TEST(ShardedCheckpointTest, CorruptImageIsParseErrorNeverPartial) {
  const auto batches = make_window(60, 4, 61);
  const auto tmp = std::filesystem::temp_directory_path() / "tp_shard_corrupt_test.bin";
  {
    ShardedDetector d(sharded_config(2), [](const detect::WindowVerdict&) {});
    for (const netflow::FlowBatch& b : batches) d.ingest(b);
    d.save_checkpoint_file(tmp.string());
  }
  std::fstream f(tmp, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  f.seekp(size / 2);
  byte = static_cast<char>(byte ^ 0x5a);
  f.write(&byte, 1);
  f.close();

  ShardedDetector fresh(sharded_config(2), [](const detect::WindowVerdict&) {});
  EXPECT_THROW(fresh.restore_checkpoint_file(tmp.string()), util::ParseError);
  std::filesystem::remove(tmp);
}

TEST(ShardedDetectorTest, RejectsDegenerateConfig) {
  EXPECT_THROW(ShardedDetector(sharded_config(0), [](const detect::WindowVerdict&) {}),
               util::ConfigError);
  ShardedConfig no_pred = sharded_config(2);
  no_pred.is_internal = nullptr;
  EXPECT_THROW(ShardedDetector(no_pred, [](const detect::WindowVerdict&) {}),
               util::ConfigError);
}

}  // namespace
}  // namespace tradeplot::shard

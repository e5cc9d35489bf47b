#include "detect/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "botnet/honeynet.h"
#include "netflow/io.h"
#include "netflow/trace_reader.h"
#include "eval/day.h"
#include "util/error.h"
#include "util/rng.h"

namespace tradeplot::detect {
namespace {

bool is_internal(simnet::Ipv4 ip) { return default_internal_predicate(ip); }

netflow::FlowRecord flow(simnet::Ipv4 src, simnet::Ipv4 dst, double start,
                         std::uint64_t bytes = 100) {
  netflow::FlowRecord r;
  r.src = src;
  r.dst = dst;
  r.start_time = start;
  r.end_time = start + 1;
  r.bytes_src = bytes;
  r.pkts_src = 1;
  r.pkts_dst = 1;
  return r;
}

StreamingConfig config(double window = 100.0) {
  StreamingConfig c;
  c.window = window;
  c.is_internal = is_internal;
  return c;
}

TEST(StreamingDetector, ValidatesConfig) {
  const auto sink = [](const WindowVerdict&) {};
  EXPECT_THROW(StreamingDetector(StreamingConfig{}, sink), util::ConfigError);
  StreamingConfig bad = config();
  bad.window = 0;
  EXPECT_THROW(StreamingDetector(bad, sink), util::ConfigError);
  EXPECT_THROW(StreamingDetector(config(), nullptr), util::ConfigError);
}

TEST(StreamingDetector, EmitsOneVerdictPerWindow) {
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(config(100.0),
                             [&](const WindowVerdict& v) { verdicts.push_back(v); });
  const simnet::Ipv4 host(128, 2, 0, 1);
  detector.ingest(flow(host, simnet::Ipv4(1, 1, 1, 1), 10));
  detector.ingest(flow(host, simnet::Ipv4(1, 1, 1, 2), 50));
  detector.ingest(flow(host, simnet::Ipv4(1, 1, 1, 3), 150));  // rolls window 0
  detector.ingest(flow(host, simnet::Ipv4(1, 1, 1, 4), 260));  // rolls window 1
  detector.flush();                                            // emits window 2
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(verdicts[0].flows_seen, 2u);
  EXPECT_DOUBLE_EQ(verdicts[0].window_start, 0.0);
  EXPECT_DOUBLE_EQ(verdicts[0].window_end, 100.0);
  EXPECT_EQ(verdicts[1].flows_seen, 1u);
  EXPECT_EQ(verdicts[2].flows_seen, 1u);
  EXPECT_EQ(verdicts[2].window_index, 2u);
}

TEST(StreamingDetector, LongGapsEmitEmptyWindows) {
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(config(100.0),
                             [&](const WindowVerdict& v) { verdicts.push_back(v); });
  const simnet::Ipv4 host(128, 2, 0, 1);
  detector.ingest(flow(host, simnet::Ipv4(1, 1, 1, 1), 10));
  detector.ingest(flow(host, simnet::Ipv4(1, 1, 1, 2), 350));
  detector.flush();
  ASSERT_EQ(verdicts.size(), 4u);  // windows [0,100), [100,200), [200,300), [300,400)
  EXPECT_EQ(verdicts[1].flows_seen, 0u);
  EXPECT_EQ(verdicts[2].flows_seen, 0u);
}

TEST(StreamingDetector, FirstWindowAlignsToMultipleOfD) {
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(config(100.0),
                             [&](const WindowVerdict& v) { verdicts.push_back(v); });
  detector.ingest(flow(simnet::Ipv4(128, 2, 0, 1), simnet::Ipv4(1, 1, 1, 1), 567.0));
  detector.flush();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_DOUBLE_EQ(verdicts[0].window_start, 500.0);
}

TEST(StreamingDetector, MatchesBatchExtractorOnOrderedTrace) {
  // A streaming pass over one window must produce the same features as the
  // batch extractor for in-order flows.
  const auto storm_cfg = [] {
    botnet::HoneynetConfig h;
    h.seed = 3;
    h.duration = 1800.0;
    h.nugache_bots = 0;
    return h;
  }();
  const netflow::TraceSet trace = botnet::generate_storm_trace(storm_cfg);

  FeatureMap streamed;
  StreamingConfig cfg = config(3600.0);
  StreamingDetector detector(cfg, [&](const WindowVerdict&) {});
  // Capture features via a custom sink is not possible (result only), so
  // compare through the pipeline result instead: run both paths.
  std::vector<FindPlottersResult> results;
  StreamingDetector detector2(cfg, [&](const WindowVerdict& v) { results.push_back(v.result); });
  for (const auto& rec : trace.flows()) detector2.ingest(rec);
  detector2.flush();

  FeatureExtractorConfig fx;
  fx.is_internal = is_internal;
  const FeatureMap batch = extract_features(trace, fx);
  const FindPlottersResult batch_result = find_plotters(batch);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].input, batch_result.input);
  EXPECT_EQ(results[0].reduced, batch_result.reduced);
  EXPECT_EQ(results[0].s_vol, batch_result.s_vol);
  EXPECT_EQ(results[0].s_churn, batch_result.s_churn);
  EXPECT_EQ(results[0].plotters, batch_result.plotters);
}

TEST(StreamingDetector, OutOfOrderFlowsMatchBatchInterstitials) {
  // Regression: the streaming extractor used to record a late arrival as
  // |t - last_contact| without updating last_contact, so times 0, 10, 5
  // yielded interstitials {10, 5} where the batch extractor (which sorts
  // per-destination times) yields {5, 5}.
  const simnet::Ipv4 src(128, 2, 0, 1);
  const simnet::Ipv4 dst(1, 1, 1, 1);
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(config(100.0),
                             [&](const WindowVerdict& v) { verdicts.push_back(v); });
  detector.ingest(flow(src, dst, 0.0));
  detector.ingest(flow(src, dst, 10.0));
  detector.ingest(flow(src, dst, 5.0));  // late arrival
  detector.flush();
  ASSERT_EQ(verdicts.size(), 1u);
  std::vector<double> gaps = verdicts[0].features.at(src).interstitials;
  std::sort(gaps.begin(), gaps.end());
  EXPECT_EQ(gaps, (std::vector<double>{5.0, 5.0}));
}

TEST(StreamingDetector, ShuffledTraceMatchesBatchFeatures) {
  // Feed the same trace to the batch extractor (in order) and the streaming
  // detector (shuffled within the window): every per-host feature,
  // including the interstitial multiset, must agree exactly.
  botnet::HoneynetConfig honeynet;
  honeynet.seed = 7;
  honeynet.duration = 1800.0;
  honeynet.nugache_bots = 0;
  const netflow::TraceSet trace = botnet::generate_storm_trace(honeynet);

  FeatureExtractorConfig fx;
  fx.is_internal = is_internal;
  const FeatureMap batch = extract_features(trace, fx);

  std::vector<netflow::FlowRecord> shuffled(trace.flows().begin(), trace.flows().end());
  util::Pcg32 rng(99);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1));
    std::swap(shuffled[i - 1], shuffled[j]);
  }

  std::vector<WindowVerdict> verdicts;
  StreamingConfig cfg = config(3600.0);
  StreamingDetector detector(cfg, [&](const WindowVerdict& v) { verdicts.push_back(v); });
  // Anchor the window so every shuffled flow lands in window [0, 3600).
  detector.ingest(flow(simnet::Ipv4(128, 2, 0, 200), simnet::Ipv4(9, 9, 9, 9), 0.0));
  for (const auto& rec : shuffled) detector.ingest(rec);
  detector.flush();

  ASSERT_EQ(verdicts.size(), 1u);
  const FeatureMap& streamed = verdicts[0].features;
  for (const auto& [host, bf] : batch) {
    ASSERT_TRUE(streamed.contains(host)) << host.to_string();
    const HostFeatures& sf = streamed.at(host);
    EXPECT_EQ(sf.flows_initiated, bf.flows_initiated);
    EXPECT_EQ(sf.flows_failed, bf.flows_failed);
    EXPECT_EQ(sf.distinct_dsts, bf.distinct_dsts);
    EXPECT_EQ(sf.dsts_after_first_hour, bf.dsts_after_first_hour);
    EXPECT_DOUBLE_EQ(sf.first_activity, bf.first_activity);
    std::vector<double> sg = sf.interstitials, bg = bf.interstitials;
    std::sort(sg.begin(), sg.end());
    std::sort(bg.begin(), bg.end());
    EXPECT_EQ(sg, bg) << "interstitials diverge for " << host.to_string();
  }
}

/// Exact per-host equality, interstitial vectors compared element by
/// element in order: their order is part of the feature contract.
void expect_features_identical(const FeatureMap& got, const FeatureMap& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [host, w] : want) {
    const auto it = got.find(host);
    ASSERT_NE(it, got.end()) << host.to_string();
    const HostFeatures& g = it->second;
    EXPECT_EQ(g.host, w.host);
    EXPECT_EQ(g.flows_initiated, w.flows_initiated);
    EXPECT_EQ(g.flows_failed, w.flows_failed);
    EXPECT_EQ(g.flows_received, w.flows_received);
    EXPECT_EQ(g.bytes_sent_initiated, w.bytes_sent_initiated);
    EXPECT_EQ(g.bytes_sent_received, w.bytes_sent_received);
    EXPECT_EQ(g.distinct_dsts, w.distinct_dsts);
    EXPECT_EQ(g.dsts_after_first_hour, w.dsts_after_first_hour);
    EXPECT_EQ(g.first_activity, w.first_activity);
    EXPECT_EQ(g.interstitials, w.interstitials) << "interstitials diverge for "
                                                << host.to_string();
  }
}

TEST(StreamingDetector, InterstitialOrderIsIdenticalAcrossExecutionModes) {
  // One window of Storm traffic through every way of computing features:
  // the batch extractor (records and batches), the streaming detector in
  // order and shuffled within the window, at 1 and 4 shards, and resumed
  // from a mid-window checkpoint. Every feature must be identical,
  // interstitial vectors included.
  botnet::HoneynetConfig honeynet;
  honeynet.seed = 7;
  honeynet.duration = 1800.0;
  honeynet.nugache_bots = 0;
  const netflow::TraceSet trace = botnet::generate_storm_trace(honeynet);

  FeatureExtractorConfig fx;
  fx.is_internal = is_internal;
  const FeatureMap reference = extract_features(trace, fx);
  // The order is observable: some host pools gaps that are not ascending.
  EXPECT_TRUE(std::any_of(reference.begin(), reference.end(), [](const auto& entry) {
    return !std::is_sorted(entry.second.interstitials.begin(), entry.second.interstitials.end());
  }));
  {
    SCOPED_TRACE("batch extractor over column batches");
    std::vector<netflow::FlowBatch> batches;
    for (const netflow::FlowRecord& r : trace.flows()) {
      if (batches.empty() || batches.back().size() == 512) batches.emplace_back(512);
      batches.back().push_back(r);
    }
    expect_features_identical(extract_features(batches, fx), reference);
  }

  std::vector<netflow::FlowRecord> shuffled(trace.flows().begin(), trace.flows().end());
  util::Pcg32 rng(41);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1));
    std::swap(shuffled[i - 1], shuffled[j]);
  }

  for (const std::size_t shards : {1u, 4u}) {
    StreamingConfig cfg = config(3600.0);
    cfg.shards = shards;
    // Streams `flows`; a `kill_at` short of the end checkpoints there and
    // finishes in a restored detector.
    const auto streamed = [&](const std::vector<netflow::FlowRecord>& flows,
                              std::size_t kill_at) {
      std::vector<WindowVerdict> verdicts;
      const auto sink = [&](const WindowVerdict& v) { verdicts.push_back(v); };
      StreamingDetector first(cfg, sink);
      for (std::size_t i = 0; i < kill_at; ++i) first.ingest(flows[i]);
      if (kill_at == flows.size()) {
        first.flush();
      } else {
        std::stringstream image;
        first.save_checkpoint(image);
        StreamingDetector resumed(cfg, sink);
        resumed.restore_checkpoint(image);
        for (std::size_t i = kill_at; i < flows.size(); ++i) resumed.ingest(flows[i]);
        resumed.flush();
      }
      EXPECT_EQ(verdicts.size(), 1u);
      return verdicts.empty() ? FeatureMap{} : verdicts[0].features;
    };
    const std::vector<netflow::FlowRecord> in_order(trace.flows().begin(), trace.flows().end());
    SCOPED_TRACE("shards=" + std::to_string(shards));
    {
      SCOPED_TRACE("in order");
      expect_features_identical(streamed(in_order, in_order.size()), reference);
    }
    {
      SCOPED_TRACE("shuffled within the window");
      expect_features_identical(streamed(shuffled, shuffled.size()), reference);
    }
    {
      SCOPED_TRACE("restored from a mid-window checkpoint");
      expect_features_identical(streamed(in_order, in_order.size() / 2), reference);
      expect_features_identical(streamed(shuffled, shuffled.size() / 3), reference);
    }
  }
}

TEST(StreamingDetector, ParityWithBatchOnOverlaidDay) {
  // The streaming path must reach the same verdict as the batch pipeline
  // on a full overlaid day whose flows arrive in time order.
  botnet::HoneynetConfig honeynet;
  honeynet.seed = 11;
  honeynet.duration = 2 * 3600.0;
  const netflow::TraceSet storm = botnet::generate_storm_trace(honeynet);
  const netflow::TraceSet empty;
  trace::CampusConfig campus;
  campus.seed = 11;
  campus.window = 2 * 3600.0;
  campus.web_clients = 150;
  campus.idle_hosts = 50;
  campus.gnutella_hosts = 5;
  campus.emule_hosts = 5;
  campus.bittorrent_hosts = 8;
  const eval::DayData day = eval::make_day(campus, storm, empty, 0);
  const FindPlottersResult batch = find_plotters(day.features);

  StreamingConfig cfg = config(2 * 3600.0);
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(cfg, [&](const WindowVerdict& v) { verdicts.push_back(v); });
  for (const auto& rec : day.combined.flows()) detector.ingest(rec);
  detector.flush();

  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].flows_seen, day.combined.flows().size());
  EXPECT_EQ(verdicts[0].result.input, batch.input);
  EXPECT_EQ(verdicts[0].result.reduced, batch.reduced);
  EXPECT_EQ(verdicts[0].result.vol_or_churn, batch.vol_or_churn);
  EXPECT_EQ(verdicts[0].result.plotters, batch.plotters);
}

TEST(Feed, TraceReaderFeedMatchesDirectIngestion) {
  // The production ingestion path (trace file -> TraceReader -> feed) must
  // reach verdicts identical to the batch pipeline over the same flows.
  botnet::HoneynetConfig honeynet;
  honeynet.seed = 21;
  honeynet.duration = 2 * 3600.0;
  honeynet.nugache_bots = 0;
  const netflow::TraceSet trace = botnet::generate_storm_trace(honeynet);

  const FindPlottersResult batch = [&] {
    FeatureExtractorConfig fx;
    fx.is_internal = is_internal;
    return find_plotters(extract_features(trace, fx));
  }();

  for (const bool binary : {false, true}) {
    SCOPED_TRACE(binary ? "binary" : "csv");
    std::stringstream bytes;
    if (binary) netflow::write_binary(bytes, trace);
    else netflow::write_csv(bytes, trace);
    netflow::TraceReader reader(bytes);

    std::vector<WindowVerdict> verdicts;
    StreamingDetector detector(config(2 * 3600.0),
                               [&](const WindowVerdict& v) { verdicts.push_back(v); });
    const std::size_t fed = feed(reader, detector);

    EXPECT_EQ(fed, trace.flows().size());
    EXPECT_EQ(reader.flows_read(), trace.flows().size());
    ASSERT_GE(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].flows_seen, trace.flows().size());
    EXPECT_EQ(verdicts[0].result.input, batch.input);
    EXPECT_EQ(verdicts[0].result.reduced, batch.reduced);
    EXPECT_EQ(verdicts[0].result.s_vol, batch.s_vol);
    EXPECT_EQ(verdicts[0].result.s_churn, batch.s_churn);
    EXPECT_EQ(verdicts[0].result.plotters, batch.plotters);
  }
}

TEST(StreamingDetector, FlushOnNeverOpenedWindowEmitsNothing) {
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(config(), [&](const WindowVerdict& v) { verdicts.push_back(v); });
  detector.flush();
  detector.flush();
  EXPECT_TRUE(verdicts.empty());
  EXPECT_EQ(detector.windows_emitted(), 0u);
}

TEST(StreamingDetector, DoubleFlushIsIdempotent) {
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(config(), [&](const WindowVerdict& v) { verdicts.push_back(v); });
  detector.ingest(flow(simnet::Ipv4(128, 2, 0, 1), simnet::Ipv4(5, 5, 5, 5), 10.0));
  detector.flush();
  ASSERT_EQ(verdicts.size(), 1u);
  // A second flush with nothing new must not emit a spurious empty verdict.
  detector.flush();
  EXPECT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(detector.windows_emitted(), 1u);
  // The detector stays usable: a later flow opens a fresh window.
  detector.ingest(flow(simnet::Ipv4(128, 2, 0, 1), simnet::Ipv4(5, 5, 5, 6), 250.0));
  detector.flush();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[1].flows_seen, 1u);
  detector.flush();
  EXPECT_EQ(verdicts.size(), 2u);
}

TEST(StreamingDetector, BatchIngestMatchesRecordIngestBitExactly) {
  // Column-scan ingestion (FlowBatch overloads) must reach verdicts
  // bit-identical to record-at-a-time ingestion — including windows that
  // roll mid-batch, degraded (timing-budget-shed) windows, and cache-warm
  // later windows.
  botnet::HoneynetConfig honeynet;
  honeynet.seed = 31;
  honeynet.duration = 3 * 3600.0;
  honeynet.nugache_bots = 0;
  const netflow::TraceSet trace = botnet::generate_storm_trace(honeynet);

  for (const std::size_t budget : {std::size_t{0}, std::size_t{200}}) {
    SCOPED_TRACE("timing budget " + std::to_string(budget));
    StreamingConfig cfg = config(3600.0);  // several windows per run
    cfg.timing_budget = budget;

    const auto run = [&](auto&& ingest_all) {
      std::vector<WindowVerdict> verdicts;
      StreamingDetector detector(cfg, [&](const WindowVerdict& v) { verdicts.push_back(v); });
      ingest_all(detector);
      detector.flush();
      return verdicts;
    };

    const auto by_record = run([&](StreamingDetector& d) {
      for (const auto& rec : trace.flows()) d.ingest(rec);
    });

    // Whole batches of an odd size, so window boundaries land mid-batch.
    const auto by_batch = run([&](StreamingDetector& d) {
      netflow::FlowBatch batch(37);
      for (const auto& rec : trace.flows()) {
        batch.push_back(rec);
        if (batch.full()) {
          d.ingest(batch);
          batch.clear();
        }
      }
      if (!batch.empty()) d.ingest(batch);
    });

    // Ragged range splits (including empty ranges) over one big batch.
    const auto by_ranges = run([&](StreamingDetector& d) {
      netflow::FlowBatch batch(trace.flows().size());
      for (const auto& rec : trace.flows()) batch.push_back(rec);
      std::size_t begin = 0;
      std::size_t step = 1;
      while (begin < batch.size()) {
        const std::size_t end = std::min(batch.size(), begin + step);
        d.ingest(batch, begin, end);
        d.ingest(batch, end, end);  // empty range is a no-op
        begin = end;
        step = step * 2 + 1;
      }
    });

    ASSERT_EQ(by_batch.size(), by_record.size());
    ASSERT_EQ(by_ranges.size(), by_record.size());
    for (std::size_t i = 0; i < by_record.size(); ++i) {
      SCOPED_TRACE("window " + std::to_string(i));
      for (const auto* got : {&by_batch[i], &by_ranges[i]}) {
        EXPECT_EQ(got->flows_seen, by_record[i].flows_seen);
        EXPECT_EQ(got->degraded, by_record[i].degraded);
        EXPECT_EQ(got->hosts_shed, by_record[i].hosts_shed);
        EXPECT_EQ(got->timing_samples_shed, by_record[i].timing_samples_shed);
        EXPECT_EQ(got->result.input, by_record[i].result.input);
        EXPECT_EQ(got->result.reduced, by_record[i].result.reduced);
        EXPECT_EQ(got->result.s_vol, by_record[i].result.s_vol);
        EXPECT_EQ(got->result.s_churn, by_record[i].result.s_churn);
        EXPECT_EQ(got->result.plotters, by_record[i].result.plotters);
      }
    }
  }
}

TEST(Feed, ColumnarV3TraceFeedsIdenticalVerdicts) {
  // feed() drains next_batch; a columnar (v3) trace must produce the same
  // verdict as the v1 binary and CSV encodings of the same flows.
  botnet::HoneynetConfig honeynet;
  honeynet.seed = 21;
  honeynet.duration = 2 * 3600.0;
  honeynet.nugache_bots = 0;
  const netflow::TraceSet trace = botnet::generate_storm_trace(honeynet);

  const FindPlottersResult batch = [&] {
    FeatureExtractorConfig fx;
    fx.is_internal = is_internal;
    return find_plotters(extract_features(trace, fx));
  }();

  std::stringstream bytes;
  netflow::write_binary_columnar(bytes, trace);
  netflow::TraceReader reader(bytes);
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(config(2 * 3600.0),
                             [&](const WindowVerdict& v) { verdicts.push_back(v); });
  const std::size_t fed = feed(reader, detector);
  EXPECT_EQ(fed, trace.flows().size());
  ASSERT_GE(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].flows_seen, trace.flows().size());
  EXPECT_EQ(verdicts[0].result.input, batch.input);
  EXPECT_EQ(verdicts[0].result.reduced, batch.reduced);
  EXPECT_EQ(verdicts[0].result.plotters, batch.plotters);
}

TEST(Feed, EmptyTraceFeedsZeroFlows) {
  netflow::TraceSet empty(0.0, 100.0);
  std::stringstream bytes;
  netflow::write_csv(bytes, empty);
  netflow::TraceReader reader(bytes);
  StreamingDetector detector(config(), [](const WindowVerdict&) { FAIL(); });
  EXPECT_EQ(feed(reader, detector), 0u);
}

}  // namespace
}  // namespace tradeplot::detect

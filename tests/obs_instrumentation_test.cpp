// End-to-end instrumentation contract: metrics collection must be a pure
// observer. Verdicts are bit-identical with metrics on or off, and the
// counters the scrape exposes must agree with the pipeline's own
// bookkeeping (IngestStats, window counts, checkpoint activity).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "botnet/honeynet.h"
#include "detect/streaming.h"
#include "netflow/fault_injector.h"
#include "netflow/io.h"
#include "netflow/trace_reader.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace tradeplot::obs {
namespace {

/// Re-enables/disables obs around a scope and always restores "off" so a
/// failing test cannot leak the enabled flag into its neighbours.
struct EnabledGuard {
  explicit EnabledGuard(bool on) { set_enabled(on); }
  ~EnabledGuard() { set_enabled(false); }
};

const SnapshotSample* find_sample(const MetricsSnapshot& snap,
                                  std::string_view name, const Labels& labels = {}) {
  for (const SnapshotSample& s : snap.samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

double sample_value(const MetricsSnapshot& snap, std::string_view name,
                    const Labels& labels = {}) {
  const SnapshotSample* s = find_sample(snap, name, labels);
  EXPECT_NE(s, nullptr) << "missing sample " << name;
  return s != nullptr ? s->value : -1.0;
}

std::uint64_t histogram_count(const MetricsSnapshot& snap, std::string_view name,
                              const Labels& labels = {}) {
  const SnapshotSample* s = find_sample(snap, name, labels);
  EXPECT_NE(s, nullptr) << "missing histogram " << name;
  return s != nullptr ? s->histogram.count : 0;
}

netflow::TraceSet storm_trace() {
  botnet::HoneynetConfig h;
  h.seed = 3;
  h.duration = 1800.0;
  h.nugache_bots = 0;
  return botnet::generate_storm_trace(h);
}

detect::StreamingConfig streaming_config(double window) {
  detect::StreamingConfig c;
  c.window = window;
  c.is_internal = detect::default_internal_predicate;
  return c;
}

/// Everything observable about one window verdict, comparable field by field.
struct VerdictSummary {
  std::size_t window_index = 0;
  double window_start = 0.0;
  double window_end = 0.0;
  std::size_t flows_seen = 0;
  bool degraded = false;
  std::size_t hosts_shed = 0;
  detect::HostSet input, reduced, s_vol, s_churn, vol_or_churn, plotters;
  bool operator==(const VerdictSummary&) const = default;
};

std::vector<VerdictSummary> run_streaming(const netflow::TraceSet& trace,
                                          bool metrics_on) {
  const EnabledGuard guard(metrics_on);
  std::vector<VerdictSummary> out;
  detect::StreamingDetector detector(
      streaming_config(600.0), [&](const detect::WindowVerdict& v) {
        out.push_back({v.window_index, v.window_start, v.window_end, v.flows_seen,
                       v.degraded, v.hosts_shed, v.result.input, v.result.reduced,
                       v.result.s_vol, v.result.s_churn, v.result.vol_or_churn,
                       v.result.plotters});
      });
  for (const netflow::FlowRecord& rec : trace.flows()) detector.ingest(rec);
  detector.flush();
  return out;
}

TEST(ObsInstrumentation, StreamingVerdictsBitIdenticalMetricsOnOrOff) {
  const netflow::TraceSet trace = storm_trace();
  const std::vector<VerdictSummary> off = run_streaming(trace, false);
  Registry::global().reset();
  const std::vector<VerdictSummary> on = run_streaming(trace, true);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on);
}

TEST(ObsInstrumentation, TraceReaderCountersMatchIngestStats) {
  // Corrupt a CSV trace, read it under the skip policy with metrics on, and
  // require the scrape to agree exactly with the reader's own IngestStats.
  util::Pcg32 rng(11);
  netflow::TraceSet trace(0.0, 3600.0);
  for (int i = 0; i < 200; ++i) {
    netflow::FlowRecord r;
    r.src = simnet::Ipv4(128, 2, 0, static_cast<std::uint8_t>(1 + (i % 6)));
    r.dst = simnet::Ipv4(static_cast<std::uint32_t>(rng.uniform_int(1 << 26, 1 << 28)));
    r.sport = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    r.dport = 80;
    r.proto = netflow::Protocol::kTcp;
    r.start_time = rng.uniform(0, 3000);
    r.end_time = r.start_time + 1;
    r.pkts_src = 2;
    r.pkts_dst = 1;
    r.bytes_src = 100;
    r.bytes_dst = 50;
    r.state = netflow::FlowState::kEstablished;
    trace.add_flow(std::move(r));
  }
  std::stringstream clean;
  netflow::write_csv(clean, trace);
  netflow::FaultInjectorConfig cfg;
  cfg.seed = 5;
  cfg.fault_rate = 0.2;
  netflow::FaultReport report;
  const std::string corrupted =
      netflow::FaultInjector(cfg).corrupt_csv(clean.str(), report);
  ASSERT_GT(report.fault_count(), 0u);

  Registry::global().reset();
  const EnabledGuard guard(true);
  std::stringstream in(corrupted);
  netflow::TraceReader reader(in, netflow::ErrorPolicy::skip());
  netflow::FlowRecord rec;
  std::size_t decoded = 0;
  while (reader.next(rec)) ++decoded;
  const netflow::IngestStats& stats = reader.ingest_stats();
  const MetricsSnapshot snap = Registry::global().snapshot();

  EXPECT_EQ(sample_value(snap, "tradeplot_ingest_records_total",
                         {{"result", "ok"}}),
            static_cast<double>(stats.records_ok));
  EXPECT_EQ(stats.records_ok, decoded);
  EXPECT_EQ(sample_value(snap, "tradeplot_ingest_records_total",
                         {{"result", "quarantined"}}),
            static_cast<double>(stats.records_quarantined));
  EXPECT_GT(stats.records_quarantined, 0u);
  EXPECT_EQ(sample_value(snap, "tradeplot_ingest_resync_events_total"),
            static_cast<double>(stats.resync_events));
  EXPECT_EQ(sample_value(snap, "tradeplot_ingest_bytes_total"),
            static_cast<double>(corrupted.size()));
  // One timed decode attempt per next() call, including the final EOF probe.
  EXPECT_EQ(histogram_count(snap, "tradeplot_ingest_record_seconds"),
            decoded + 1);
}

TEST(ObsInstrumentation, StreamingScrapeCoversRequiredFamilies) {
  const netflow::TraceSet trace = storm_trace();
  Registry::global().reset();
  const EnabledGuard guard(true);

  const detect::StreamingConfig cfg = streaming_config(600.0);
  std::size_t windows = 0;
  detect::StreamingDetector detector(cfg,
                                     [&](const detect::WindowVerdict&) { ++windows; });
  for (const netflow::FlowRecord& rec : trace.flows()) detector.ingest(rec);
  detector.flush();
  std::stringstream checkpoint;
  detector.save_checkpoint(checkpoint);
  detect::StreamingDetector resumed(cfg, [](const detect::WindowVerdict&) {});
  resumed.restore_checkpoint(checkpoint);

  const MetricsSnapshot snap = Registry::global().snapshot();
  EXPECT_EQ(sample_value(snap, "tradeplot_stream_flows_total"),
            static_cast<double>(trace.flows().size()));
  EXPECT_EQ(sample_value(snap, "tradeplot_stream_windows_total",
                         {{"outcome", "ok"}}),
            static_cast<double>(windows));
  EXPECT_EQ(histogram_count(snap, "tradeplot_window_flows"), windows);
  EXPECT_EQ(histogram_count(snap, "tradeplot_stage_duration_seconds",
                            {{"stage", "window_close"}}),
            windows);
  EXPECT_GE(histogram_count(snap, "tradeplot_stage_duration_seconds",
                            {{"stage", "checkpoint_save"}}),
            1u);
  EXPECT_GE(histogram_count(snap, "tradeplot_stage_duration_seconds",
                            {{"stage", "checkpoint_restore"}}),
            1u);
  EXPECT_GE(histogram_count(snap, "tradeplot_stage_duration_seconds",
                            {{"stage", "data_reduction"}}),
            1u);
  EXPECT_GE(histogram_count(snap, "tradeplot_checkpoint_bytes"), 1u);
  // The storm trace reaches θ_hm, so signatures must have been built.
  EXPECT_GT(sample_value(snap, "tradeplot_hm_signatures_total",
                         {{"op", "built"}}),
            0.0);
  ASSERT_NE(find_sample(snap, "tradeplot_hm_distances_total",
                        {{"op", "computed"}}),
            nullptr);
}

TEST(ObsInstrumentation, FinalizeAndReleaseAreTimedOncePerWindow) {
  // The window-state stages fire once per closed window at every shard
  // count — never per row — beside window_close.
  const netflow::TraceSet trace = storm_trace();
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Registry::global().reset();
    const EnabledGuard guard(true);
    detect::StreamingConfig cfg = streaming_config(600.0);
    cfg.shards = shards;
    std::size_t windows = 0;
    detect::StreamingDetector detector(cfg, [&](const detect::WindowVerdict&) { ++windows; });
    for (const netflow::FlowRecord& rec : trace.flows()) detector.ingest(rec);
    detector.flush();

    const MetricsSnapshot snap = Registry::global().snapshot();
    ASSERT_GT(windows, 1u);
    for (const char* stage : {"window_close", "finalize", "release"}) {
      EXPECT_EQ(histogram_count(snap, "tradeplot_stage_duration_seconds", {{"stage", stage}}),
                windows)
          << stage;
    }
  }
}

TEST(ObsInstrumentation, ShardedScrapeHasTheSameStagesAndWindowFamily) {
  // One stage/metric set at every shard count: at shards=4 the scalar and
  // θ_hm stage timers fire (the pipeline runs once over the whole window),
  // windows are counted by the one tradeplot_stream_windows_total family,
  // and each shard reports its host count.
  const netflow::TraceSet trace = storm_trace();
  Registry::global().reset();
  const EnabledGuard guard(true);

  detect::StreamingConfig cfg = streaming_config(600.0);
  cfg.shards = 4;
  std::size_t windows = 0;
  detect::StreamingDetector detector(cfg, [&](const detect::WindowVerdict&) { ++windows; });
  for (const netflow::FlowRecord& rec : trace.flows()) detector.ingest(rec);
  detector.flush();

  const MetricsSnapshot snap = Registry::global().snapshot();
  ASSERT_GT(windows, 0u);
  EXPECT_EQ(sample_value(snap, "tradeplot_stream_windows_total", {{"outcome", "ok"}}),
            static_cast<double>(windows));
  EXPECT_EQ(sample_value(snap, "tradeplot_stream_flows_total"),
            static_cast<double>(trace.flows().size()));
  for (const char* stage : {"window_close", "data_reduction", "theta_vol", "theta_churn",
                            "theta_hm"}) {
    EXPECT_GT(histogram_count(snap, "tradeplot_stage_duration_seconds", {{"stage", stage}}),
              0u)
        << stage;
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_NE(find_sample(snap, "tradeplot_shard_window_hosts",
                          {{"shard", std::to_string(s)}}),
              nullptr)
        << "shard " << s;
  }
  for (const SnapshotSample& s : snap.samples)
    EXPECT_NE(s.name, "tradeplot_shard_windows_total");
}

TEST(ObsInstrumentation, ThreadPoolReportsTasksAndQueueDrains) {
  Registry::global().reset();
  const EnabledGuard guard(true);
  std::atomic<std::uint64_t> sum{0};
  util::parallel_for(0, 10000, 1, 4,
                     [&](std::size_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
  const MetricsSnapshot snap = Registry::global().snapshot();
  const double tasks = sample_value(snap, "tradeplot_pool_tasks_total");
  EXPECT_GE(tasks, 1.0);
  EXPECT_EQ(sample_value(snap, "tradeplot_pool_queue_depth"), 0.0);
  EXPECT_EQ(histogram_count(snap, "tradeplot_pool_task_seconds"),
            static_cast<std::uint64_t>(tasks));
  EXPECT_EQ(sum.load(), 10000ull * 9999ull / 2);
}

TEST(ObsInstrumentation, DisabledCollectsNothing) {
  Registry::global().reset();
  set_enabled(false);
  const netflow::TraceSet trace = storm_trace();
  detect::StreamingDetector detector(streaming_config(600.0),
                                     [](const detect::WindowVerdict&) {});
  for (const netflow::FlowRecord& rec : trace.flows()) detector.ingest(rec);
  detector.flush();
  for (const SnapshotSample& s : Registry::global().snapshot().samples) {
    if (s.type == MetricType::kHistogram) {
      EXPECT_EQ(s.histogram.count, 0u) << s.name;
    } else {
      EXPECT_EQ(s.value, 0.0) << s.name;
    }
  }
}

}  // namespace
}  // namespace tradeplot::obs

// Checkpoint/restore and graceful degradation for StreamingDetector: a
// monitor killed mid-window must resume and emit verdicts identical to an
// uninterrupted run, corrupt checkpoints must be rejected whole, and the
// timing budget must shed state without touching scalar evidence.
#include "detect/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <vector>

#include "botnet/honeynet.h"
#include "netflow/io.h"
#include "netflow/trace_reader.h"
#include "util/checksum.h"
#include "util/error.h"

namespace tradeplot::detect {
namespace {

bool is_internal(simnet::Ipv4 ip) { return default_internal_predicate(ip); }

StreamingConfig config(double window = 3600.0) {
  StreamingConfig c;
  c.window = window;
  c.is_internal = is_internal;
  return c;
}

netflow::TraceSet storm_trace(std::uint64_t seed, double duration = 2 * 3600.0) {
  botnet::HoneynetConfig h;
  h.seed = seed;
  h.duration = duration;
  h.nugache_bots = 0;
  return botnet::generate_storm_trace(h);
}

/// Full-strength verdict comparison: window metadata, every pipeline stage,
/// and every per-host feature (interstitials as multisets — their pooling
/// order over the per-destination hash map is not part of the contract).
void expect_verdicts_equal(const std::vector<WindowVerdict>& a,
                           const std::vector<WindowVerdict>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(a[i].window_index, b[i].window_index);
    EXPECT_DOUBLE_EQ(a[i].window_start, b[i].window_start);
    EXPECT_DOUBLE_EQ(a[i].window_end, b[i].window_end);
    EXPECT_EQ(a[i].flows_seen, b[i].flows_seen);
    EXPECT_EQ(a[i].degraded, b[i].degraded);
    EXPECT_EQ(a[i].hosts_shed, b[i].hosts_shed);
    EXPECT_EQ(a[i].result.input, b[i].result.input);
    EXPECT_EQ(a[i].result.reduced, b[i].result.reduced);
    EXPECT_EQ(a[i].result.s_vol, b[i].result.s_vol);
    EXPECT_EQ(a[i].result.s_churn, b[i].result.s_churn);
    EXPECT_EQ(a[i].result.vol_or_churn, b[i].result.vol_or_churn);
    EXPECT_EQ(a[i].result.plotters, b[i].result.plotters);
    ASSERT_EQ(a[i].features.size(), b[i].features.size());
    for (const auto& [host, fa] : a[i].features) {
      ASSERT_TRUE(b[i].features.contains(host)) << host.to_string();
      const HostFeatures& fb = b[i].features.at(host);
      EXPECT_EQ(fa.flows_initiated, fb.flows_initiated);
      EXPECT_EQ(fa.flows_failed, fb.flows_failed);
      EXPECT_EQ(fa.flows_received, fb.flows_received);
      EXPECT_EQ(fa.bytes_sent_initiated, fb.bytes_sent_initiated);
      EXPECT_EQ(fa.bytes_sent_received, fb.bytes_sent_received);
      EXPECT_EQ(fa.distinct_dsts, fb.distinct_dsts);
      EXPECT_EQ(fa.dsts_after_first_hour, fb.dsts_after_first_hour);
      EXPECT_DOUBLE_EQ(fa.first_activity, fb.first_activity);
      std::vector<double> ga = fa.interstitials, gb = fb.interstitials;
      std::sort(ga.begin(), ga.end());
      std::sort(gb.begin(), gb.end());
      EXPECT_EQ(ga, gb) << "interstitials diverge for " << host.to_string();
    }
  }
}

std::vector<WindowVerdict> uninterrupted_run(const netflow::TraceSet& trace,
                                             const StreamingConfig& cfg) {
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(cfg, [&](const WindowVerdict& v) { verdicts.push_back(v); });
  for (const auto& rec : trace.flows()) detector.ingest(rec);
  detector.flush();
  return verdicts;
}

TEST(Checkpoint, KillAndRestoreMidWindowReproducesVerdicts) {
  const netflow::TraceSet trace = storm_trace(5);
  const StreamingConfig cfg = config(1800.0);
  const std::vector<WindowVerdict> expected = uninterrupted_run(trace, cfg);
  ASSERT_GE(expected.size(), 2u);

  // Kill at several points — window boundaries and mid-window alike.
  for (const std::size_t kill_at :
       {std::size_t{1}, trace.flows().size() / 3, trace.flows().size() / 2,
        trace.flows().size() - 1}) {
    SCOPED_TRACE("kill after " + std::to_string(kill_at) + " flows");
    std::vector<WindowVerdict> verdicts;
    const auto sink = [&](const WindowVerdict& v) { verdicts.push_back(v); };

    std::stringstream image;
    {
      StreamingDetector first(cfg, sink);
      for (std::size_t i = 0; i < kill_at; ++i) first.ingest(trace.flows()[i]);
      first.save_checkpoint(image);
      // `first` is abandoned here without flush — the simulated crash.
    }

    StreamingDetector resumed(cfg, sink);
    resumed.restore_checkpoint(image);
    EXPECT_EQ(resumed.flows_ingested_total(), kill_at);
    for (std::size_t i = kill_at; i < trace.flows().size(); ++i)
      resumed.ingest(trace.flows()[i]);
    resumed.flush();

    expect_verdicts_equal(verdicts, expected);
  }
}

TEST(Checkpoint, FileRoundTripWithTraceFastForward) {
  // The full campus_monitor --resume workflow: checkpoint to disk, restart,
  // restore, fast-forward the trace with skip_flows, finish the run.
  const netflow::TraceSet trace = storm_trace(9);
  const StreamingConfig cfg = config(1800.0);
  const std::vector<WindowVerdict> expected = uninterrupted_run(trace, cfg);

  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "tp_ckpt_test";
  fs::create_directories(dir);
  const std::string trace_path = (dir / "trace.csv").string();
  const std::string ckpt_path = (dir / "monitor.ckpt").string();
  netflow::write_csv_file(trace_path, trace);

  const std::size_t kill_at = trace.flows().size() / 2;
  std::vector<WindowVerdict> verdicts;
  const auto sink = [&](const WindowVerdict& v) { verdicts.push_back(v); };
  {
    netflow::TraceReader reader(trace_path);
    StreamingDetector first(cfg, sink);
    netflow::FlowRecord rec;
    while (first.flows_ingested_total() < kill_at && reader.next(rec)) first.ingest(rec);
    first.save_checkpoint_file(ckpt_path);
  }
  {
    netflow::TraceReader reader(trace_path);
    StreamingDetector resumed(cfg, sink);
    resumed.restore_checkpoint_file(ckpt_path);
    EXPECT_EQ(reader.skip_flows(static_cast<std::size_t>(resumed.flows_ingested_total())),
              kill_at);
    const std::size_t fed = feed(reader, resumed);
    EXPECT_EQ(fed, trace.flows().size() - kill_at);
  }
  expect_verdicts_equal(verdicts, expected);

  std::remove(trace_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST(Checkpoint, MidBatchCheckpointAndRestoreReproducesVerdicts) {
  // campus_monitor ingests columnar batches but checkpoints every N flows
  // with N not a multiple of the batch size, so the checkpoint cursor lands
  // mid-batch. A monitor killed at such a boundary and restored (restore +
  // skip_flows + batch ingestion of the remainder) must emit verdicts
  // identical to the uninterrupted run.
  const netflow::TraceSet trace = storm_trace(17);
  const StreamingConfig cfg = config(1800.0);
  const std::vector<WindowVerdict> expected = uninterrupted_run(trace, cfg);

  constexpr std::size_t kBatchCapacity = 64;
  constexpr std::size_t kCheckpointEvery = 97;  // deliberately not a multiple
  ASSERT_GT(trace.flows().size(), 3 * kCheckpointEvery);

  std::stringstream encoded;
  netflow::write_binary_columnar(encoded, trace);
  const std::string bytes = encoded.str();

  // First run: batch-ingest with the record-granular checkpoint split (the
  // campus_monitor loop), keeping the image saved at every boundary. Kill
  // after the third checkpoint. Verdicts emitted before the kill and after
  // the resume together must equal the uninterrupted run's.
  std::vector<WindowVerdict> verdicts;
  const auto sink = [&](const WindowVerdict& v) { verdicts.push_back(v); };
  std::stringstream image;
  std::size_t killed_at = 0;
  {
    std::stringstream in(bytes);
    netflow::TraceReader reader(in);
    StreamingDetector first(cfg, sink);
    netflow::FlowBatch batch(kBatchCapacity);
    std::size_t checkpoints = 0;
    while (checkpoints < 3 && reader.next_batch(batch) > 0) {
      std::size_t begin = 0;
      while (begin < batch.size()) {
        const std::size_t until =
            kCheckpointEvery - static_cast<std::size_t>(first.flows_ingested_total()) %
                                   kCheckpointEvery;
        const std::size_t end = std::min(batch.size(), begin + until);
        first.ingest(batch, begin, end);
        begin = end;
        if (first.flows_ingested_total() % kCheckpointEvery == 0) {
          image.str("");
          image.clear();
          first.save_checkpoint(image);
          killed_at = static_cast<std::size_t>(first.flows_ingested_total());
          if (++checkpoints == 3) break;
        }
      }
      // `first` keeps ingesting until the kill point; the crash abandons it.
    }
  }
  ASSERT_EQ(killed_at, 3 * kCheckpointEvery);
  ASSERT_NE(killed_at % kBatchCapacity, 0u);  // genuinely mid-batch

  // Resume: a fresh detector + reader, fast-forward, finish with feed().
  {
    std::stringstream in(bytes);
    netflow::TraceReader reader(in);
    StreamingDetector resumed(cfg, sink);
    resumed.restore_checkpoint(image);
    EXPECT_EQ(resumed.flows_ingested_total(), killed_at);
    EXPECT_EQ(reader.skip_flows(killed_at), killed_at);
    const std::size_t fed = feed(reader, resumed);
    EXPECT_EQ(fed, trace.flows().size() - killed_at);
  }

  expect_verdicts_equal(verdicts, expected);
}

TEST(Checkpoint, RejectsCorruptImages) {
  const netflow::TraceSet trace = storm_trace(13, 1800.0);
  const StreamingConfig cfg = config(3600.0);
  StreamingDetector detector(cfg, [](const WindowVerdict&) {});
  for (const auto& rec : trace.flows()) detector.ingest(rec);

  std::stringstream image;
  detector.save_checkpoint(image);
  const std::string good = image.str();

  const auto restore_from = [&](std::string bytes) {
    std::stringstream in(std::move(bytes));
    StreamingDetector fresh(cfg, [](const WindowVerdict&) {});
    fresh.restore_checkpoint(in);
  };

  // Pristine image restores.
  EXPECT_NO_THROW(restore_from(good));

  // A flipped payload byte fails the checksum.
  {
    std::string bad = good;
    bad[bad.size() / 2] ^= 0x01;
    EXPECT_THROW(restore_from(bad), util::ParseError);
  }
  // Truncation anywhere is detected.
  EXPECT_THROW(restore_from(good.substr(0, good.size() - 1)), util::ParseError);
  EXPECT_THROW(restore_from(good.substr(0, 10)), util::ParseError);
  // Bad magic / unsupported version, including the images of earlier
  // formats: a TPCK v2 image (single accumulator, no shard count) and the
  // former separate sharded detector's image (magic 0x48535054) get pinned
  // errors, never a misparse.
  const auto expect_parse_error = [&](std::string bad, const std::string& message) {
    try {
      restore_from(std::move(bad));
      ADD_FAILURE() << "expected ParseError: " << message;
    } catch (const util::ParseError& e) {
      EXPECT_EQ(std::string(e.what()), "parse error: " + message);
    }
  };
  {
    std::string bad = good;
    bad[0] = 'X';
    expect_parse_error(bad, "checkpoint: bad magic");
  }
  {
    std::string sharded = good;
    const std::uint32_t old_sharded_magic = 0x48535054;
    std::memcpy(sharded.data(), &old_sharded_magic, sizeof(old_sharded_magic));
    expect_parse_error(sharded, "checkpoint: bad magic");
  }
  {
    std::string bad = good;
    bad[4] = 99;
    expect_parse_error(bad, "checkpoint: unsupported version 99");
  }
  {
    std::string v2 = good;
    v2[4] = 2;
    expect_parse_error(v2, "checkpoint: unsupported version 2");
  }
}

TEST(Checkpoint, RejectsConfigMismatch) {
  StreamingDetector saver(config(3600.0), [](const WindowVerdict&) {});
  std::stringstream image;
  saver.save_checkpoint(image);

  StreamingDetector other(config(1800.0), [](const WindowVerdict&) {});
  EXPECT_THROW(other.restore_checkpoint(image), util::ConfigError);
}

TEST(Checkpoint, FailedRestoreLeavesDetectorUsable) {
  const netflow::TraceSet trace = storm_trace(17, 1800.0);
  const StreamingConfig cfg = config(3600.0);
  const std::vector<WindowVerdict> expected = uninterrupted_run(trace, cfg);

  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(cfg, [&](const WindowVerdict& v) { verdicts.push_back(v); });
  std::stringstream garbage("not a checkpoint at all");
  EXPECT_THROW(detector.restore_checkpoint(garbage), util::ParseError);

  // The failed restore must not have half-applied anything.
  for (const auto& rec : trace.flows()) detector.ingest(rec);
  detector.flush();
  expect_verdicts_equal(verdicts, expected);
}

TEST(Checkpoint, MissingFileThrowsIoError) {
  StreamingDetector detector(config(), [](const WindowVerdict&) {});
  EXPECT_THROW(detector.restore_checkpoint_file("/nonexistent/dir/x.ckpt"), util::IoError);
  EXPECT_THROW(detector.save_checkpoint_file("/nonexistent/dir/x.ckpt"), util::IoError);
}

// ---------------------------------------------------------------------------
// Graceful degradation.

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

TEST(Degradation, BudgetShedsTimingStateAndMarksVerdict) {
  // 20 hosts x 10 timing samples; a budget of 60 forces shedding.
  StreamingConfig cfg = config(10000.0);
  cfg.timing_budget = 60;
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(cfg, [&](const WindowVerdict& v) { verdicts.push_back(v); });
  for (int h = 0; h < 20; ++h) {
    const simnet::Ipv4 src(128, 2, 1, static_cast<std::uint8_t>(h + 1));
    for (int i = 0; i < 10; ++i)
      detector.ingest(flow(src, simnet::Ipv4(10, 0, 0, static_cast<std::uint8_t>(i + 1)),
                           10.0 * h + i));
  }
  detector.flush();

  ASSERT_EQ(verdicts.size(), 1u);
  const WindowVerdict& v = verdicts[0];
  EXPECT_TRUE(v.degraded);
  EXPECT_GT(v.hosts_shed, 0u);
  EXPECT_GT(v.timing_samples_shed, 0u);
  EXPECT_EQ(v.flows_seen, 200u);

  // Scalar evidence is exact for every host, shed or not.
  ASSERT_EQ(v.features.size(), 20u);
  for (const auto& [host, f] : v.features) {
    EXPECT_EQ(f.flows_initiated, 10u);
    EXPECT_EQ(f.bytes_sent_initiated, 1000u);
  }
  // Some hosts kept their timing evidence; shed ones lost theirs.
  std::size_t with_timing = 0, without_timing = 0;
  for (const auto& [host, f] : v.features) {
    if (f.distinct_dsts > 0) ++with_timing;
    else ++without_timing;
  }
  EXPECT_EQ(without_timing, v.hosts_shed);
  EXPECT_GT(with_timing, 0u);
}

TEST(Degradation, GenerousBudgetChangesNothing) {
  const netflow::TraceSet trace = storm_trace(21, 1800.0);
  const StreamingConfig plain = config(3600.0);
  StreamingConfig budgeted = config(3600.0);
  budgeted.timing_budget = 1u << 20;  // far above the trace's needs

  const std::vector<WindowVerdict> a = uninterrupted_run(trace, plain);
  const std::vector<WindowVerdict> b = uninterrupted_run(trace, budgeted);
  for (const auto& v : b) EXPECT_FALSE(v.degraded);
  expect_verdicts_equal(a, b);
}

TEST(Degradation, BudgetResetsAtWindowBoundary) {
  StreamingConfig cfg = config(100.0);
  cfg.timing_budget = 5;
  std::vector<WindowVerdict> verdicts;
  StreamingDetector detector(cfg, [&](const WindowVerdict& v) { verdicts.push_back(v); });
  const simnet::Ipv4 src(128, 2, 0, 1);
  // Window 0: 8 samples — degrades. Window 1: 3 samples — clean.
  for (int i = 0; i < 8; ++i)
    detector.ingest(flow(src, simnet::Ipv4(10, 0, 0, static_cast<std::uint8_t>(i + 1)), i));
  for (int i = 0; i < 3; ++i)
    detector.ingest(flow(src, simnet::Ipv4(10, 0, 0, static_cast<std::uint8_t>(i + 1)), 100.0 + i));
  detector.flush();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts[0].degraded);
  EXPECT_FALSE(verdicts[1].degraded);
}

TEST(Degradation, CheckpointCarriesDegradedState) {
  // Kill-and-restore mid-way through a degraded window: the resumed run
  // must report the same shed accounting and the same verdict.
  StreamingConfig cfg = config(10000.0);
  cfg.timing_budget = 40;

  const auto make_flows = [] {
    std::vector<netflow::FlowRecord> flows;
    for (int h = 0; h < 15; ++h) {
      const simnet::Ipv4 src(128, 2, 2, static_cast<std::uint8_t>(h + 1));
      for (int i = 0; i < 8; ++i)
        flows.push_back(flow(src, simnet::Ipv4(10, 0, 1, static_cast<std::uint8_t>(i + 1)),
                             10.0 * h + i));
    }
    return flows;
  };
  const std::vector<netflow::FlowRecord> flows = make_flows();

  std::vector<WindowVerdict> expected;
  {
    StreamingDetector detector(cfg, [&](const WindowVerdict& v) { expected.push_back(v); });
    for (const auto& rec : flows) detector.ingest(rec);
    detector.flush();
  }
  ASSERT_EQ(expected.size(), 1u);
  ASSERT_TRUE(expected[0].degraded);

  std::vector<WindowVerdict> verdicts;
  const std::size_t kill_at = flows.size() / 2;
  std::stringstream image;
  {
    StreamingDetector first(cfg, [&](const WindowVerdict& v) { verdicts.push_back(v); });
    for (std::size_t i = 0; i < kill_at; ++i) first.ingest(flows[i]);
    first.save_checkpoint(image);
  }
  StreamingDetector resumed(cfg, [&](const WindowVerdict& v) { verdicts.push_back(v); });
  resumed.restore_checkpoint(image);
  for (std::size_t i = kill_at; i < flows.size(); ++i) resumed.ingest(flows[i]);
  resumed.flush();

  expect_verdicts_equal(verdicts, expected);
  EXPECT_EQ(verdicts[0].timing_samples_shed, expected[0].timing_samples_shed);
}

// ---------------------------------------------------------------------------
// TPCK v4 hardening: the accumulator section is an array dump, so restore
// must validate it — every bad image is a ParseError, never a misparse, a
// crash or an allocation sized by a corrupt count.

void expect_restore_error(const std::string& image, const std::string& message) {
  std::stringstream in(image);
  StreamingDetector fresh(config(3600.0), [](const WindowVerdict&) {});
  try {
    fresh.restore_checkpoint(in);
    ADD_FAILURE() << "expected ParseError: " << message;
  } catch (const util::ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "parse error: " + message);
  }
}

/// A small mid-window image: hosts A (slot 0) and B (slot 1), three events.
std::string small_image() {
  StreamingDetector detector(config(3600.0), [](const WindowVerdict&) {});
  detector.ingest(flow(simnet::Ipv4(128, 2, 0, 1), simnet::Ipv4(1, 1, 1, 1), 1.0));
  detector.ingest(flow(simnet::Ipv4(128, 2, 0, 1), simnet::Ipv4(1, 1, 1, 2), 2.0));
  detector.ingest(flow(simnet::Ipv4(128, 2, 0, 2), simnet::Ipv4(1, 1, 1, 1), 3.0));
  std::stringstream image;
  detector.save_checkpoint(image);
  return image.str();
}

// Image framing: u32 magic, u32 version, u64 payload size, payload, u32 CRC.
constexpr std::size_t kHeader = 16;
// Payload: window, grace, shards, open flag, window start, three counters.
constexpr std::size_t kSection = 8 + 8 + 8 + 1 + 8 + 8 + 8 + 8;
// Accumulator section: hosts_shed, samples_shed, host count, then columns.
constexpr std::size_t kHostCount = kSection + 16;
constexpr std::size_t kHosts = kHostCount + 8;  // u32 address per slot
constexpr std::size_t kShedFlags = kHosts + 2 * 4 + 5 * 2 * 8 + 2 * 8;
constexpr std::size_t kEventCount = kShedFlags + 2;
constexpr std::size_t kEvents = kEventCount + 8;  // {u32 slot, u32 dst, f64 t}

std::string payload_of(const std::string& image) {
  return image.substr(kHeader, image.size() - kHeader - 4);
}

/// Frames `payload` as a v4 image with a valid CRC, so that restore reaches
/// the section decoder.
std::string reframe(const std::string& image, const std::string& payload) {
  std::string out = image.substr(0, 8);
  const auto size = static_cast<std::uint64_t>(payload.size());
  out.append(reinterpret_cast<const char*>(&size), sizeof(size));
  out += payload;
  const std::uint32_t crc = util::crc32(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return out;
}

template <typename T>
void poke(std::string& payload, std::size_t offset, T value) {
  std::memcpy(payload.data() + offset, &value, sizeof(value));
}

template <typename T>
T peek(const std::string& payload, std::size_t offset) {
  T value;
  std::memcpy(&value, payload.data() + offset, sizeof(value));
  return value;
}

TEST(CheckpointV4, SmallImageLayoutIsTheDocumentedArrayDump) {
  const std::string image = small_image();
  const std::string payload = payload_of(image);
  EXPECT_EQ(peek<std::uint32_t>(image, 4), 4u);
  EXPECT_EQ(peek<std::uint64_t>(payload, kHostCount), 2u);
  EXPECT_EQ(peek<std::uint32_t>(payload, kHosts), simnet::Ipv4(128, 2, 0, 1).value());
  EXPECT_EQ(peek<std::uint32_t>(payload, kHosts + 4), simnet::Ipv4(128, 2, 0, 2).value());
  EXPECT_EQ(peek<std::uint64_t>(payload, kEventCount), 3u);
  EXPECT_EQ(peek<std::uint32_t>(payload, kEvents + 2 * 16), 1u);  // third event: slot 1
  EXPECT_EQ(peek<double>(payload, kEvents + 2 * 16 + 8), 3.0);
  // Reframing the untouched payload restores cleanly.
  std::stringstream in(reframe(image, payload));
  StreamingDetector fresh(config(3600.0), [](const WindowVerdict&) {});
  EXPECT_NO_THROW(fresh.restore_checkpoint(in));
  EXPECT_EQ(fresh.flows_in_current_window(), 3u);
}

TEST(CheckpointV4, V3ImageGetsPinnedError) {
  std::string v3 = small_image();
  v3[4] = 3;
  expect_restore_error(v3, "checkpoint: unsupported version 3");
}

TEST(CheckpointV4, TruncationAtEveryOffsetIsParseError) {
  const std::string image = small_image();
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::stringstream in(image.substr(0, cut));
    StreamingDetector fresh(config(3600.0), [](const WindowVerdict&) {});
    EXPECT_THROW(fresh.restore_checkpoint(in), util::ParseError);
  }
  // And a payload cut anywhere, then framed with a valid CRC, fails in the
  // section decoders instead of the checksum.
  const std::string payload = payload_of(image);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    SCOPED_TRACE("payload cut at byte " + std::to_string(cut));
    std::stringstream in(reframe(image, payload.substr(0, cut)));
    StreamingDetector fresh(config(3600.0), [](const WindowVerdict&) {});
    EXPECT_THROW(fresh.restore_checkpoint(in), util::ParseError);
  }
}

TEST(CheckpointV4, EventSlotPastHostCountIsParseError) {
  const std::string image = small_image();
  std::string payload = payload_of(image);
  poke<std::uint32_t>(payload, kEvents + 16, 2);  // only slots 0 and 1 exist
  expect_restore_error(reframe(image, payload), "checkpoint: event slot past the host count");
}

TEST(CheckpointV4, DuplicateHostIsParseError) {
  const std::string image = small_image();
  std::string payload = payload_of(image);
  poke(payload, kHosts + 4, peek<std::uint32_t>(payload, kHosts));
  expect_restore_error(reframe(image, payload),
                       "checkpoint: duplicate host in accumulator section");
}

TEST(CheckpointV4, EventForShedHostIsParseError) {
  const std::string image = small_image();
  std::string payload = payload_of(image);
  poke<std::uint8_t>(payload, kShedFlags + 1, 1);  // host B shed, yet logged
  expect_restore_error(reframe(image, payload), "checkpoint: event buffered for a shed host");
}

TEST(CheckpointV4, CountsBeyondTheRemainingBytesAreParseErrors) {
  // Each count is checked against the bytes left before anything is sized
  // by it: a count one past what remains, and one whose byte size wraps.
  const std::string image = small_image();
  const std::string payload = payload_of(image);
  const std::uint64_t events_fit = (payload.size() - kEvents) / 16;
  for (const std::uint64_t events : {events_fit + 1, std::uint64_t{1} << 60}) {
    std::string bad = payload;
    poke(bad, kEventCount, events);
    expect_restore_error(reframe(image, bad), "checkpoint: truncated payload");
  }
  for (const std::uint64_t hosts : {std::uint64_t{1} << 20, std::uint64_t{1} << 31}) {
    std::string bad = payload;
    poke(bad, kHostCount, hosts);
    expect_restore_error(reframe(image, bad), "checkpoint: truncated payload");
  }
  std::string bad = payload;
  poke(bad, kHostCount, std::uint64_t{1} << 62);
  expect_restore_error(reframe(image, bad), "checkpoint: implausible host count");
  // The θ_hm cache section after the three events: signature count, then
  // (no signatures) the distance count.
  const std::size_t cache = kEvents + 3 * 16;
  for (const std::size_t count_at : {cache, cache + 8}) {
    std::string huge = payload;
    poke(huge, count_at, std::uint64_t{1} << 40);
    expect_restore_error(reframe(image, huge), "checkpoint: truncated payload");
  }
}

}  // namespace
}  // namespace tradeplot::detect

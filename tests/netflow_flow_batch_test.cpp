// Columnar flow batches: FlowBatch container semantics, batch decoding
// parity with record-at-a-time decoding (flows AND ingest accounting,
// across the FaultInjector corpus and every error policy), the binary v3
// column-block format, and the ingestion bugfix sweep (line-number
// accounting at the read-buffer boundary, end_time < start_time rejection).
#include "netflow/flow_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "detect/features.h"
#include "netflow/fault_injector.h"
#include "netflow/io.h"
#include "netflow/trace_reader.h"
#include "util/error.h"
#include "util/rng.h"

namespace tradeplot::netflow {
namespace {

TraceSet sample_trace(int flows = 200, std::uint64_t seed = 1, bool payloads = true) {
  util::Pcg32 rng(seed);
  TraceSet trace(0.0, 21600.0);
  trace.set_truth(simnet::Ipv4(128, 2, 0, 1), HostKind::kWebClient);
  trace.set_truth(simnet::Ipv4(128, 2, 0, 2), HostKind::kStorm);
  for (int i = 0; i < flows; ++i) {
    FlowRecord r;
    r.src = simnet::Ipv4(128, 2, 0, static_cast<std::uint8_t>(1 + (i % 8)));
    r.dst = simnet::Ipv4(static_cast<std::uint32_t>(rng.uniform_int(1 << 26, 1 << 28)));
    r.sport = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    r.dport = static_cast<std::uint16_t>(rng.uniform_int(1, 1023));
    r.proto = rng.chance(0.5) ? Protocol::kTcp : Protocol::kUdp;
    r.start_time = rng.uniform(0, 21000);
    r.end_time = r.start_time + rng.uniform(0, 60);
    r.pkts_src = static_cast<std::uint64_t>(rng.uniform_int(1, 100));
    r.pkts_dst = static_cast<std::uint64_t>(rng.uniform_int(0, 100));
    r.bytes_src = static_cast<std::uint64_t>(rng.uniform_int(0, 100000));
    r.bytes_dst = static_cast<std::uint64_t>(rng.uniform_int(0, 1000000));
    r.state = r.pkts_dst == 0 ? FlowState::kAttempted : FlowState::kEstablished;
    if (payloads && rng.chance(0.5))
      r.set_payload(std::string_view("\xe3\x01\x02" "batch\x00" "payload", 16));
    trace.add_flow(std::move(r));
  }
  return trace;
}

std::string csv_bytes(const TraceSet& trace) {
  std::stringstream buffer;
  write_csv(buffer, trace);
  return buffer.str();
}

std::string binary_bytes(const TraceSet& trace) {
  std::stringstream buffer;
  write_binary(buffer, trace);
  return buffer.str();
}

std::string columnar_bytes(const TraceSet& trace) {
  std::stringstream buffer;
  write_binary_columnar(buffer, trace);
  return buffer.str();
}

void expect_stats_equal(const IngestStats& a, const IngestStats& b) {
  EXPECT_EQ(a.records_ok, b.records_ok);
  EXPECT_EQ(a.records_quarantined, b.records_quarantined);
  EXPECT_EQ(a.resync_events, b.resync_events);
  EXPECT_EQ(a.lost_sync, b.lost_sync);
  EXPECT_EQ(a.first_error, b.first_error);
  EXPECT_EQ(a.first_error_record, b.first_error_record);
}

/// A full drain of one stream: the delivered flows, the final ingest stats,
/// and whether the drain threw (strict / exhausted stop-after budgets).
struct Drained {
  std::vector<FlowRecord> flows;
  IngestStats stats;
  bool threw = false;
  std::string error;
};

Drained drain_records(const std::string& bytes, const ErrorPolicy& policy) {
  std::stringstream in(bytes);
  TraceReader reader(in, policy);
  Drained d;
  FlowRecord rec;
  try {
    while (reader.next(rec)) d.flows.push_back(rec);
  } catch (const std::exception& e) {
    d.threw = true;
    d.error = e.what();
  }
  d.stats = reader.ingest_stats();
  return d;
}

Drained drain_batches(const std::string& bytes, const ErrorPolicy& policy,
                      std::size_t capacity = FlowBatch::kDefaultCapacity) {
  std::stringstream in(bytes);
  TraceReader reader(in, policy);
  Drained d;
  FlowBatch batch(capacity);
  try {
    while (reader.next_batch(batch) > 0)
      for (std::size_t i = 0; i < batch.size(); ++i) d.flows.push_back(batch.record(i));
  } catch (const std::exception& e) {
    // Rows staged before the thrown fault were decoded and counted by the
    // reader; a caller that wants them (see detect::feed) reads them out of
    // the partial batch.
    for (std::size_t i = 0; i < batch.size(); ++i) d.flows.push_back(batch.record(i));
    d.threw = true;
    d.error = e.what();
  }
  d.stats = reader.ingest_stats();
  return d;
}

void expect_drains_equal(const Drained& rec, const Drained& bat, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(rec.threw, bat.threw);
  EXPECT_EQ(rec.error, bat.error);
  ASSERT_EQ(rec.flows.size(), bat.flows.size());
  for (std::size_t i = 0; i < rec.flows.size(); ++i)
    ASSERT_EQ(rec.flows[i], bat.flows[i]) << "flow " << i;
  expect_stats_equal(rec.stats, bat.stats);
}

// ---------------------------------------------------------------------------
// FlowBatch container semantics.

TEST(FlowBatch, PushBackRoundTripsRecords) {
  const TraceSet trace = sample_trace(100, 17);
  FlowBatch batch;
  for (const FlowRecord& r : trace.flows()) batch.push_back(r);
  ASSERT_EQ(batch.size(), trace.flows().size());

  std::uint64_t bytes = 0, pkts = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const FlowRecord& want = trace.flows()[i];
    EXPECT_EQ(batch.record(i), want) << "row " << i;
    const FlowRecordView v = batch.row(i);
    EXPECT_EQ(v.src(), want.src);
    EXPECT_EQ(v.dst(), want.dst);
    EXPECT_EQ(v.sport(), want.sport);
    EXPECT_EQ(v.dport(), want.dport);
    EXPECT_EQ(v.proto(), want.proto);
    EXPECT_DOUBLE_EQ(v.start_time(), want.start_time);
    EXPECT_DOUBLE_EQ(v.end_time(), want.end_time);
    EXPECT_EQ(v.pkts_src(), want.pkts_src);
    EXPECT_EQ(v.pkts_dst(), want.pkts_dst);
    EXPECT_EQ(v.bytes_src(), want.bytes_src);
    EXPECT_EQ(v.bytes_dst(), want.bytes_dst);
    EXPECT_EQ(v.state(), want.state);
    EXPECT_EQ(v.payload_len(), want.payload_len);
    EXPECT_EQ(v.payload_view(), want.payload_view());
    EXPECT_EQ(v.failed(), want.failed());
    EXPECT_EQ(v.materialize(), want);
    bytes += want.bytes_src + want.bytes_dst;
    pkts += want.pkts_src + want.pkts_dst;
    failed += want.failed() ? 1 : 0;
  }
  // SIMD-backed reductions agree with the scalar walk exactly.
  EXPECT_EQ(batch.total_bytes(), bytes);
  EXPECT_EQ(batch.total_pkts(), pkts);
  EXPECT_EQ(batch.failed_count(), failed);
}

TEST(FlowBatch, CapacityIsASoftBound) {
  const TraceSet trace = sample_trace(10, 3);
  FlowBatch batch(4);
  for (const FlowRecord& r : trace.flows()) {
    if (batch.full()) break;
    batch.push_back(r);
  }
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_TRUE(batch.full());
  batch.push_back(trace.flows()[4]);  // grows past the soft capacity
  EXPECT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch.record(4), trace.flows()[4]);
}

TEST(FlowBatch, EraseRowsCompactsSurvivorsInOrder) {
  const TraceSet trace = sample_trace(10, 5);
  FlowBatch batch;
  for (const FlowRecord& r : trace.flows()) batch.push_back(r);
  batch.erase_rows({0, 3, 4, 9});
  ASSERT_EQ(batch.size(), 6u);
  const std::size_t kept[] = {1, 2, 5, 6, 7, 8};
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(batch.record(i), trace.flows()[kept[i]]) << "row " << i;
}

TEST(FlowBatch, ClearedPayloadSlotsDoNotLeakIntoReusedRows) {
  FlowRecord with_payload;
  with_payload.end_time = 1.0;
  with_payload.set_payload(std::string_view("\xff\xff\xff\xff\xff\xff\xff\xff", 8));
  FlowBatch batch;
  batch.push_back(with_payload);
  batch.clear();
  const std::size_t row = batch.append_default();
  const unsigned char* slot = batch.payload(row);
  for (std::size_t b = 0; b < kPayloadPrefixLen; ++b)
    ASSERT_EQ(slot[b], 0u) << "byte " << b;
}

TEST(FlowBatch, ReductionsMatchScalarOnLargeBatch) {
  // Large enough that the AVX2 main loops (8-wide u64, 32-wide u8) run many
  // iterations plus a ragged tail.
  const TraceSet trace = sample_trace(10007, 23);
  FlowBatch batch;
  for (const FlowRecord& r : trace.flows()) batch.push_back(r);
  std::uint64_t bytes = 0, pkts = 0;
  std::size_t failed = 0;
  for (const FlowRecord& r : trace.flows()) {
    bytes += r.bytes_src + r.bytes_dst;
    pkts += r.pkts_src + r.pkts_dst;
    failed += r.failed() ? 1 : 0;
  }
  EXPECT_EQ(batch.total_bytes(), bytes);
  EXPECT_EQ(batch.total_pkts(), pkts);
  EXPECT_EQ(batch.failed_count(), failed);
}

// ---------------------------------------------------------------------------
// next_batch parity with next() on clean input.

TEST(FlowBatchReader, CsvBatchDecodeEqualsRecordDecode) {
  const TraceSet trace = sample_trace(300, 7);
  const std::string csv = csv_bytes(trace);
  const Drained rec = drain_records(csv, ErrorPolicy::strict());
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3}, std::size_t{4096}}) {
    const Drained bat = drain_batches(csv, ErrorPolicy::strict(), capacity);
    expect_drains_equal(rec, bat, ("capacity " + std::to_string(capacity)).c_str());
  }
}

TEST(FlowBatchReader, BinaryBatchDecodeEqualsRecordDecode) {
  const TraceSet trace = sample_trace(300, 11);
  const std::string bin = binary_bytes(trace);
  const Drained rec = drain_records(bin, ErrorPolicy::strict());
  ASSERT_EQ(rec.flows.size(), trace.flows().size());
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    const Drained bat = drain_batches(bin, ErrorPolicy::strict(), capacity);
    expect_drains_equal(rec, bat, ("capacity " + std::to_string(capacity)).c_str());
  }
}

TEST(FlowBatchReader, LargeCsvSpanningManyReadBuffersDecodesIdentically) {
  // > 256 KiB of CSV (TraceReader::kBufferSize), so batch refills straddle
  // several buffer reloads.
  const TraceSet trace = sample_trace(4000, 13);
  const std::string csv = csv_bytes(trace);
  ASSERT_GT(csv.size(), TraceReader::kBufferSize);
  const Drained rec = drain_records(csv, ErrorPolicy::strict());
  const Drained bat = drain_batches(csv, ErrorPolicy::strict());
  expect_drains_equal(rec, bat, "large csv");
  ASSERT_EQ(bat.flows.size(), trace.flows().size());
}

// ---------------------------------------------------------------------------
// Property test: the FaultInjector corpus decodes field-for-field the same
// batch-at-a-time as record-at-a-time, under all three error policies.

TEST(FlowBatchReader, FaultCorpusDecodesIdenticallyUnderEveryPolicy) {
  for (const std::uint64_t seed : {3u, 5u, 7u, 11u}) {
    const TraceSet trace = sample_trace(250, seed);
    FaultInjectorConfig cfg;
    cfg.seed = seed * 31 + 1;
    cfg.fault_rate = 0.2;
    cfg.crlf_rate = 0.15;
    FaultReport report;
    const std::string corrupted = FaultInjector(cfg).corrupt_csv(csv_bytes(trace), report);
    ASSERT_GT(report.fault_count(), 3u);

    const ErrorPolicy policies[] = {
        ErrorPolicy::strict(),
        ErrorPolicy::skip(),
        ErrorPolicy::stop_after(report.fault_count() / 2),
        ErrorPolicy::stop_after(report.fault_count()),
    };
    for (const ErrorPolicy& policy : policies) {
      const Drained rec = drain_records(corrupted, policy);
      for (const std::size_t capacity : {std::size_t{1}, std::size_t{5}, std::size_t{4096}}) {
        const Drained bat = drain_batches(corrupted, policy, capacity);
        expect_drains_equal(
            rec, bat,
            ("seed " + std::to_string(seed) + " capacity " + std::to_string(capacity)).c_str());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Line-number accounting: faults on each side of the 256 KiB read-buffer
// boundary must be reported with their exact 1-based file line number, in
// both decode modes.

TEST(FlowBatchReader, LinenoExactAcrossReadBufferBoundary) {
  const TraceSet trace = sample_trace(4000, 19);
  std::string csv = csv_bytes(trace);
  ASSERT_GT(csv.size(), TraceReader::kBufferSize + (1 << 16));

  // Corrupt the first flow line starting after `offset` (length-preserving,
  // so every other line keeps its position). Returns its 1-based lineno.
  const auto corrupt_line_after = [&csv](std::size_t offset) {
    std::size_t pos = csv.find('\n', offset);
    EXPECT_NE(pos, std::string::npos);
    ++pos;  // start of the next line
    csv[pos] = 'X';  // "X28.2..." -> unparseable src address
    return static_cast<std::size_t>(1 + std::count(csv.begin(), csv.begin() + pos, '\n'));
  };
  const std::size_t lineno_before = corrupt_line_after(TraceReader::kBufferSize - 2000);
  const std::size_t lineno_after = corrupt_line_after(TraceReader::kBufferSize + 2000);
  ASSERT_LT(lineno_before, lineno_after);

  const Drained rec = drain_records(csv, ErrorPolicy::skip());
  const Drained bat = drain_batches(csv, ErrorPolicy::skip());
  expect_drains_equal(rec, bat, "boundary faults");

  EXPECT_EQ(bat.stats.records_quarantined, 2u);
  EXPECT_EQ(bat.stats.records_ok, trace.flows().size() - 2);
  // The diagnostic carries the true file line number, not a count that
  // drifted at a buffer reload.
  EXPECT_EQ(bat.stats.first_error_record, lineno_before);
  const std::string want_lineno = "line " + std::to_string(lineno_before) + ":";
  EXPECT_NE(bat.stats.first_error.find(want_lineno), std::string::npos)
      << bat.stats.first_error;

  // The second fault's lineno is exact too: drain a copy with only the
  // post-boundary corruption.
  std::string csv2 = csv_bytes(trace);
  std::size_t pos = csv2.find('\n', TraceReader::kBufferSize + 2000);
  ++pos;
  csv2[pos] = 'X';
  const Drained bat2 = drain_batches(csv2, ErrorPolicy::skip());
  EXPECT_EQ(bat2.stats.records_quarantined, 1u);
  EXPECT_EQ(bat2.stats.first_error_record, lineno_after);
}

// ---------------------------------------------------------------------------
// end_time < start_time rejection (CSV and binary).

TEST(FlowBatchReader, CsvEndBeforeStartIsRejectedWithPinnedMessage) {
  TraceSet trace = sample_trace(5, 29, /*payloads=*/false);
  {
    FlowRecord bad = trace.flows()[2];
    bad.start_time = 100.0;
    bad.end_time = 99.0;
    TraceSet rebuilt(trace.window_start(), trace.window_end());
    for (const auto& [ip, kind] : trace.truth()) rebuilt.set_truth(ip, kind);
    for (std::size_t i = 0; i < trace.flows().size(); ++i)
      rebuilt.add_flow(i == 2 ? bad : trace.flows()[i]);
    trace = std::move(rebuilt);
  }
  const std::string csv = csv_bytes(trace);
  // Header block: #window + 2 #truth + column header = 4 lines; flow 2 is
  // on line 4 + 3 = 7.
  const std::size_t bad_lineno = 7;

  const Drained strict = drain_records(csv, ErrorPolicy::strict());
  EXPECT_TRUE(strict.threw);
  EXPECT_NE(strict.error.find("end_time precedes start_time"), std::string::npos)
      << strict.error;
  EXPECT_NE(strict.error.find("line " + std::to_string(bad_lineno)), std::string::npos)
      << strict.error;

  const Drained skip = drain_records(csv, ErrorPolicy::skip());
  EXPECT_EQ(skip.stats.records_quarantined, 1u);
  EXPECT_EQ(skip.stats.records_ok, 4u);
  EXPECT_EQ(skip.stats.first_error_record, bad_lineno);
  const Drained skip_batch = drain_batches(csv, ErrorPolicy::skip());
  expect_drains_equal(skip, skip_batch, "skip policy");
}

TEST(FlowBatchReader, BinaryEndBeforeStartIsQuarantinedInPlace) {
  const TraceSet trace = sample_trace(20, 31, /*payloads=*/false);
  std::string bytes = binary_bytes(trace);
  // Payload-free v1 records are 63 bytes; with 2 truth entries the first
  // record starts at byte 50. end_time sits at offset +21 within a record.
  const std::size_t first_record = 4 + 4 + 8 + 8 + 8 + 2 * 5 + 8;
  const std::size_t record_index = 6;
  const double bad_end = trace.flows()[record_index].start_time - 1.0;
  std::memcpy(bytes.data() + first_record + record_index * 63 + 21, &bad_end, sizeof(bad_end));

  const Drained skip = drain_records(bytes, ErrorPolicy::skip());
  EXPECT_EQ(skip.stats.records_quarantined, 1u);
  EXPECT_FALSE(skip.stats.lost_sync);  // framing survives a value fault
  EXPECT_NE(skip.stats.first_error.find("end_time precedes start_time"), std::string::npos)
      << skip.stats.first_error;
  ASSERT_EQ(skip.flows.size(), trace.flows().size() - 1);
  const Drained skip_batch = drain_batches(bytes, ErrorPolicy::skip());
  expect_drains_equal(skip, skip_batch, "binary skip policy");

  const Drained strict = drain_records(bytes, ErrorPolicy::strict());
  EXPECT_TRUE(strict.threw);
  EXPECT_EQ(strict.flows.size(), record_index);  // delivered up to the fault
}

// ---------------------------------------------------------------------------
// next(), next_batch() and skip_flows() mixed on one reader, per format.

enum class Encoding { kCsv, kV1, kV3 };

class MixedReadModesTest : public ::testing::TestWithParam<Encoding> {
 protected:
  static std::string encode(const TraceSet& trace) {
    switch (GetParam()) {
      case Encoding::kCsv: return csv_bytes(trace);
      case Encoding::kV1: return binary_bytes(trace);
      case Encoding::kV3: return columnar_bytes(trace);
    }
    return {};
  }
};

TEST_P(MixedReadModesTest, EveryRecordIsDeliveredOnceInOrder) {
  // More than one default batch, so the cuts below straddle cursor refills
  // (and, for v3, a column-block boundary) at offsets no batch aligns to.
  const TraceSet trace = sample_trace(5000, 41);
  std::stringstream in(encode(trace));
  TraceReader reader(in);

  std::vector<FlowRecord> got;
  std::size_t skipped_before = 0;  // rows skipped ahead of got.size()
  std::vector<std::size_t> index;  // trace index of each row in got
  FlowRecord rec;
  const auto pull = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(reader.next(rec));
      index.push_back(skipped_before + got.size());
      got.push_back(rec);
    }
  };
  const auto batch = [&](std::size_t capacity) {
    FlowBatch b(capacity);
    const std::size_t n = reader.next_batch(b);
    for (std::size_t i = 0; i < n; ++i) {
      index.push_back(skipped_before + got.size());
      got.push_back(b.record(i));
    }
    return n;
  };

  pull(3);
  EXPECT_EQ(reader.skip_flows(4100), 4100u);  // past the first refill
  skipped_before += 4100;
  EXPECT_EQ(reader.flows_read(), 4103u);
  pull(2);
  EXPECT_EQ(batch(7), 7u);  // unserved cursor rows, capped at the capacity
  EXPECT_EQ(reader.skip_flows(11), 11u);
  skipped_before += 11;
  while (batch(FlowBatch::kDefaultCapacity) > 0) {
  }
  EXPECT_FALSE(reader.next(rec));  // fully drained
  EXPECT_EQ(reader.skip_flows(1), 0u);

  EXPECT_EQ(reader.flows_read(), trace.flows().size());
  EXPECT_EQ(reader.ingest_stats().records_ok, trace.flows().size());
  ASSERT_EQ(got.size() + skipped_before, trace.flows().size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], trace.flows()[index[i]]) << "row " << i;
}

INSTANTIATE_TEST_SUITE_P(Formats, MixedReadModesTest,
                         ::testing::Values(Encoding::kCsv, Encoding::kV1, Encoding::kV3),
                         [](const ::testing::TestParamInfo<Encoding>& info) {
                           switch (info.param) {
                             case Encoding::kCsv: return std::string("csv");
                             case Encoding::kV1: return std::string("v1");
                             case Encoding::kV3: return std::string("v3");
                           }
                           return std::string();
                         });

// ---------------------------------------------------------------------------
// Binary v3 (columnar blocks).

TEST(FlowBatchV3, RoundTripMatchesV1) {
  const TraceSet trace = sample_trace(300, 37);
  const std::string v1 = binary_bytes(trace);
  const std::string v3 = columnar_bytes(trace);

  // read_all sniffs the version and reproduces the identical TraceSet.
  std::stringstream in(v3);
  TraceReader reader(in);
  const TraceSet decoded = reader.read_all();
  EXPECT_EQ(decoded.flows(), trace.flows());
  EXPECT_EQ(decoded.window_start(), trace.window_start());
  EXPECT_EQ(decoded.window_end(), trace.window_end());
  EXPECT_EQ(decoded.truth().size(), trace.truth().size());

  // Both decode modes, both versions: identical flows and stats.
  const Drained v1_rec = drain_records(v1, ErrorPolicy::strict());
  const Drained v3_rec = drain_records(v3, ErrorPolicy::strict());
  const Drained v3_bat = drain_batches(v3, ErrorPolicy::strict());
  expect_drains_equal(v1_rec, v3_rec, "v3 record drain");
  expect_drains_equal(v1_rec, v3_bat, "v3 batch drain");
}

TEST(FlowBatchV3, MixedNextAndNextBatchDeliversEachRecordOnce) {
  const TraceSet trace = sample_trace(50, 41);
  std::stringstream in(columnar_bytes(trace));
  TraceReader reader(in);

  std::vector<FlowRecord> got;
  FlowRecord rec;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(reader.next(rec));
    got.push_back(rec);
  }
  FlowBatch batch;
  while (reader.next_batch(batch) > 0)
    for (std::size_t i = 0; i < batch.size(); ++i) got.push_back(batch.record(i));
  EXPECT_FALSE(reader.next(rec));  // fully drained

  ASSERT_EQ(got.size(), trace.flows().size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], trace.flows()[i]) << "flow " << i;
}

// v3 block layout with 2 truth entries and a single block of n rows:
// preamble is 50 bytes, the u32 row count is at [50, 54), and the columns
// start at 54 in writer order (src, dst, sport, dport, proto, start, end,
// pkts_src, pkts_dst, bytes_src, bytes_dst, state, payload_len, payload).
constexpr std::size_t kV3Columns = 54;

TEST(FlowBatchV3, BadEnumByteQuarantinesOnlyThatRow) {
  const TraceSet trace = sample_trace(20, 43, /*payloads=*/false);
  std::string bytes = columnar_bytes(trace);
  const std::size_t n = trace.flows().size();
  bytes[kV3Columns + n * 12 + 5] = static_cast<char>(0xFF);  // proto of row 5

  const Drained skip = drain_batches(bytes, ErrorPolicy::skip());
  EXPECT_EQ(skip.stats.records_quarantined, 1u);
  EXPECT_FALSE(skip.stats.lost_sync);  // fixed stride: framing intact
  EXPECT_EQ(skip.stats.first_error_record, 6u);  // 1-based record ordinal
  ASSERT_EQ(skip.flows.size(), n - 1);
  for (std::size_t i = 0; i < skip.flows.size(); ++i)
    EXPECT_EQ(skip.flows[i], trace.flows()[i < 5 ? i : i + 1]) << "flow " << i;

  expect_drains_equal(drain_records(bytes, ErrorPolicy::skip()), skip, "record-mode parity");
}

TEST(FlowBatchV3, BadPayloadLenQuarantinesOnlyThatRow) {
  // Unlike v1 (where payload bytes follow the length inline, so a bad length
  // desynchronizes the stream), v3 payload slots have a fixed stride: a bad
  // length quarantines the row and the rest of the block decodes intact.
  const TraceSet trace = sample_trace(20, 47, /*payloads=*/false);
  std::string bytes = columnar_bytes(trace);
  const std::size_t n = trace.flows().size();
  bytes[kV3Columns + n * 62 + 7] = static_cast<char>(0xC8);  // payload_len of row 7 = 200

  const Drained skip = drain_batches(bytes, ErrorPolicy::skip());
  EXPECT_EQ(skip.stats.records_quarantined, 1u);
  EXPECT_FALSE(skip.stats.lost_sync);
  ASSERT_EQ(skip.flows.size(), n - 1);
  for (std::size_t i = 0; i < skip.flows.size(); ++i)
    EXPECT_EQ(skip.flows[i], trace.flows()[i < 7 ? i : i + 1]) << "flow " << i;
}

TEST(FlowBatchV3, StrictValueFaultDiscardsTheWholeBlock) {
  // v3 is block-granular under a thrown fault: rows decoded before the bad
  // row are discarded with it, so a strict reader never delivers a partial
  // block (the stream is unusable from the first fault on anyway).
  const TraceSet trace = sample_trace(20, 53, /*payloads=*/false);
  std::string bytes = columnar_bytes(trace);
  const std::size_t n = trace.flows().size();
  bytes[kV3Columns + n * 12 + 5] = static_cast<char>(0xFF);  // proto of row 5

  const Drained strict = drain_batches(bytes, ErrorPolicy::strict());
  EXPECT_TRUE(strict.threw);
  EXPECT_TRUE(strict.flows.empty());
  expect_drains_equal(drain_records(bytes, ErrorPolicy::strict()), strict, "record parity");
}

TEST(FlowBatchV3, BadBlockSizeLosesSync) {
  const TraceSet trace = sample_trace(20, 59, /*payloads=*/false);
  std::string bytes = columnar_bytes(trace);
  const std::uint32_t huge = 1u << 30;
  std::memcpy(bytes.data() + 50, &huge, sizeof(huge));

  const Drained skip = drain_batches(bytes, ErrorPolicy::skip());
  EXPECT_TRUE(skip.stats.lost_sync);
  EXPECT_EQ(skip.stats.records_quarantined, 1u);
  EXPECT_TRUE(skip.flows.empty());
  EXPECT_NE(skip.stats.first_error.find("bad block size"), std::string::npos)
      << skip.stats.first_error;

  const Drained strict = drain_batches(bytes, ErrorPolicy::strict());
  EXPECT_TRUE(strict.threw);
}

TEST(FlowBatchV3, BlockLargerThanTheWriterBlockIsRejected) {
  // A well-formed single block of kDefaultCapacity + 1 rows. The writer never
  // emits one, and the row count is checked before anything is allocated
  // from it, so a tiny frame cannot ask for billions of rows.
  const TraceSet trace =
      sample_trace(static_cast<int>(FlowBatch::kDefaultCapacity) + 1, 73, /*payloads=*/false);
  FlowBatch cols(trace.flows().size());
  for (const FlowRecord& r : trace.flows()) cols.push_back(r);
  const std::size_t n = cols.size();
  std::string bytes;
  const auto put = [&bytes](const void* p, std::size_t len) {
    bytes.append(static_cast<const char*>(p), len);
  };
  const std::uint32_t magic = 0x54504654, version = 3, rows = static_cast<std::uint32_t>(n);
  const double window[2] = {trace.window_start(), trace.window_end()};
  const std::uint64_t truth_count = 0, flow_count = n;
  put(&magic, 4);
  put(&version, 4);
  put(window, sizeof(window));
  put(&truth_count, 8);
  put(&flow_count, 8);
  put(&rows, 4);
  put(cols.src(), n * 4);
  put(cols.dst(), n * 4);
  put(cols.sport(), n * 2);
  put(cols.dport(), n * 2);
  put(cols.proto(), n);
  put(cols.start_time(), n * 8);
  put(cols.end_time(), n * 8);
  put(cols.pkts_src(), n * 8);
  put(cols.pkts_dst(), n * 8);
  put(cols.bytes_src(), n * 8);
  put(cols.bytes_dst(), n * 8);
  put(cols.state(), n);
  put(cols.payload_len(), n);
  put(cols.payload(0), n * kPayloadPrefixLen);

  const Drained strict = drain_batches(bytes, ErrorPolicy::strict());
  EXPECT_TRUE(strict.threw);
  EXPECT_NE(strict.error.find("bad block size"), std::string::npos) << strict.error;
  EXPECT_TRUE(strict.flows.empty());

  const Drained skip = drain_batches(bytes, ErrorPolicy::skip());
  EXPECT_TRUE(skip.stats.lost_sync);
  EXPECT_EQ(skip.stats.records_quarantined, 1u);
  EXPECT_TRUE(skip.flows.empty());
}

TEST(FlowBatchV3, TruncatedColumnLosesSync) {
  const TraceSet trace = sample_trace(20, 61, /*payloads=*/false);
  const std::string whole = columnar_bytes(trace);
  const std::string truncated = whole.substr(0, kV3Columns + 100);  // mid-column

  const Drained skip = drain_batches(truncated, ErrorPolicy::skip());
  EXPECT_TRUE(skip.stats.lost_sync);
  EXPECT_EQ(skip.stats.records_quarantined, 1u);
  EXPECT_TRUE(skip.flows.empty());

  const Drained strict = drain_batches(truncated, ErrorPolicy::strict());
  EXPECT_TRUE(strict.threw);
}

TEST(FlowBatchV3, FullyQuarantinedBlockIsNotEndOfStream) {
  // Corrupt every row of the (single) block except none — i.e. all rows —
  // then append a second block by writing a two-block trace: the reader
  // must skip the dead block and deliver the next one.
  const TraceSet trace = sample_trace(20, 67, /*payloads=*/false);
  // Build a two-block stream by hand: write two single-block traces and
  // splice the second trace's block after the first, fixing the flow count.
  std::string a = columnar_bytes(trace);
  const std::string b = columnar_bytes(trace);
  const std::string second_block = b.substr(50);
  a += second_block;
  const std::uint64_t total = 2 * trace.flows().size();
  std::memcpy(a.data() + 42, &total, sizeof(total));  // flow_count in the preamble
  // Kill every row of block one via its proto column.
  const std::size_t n = trace.flows().size();
  for (std::size_t i = 0; i < n; ++i) a[kV3Columns + n * 12 + i] = static_cast<char>(0xFF);

  const Drained skip = drain_batches(a, ErrorPolicy::skip());
  EXPECT_EQ(skip.stats.records_quarantined, n);
  EXPECT_EQ(skip.stats.resync_events, 1u);  // one maximal bad run
  ASSERT_EQ(skip.flows.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(skip.flows[i], trace.flows()[i]) << "flow " << i;

  expect_drains_equal(drain_records(a, ErrorPolicy::skip()), skip, "record parity");
}

// ---------------------------------------------------------------------------
// Columnar feature extraction matches the AoS extractor.

TEST(FlowBatchFeatures, BatchAndReaderExtractorsMatchAoS) {
  const TraceSet trace = sample_trace(500, 71);
  detect::FeatureExtractorConfig fx;
  fx.is_internal = detect::default_internal_predicate;
  const detect::FeatureMap want = detect::extract_features(trace, fx);

  std::vector<FlowBatch> batches;
  batches.emplace_back(64);
  for (const FlowRecord& r : trace.flows()) {
    if (batches.back().full()) batches.emplace_back(64);
    batches.back().push_back(r);
  }
  const detect::FeatureMap from_batches = detect::extract_features(batches, fx);

  std::stringstream in(columnar_bytes(trace));
  TraceReader reader(in);
  const detect::FeatureMap from_reader = detect::extract_features(reader, fx);

  const auto expect_equal = [&](const detect::FeatureMap& got, const char* what) {
    SCOPED_TRACE(what);
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [host, fw] : want) {
      ASSERT_TRUE(got.contains(host)) << host.to_string();
      const detect::HostFeatures& fg = got.at(host);
      EXPECT_EQ(fg.flows_initiated, fw.flows_initiated);
      EXPECT_EQ(fg.flows_failed, fw.flows_failed);
      EXPECT_EQ(fg.flows_received, fw.flows_received);
      EXPECT_EQ(fg.bytes_sent_initiated, fw.bytes_sent_initiated);
      EXPECT_EQ(fg.bytes_sent_received, fw.bytes_sent_received);
      EXPECT_EQ(fg.distinct_dsts, fw.distinct_dsts);
      EXPECT_EQ(fg.dsts_after_first_hour, fw.dsts_after_first_hour);
      EXPECT_DOUBLE_EQ(fg.first_activity, fw.first_activity);
      std::vector<double> ga = fg.interstitials, gb = fw.interstitials;
      std::sort(ga.begin(), ga.end());
      std::sort(gb.begin(), gb.end());
      EXPECT_EQ(ga, gb) << host.to_string();
    }
  };
  expect_equal(from_batches, "span overload");
  expect_equal(from_reader, "reader overload");
}

}  // namespace
}  // namespace tradeplot::netflow

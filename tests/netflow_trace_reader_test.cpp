#include "netflow/trace_reader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "netflow/io.h"
#include "util/error.h"
#include "util/rng.h"

namespace tradeplot::netflow {
namespace {

TraceSet sample_trace(int flows = 50, std::uint64_t seed = 1) {
  util::Pcg32 rng(seed);
  TraceSet trace(0.0, 21600.0);
  trace.set_truth(simnet::Ipv4(128, 2, 0, 1), HostKind::kWebClient);
  trace.set_truth(simnet::Ipv4(128, 2, 0, 2), HostKind::kStorm);
  for (int i = 0; i < flows; ++i) {
    FlowRecord r;
    r.src = simnet::Ipv4(128, 2, 0, static_cast<std::uint8_t>(1 + (i % 2)));
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
    if (rng.chance(0.5))
      r.set_payload(std::string_view("\xe3\x01\x02" "stream\x00" "payload", 17));
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

void expect_equal(const TraceSet& a, const TraceSet& b) {
  EXPECT_DOUBLE_EQ(a.window_start(), b.window_start());
  EXPECT_DOUBLE_EQ(a.window_end(), b.window_end());
  ASSERT_EQ(a.flows().size(), b.flows().size());
  for (std::size_t i = 0; i < a.flows().size(); ++i) {
    EXPECT_EQ(a.flows()[i], b.flows()[i]) << "flow " << i;
  }
  EXPECT_EQ(a.truth().size(), b.truth().size());
  for (const auto& [ip, kind] : a.truth()) EXPECT_EQ(b.kind_of(ip), kind);
}

TEST(TraceFormatName, RoundTrips) {
  EXPECT_EQ(to_string(TraceFormat::kCsv), "csv");
  EXPECT_EQ(to_string(TraceFormat::kBinary), "binary");
}

TEST(TraceReader, StreamingCsvMatchesBatchReader) {
  const TraceSet trace = sample_trace();
  std::stringstream in(csv_bytes(trace));
  TraceReader reader(in, TraceFormat::kCsv);
  EXPECT_EQ(reader.format(), TraceFormat::kCsv);
  std::size_t i = 0;
  FlowRecord r;
  while (reader.next(r)) {
    ASSERT_LT(i, trace.flows().size());
    EXPECT_EQ(r, trace.flows()[i]) << "flow " << i;
    ++i;
  }
  EXPECT_EQ(i, trace.flows().size());
  EXPECT_EQ(reader.flows_read(), trace.flows().size());
  EXPECT_DOUBLE_EQ(reader.window_start(), trace.window_start());
  EXPECT_DOUBLE_EQ(reader.window_end(), trace.window_end());
  EXPECT_EQ(reader.truth().size(), trace.truth().size());
}

TEST(TraceReader, StreamingBinaryMatchesBatchReader) {
  const TraceSet trace = sample_trace(120, 9);
  std::stringstream in(binary_bytes(trace));
  TraceReader reader(in, TraceFormat::kBinary);
  EXPECT_EQ(reader.format(), TraceFormat::kBinary);
  EXPECT_EQ(reader.declared_flow_count(), trace.flows().size());
  // Binary preambles carry the window and the full truth map up front.
  EXPECT_DOUBLE_EQ(reader.window_start(), trace.window_start());
  EXPECT_DOUBLE_EQ(reader.window_end(), trace.window_end());
  EXPECT_EQ(reader.truth().size(), trace.truth().size());
  std::size_t i = 0;
  FlowRecord r;
  while (reader.next(r)) {
    ASSERT_LT(i, trace.flows().size());
    EXPECT_EQ(r, trace.flows()[i]) << "flow " << i;
    ++i;
  }
  EXPECT_EQ(i, trace.flows().size());
}

TEST(TraceReader, AutoDetectsBothFormats) {
  const TraceSet trace = sample_trace(10, 3);
  std::stringstream csv(csv_bytes(trace));
  EXPECT_EQ(TraceReader(csv).format(), TraceFormat::kCsv);
  std::stringstream bin(binary_bytes(trace));
  EXPECT_EQ(TraceReader(bin).format(), TraceFormat::kBinary);
}

TEST(TraceReader, NextKeepsReturningFalseAfterEnd) {
  const TraceSet trace = sample_trace(3, 2);
  std::stringstream in(csv_bytes(trace));
  TraceReader reader(in);
  FlowRecord r;
  while (reader.next(r)) {
  }
  EXPECT_FALSE(reader.next(r));
  EXPECT_FALSE(reader.next(r));
  EXPECT_EQ(reader.flows_read(), 3u);
}

TEST(TraceReader, ReadAllMatchesBatchReaders) {
  const TraceSet trace = sample_trace(80, 4);
  std::stringstream csv(csv_bytes(trace));
  expect_equal(trace, TraceReader(csv).read_all());
  std::stringstream bin(binary_bytes(trace));
  expect_equal(trace, TraceReader(bin).read_all());
}

TEST(TraceReader, ReadAllAfterPartialStreamYieldsRemainder) {
  const TraceSet trace = sample_trace(20, 6);
  std::stringstream in(csv_bytes(trace));
  TraceReader reader(in);
  FlowRecord r;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(reader.next(r));
  const TraceSet rest = reader.read_all();
  ASSERT_EQ(rest.flows().size(), trace.flows().size() - 5);
  for (std::size_t i = 0; i < rest.flows().size(); ++i) {
    EXPECT_EQ(rest.flows()[i], trace.flows()[i + 5]) << "flow " << i;
  }
  EXPECT_EQ(reader.flows_read(), trace.flows().size());
}

TEST(TraceReader, TruthCommentsMidStreamAreApplied) {
  std::string text =
      "#window,0,100\n"
      "src,dst,sport,dport,proto,start,end,pkts_src,pkts_dst,bytes_src,bytes_dst,state,payload\n"
      "1.2.3.4,5.6.7.8,1,2,tcp,0,1,1,1,1,1,est,\n"
      "#truth,1.2.3.4,storm\n"
      "9.8.7.6,5.6.7.8,1,2,udp,2,3,1,1,1,1,est,\n";
  std::stringstream in(text);
  TraceReader reader(in);
  EXPECT_TRUE(reader.truth().empty());  // the preamble carries no truth
  // Truth is applied at batch granularity: the first pull decodes the batch
  // that holds the "#truth" line, so the entry is present before flow 2 is
  // served.
  FlowRecord r;
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(reader.truth().size(), 1u);
  EXPECT_EQ(reader.truth().at(simnet::Ipv4(1, 2, 3, 4)), HostKind::kStorm);
  ASSERT_TRUE(reader.next(r));
  EXPECT_FALSE(reader.next(r));
}

TEST(TraceReader, MalformedLineMidStreamThrowsOnNext) {
  std::string text =
      "src,dst,sport,dport,proto,start,end,pkts_src,pkts_dst,bytes_src,bytes_dst,state,payload\n"
      "1.2.3.4,5.6.7.8,1,2,tcp,0,1,1,1,1,1,est,\n"
      "not,a,flow\n";
  std::stringstream in(text);
  TraceReader reader(in);
  FlowRecord r;
  ASSERT_TRUE(reader.next(r));  // the good line still streams out
  EXPECT_THROW((void)reader.next(r), util::ParseError);

  // Binary v1: a bad protocol byte in the second record. Payload-free
  // records are 63 bytes; with no truth entries the first starts at byte 40
  // and its proto byte sits at offset +12.
  const TraceSet trace = sample_trace(2, 5);
  TraceSet bare(trace.window_start(), trace.window_end());
  for (FlowRecord f : trace.flows()) {
    f.payload = {};
    f.payload_len = 0;
    bare.add_flow(f);
  }
  std::string bytes = binary_bytes(bare);
  const std::size_t first_record = 4 + 4 + 8 + 8 + 8 + 8;
  ASSERT_EQ(bytes.size(), first_record + 2 * 63);
  bytes[first_record + 63 + 12] = static_cast<char>(0xFF);
  std::stringstream bin(bytes);
  TraceReader bin_reader(bin);
  ASSERT_TRUE(bin_reader.next(r));  // the good record still streams out
  EXPECT_EQ(r, bare.flows()[0]);
  EXPECT_THROW((void)bin_reader.next(r), util::ParseError);
}

TEST(TraceReader, FileConstructorAutoDetects) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string csv_path = (dir / "tp_reader_test.csv").string();
  const std::string bin_path = (dir / "tp_reader_test.bin").string();
  const TraceSet trace = sample_trace(30, 8);
  write_csv_file(csv_path, trace);
  write_binary_file(bin_path, trace);
  {
    TraceReader reader(csv_path);
    EXPECT_EQ(reader.format(), TraceFormat::kCsv);
    expect_equal(trace, reader.read_all());
  }
  {
    TraceReader reader(bin_path);
    EXPECT_EQ(reader.format(), TraceFormat::kBinary);
    expect_equal(trace, reader.read_all());
  }
  std::remove(csv_path.c_str());
  std::remove(bin_path.c_str());
  EXPECT_THROW(TraceReader("/nonexistent/path/x.csv"), util::IoError);
}

TEST(TraceReader, ForcedFormatMismatchFails) {
  const TraceSet trace = sample_trace(5, 1);
  // Binary bytes forced through the CSV parser: the magic is not a header.
  std::stringstream bin(binary_bytes(trace));
  EXPECT_THROW(TraceReader(bin, TraceFormat::kCsv), util::ParseError);
  // CSV bytes forced through the binary parser: no magic.
  std::stringstream csv(csv_bytes(trace));
  EXPECT_THROW(TraceReader(csv, TraceFormat::kBinary), util::ParseError);
}

TEST(TraceReader, BoundedBufferHandlesManyFlows) {
  // More CSV bytes than kBufferSize, pulled one flow at a time: exercises
  // block refills and the buffer-compaction path.
  const TraceSet trace = sample_trace(5000, 13);
  const std::string text = csv_bytes(trace);
  ASSERT_GT(text.size(), TraceReader::kBufferSize);
  std::stringstream in(text);
  TraceReader reader(in);
  std::size_t i = 0;
  FlowRecord r;
  while (reader.next(r)) {
    ASSERT_EQ(r, trace.flows()[i]);
    ++i;
  }
  EXPECT_EQ(i, trace.flows().size());
}

}  // namespace
}  // namespace tradeplot::netflow

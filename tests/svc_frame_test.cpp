// Tests for the TPMF frame codec (src/svc/frame.h): encode/decode
// round-trips, incremental delivery, and the ErrorPolicy-style resync
// accounting for garbage between frames.
#include "svc/frame.h"

#include <gtest/gtest.h>

#include <string>

#include "netflow/io.h"
#include "netflow/trace_reader.h"
#include "netflow/trace_set.h"

namespace tradeplot::svc {
namespace {

Frame decode_one(const std::vector<char>& wire) {
  FrameParser parser;
  parser.append(wire.data(), wire.size());
  Frame out;
  EXPECT_TRUE(parser.next(out));
  return out;
}

TEST(Frame, RoundTripsTypeAndPayload) {
  const Frame f = decode_one(encode_frame(FrameType::kHello, "campus-a"));
  EXPECT_EQ(f.type, FrameType::kHello);
  EXPECT_EQ(f.payload_view(), "campus-a");
}

TEST(Frame, EmptyPayloadRoundTrips) {
  const Frame f = decode_one(encode_frame(FrameType::kFlush, ""));
  EXPECT_EQ(f.type, FrameType::kFlush);
  EXPECT_TRUE(f.payload.empty());
}

TEST(Frame, U64HelpersRoundTrip) {
  std::vector<char> buf;
  append_u64(buf, 0xDEADBEEFCAFE1234ull);
  append_u64(buf, 7);
  ASSERT_EQ(buf.size(), 16u);
  EXPECT_EQ(read_u64(buf.data()), 0xDEADBEEFCAFE1234ull);
  EXPECT_EQ(read_u64(buf.data() + 8), 7u);
}

TEST(FrameParser, DeliversFramesFedOneByteAtATime) {
  std::vector<char> wire = encode_frame(FrameType::kHello, "t");
  const std::vector<char> second = encode_frame(FrameType::kFlows, std::string(1000, 'x'));
  wire.insert(wire.end(), second.begin(), second.end());

  FrameParser parser;
  Frame out;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    parser.append(&wire[i], 1);
    while (parser.next(out)) {
      ++delivered;
      if (delivered == 1) EXPECT_EQ(out.type, FrameType::kHello);
      if (delivered == 2) {
        EXPECT_EQ(out.type, FrameType::kFlows);
        EXPECT_EQ(out.payload.size(), 1000u);
      }
    }
  }
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(parser.stats().frames_ok, 2u);
  EXPECT_EQ(parser.stats().frames_bad, 0u);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, ResyncsPastLeadingGarbageWithAccounting) {
  std::vector<char> wire(100, '\x5a');  // garbage burst (no magic bytes)
  const std::vector<char> good = encode_frame(FrameType::kBye, "");
  wire.insert(wire.end(), good.begin(), good.end());

  FrameParser parser;
  parser.append(wire.data(), wire.size());
  Frame out;
  ASSERT_TRUE(parser.next(out));
  EXPECT_EQ(out.type, FrameType::kBye);
  EXPECT_EQ(parser.stats().bytes_skipped, 100u);
  EXPECT_EQ(parser.stats().resync_events, 1u);  // one contiguous burst
  EXPECT_EQ(parser.stats().frames_ok, 1u);
}

TEST(FrameParser, CrcMismatchSkipsFrameAndRecovers) {
  // A short payload takes the CRC's bytewise loop; a ~600 KB one the folded
  // kernel, with the flipped bit in the middle of it. Lowercase letters only,
  // so the resync scan finds no stray "TPMF" inside the bad payload.
  std::string large(600 * 1000, '\0');
  for (std::size_t i = 0; i < large.size(); ++i) large[i] = static_cast<char>('a' + i * 7 % 26);
  for (const std::string& payload : {std::string("payload-bytes"), large}) {
    SCOPED_TRACE("payload of " + std::to_string(payload.size()) + " bytes");
    std::vector<char> bad = encode_frame(FrameType::kFlows, payload);
    // Corrupt the payload after the CRC was stamped.
    bad[kFrameHeaderSize + (payload.size() > 64 ? payload.size() / 2 : 3)] ^= 0x40;
    const std::vector<char> good = encode_frame(FrameType::kHello, "t");
    bad.insert(bad.end(), good.begin(), good.end());

    FrameParser parser;
    parser.append(bad.data(), bad.size());
    Frame out;
    ASSERT_TRUE(parser.next(out));
    EXPECT_EQ(out.type, FrameType::kHello);  // the corrupt frame was dropped
    EXPECT_EQ(out.payload_view(), "t");
    EXPECT_GE(parser.stats().frames_bad, 1u);
    EXPECT_GE(parser.stats().bytes_skipped, 1u);
    EXPECT_FALSE(parser.next(out));
  }
}

TEST(FrameParser, ImplausibleHeaderIsNotTrusted) {
  // A magic followed by an oversized length must not make the parser wait
  // for 4 GiB that will never arrive; it treats the match as coincidence.
  std::vector<char> wire = {'T', 'P', 'M', 'F', 3, '\xff', '\xff', '\xff', '\xff',
                            0,   0,   0,   0};
  const std::vector<char> good = encode_frame(FrameType::kBye, "");
  wire.insert(wire.end(), good.begin(), good.end());

  FrameParser parser;
  parser.append(wire.data(), wire.size());
  Frame out;
  ASSERT_TRUE(parser.next(out));
  EXPECT_EQ(out.type, FrameType::kBye);
  EXPECT_GE(parser.stats().frames_bad, 1u);
}

TEST(FrameParser, TruncatedFrameWaitsForMoreBytes) {
  const std::vector<char> wire = encode_frame(FrameType::kFlows, std::string(64, 'p'));
  FrameParser parser;
  parser.append(wire.data(), wire.size() - 10);
  Frame out;
  EXPECT_FALSE(parser.next(out));
  EXPECT_EQ(parser.stats().frames_bad, 0u);  // incomplete != corrupt
  parser.append(wire.data() + wire.size() - 10, 10);
  EXPECT_TRUE(parser.next(out));
  EXPECT_EQ(out.payload.size(), 64u);
}

TEST(MemoryStream, FeedsTraceReaderZeroCopy) {
  // A kFlows payload is a self-contained trace image: MemoryStream over the
  // payload bytes must decode through the standard TraceReader.
  netflow::TraceSet trace;
  trace.set_window(0.0, 60.0);
  for (int i = 0; i < 10; ++i) {
    netflow::FlowRecord r;
    r.src = simnet::Ipv4(0x80020001u);
    r.dst = simnet::Ipv4(0x0a000002u + static_cast<std::uint32_t>(i));
    r.start_time = static_cast<double>(i);
    r.end_time = r.start_time + 0.25;
    r.bytes_src = 500;
    trace.add_flow(r);
  }
  std::ostringstream encoded;
  netflow::write_binary_columnar(encoded, trace);
  const std::string payload = encoded.str();

  MemoryStream stream(payload.data(), payload.size());
  netflow::TraceReader reader(stream);
  const netflow::TraceSet back = reader.read_all();
  ASSERT_EQ(back.flows().size(), 10u);
  EXPECT_EQ(back.flows()[3].dst, simnet::Ipv4(0x0a000005u));
  EXPECT_EQ(back.flows()[9].start_time, 9.0);
}

}  // namespace
}  // namespace tradeplot::svc

#include "netflow/trace_reader.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <exception>
#include <fstream>
#include <istream>
#include <limits>
#include <string_view>
#include <type_traits>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/error.h"
#include "util/fd_stream.h"
#include "util/stream_retry.h"

namespace tradeplot::netflow {

namespace {

/// Ingest metric handles, registered together on first enabled use so every
/// family (including zero-valued ones) shows up in a scrape as soon as any
/// trace is read.
struct IngestObs {
  obs::Counter& records_ok = obs::Registry::global().counter(
      "tradeplot_ingest_records_total", "Trace records processed, by outcome",
      {{"result", "ok"}});
  obs::Counter& records_quarantined = obs::Registry::global().counter(
      "tradeplot_ingest_records_total", "Trace records processed, by outcome",
      {{"result", "quarantined"}});
  obs::Counter& resync_events = obs::Registry::global().counter(
      "tradeplot_ingest_resync_events_total",
      "Recovery runs: maximal bursts of consecutive malformed records");
  obs::Counter& bytes = obs::Registry::global().counter(
      "tradeplot_ingest_bytes_total", "Raw trace bytes pulled from the input stream");
  obs::Histogram& record_seconds = obs::Registry::global().histogram(
      "tradeplot_ingest_record_seconds",
      "Latency of pulling and decoding one trace record", obs::duration_buckets());
  obs::Counter& batches = obs::Registry::global().counter(
      "tradeplot_ingest_batches_total", "Columnar flow batches decoded by next_batch");

  static IngestObs& get() {
    static IngestObs o;
    return o;
  }
};

constexpr std::string_view kCsvHeader =
    "src,dst,sport,dport,proto,start,end,pkts_src,pkts_dst,bytes_src,bytes_dst,state,payload";

constexpr std::uint32_t kBinMagic = 0x54504654;  // "TPFT"
constexpr std::uint32_t kBinVersion = 1;
/// Binary v3: same preamble as v1, but the record stream is column blocks
/// (see read_columnar_block / io.h's write_binary_columnar). Version 2 is
/// reserved (the checkpoint format's payload v2 shipped between the two).
constexpr std::uint32_t kBinVersionColumnar = 3;

// ---------------------------------------------------------------------------
// Field decoding: locale-free, range-checked, allocation-free.

[[noreturn]] void bad_field(std::size_t lineno, const char* name, std::string_view value) {
  throw util::ParseError("line " + std::to_string(lineno) + ": bad " + name + " '" +
                         std::string(value) + "'");
}

template <typename T>
T parse_number(std::string_view s, std::size_t lineno, const char* name) {
  T value{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) bad_field(lineno, name, s);
  return value;
}

// Unsigned decimal fast path: a plain accumulate loop beats from_chars for
// the short counters that dominate a flow line (2 ports + 4 pkts/bytes
// fields). Up to 19 digits cannot overflow uint64; longer inputs defer to
// from_chars, which range-checks exactly.
template <typename T>
T parse_uint(std::string_view s, std::size_t lineno, const char* name) {
  static_assert(std::is_unsigned_v<T>);
  if (s.empty() || s.size() > 19) return parse_number<T>(s, lineno, name);
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') bad_field(lineno, name, s);
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value > std::numeric_limits<T>::max()) bad_field(lineno, name, s);
  return static_cast<T>(value);
}

// Hand-rolled dotted-quad parser: ~2x faster than four from_chars calls on
// the ingestion hot path (two addresses per flow line).
simnet::Ipv4 parse_ipv4(std::string_view s, std::size_t lineno, const char* name) {
  std::uint32_t value = 0;
  const char* p = s.data();
  const char* const end = s.data() + s.size();
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (p == end || *p != '.') bad_field(lineno, name, s);
      ++p;
    }
    if (p == end || *p < '0' || *p > '9') bad_field(lineno, name, s);
    unsigned byte = static_cast<unsigned>(*p++ - '0');
    while (p != end && *p >= '0' && *p <= '9') {
      byte = byte * 10 + static_cast<unsigned>(*p++ - '0');
      if (byte > 255) bad_field(lineno, name, s);
    }
    value = (value << 8) | byte;
  }
  if (p != end) bad_field(lineno, name, s);
  return simnet::Ipv4(value);
}

/// hex digit -> value, -1 for non-hex bytes; merged validity check keeps the
/// payload decode loop branch-light.
constexpr std::array<std::int8_t, 256> make_hex_table() {
  std::array<std::int8_t, 256> t{};
  for (auto& v : t) v = -1;
  for (int c = '0'; c <= '9'; ++c) t[static_cast<std::size_t>(c)] = static_cast<std::int8_t>(c - '0');
  for (int c = 'a'; c <= 'f'; ++c) t[static_cast<std::size_t>(c)] = static_cast<std::int8_t>(c - 'a' + 10);
  for (int c = 'A'; c <= 'F'; ++c) t[static_cast<std::size_t>(c)] = static_cast<std::int8_t>(c - 'A' + 10);
  return t;
}
constexpr std::array<std::int8_t, 256> kHexTable = make_hex_table();

/// Splits `line` on `sep` into at most `max` fields in a single pass.
/// Returns the field count, or max + 1 if the line has more fields than
/// `max` (the caller treats both a shortfall and an overflow as a
/// field-count error).
std::size_t split_fields(std::string_view line, char sep, std::string_view* out,
                         std::size_t max) {
  std::size_t count = 0;
  const char* field = line.data();
  const char* const end = line.data() + line.size();
  for (const char* p = field; p != end; ++p) {
    if (*p == sep) {
      if (count == max) return max + 1;
      out[count++] = std::string_view(field, static_cast<std::size_t>(p - field));
      field = p + 1;
    }
  }
  if (count == max) return max + 1;
  out[count++] = std::string_view(field, static_cast<std::size_t>(end - field));
  return count;
}

HostKind host_kind_from_string(std::string_view s) {
  for (int i = 0; i <= static_cast<int>(HostKind::kNugache); ++i) {
    const auto kind = static_cast<HostKind>(i);
    if (to_string(kind) == s) return kind;
  }
  throw util::ParseError("unknown host kind '" + std::string(s) + "'");
}

Protocol protocol_from_byte(std::uint8_t byte) {
  switch (static_cast<Protocol>(byte)) {
    case Protocol::kTcp:
    case Protocol::kUdp:
    case Protocol::kIcmp: return static_cast<Protocol>(byte);
  }
  throw util::ParseError("binary trace: bad protocol");
}

FlowState flow_state_from_byte(std::uint8_t byte) {
  if (byte > static_cast<std::uint8_t>(FlowState::kIcmpUnreach))
    throw util::ParseError("binary trace: bad flow state");
  return static_cast<FlowState>(byte);
}

template <typename T>
T take(const char*& p) {
  T value;
  std::memcpy(&value, p, sizeof(value));
  p += sizeof(value);
  return value;
}

/// One decode destination: references to each flow field of one FlowBatch
/// row. The CSV fast and slow paths and the v1 decoder all write through it.
/// `payload` must point at a kPayloadPrefixLen slot already zeroed past
/// whatever the decoder writes.
struct FlowFieldRefs {
  simnet::Ipv4& src;
  simnet::Ipv4& dst;
  std::uint16_t& sport;
  std::uint16_t& dport;
  Protocol& proto;
  double& start_time;
  double& end_time;
  std::uint64_t& pkts_src;
  std::uint64_t& pkts_dst;
  std::uint64_t& bytes_src;
  std::uint64_t& bytes_dst;
  FlowState& state;
  unsigned char* payload;
  std::uint8_t& payload_len;
};

FlowFieldRefs batch_row_refs(FlowBatch& b, std::size_t i) {
  return {b.src()[i],      b.dst()[i],      b.sport()[i],    b.dport()[i],
          b.proto()[i],    b.start_time()[i], b.end_time()[i], b.pkts_src()[i],
          b.pkts_dst()[i], b.bytes_src()[i], b.bytes_dst()[i], b.state()[i],
          b.payload(i),    b.payload_len()[i]};
}

/// Fused tokenize-and-decode fast path: one left-to-right pass, each field
/// parser consumes its bytes and the trailing separator directly, so the
/// line is never pre-split. Returns false on ANY anomaly (bad digit, wrong
/// separator, unknown keyword, overflow, end_time before start_time) without
/// diagnosing it — the caller re-parses through the split-based slow path,
/// which reproduces the exact error the batch readers have always thrown.
bool parse_flow_line_fast(std::string_view line, FlowFieldRefs out) noexcept {
  const char* p = line.data();
  const char* const end = p + line.size();

  const auto sep = [&]() -> bool {
    if (p == end || *p != ',') return false;
    ++p;
    return true;
  };
  const auto ipv4 = [&](simnet::Ipv4& ip) -> bool {
    std::uint32_t value = 0;
    for (int octet = 0; octet < 4; ++octet) {
      if (octet > 0) {
        if (p == end || *p != '.') return false;
        ++p;
      }
      if (p == end || *p < '0' || *p > '9') return false;
      unsigned byte = static_cast<unsigned>(*p++ - '0');
      while (p != end && *p >= '0' && *p <= '9') {
        byte = byte * 10 + static_cast<unsigned>(*p++ - '0');
        if (byte > 255) return false;
      }
      value = (value << 8) | byte;
    }
    ip = simnet::Ipv4(value);
    return true;
  };
  const auto uint_field = [&](auto& dst) -> bool {
    using T = std::remove_reference_t<decltype(dst)>;
    if (p == end || *p < '0' || *p > '9') return false;
    std::uint64_t value = 0;
    int digits = 0;
    while (p != end && *p >= '0' && *p <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(*p++ - '0');
      if (++digits > 19) return false;  // could overflow; let from_chars decide
    }
    if (value > std::numeric_limits<T>::max()) return false;
    dst = static_cast<T>(value);
    return true;
  };
  const auto dbl = [&](double& dst) -> bool {
    const auto [q, ec] = std::from_chars(p, end, dst);
    if (ec != std::errc()) return false;
    p = q;
    return true;
  };
  const auto lit = [&](std::string_view s) -> bool {
    if (static_cast<std::size_t>(end - p) < s.size() ||
        std::memcmp(p, s.data(), s.size()) != 0)
      return false;
    p += s.size();
    return true;
  };

  if (!ipv4(out.src) || !sep() || !ipv4(out.dst) || !sep()) return false;
  if (!uint_field(out.sport) || !sep() || !uint_field(out.dport) || !sep()) return false;
  if (lit("tcp,")) out.proto = Protocol::kTcp;
  else if (lit("udp,")) out.proto = Protocol::kUdp;
  else if (lit("icmp,")) out.proto = Protocol::kIcmp;
  else return false;
  if (!dbl(out.start_time) || !sep() || !dbl(out.end_time) || !sep()) return false;
  // A flow cannot end before it starts (negated compare also rejects NaNs);
  // the slow path turns this into the pinned diagnostic.
  if (!(out.end_time >= out.start_time)) return false;
  if (!uint_field(out.pkts_src) || !sep() || !uint_field(out.pkts_dst) || !sep()) return false;
  if (!uint_field(out.bytes_src) || !sep() || !uint_field(out.bytes_dst) || !sep()) return false;
  if (lit("est,")) out.state = FlowState::kEstablished;
  else if (lit("att,")) out.state = FlowState::kAttempted;
  else if (lit("rst,")) out.state = FlowState::kReset;
  else if (lit("unr,")) out.state = FlowState::kIcmpUnreach;
  else return false;
  const std::size_t hex_len = static_cast<std::size_t>(end - p);
  if (hex_len % 2 != 0 || hex_len / 2 > kPayloadPrefixLen) return false;
  out.payload_len = static_cast<std::uint8_t>(hex_len / 2);
  for (std::size_t i = 0; i < out.payload_len; ++i) {
    const int value = (kHexTable[static_cast<unsigned char>(p[2 * i])] << 4) |
                      kHexTable[static_cast<unsigned char>(p[2 * i + 1])];
    if (value < 0) return false;
    out.payload[i] = static_cast<unsigned char>(value);
  }
  return true;
}

/// Split-then-decode slow path: the reference decoder. Only reached for
/// lines the fast path rejects; its job is to throw the precise, pinned
/// diagnostics ("bad field count on line N", "line N: bad sport '…'", …) —
/// or to accept the rare shapes the fast path conservatively refuses (e.g.
/// 20-digit counters that still fit in uint64).
void parse_flow_line_slow(std::string_view line, std::size_t lineno, FlowFieldRefs out) {
  std::array<std::string_view, 13> f;
  if (split_fields(line, ',', f.data(), f.size()) != f.size())
    throw util::ParseError("bad field count on line " + std::to_string(lineno));
  out.src = parse_ipv4(f[0], lineno, "src");
  out.dst = parse_ipv4(f[1], lineno, "dst");
  out.sport = parse_uint<std::uint16_t>(f[2], lineno, "sport");
  out.dport = parse_uint<std::uint16_t>(f[3], lineno, "dport");
  out.proto = protocol_from_string(f[4]);
  out.start_time = parse_number<double>(f[5], lineno, "start");
  out.end_time = parse_number<double>(f[6], lineno, "end");
  // Range checks are per-field; the cross-field invariant needs its own
  // check or duration() goes negative and skews the timing features.
  if (!(out.end_time >= out.start_time))
    throw util::ParseError("line " + std::to_string(lineno) +
                           ": end_time precedes start_time");
  out.pkts_src = parse_uint<std::uint64_t>(f[7], lineno, "pkts_src");
  out.pkts_dst = parse_uint<std::uint64_t>(f[8], lineno, "pkts_dst");
  out.bytes_src = parse_uint<std::uint64_t>(f[9], lineno, "bytes_src");
  out.bytes_dst = parse_uint<std::uint64_t>(f[10], lineno, "bytes_dst");
  out.state = flow_state_from_string(f[11]);
  const std::string_view hex = f[12];
  if (hex.size() % 2 != 0 || hex.size() / 2 > kPayloadPrefixLen)
    throw util::ParseError("line " + std::to_string(lineno) + ": bad payload hex");
  out.payload_len = static_cast<std::uint8_t>(hex.size() / 2);
  for (std::size_t i = 0; i < out.payload_len; ++i) {
    const int value =
        (kHexTable[static_cast<unsigned char>(hex[2 * i])] << 4) |
        kHexTable[static_cast<unsigned char>(hex[2 * i + 1])];
    if (value < 0)
      throw util::ParseError("line " + std::to_string(lineno) + ": bad hex digit");
    out.payload[i] = static_cast<unsigned char>(value);
  }
}

}  // namespace

std::string_view to_string(TraceFormat f) {
  return f == TraceFormat::kBinary ? "binary" : "csv";
}

// ---------------------------------------------------------------------------
// Source: a chunked block reader over std::istream. One istream::read per
// block; lines and binary records are served out of the block buffer.

class TraceReader::Source {
 public:
  explicit Source(std::istream& in) : in_(in), buf_(kBufferSize) {}

  /// Yields the next line (excluding the terminator, with one trailing '\r'
  /// stripped so CRLF traces parse like LF ones). The view stays valid until
  /// the following next_line / read_exact call. Returns false at EOF.
  bool next_line(std::string_view& line) {
    for (;;) {
      const char* base = buf_.data() + pos_;
      const auto* nl =
          static_cast<const char*>(std::memchr(base, '\n', end_ - pos_));
      if (nl != nullptr) {
        line = std::string_view(base, static_cast<std::size_t>(nl - base));
        pos_ += line.size() + 1;
        strip_cr(line);
        return true;
      }
      if (eof_) {
        if (pos_ == end_) return false;
        line = std::string_view(base, end_ - pos_);  // final unterminated line
        pos_ = end_;
        strip_cr(line);
        return true;
      }
      refill();
    }
  }

  /// Copies exactly `n` bytes into `dst`; throws util::IoError tagged with
  /// `what` when the stream runs dry first.
  void read_exact(void* dst, std::size_t n, const char* what) {
    char* out = static_cast<char*>(dst);
    while (n > 0) {
      if (pos_ == end_) {
        if (eof_) throw util::IoError(std::string("binary trace: ") + what);
        refill();
        continue;
      }
      const std::size_t chunk = std::min(n, end_ - pos_);
      std::memcpy(out, buf_.data() + pos_, chunk);
      pos_ += chunk;
      out += chunk;
      n -= chunk;
    }
  }

  /// Ensures up to `n` bytes are buffered (fewer only at EOF) and returns a
  /// view of them without consuming. Used for format sniffing.
  std::string_view peek(std::size_t n) {
    while (end_ - pos_ < n && !eof_) refill();
    return {buf_.data() + pos_, std::min(n, end_ - pos_)};
  }

 private:
  static void strip_cr(std::string_view& line) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  }

  // Compacts the unconsumed tail to the front of the buffer and reads one
  // more block. Grows the buffer only if a single line/record exceeds it.
  void refill() {
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
    }
    if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
    // read_retry survives EINTR and accumulates short reads, so a signal
    // landing mid-refill cannot masquerade as a truncated trace. It returns
    // short on real EOF, on a hard I/O error, and on a cooperative shutdown
    // request — all of which end the stream here (graceful stop reads as a
    // clean end-of-input at the next record boundary).
    const std::size_t request = buf_.size() - end_;
    const std::size_t got = util::read_retry(in_, buf_.data() + end_, request);
    end_ += got;
    // read_retry returns short ONLY at a terminal condition (EOF, hard
    // error, cooperative shutdown) — never on a transient short read. Any
    // shortfall therefore ends the stream; asking again would re-enter a
    // blocking read that a consumed shutdown signal can no longer wake.
    if (got < request) eof_ = true;
    if (got > 0 && obs::enabled()) IngestObs::get().bytes.add(got);
  }

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  // consume cursor
  std::size_t end_ = 0;  // valid bytes
  bool eof_ = false;
};

// ---------------------------------------------------------------------------
// Construction / preamble.

TraceReader::TraceReader(std::istream& in) { open(in, nullptr); }

TraceReader::TraceReader(std::istream& in, TraceFormat format) { open(in, &format); }

TraceReader::TraceReader(std::istream& in, ErrorPolicy policy) : policy_(policy) {
  open(in, nullptr);
}

TraceReader::TraceReader(std::istream& in, TraceFormat format, ErrorPolicy policy)
    : policy_(policy) {
  open(in, &format);
}

TraceReader::TraceReader(const std::string& path) {
  auto file = std::make_unique<util::FdInputStream>(path);
  if (!*file) throw util::IoError("cannot open for reading: " + path);
  owned_stream_ = std::move(file);
  open(*owned_stream_, nullptr);
}

TraceReader::TraceReader(const std::string& path, TraceFormat format) {
  auto file = std::make_unique<util::FdInputStream>(path);
  if (!*file) throw util::IoError("cannot open for reading: " + path);
  owned_stream_ = std::move(file);
  open(*owned_stream_, &format);
}

TraceReader::TraceReader(const std::string& path, ErrorPolicy policy) : policy_(policy) {
  auto file = std::make_unique<util::FdInputStream>(path);
  if (!*file) throw util::IoError("cannot open for reading: " + path);
  owned_stream_ = std::move(file);
  open(*owned_stream_, nullptr);
}

TraceReader::TraceReader(const std::string& path, TraceFormat format, ErrorPolicy policy)
    : policy_(policy) {
  auto file = std::make_unique<util::FdInputStream>(path);
  if (!*file) throw util::IoError("cannot open for reading: " + path);
  owned_stream_ = std::move(file);
  open(*owned_stream_, &format);
}

TraceReader::~TraceReader() = default;

void TraceReader::open(std::istream& in, const TraceFormat* forced) {
  src_ = std::make_unique<Source>(in);
  if (forced != nullptr) {
    format_ = *forced;
  } else {
    const std::string_view head = src_->peek(sizeof(kBinMagic));
    std::uint32_t magic = 0;
    if (head.size() == sizeof(magic)) std::memcpy(&magic, head.data(), sizeof(magic));
    format_ = magic == kBinMagic ? TraceFormat::kBinary : TraceFormat::kCsv;
  }
  if (format_ == TraceFormat::kBinary) {
    read_binary_preamble();
  } else {
    read_csv_preamble();
  }
}

void TraceReader::read_csv_preamble() {
  std::string_view line;
  for (;;) {
    if (!src_->next_line(line)) throw util::ParseError("empty CSV trace");
    ++lineno_;
    if (line.empty()) continue;
    if (line[0] == '#') {
      parse_csv_comment(line);
      continue;
    }
    if (line != kCsvHeader) throw util::ParseError("missing CSV header");
    return;
  }
}

void TraceReader::parse_csv_comment(std::string_view line) {
  std::array<std::string_view, 3> f;
  const std::size_t n = split_fields(line, ',', f.data(), f.size());
  if (f[0] == "#window" && n == 3) {
    window_start_ = parse_number<double>(f[1], lineno_, "window start");
    window_end_ = parse_number<double>(f[2], lineno_, "window end");
  } else if (f[0] == "#truth" && n == 3) {
    truth_[parse_ipv4(f[1], lineno_, "truth host")] = host_kind_from_string(f[2]);
  } else {
    throw util::ParseError("bad comment line " + std::to_string(lineno_));
  }
}

void TraceReader::read_binary_preamble() {
  const auto get32 = [&](const char* what) {
    std::uint32_t v = 0;
    src_->read_exact(&v, sizeof(v), what);
    return v;
  };
  if (get32("short read") != kBinMagic) throw util::ParseError("binary trace: bad magic");
  bin_version_ = get32("short read");
  if (bin_version_ != kBinVersion && bin_version_ != kBinVersionColumnar)
    throw util::ParseError("binary trace: bad version");
  src_->read_exact(&window_start_, sizeof(window_start_), "short read");
  src_->read_exact(&window_end_, sizeof(window_end_), "short read");
  std::uint64_t truth_count = 0;
  // No reserve from truth_count: it is untrusted until the entries have
  // actually been read.
  src_->read_exact(&truth_count, sizeof(truth_count), "short read");
  for (std::uint64_t i = 0; i < truth_count; ++i) {
    // One truth entry on the wire: u32 address, u8 HostKind.
    std::array<char, sizeof(std::uint32_t) + 1> raw;
    src_->read_exact(raw.data(), raw.size(), "short read");
    const char* p = raw.data();
    const auto ip = simnet::Ipv4(take<std::uint32_t>(p));
    const auto byte = take<std::uint8_t>(p);
    if (byte > static_cast<std::uint8_t>(HostKind::kNugache))
      throw util::ParseError("binary trace: bad host kind");
    truth_[ip] = static_cast<HostKind>(byte);
  }
  src_->read_exact(&flow_count_, sizeof(flow_count_), "short read");
}

// ---------------------------------------------------------------------------
// Flow pulling. Every entry point is a loop over decode(), which runs the
// format's one decoder into a FlowBatch.

void TraceReader::quarantine(std::size_t record) {
  if (policy_.action == OnError::kStrict) throw;
  if (policy_.action == OnError::kStopAfter &&
      stats_.records_quarantined >= policy_.max_quarantined)
    throw;
  ++stats_.records_quarantined;
  if (!in_bad_run_) {
    ++stats_.resync_events;
    in_bad_run_ = true;
  }
  if (stats_.first_error_record == 0) {
    stats_.first_error_record = record;
    try {
      throw;
    } catch (const std::exception& e) {
      stats_.first_error = e.what();
    }
  }
}

void TraceReader::decode(FlowBatch& out) {
  if (done_) return;
  const auto fill = [&] {
    if (format_ != TraceFormat::kBinary) {
      decode_csv(out);
    } else if (bin_version_ == kBinVersionColumnar) {
      // A block can be quarantined away entirely; keep reading until rows
      // survive or the stream ends (an empty batch means end-of-trace).
      while (out.empty() && read_columnar_block(out)) {
      }
    } else {
      decode_binary(out);
    }
  };
  if (obs::enabled()) {
    IngestObs& o = IngestObs::get();
    const std::size_t ok_before = stats_.records_ok;
    const std::size_t quarantined_before = stats_.records_quarantined;
    const std::size_t resyncs_before = stats_.resync_events;
    const auto settle = [&] {
      o.records_ok.add(stats_.records_ok - ok_before);
      o.records_quarantined.add(stats_.records_quarantined - quarantined_before);
      o.resync_events.add(stats_.resync_events - resyncs_before);
    };
    try {
      fill();
    } catch (...) {
      settle();  // rows decoded before the fault are already in stats_
      throw;
    }
    settle();
  } else {
    fill();
  }
  if (out.empty()) done_ = true;
}

void TraceReader::decode_csv(FlowBatch& out) {
  // Size the batch once and decode row k in place; the rows past the last
  // one decoded are cut away on every exit, a thrown fault included.
  const std::size_t capacity = out.capacity();
  out.append_default(capacity);
  std::size_t k = 0;
  try {
    std::string_view line;
    while (k < capacity && src_->next_line(line)) {
      ++lineno_;
      if (line.empty()) continue;
      if (line[0] == '#') {
        try {
          parse_csv_comment(line);
        } catch (...) {
          quarantine(lineno_);  // rethrows under kStrict / exhausted kStopAfter
        }
        continue;
      }
      const FlowFieldRefs row = batch_row_refs(out, k);
      if (!parse_flow_line_fast(line, row)) {
        // The fast path may have half-written the payload slot. Re-zero it,
        // then let the reference decoder either accept the rare shapes the
        // fast path refuses or throw the pinned per-line diagnostic.
        std::memset(row.payload, 0, kPayloadPrefixLen);
        try {
          parse_flow_line_slow(line, lineno_, row);
        } catch (...) {
          std::memset(row.payload, 0, kPayloadPrefixLen);  // row k is reused
          quarantine(lineno_);
          continue;  // resync: the line boundary was already consumed
        }
      }
      ++k;
      ++stats_.records_ok;
      in_bad_run_ = false;
    }
  } catch (...) {
    out.truncate(k);
    throw;
  }
  out.truncate(k);
}

void TraceReader::decode_binary(FlowBatch& out) {
  // The fixed-size part of one record on the wire (fields are written
  // individually, so the layout is packed, independent of FlowRecord's
  // in-memory padding).
  constexpr std::size_t kFixedBytes = 4 + 4 + 2 + 2 + 1 + 8 + 8 + 8 + 8 + 8 + 8 + 1 + 1;

  // A record whose *length* cannot be trusted (truncated fixed part, or a
  // payload_len past the cap) leaves the reader with no next boundary to
  // resync to; under a skip policy the remainder of the stream is abandoned
  // (stats_.lost_sync) instead of misparsed.
  const auto lose_sync = [&](std::size_t ordinal) {
    quarantine(ordinal);  // rethrows under kStrict / exhausted kStopAfter
    stats_.lost_sync = true;
    records_consumed_ = flow_count_;
  };

  // Same shape as decode_csv: size once, decode row k in place, cut back.
  const std::size_t capacity = out.capacity();
  out.append_default(capacity);
  std::size_t k = 0;
  try {
    while (k < capacity && records_consumed_ < flow_count_) {
      ++records_consumed_;
      const auto ordinal = static_cast<std::size_t>(records_consumed_);
      std::array<char, kFixedBytes> raw;
      try {
        src_->read_exact(raw.data(), raw.size(), "short read");
      } catch (...) {
        lose_sync(ordinal);
        break;
      }
      const char* p = raw.data();
      const FlowFieldRefs row = batch_row_refs(out, k);
      row.src = simnet::Ipv4(take<std::uint32_t>(p));
      row.dst = simnet::Ipv4(take<std::uint32_t>(p));
      row.sport = take<std::uint16_t>(p);
      row.dport = take<std::uint16_t>(p);
      const auto proto_byte = take<std::uint8_t>(p);
      row.start_time = take<double>(p);
      row.end_time = take<double>(p);
      row.pkts_src = take<std::uint64_t>(p);
      row.pkts_dst = take<std::uint64_t>(p);
      row.bytes_src = take<std::uint64_t>(p);
      row.bytes_dst = take<std::uint64_t>(p);
      const auto state_byte = take<std::uint8_t>(p);
      row.payload_len = take<std::uint8_t>(p);
      if (row.payload_len > kPayloadPrefixLen) {
        try {
          throw util::ParseError("binary trace: bad payload len");
        } catch (...) {
          lose_sync(ordinal);
        }
        break;
      }
      try {
        src_->read_exact(row.payload, row.payload_len, "short payload read");
      } catch (...) {
        lose_sync(ordinal);
        break;
      }
      // Value validation last: a bad proto/state byte or an inverted time
      // pair leaves the record fully consumed (framing intact), so under a
      // skip policy we quarantine just this record and continue.
      try {
        row.proto = protocol_from_byte(proto_byte);
        row.state = flow_state_from_byte(state_byte);
        if (!(row.end_time >= row.start_time))
          throw util::ParseError("binary trace: end_time precedes start_time");
      } catch (...) {
        std::memset(row.payload, 0, kPayloadPrefixLen);  // row k is reused
        quarantine(ordinal);
        continue;
      }
      ++k;
      ++stats_.records_ok;
      in_bad_run_ = false;
    }
  } catch (...) {
    out.truncate(k);
    throw;
  }
  out.truncate(k);
}

bool TraceReader::read_columnar_block(FlowBatch& out) {
  const auto lose_sync = [&](std::size_t ordinal) {
    quarantine(ordinal);  // rethrows under kStrict / exhausted kStopAfter
    stats_.lost_sync = true;
    records_consumed_ = flow_count_;
  };

  while (records_consumed_ < flow_count_) {
    const auto base = static_cast<std::size_t>(records_consumed_);

    // Block framing: a u32 row count, then the column arrays. A count of
    // zero, past the writer's block size (FlowBatch::kDefaultCapacity), or
    // past the declared remainder means the writer and reader disagree about
    // the stream shape — there is no next boundary to trust. The size check
    // comes before any allocation: the count is untrusted.
    std::uint32_t rows = 0;
    try {
      src_->read_exact(&rows, sizeof(rows), "short block header");
      if (rows == 0 || rows > FlowBatch::kDefaultCapacity ||
          rows > flow_count_ - records_consumed_)
        throw util::ParseError("binary trace: bad block size");
    } catch (...) {
      lose_sync(base + 1);
      return false;
    }

    const std::size_t n = rows;
    out.append_default(n);
    try {
      src_->read_exact(out.src(), n * sizeof(std::uint32_t), "short column read");
      src_->read_exact(out.dst(), n * sizeof(std::uint32_t), "short column read");
      src_->read_exact(out.sport(), n * sizeof(std::uint16_t), "short column read");
      src_->read_exact(out.dport(), n * sizeof(std::uint16_t), "short column read");
      src_->read_exact(out.proto(), n, "short column read");
      src_->read_exact(out.start_time(), n * sizeof(double), "short column read");
      src_->read_exact(out.end_time(), n * sizeof(double), "short column read");
      src_->read_exact(out.pkts_src(), n * sizeof(std::uint64_t), "short column read");
      src_->read_exact(out.pkts_dst(), n * sizeof(std::uint64_t), "short column read");
      src_->read_exact(out.bytes_src(), n * sizeof(std::uint64_t), "short column read");
      src_->read_exact(out.bytes_dst(), n * sizeof(std::uint64_t), "short column read");
      src_->read_exact(out.state(), n, "short column read");
      src_->read_exact(out.payload_len(), n, "short column read");
      src_->read_exact(out.payload(0), n * kPayloadPrefixLen, "short column read");
    } catch (...) {
      out.clear();
      lose_sync(base + 1);
      return false;
    }
    records_consumed_ += n;

    // Per-row value validation, in stream order so resync-run accounting
    // matches the other decoders. Unlike v1, a bad payload_len does not lose
    // sync here: the payload column has a fixed stride, so framing survives
    // and only the row is quarantined.
    std::vector<std::uint32_t> bad;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        out.proto()[i] = protocol_from_byte(static_cast<std::uint8_t>(out.proto()[i]));
        out.state()[i] =
            flow_state_from_byte(static_cast<std::uint8_t>(out.state()[i]));
        if (out.payload_len()[i] > kPayloadPrefixLen)
          throw util::ParseError("binary trace: bad payload len");
        if (!(out.end_time()[i] >= out.start_time()[i]))
          throw util::ParseError("binary trace: end_time precedes start_time");
      } catch (...) {
        try {
          quarantine(base + i + 1);
        } catch (...) {
          // Thrown fault (kStrict / exhausted kStopAfter): the v3 stream is
          // block-granular, so none of the block survives — discard whole.
          out.clear();
          throw;
        }
        bad.push_back(static_cast<std::uint32_t>(i));
        continue;
      }
      in_bad_run_ = false;
      // Canonicalize the slot: zero past payload_len, so views and
      // materialized records match what the v1 decoder would produce even
      // for writers that left junk in the padding.
      const std::uint8_t len = out.payload_len()[i];
      if (len < kPayloadPrefixLen)
        std::memset(out.payload(i) + len, 0, kPayloadPrefixLen - len);
    }
    out.erase_rows(bad);
    stats_.records_ok += out.size();
    if (!out.empty()) return true;
    // Every row of this block was quarantined; try the next block.
  }
  return false;
}

void TraceReader::rethrow_pending() {
  if (pending_) std::rethrow_exception(std::exchange(pending_, nullptr));
}

bool TraceReader::refill_cursor() {
  if (cursor_ == nullptr) cursor_ = std::make_unique<FlowBatch>();
  cursor_->clear();
  cursor_pos_ = 0;
  rethrow_pending();
  try {
    decode(*cursor_);
  } catch (...) {
    // Serve the rows decoded before the fault first: the fault surfaces
    // after them, where a record-at-a-time read would have met it.
    if (cursor_->empty()) throw;
    pending_ = std::current_exception();
  }
  return !cursor_->empty();
}

bool TraceReader::next(FlowRecord& out) {
  const auto pull = [&] {
    if (unserved() == 0 && !refill_cursor()) return false;
    out = cursor_->record(cursor_pos_++);
    return true;
  };
  if (!obs::enabled()) return pull();
  const obs::ScopedTimer timer(&IngestObs::get().record_seconds);
  return pull();
}

std::size_t TraceReader::skip_flows(std::size_t n) {
  std::size_t skipped = 0;
  while (skipped < n) {
    if (unserved() == 0 && !refill_cursor()) break;
    const std::size_t take = std::min(n - skipped, unserved());
    cursor_pos_ += take;
    skipped += take;
  }
  return skipped;
}

std::size_t TraceReader::next_batch(FlowBatch& out) {
  out.clear();
  if (unserved() > 0) {
    while (!out.full() && cursor_pos_ < cursor_->size())
      out.push_back(cursor_->record(cursor_pos_++));
    return out.size();
  }
  rethrow_pending();
  if (!obs::enabled()) {
    decode(out);
    return out.size();
  }
  const obs::StageTimer timer(obs::Stage::kBatchDecode);
  decode(out);
  if (!out.empty()) IngestObs::get().batches.add();
  return out.size();
}

TraceSet TraceReader::read_all() {
  TraceSet trace;
  // A binary header's flow count sizes the TraceSet up front, so it is not
  // copied at every doubling. The count is untrusted, so the reservation is
  // capped: a hostile header can claim at most kMaxReservedFlows rows of
  // untouched address space, and a longer real trace grows past it.
  constexpr std::uint64_t kMaxReservedFlows = std::uint64_t{1024} * FlowBatch::kDefaultCapacity;
  if (flow_count_ > flows_read())
    trace.reserve_flows(static_cast<std::size_t>(
        std::min<std::uint64_t>(flow_count_ - flows_read(), kMaxReservedFlows)));
  FlowBatch batch;
  while (next_batch(batch) > 0)
    for (std::size_t i = 0; i < batch.size(); ++i) trace.add_flow(batch.record(i));
  trace.set_window(window_start_, window_end_);
  for (const auto& [ip, kind] : truth_) trace.set_truth(ip, kind);
  return trace;
}

}  // namespace tradeplot::netflow

// Streaming, pull-based ingestion of flow traces.
//
// TraceReader is the high-throughput counterpart to io.h's batch readers: it
// opens a CSV or binary trace (auto-detecting the format by content unless
// told otherwise), reads the preamble (window + ground-truth entries for the
// binary format, everything up to the header row for CSV), and then decodes
// the flows into columnar FlowBatches. Each format has exactly one decoder,
// and it fills a FlowBatch in place; next() (one FlowRecord per call),
// skip_flows() and read_all() are loops over that decoder. Memory use is
// bounded by one internal read buffer (kBufferSize) plus one batch, regardless
// of trace size, so a border monitor can feed detect::StreamingDetector from
// a multi-gigabyte trace without ever materializing a TraceSet.
//
// The reader is zero-copy on the hot path: input is pulled from the stream in
// large blocks, CSV lines are tokenized as std::string_view slices of the
// block, and numeric fields are decoded with std::from_chars (locale-free,
// range-checked). io.h's read_csv/read_binary are thin wrappers over
// TraceReader::read_all().
#pragma once

#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>

#include "netflow/flow_batch.h"
#include "netflow/trace_set.h"

namespace tradeplot::netflow {

enum class TraceFormat { kCsv, kBinary };

[[nodiscard]] std::string_view to_string(TraceFormat f);

/// What TraceReader does when one record is malformed.
///
/// The policy governs *record-level* faults only: a bad flow line, a bad
/// mid-stream "#truth" comment, a binary record with an invalid enum byte.
/// Structural faults — a missing CSV header, a bad magic/version, a
/// malformed preamble — are always fatal, because there is no boundary to
/// resync to before the record stream even starts.
enum class OnError : std::uint8_t {
  kStrict,     // throw on the first malformed record (the historical default)
  kSkip,       // quarantine the record, resync to the next boundary, continue
  kStopAfter,  // behave like kSkip for up to max_quarantined records, then throw
};

struct ErrorPolicy {
  OnError action = OnError::kStrict;
  /// For kStopAfter: the number of quarantined records tolerated before the
  /// next fault is rethrown. Ignored by the other actions.
  std::size_t max_quarantined = 0;

  [[nodiscard]] static ErrorPolicy strict() { return {}; }
  [[nodiscard]] static ErrorPolicy skip() { return {OnError::kSkip, 0}; }
  [[nodiscard]] static ErrorPolicy stop_after(std::size_t n) {
    return {OnError::kStopAfter, n};
  }
};

/// Ingestion health report, accumulated while records are pulled. Under
/// ErrorPolicy::strict() the quarantine counters stay zero (the first fault
/// throws instead).
struct IngestStats {
  std::size_t records_ok = 0;           // flows decoded successfully
  std::size_t records_quarantined = 0;  // malformed records skipped
  /// Recovery runs: incremented once per maximal run of consecutive bad
  /// records (a burst of 5 garbled lines is 1 resync event, 5 quarantines).
  std::size_t resync_events = 0;
  /// True when a binary stream lost record framing (bad payload length or a
  /// mid-record truncation) and the reader abandoned the remainder; the
  /// stream then ends early instead of throwing under kSkip.
  bool lost_sync = false;
  /// Diagnostics of the first quarantined record (empty when none).
  std::string first_error;
  /// CSV line number / 1-based binary record ordinal of the first fault.
  std::size_t first_error_record = 0;
};

class TraceReader {
 public:
  /// Size of the internal read buffer; the reader's memory bound. (A buffer
  /// holds whole CSV lines, so it grows only for pathological inputs whose
  /// single line exceeds this.)
  static constexpr std::size_t kBufferSize = 1 << 18;  // 256 KiB

  /// Opens a trace on a caller-owned stream, auto-detecting the format: a
  /// stream starting with the binary magic is binary, anything else is CSV.
  /// Reads the preamble eagerly; throws util::ParseError / util::IoError on
  /// malformed input, exactly as the batch readers do.
  explicit TraceReader(std::istream& in);

  /// Same, but with the format forced (no sniffing); a mismatched stream
  /// fails with the corresponding format's parse error.
  TraceReader(std::istream& in, TraceFormat format);

  /// Opens a trace file (auto-detect / forced format). Throws util::IoError
  /// if the file cannot be opened.
  explicit TraceReader(const std::string& path);
  TraceReader(const std::string& path, TraceFormat format);

  /// Same constructors with an explicit error policy. Preamble parsing is
  /// always strict (see OnError); the policy takes effect from the first
  /// record onward.
  TraceReader(std::istream& in, ErrorPolicy policy);
  TraceReader(std::istream& in, TraceFormat format, ErrorPolicy policy);
  TraceReader(const std::string& path, ErrorPolicy policy);
  TraceReader(const std::string& path, TraceFormat format, ErrorPolicy policy);

  ~TraceReader();
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  [[nodiscard]] TraceFormat format() const { return format_; }
  [[nodiscard]] double window_start() const { return window_start_; }
  [[nodiscard]] double window_end() const { return window_end_; }

  /// Ground-truth entries seen so far. For binary traces this is complete
  /// after construction; CSV traces normally carry truth in the preamble,
  /// but "#truth" lines are legal anywhere, so entries can still be added
  /// while flows are being pulled. A mid-stream entry is applied when the
  /// batch that holds its line is decoded, which may be before the flows
  /// that precede it have been served by next().
  [[nodiscard]] const std::unordered_map<simnet::Ipv4, HostKind>& truth() const { return truth_; }

  /// Flows handed to the caller so far (by next(), next_batch(), skip_flows()
  /// and read_all()).
  [[nodiscard]] std::size_t flows_read() const { return stats_.records_ok - unserved(); }

  /// For binary traces, the total flow count declared in the header; 0 for
  /// CSV (whose length is unknown until EOF).
  [[nodiscard]] std::uint64_t declared_flow_count() const { return flow_count_; }

  [[nodiscard]] const ErrorPolicy& error_policy() const { return policy_; }

  /// Ingestion health counters accumulated so far (quarantined records,
  /// resync events, first-fault diagnostics). Always valid; under
  /// ErrorPolicy::strict() only records_ok ever moves. The counters advance
  /// as batches are decoded, so during a next() loop they can run up to one
  /// batch ahead of flows_read(); at end-of-trace they are the same for every
  /// mix of calls.
  [[nodiscard]] const IngestStats& ingest_stats() const { return stats_; }

  /// Reads the next flow into `out`: a cursor over a reader-owned batch,
  /// refilled through next_batch()'s decoder. Returns false at clean
  /// end-of-trace; throws util::ParseError / util::IoError on malformed or
  /// truncated input per the error policy (under kSkip malformed records are
  /// quarantined into ingest_stats() instead of thrown). A fault thrown while
  /// refilling is deferred until the rows decoded before it have been
  /// returned, so next() throws exactly where a record-at-a-time read would.
  /// After false is returned, further calls keep returning false.
  [[nodiscard]] bool next(FlowRecord& out);

  /// Reads the next batch of flows into `out` (cleared first), decoding
  /// straight into the columns: up to out.capacity() rows for CSV / binary
  /// v1, one column block for binary v3 (at most
  /// FlowBatch::kDefaultCapacity rows; a larger declared block is rejected
  /// as "bad block size"). Rows that a next() / skip_flows() refill decoded
  /// but did not serve are handed out first, up to out.capacity(). Returns
  /// the number of rows delivered; 0 at clean end-of-trace (and on every
  /// later call).
  ///
  /// Accounting is record-granular and independent of the batch capacity:
  /// line numbers / ordinals, IngestStats counters, resync runs and
  /// kStopAfter budgets all advance per record. On a thrown fault (kStrict /
  /// exhausted kStopAfter) the batch retains the rows decoded before the
  /// fault for CSV and binary v1 — already counted in ingest_stats() — so a
  /// caller can still ingest them before handling the error; a binary v3
  /// block that throws mid-validation is discarded whole (block-granular
  /// format).
  ///
  /// next(), next_batch() and skip_flows() may be freely mixed; each record
  /// is delivered exactly once.
  std::size_t next_batch(FlowBatch& out);

  /// Pulls and discards up to `n` flows (honoring the error policy) by
  /// advancing the next() cursor; returns how many were discarded. Used to
  /// fast-forward a trace when resuming a checkpointed monitor.
  std::size_t skip_flows(std::size_t n);

  /// Drains the remaining flows (plus window and truth) into a TraceSet by
  /// looping over next_batch() — the batch entry points read_csv/read_binary
  /// are implemented with this.
  [[nodiscard]] TraceSet read_all();

 private:
  class Source;  // buffered block reader (defined in trace_reader.cpp)

  void open(std::istream& in, const TraceFormat* forced);
  void read_csv_preamble();
  void read_binary_preamble();
  void parse_csv_comment(std::string_view line);
  /// Decodes the next rows into `out` (must be empty) with the format's one
  /// decoder, settling the obs ingest counters; marks the stream done when
  /// no row remains.
  void decode(FlowBatch& out);
  void decode_csv(FlowBatch& out);
  void decode_binary(FlowBatch& out);
  /// Reads and validates one binary v3 column block into `out` (must be
  /// empty); quarantined rows are compacted away. Returns false when no
  /// block remains (declared count reached or sync lost).
  bool read_columnar_block(FlowBatch& out);
  /// Refills the next() cursor from the decoder; false at end-of-trace.
  bool refill_cursor();
  /// Rethrows (once) a fault a cursor refill deferred.
  void rethrow_pending();
  [[nodiscard]] std::size_t unserved() const {
    return cursor_ == nullptr ? 0 : cursor_->size() - cursor_pos_;
  }
  /// Routes one malformed record through the policy: records it in stats_
  /// and returns (to resume scanning) or rethrows. `record` is the CSV line
  /// number / 1-based binary record ordinal.
  void quarantine(std::size_t record);

  std::unique_ptr<std::istream> owned_stream_;  // set by the path ctors
  std::unique_ptr<Source> src_;

  TraceFormat format_ = TraceFormat::kCsv;
  double window_start_ = 0.0;
  double window_end_ = 0.0;
  std::unordered_map<simnet::Ipv4, HostKind> truth_;

  std::uint64_t flow_count_ = 0;  // binary only
  std::uint32_t bin_version_ = 0;  // binary only: 1 (record) or 3 (columnar)
  /// Binary records consumed from the stream, including quarantined ones —
  /// the cursor checked against the declared flow_count_.
  std::uint64_t records_consumed_ = 0;
  std::size_t lineno_ = 0;  // CSV only
  bool done_ = false;

  ErrorPolicy policy_{};
  IngestStats stats_{};
  bool in_bad_run_ = false;  // tracks resync_events (runs of quarantines)

  /// The next() / skip_flows() cursor: the batch last decoded for them (only
  /// allocated on first use, so constructing a reader stays cheap), the next
  /// row to serve, and a fault its refill hit after decoding some rows.
  std::unique_ptr<FlowBatch> cursor_;
  std::size_t cursor_pos_ = 0;
  std::exception_ptr pending_;
};

}  // namespace tradeplot::netflow

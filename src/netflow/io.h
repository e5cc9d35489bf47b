// Flow-record serialization.
//
// Two formats:
//   * CSV  — human-inspectable, one flow per line, header row; payload is
//            hex-encoded. Ground truth is carried in a separate "#truth"
//            comment section so a TraceSet round-trips through one file.
//   * BIN  — compact little-endian binary with a magic/version header, for
//            large traces.
//
// The readers here are batch conveniences: they drain a streaming
// netflow::TraceReader (see trace_reader.h) into a TraceSet. Callers that
// ingest large traces should prefer TraceReader directly — its next_batch()
// yields columnar FlowBatches in bounded memory.
#pragma once

#include <iosfwd>
#include <string>

#include "netflow/trace_set.h"

namespace tradeplot::netflow {

/// Writes `trace` as CSV. Throws util::IoError on stream failure.
void write_csv(std::ostream& out, const TraceSet& trace);
void write_csv_file(const std::string& path, const TraceSet& trace);

/// Reads a TraceSet written by write_csv. Throws util::ParseError /
/// util::IoError on malformed input.
[[nodiscard]] TraceSet read_csv(std::istream& in);
[[nodiscard]] TraceSet read_csv_file(const std::string& path);

/// Binary round-trip (same error contract). write_binary emits the v1
/// record-oriented format; write_binary_columnar emits v3 column blocks of
/// at most FlowBatch::kDefaultCapacity rows (same preamble, then
/// fixed-stride per-column arrays — the layout TraceReader::next_batch
/// decodes with a handful of bulk reads, and that a future mmap reader can
/// map in place). Both read back through the same entry points:
/// TraceReader dispatches on the version tag.
void write_binary(std::ostream& out, const TraceSet& trace);
void write_binary_file(const std::string& path, const TraceSet& trace);
void write_binary_columnar(std::ostream& out, const TraceSet& trace);
void write_binary_columnar_file(const std::string& path, const TraceSet& trace);
[[nodiscard]] TraceSet read_binary(std::istream& in);
[[nodiscard]] TraceSet read_binary_file(const std::string& path);

/// Span-based cores of the binary writers: serialize `n` flows with an
/// explicit window and optional ground truth (nullptr = none). The TraceSet
/// overloads above are thin wrappers; the service layer's FrameSender uses
/// these directly to frame slices of a flow stream as self-contained binary
/// mini-traces without materializing a TraceSet per frame.
void write_binary(std::ostream& out, const FlowRecord* flows, std::size_t n,
                  double window_start, double window_end,
                  const std::unordered_map<simnet::Ipv4, HostKind>* truth = nullptr);
void write_binary_columnar(std::ostream& out, const FlowRecord* flows, std::size_t n,
                           double window_start, double window_end,
                           const std::unordered_map<simnet::Ipv4, HostKind>* truth = nullptr);

}  // namespace tradeplot::netflow

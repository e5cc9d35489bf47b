// Streaming detection: FindPlotters as an online monitor.
//
// The paper's vantage point is a border monitor ingesting flow records
// continuously. StreamingDetector accepts flows in columnar batches (in
// rough time order; a single FlowRecord is ingested as a one-row batch),
// maintains per-host state incrementally, and emits a full FindPlotters
// result at each detection-window boundary (the paper's window D, one day by
// default), then rolls the window forward.
//
// Memory is bounded by the flows of the current window: all per-host state
// is released when the window rolls (the flat buffers keep their capacity,
// so a roll frees nothing). Flow ingestion is O(1) amortised per flow: a
// host-table probe, a few column updates and one event-log append. The
// per-window detection pass finalizes features through the same
// WindowAccumulator as the batch extractor, so a window's verdict — and
// every feature, interstitial order included — is identical to running
// extract_features + find_plotters over that window's flows, for any
// arrival order of the flows within the window.
//
// Shards. With StreamingConfig::shards = N > 1 the per-host state is split
// across N WindowAccumulators by a consistent-hash ring (shard/ring.h): a
// batch segment is routed once on the ingest thread into per-shard op lists
// (row order preserved per host), and the accumulation then runs
// shard-parallel on util::ThreadPool workers, each touching only its own
// shard. At a window close every shard finalizes in parallel, the
// host-disjoint per-shard FeatureMaps are spliced into one, and
// find_plotters runs once over it with the detector's one HmCache. The
// percentile thresholds and the θ_hm clustering therefore see the whole
// live population, and verdicts are bit-identical at every shard count —
// except in windows the timing budget degraded (each shard sheds against
// budget/N on its own hosts; degraded windows are exempt from cross-N
// equality, DESIGN.md §18). With N == 1 there is no ring lookup, no op list
// and no pool dispatch: rows go straight into the one accumulator.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "detect/accumulator.h"
#include "detect/features.h"
#include "detect/find_plotters.h"
#include "detect/hm_cache.h"
#include "shard/ring.h"

namespace tradeplot::netflow {
class TraceReader;
}

namespace tradeplot::detect {

class PayloadWriter;

struct StreamingConfig {
  /// Worker shards for per-host accumulation (>= 1). Part of the checkpoint
  /// identity: a checkpoint restores only into the same shard count.
  std::size_t shards = 1;
  /// Detection window length D (seconds). Results fire at each boundary.
  double window = 6 * 3600.0;
  /// Predicate for internal hosts (required).
  std::function<bool(simnet::Ipv4)> is_internal;
  /// Churn grace period within the window (paper: first hour of activity).
  double new_ip_grace = 3600.0;
  /// Pipeline thresholds.
  FindPlottersConfig pipeline{};
  /// Graceful-degradation budget: the maximum number of buffered
  /// per-destination timing samples across all hosts in one window
  /// (0 = unlimited). The timing buffers are the only per-window state that
  /// grows with traffic rather than with the host count; when the budget is
  /// exceeded the detector sheds the lowest-evidence hosts' timing state
  /// (fewest buffered samples first, ties by address) until usage is back
  /// under ~3/4 of the budget. Shed hosts keep their scalar counters exact
  /// (θ_vol and the failed-rate reduction are unaffected) but lose churn and
  /// interstitial evidence for the window, and the window's verdict is
  /// marked degraded. With shards > 1 each shard enforces budget/shards
  /// (at least 1) over its own hosts.
  std::size_t timing_budget = 0;
  /// Reuse θ_hm signatures and distance rows across windows for hosts whose
  /// timing buffers are unchanged (see detect/hm_cache.h). Verdicts are
  /// bit-identical with the cache on or off; only wall clock changes. The
  /// warm state rides along in checkpoints, so --resume keeps it.
  bool signature_cache = true;
};

struct WindowVerdict {
  std::size_t window_index = 0;
  double window_start = 0.0;
  double window_end = 0.0;
  std::size_t flows_seen = 0;
  /// The finalized per-host features the verdict was computed from (equal
  /// to extract_features over this window's flows).
  FeatureMap features;
  FindPlottersResult result;
  /// True when the timing budget forced state shedding this window: the
  /// verdict was computed from degraded (churn/timing-free) evidence for
  /// `hosts_shed` hosts. Scalar features stayed exact.
  bool degraded = false;
  std::size_t hosts_shed = 0;
  std::size_t timing_samples_shed = 0;
};

class StreamingDetector {
 public:
  using VerdictSink = std::function<void(const WindowVerdict&)>;

  /// Throws util::ConfigError if the config has zero shards, lacks
  /// is_internal or a sink, or has a non-positive window.
  StreamingDetector(StreamingConfig config, VerdictSink sink);

  /// Ingests a columnar batch, row by row in order. Flows may arrive
  /// slightly out of order *within* a window; a flow stamped before the
  /// current window start is counted into the current window (late arrival)
  /// rather than rejected. A flow past the current window boundary first
  /// closes the window (emitting a verdict) — possibly several empty windows
  /// in a row for long gaps — so windows roll mid-batch and verdicts do not
  /// depend on how the flows were cut into batches. The range overload
  /// ingests rows [begin, end), letting callers split a batch at a
  /// checkpoint boundary.
  void ingest(const netflow::FlowBatch& batch);
  void ingest(const netflow::FlowBatch& batch, std::size_t begin, std::size_t end);

  /// Ingests one flow as a one-row batch.
  void ingest(const netflow::FlowRecord& flow);

  /// Closes the current window and emits its verdict (e.g. at shutdown).
  /// A no-op when no window was ever opened (no flows ingested) or when the
  /// detector was already flushed — flush never emits an empty verdict for
  /// a window it never saw, and double-flush is idempotent.
  void flush();

  [[nodiscard]] std::size_t windows_emitted() const { return windows_emitted_; }
  [[nodiscard]] std::size_t flows_in_current_window() const { return flows_in_window_; }
  [[nodiscard]] double current_window_start() const { return window_start_; }
  /// Flows ingested over the detector's lifetime (across all windows).
  /// Stored in checkpoints so a resumed monitor knows how far to fast-
  /// forward the trace (see netflow::TraceReader::skip_flows).
  [[nodiscard]] std::uint64_t flows_ingested_total() const { return flows_ingested_total_; }

  /// The cross-window θ_hm cache (signatures, distance rows, and cumulative
  /// reuse/recompute counters). Counters let tests assert that a window in
  /// which one host's timing changed rebuilt only that host's signature and
  /// matrix rows.
  [[nodiscard]] const HmCache& hm_cache() const { return hm_cache_; }

  /// Serializes the full detector state (window bounds, counters, every
  /// shard's accumulator, the θ_hm cache) as a versioned, CRC-checked binary
  /// image (TPCK v4). A detector restored from the checkpoint and fed the
  /// remaining flows emits verdicts identical to the uninterrupted run.
  /// Throws util::IoError if the stream fails.
  void save_checkpoint(std::ostream& out) const;
  void save_checkpoint_file(const std::string& path) const;

  /// Replaces this detector's state with a checkpoint image. The detector
  /// must have been constructed with the same window, new_ip_grace and
  /// shard count as the one that saved it (util::ConfigError otherwise: the
  /// routing would no longer match the saved per-shard state). Throws
  /// util::ParseError on a bad magic/version/checksum or a truncated image
  /// — corrupt checkpoints are rejected, never partially applied. Images of
  /// older formats (TPCK v3 and v2, the former separate sharded image) are
  /// rejected with "checkpoint: unsupported version 3" / "... version 2" /
  /// "checkpoint: bad magic".
  void restore_checkpoint(std::istream& in);
  void restore_checkpoint_file(const std::string& path);

 private:
  /// Anchors the first window at `t` or closes every window `t` is past.
  void advance_to(double t);
  /// Accumulates rows [begin, end), all inside the open window.
  void apply(const netflow::FlowBatch& batch, std::size_t begin, std::size_t end);
  void emit();
  void observe_ingest(std::size_t flows);
  /// The checkpoint payload: config identity, window cursor, every shard's
  /// accumulator, the θ_hm cache.
  void encode_payload(PayloadWriter& w) const;

  StreamingConfig config_;
  VerdictSink sink_;
  shard::HashRing ring_;
  std::size_t shard_budget_ = 0;  // per-shard timing budget

  // Per-host accumulation for the current window (see detect/accumulator.h),
  // one accumulator per shard: scalar counters update flow by flow; start
  // times go to the accumulator's event log and are finalized (sorted ->
  // churn + interstitials) when the window closes, exactly as in the batch
  // extractor. emit() times the finalize and the release after the sink as
  // their own obs stages.
  std::vector<WindowAccumulator> accumulators_;
  /// Per-shard routed op lists for the batch segment being applied (shards
  /// > 1 only): row index, top bit marking a responder-side op.
  std::vector<std::vector<std::uint32_t>> ops_;

  HmCache hm_cache_;

  double window_start_ = 0.0;
  bool window_open_ = false;
  std::size_t flows_in_window_ = 0;
  std::size_t windows_emitted_ = 0;
  std::uint64_t flows_ingested_total_ = 0;
};

/// Drains `reader` into `detector` one next_batch() at a time and flushes
/// the final window at end-of-trace. Returns the number of flows fed. Combined with
/// TraceReader this is the bounded-memory ingestion path: the trace is never
/// materialized, so memory stays proportional to one detection window.
std::size_t feed(netflow::TraceReader& reader, StreamingDetector& detector);

}  // namespace tradeplot::detect

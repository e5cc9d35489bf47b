// Per-window, per-host feature accumulation for one shard of
// StreamingDetector: the detector keeps one accumulator per worker shard
// (exactly one by default) and routes each flow to the shard owning its
// internal host.
//
// The accumulator knows nothing about windows rolling or verdicts — it only
// absorbs the initiator/responder sides of flows, enforces the timing-sample
// budget, finalizes into a FeatureMap through the same
// finalize_destinations() as the batch extractor, and round-trips its state
// through the checkpoint payload codec: encode() produces one per-shard
// section of the TPCK checkpoint.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "detect/features.h"

namespace tradeplot::detect {

class PayloadReader;
class PayloadWriter;

/// Accumulated state for one internal host within the current window.
struct HostWindowState {
  HostFeatures features;
  PerDestinationTimes per_dst_times;  // dst -> initiated-flow start times
  std::size_t timing_samples = 0;     // total start times buffered above
  bool seen = false;
  bool timing_shed = false;  // budget shed dropped this host's timing state
};

class WindowAccumulator {
 public:
  /// Records `src` initiating a flow to `dst` at time `t`. Buffers the start
  /// time for churn/interstitial evidence unless the host was already shed;
  /// when `timing_budget` is non-zero and the buffered total crosses it, the
  /// lowest-evidence hosts are shed (fewest samples first, ties by address)
  /// down to ~3/4 of the budget. The caller has already decided `src` is
  /// internal.
  void apply_initiator(simnet::Ipv4 src, simnet::Ipv4 dst, double t,
                       std::uint64_t bytes_src, bool failed, std::size_t timing_budget);

  /// Records internal host `dst` answering a successful flow at time `t`.
  void apply_responder(simnet::Ipv4 dst, double t, std::uint64_t bytes_dst);

  /// Finalizes every host's per-destination state (churn + interstitials)
  /// via finalize_destinations and moves the features out. Destructive: the
  /// per-host state is consumed; call reset() before reusing the
  /// accumulator for the next window.
  [[nodiscard]] FeatureMap finalize(double grace);

  /// Drops all per-host state and the shed bookkeeping (window roll).
  void reset();

  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t timing_samples() const { return timing_samples_; }
  [[nodiscard]] std::size_t hosts_shed() const { return hosts_shed_; }
  [[nodiscard]] std::size_t timing_samples_shed() const { return timing_samples_shed_; }

  /// Serializes (timing bookkeeping + per-host records) in the TPCK
  /// per-shard section order; decode() is the exact inverse and throws
  /// util::ParseError on truncation.
  void encode(PayloadWriter& w) const;
  void decode(PayloadReader& r);

 private:
  void shed_timing_state(std::size_t timing_budget);

  std::unordered_map<simnet::Ipv4, HostWindowState> hosts_;
  std::size_t timing_samples_ = 0;  // buffered across all hosts
  std::size_t hosts_shed_ = 0;
  std::size_t timing_samples_shed_ = 0;
};

}  // namespace tradeplot::detect

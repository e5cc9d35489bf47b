// Per-host feature extraction from flow records.
//
// These are exactly the observables the paper's tests consume (§IV):
//   * average bytes uploaded per flow (volume),
//   * fraction of destination IPs first contacted after the host's first
//     hour of activity (peer churn),
//   * failed-connection rate among initiated flows (data reduction),
//   * per-destination flow interstitial times, pooled across destinations
//     (human-vs-machine timing).
//
// Extraction works on traffic summaries only — no payload is read.
#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "netflow/flow_batch.h"
#include "netflow/trace_set.h"
#include "simnet/address.h"

namespace tradeplot::netflow {
class TraceReader;
}

namespace tradeplot::detect {

/// How θ_vol quantifies a host's traffic volume (ablation knob; the paper
/// argues for kSentPerFlow over kCumulativeBytes in §IV-A).
enum class VolumeMetric {
  kSentPerFlow,           // bytes the host sent / flows it participated in
  kSentPerInitiatedFlow,  // restricted to flows the host initiated
  kCumulativeBytes,       // total bytes sent (the strawman)
};

struct HostFeatures {
  simnet::Ipv4 host;

  std::size_t flows_initiated = 0;
  std::size_t flows_failed = 0;     // among initiated
  std::size_t flows_received = 0;   // host is the responder
  std::uint64_t bytes_sent_initiated = 0;  // sent on flows it initiated
  std::uint64_t bytes_sent_received = 0;   // sent on flows it answered

  std::size_t distinct_dsts = 0;
  std::size_t dsts_after_first_hour = 0;  // first contacted after hour one
  double first_activity = 0.0;            // start of the host's first flow

  /// Pooled per-destination interstitial times between initiated flows:
  /// destinations in ascending address order, each one's gaps in time order.
  std::vector<double> interstitials;

  [[nodiscard]] double failed_rate() const {
    return flows_initiated == 0 ? 0.0
                                : static_cast<double>(flows_failed) /
                                      static_cast<double>(flows_initiated);
  }
  [[nodiscard]] bool initiated_success() const { return flows_initiated > flows_failed; }
  [[nodiscard]] double new_ip_fraction() const {
    return distinct_dsts == 0 ? 0.0
                              : static_cast<double>(dsts_after_first_hour) /
                                    static_cast<double>(distinct_dsts);
  }
  [[nodiscard]] double volume(VolumeMetric metric) const;
};

using FeatureMap = std::unordered_map<simnet::Ipv4, HostFeatures>;

struct FeatureExtractorConfig {
  /// The churn feature's "first hour of activity" horizon (seconds).
  double new_ip_grace = 3600.0;
  /// Predicate selecting the hosts under the administrator's purview
  /// (internal addresses). Required.
  std::function<bool(simnet::Ipv4)> is_internal;
};

/// Computes features for every internal host appearing in `trace`, through
/// the same WindowAccumulator (detect/accumulator.h) as StreamingDetector,
/// with no timing budget. Flows need not be time-ordered: each
/// destination's start times are sorted before the gaps are taken, and the
/// interstitials come out in the accumulator's canonical order.
[[nodiscard]] FeatureMap extract_features(const netflow::TraceSet& trace,
                                          const FeatureExtractorConfig& config);

/// Columnar variant: the same features accumulated by scanning SoA batch
/// columns (src/dst/start/bytes/state — the only fields the extractor
/// reads), so a trace held as FlowBatches never materializes records.
/// Batches are processed in order; features are identical to the AoS
/// overload on the equivalent flow sequence.
[[nodiscard]] FeatureMap extract_features(std::span<const netflow::FlowBatch> batches,
                                          const FeatureExtractorConfig& config);

/// Streaming variant: pulls column batches from `reader` until end-of-trace
/// (honoring its error policy), in bounded memory.
[[nodiscard]] FeatureMap extract_features(netflow::TraceReader& reader,
                                          const FeatureExtractorConfig& config);

/// Convenience predicate for the default campus subnets (128.2/16 and
/// 128.237/16, plus the honeynet block 10.99/16 used by raw bot traces).
[[nodiscard]] bool default_internal_predicate(simnet::Ipv4 addr);

}  // namespace tradeplot::detect

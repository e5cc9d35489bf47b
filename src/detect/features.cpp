#include "detect/features.h"

#include "detect/accumulator.h"
#include "netflow/trace_reader.h"
#include "util/error.h"

namespace tradeplot::detect {

double HostFeatures::volume(VolumeMetric metric) const {
  switch (metric) {
    case VolumeMetric::kSentPerFlow: {
      const std::size_t flows = flows_initiated + flows_received;
      if (flows == 0) return 0.0;
      return static_cast<double>(bytes_sent_initiated + bytes_sent_received) /
             static_cast<double>(flows);
    }
    case VolumeMetric::kSentPerInitiatedFlow: {
      if (flows_initiated == 0) return 0.0;
      return static_cast<double>(bytes_sent_initiated) / static_cast<double>(flows_initiated);
    }
    case VolumeMetric::kCumulativeBytes:
      return static_cast<double>(bytes_sent_initiated + bytes_sent_received);
  }
  return 0.0;
}

namespace {

/// Feeds one flow's two sides to `acc` exactly as StreamingDetector::apply
/// does, with no timing budget.
void add(WindowAccumulator& acc, const FeatureExtractorConfig& config, simnet::Ipv4 src,
         simnet::Ipv4 dst, double start, std::uint64_t bytes_src, std::uint64_t bytes_dst,
         bool failed) {
  if (config.is_internal(src)) acc.apply_initiator(src, dst, start, bytes_src, failed, 0);
  if (config.is_internal(dst) && !failed) acc.apply_responder(dst, start, bytes_dst);
}

void add_batch(WindowAccumulator& acc, const FeatureExtractorConfig& config,
               const netflow::FlowBatch& batch) {
  const simnet::Ipv4* src = batch.src();
  const simnet::Ipv4* dst = batch.dst();
  const double* start = batch.start_time();
  const std::uint64_t* bytes_src = batch.bytes_src();
  const std::uint64_t* bytes_dst = batch.bytes_dst();
  const netflow::FlowState* state = batch.state();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    add(acc, config, src[i], dst[i], start[i], bytes_src[i], bytes_dst[i],
        state[i] != netflow::FlowState::kEstablished);
  }
}

void require_predicate(const FeatureExtractorConfig& config) {
  if (!config.is_internal) throw util::ConfigError("extract_features: is_internal required");
}

}  // namespace

FeatureMap extract_features(const netflow::TraceSet& trace,
                            const FeatureExtractorConfig& config) {
  require_predicate(config);
  WindowAccumulator acc;
  for (const netflow::FlowRecord& rec : trace.flows())
    add(acc, config, rec.src, rec.dst, rec.start_time, rec.bytes_src, rec.bytes_dst,
        rec.failed());
  return acc.finalize(config.new_ip_grace);
}

FeatureMap extract_features(std::span<const netflow::FlowBatch> batches,
                            const FeatureExtractorConfig& config) {
  require_predicate(config);
  WindowAccumulator acc;
  for (const netflow::FlowBatch& batch : batches) add_batch(acc, config, batch);
  return acc.finalize(config.new_ip_grace);
}

FeatureMap extract_features(netflow::TraceReader& reader,
                            const FeatureExtractorConfig& config) {
  require_predicate(config);
  WindowAccumulator acc;
  netflow::FlowBatch batch;
  while (reader.next_batch(batch) > 0) add_batch(acc, config, batch);
  return acc.finalize(config.new_ip_grace);
}

bool default_internal_predicate(simnet::Ipv4 addr) {
  static const simnet::Subnet kNets[] = {
      simnet::Subnet(simnet::Ipv4(128, 2, 0, 0), 16),
      simnet::Subnet(simnet::Ipv4(128, 237, 0, 0), 16),
      simnet::Subnet(simnet::Ipv4(10, 99, 0, 0), 16),
  };
  for (const simnet::Subnet& net : kNets)
    if (net.contains(addr)) return true;
  return false;
}

}  // namespace tradeplot::detect

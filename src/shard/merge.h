// Cross-shard analysis over per-shard feature maps.
//
// FindPlotters' thresholds are percentiles over the whole live population
// and θ_hm clusters every surviving host of the window together, so the
// only exact merge is to run the pipeline once over the union of the
// host-disjoint per-shard maps. That is what StreamingDetector does at a
// window close; this helper is the same step for callers that hold the
// per-shard maps themselves (e.g. a traced replay of the detector).
#pragma once

#include <cstddef>
#include <span>

#include "detect/find_plotters.h"

namespace tradeplot::detect {
class HmCache;
}

namespace tradeplot::shard {

struct MergedPipelineReport {
  /// Hosts that entered θ_hm (S_vol ∪ S_churn over the whole population).
  std::size_t representatives = 0;
};

struct MergedResult {
  detect::FindPlottersResult result;
  MergedPipelineReport report;
};

/// find_plotters over the union of `shard_features` (host-disjoint), with
/// the first of `caches` (if any) as the θ_hm cache. The result is
/// identical to find_plotters over one map holding every host.
[[nodiscard]] inline MergedResult merged_find_plotters(
    std::span<const detect::FeatureMap> shard_features,
    const detect::FindPlottersConfig& config, std::span<detect::HmCache* const> caches = {}) {
  detect::FeatureMap all;
  std::size_t hosts = 0;
  for (const detect::FeatureMap& m : shard_features) hosts += m.size();
  all.reserve(hosts);
  for (const detect::FeatureMap& m : shard_features) all.insert(m.begin(), m.end());
  MergedResult merged;
  merged.result = detect::find_plotters(all, config, caches.empty() ? nullptr : caches[0]);
  merged.report.representatives = merged.result.vol_or_churn.size();
  return merged;
}

}  // namespace tradeplot::shard

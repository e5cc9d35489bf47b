#include "obs/profiler.h"

#include <array>
#include <atomic>

namespace tradeplot::obs {

std::string_view to_string(Stage s) {
  switch (s) {
    case Stage::kWindowClose: return "window_close";
    case Stage::kDataReduction: return "data_reduction";
    case Stage::kThetaVol: return "theta_vol";
    case Stage::kThetaChurn: return "theta_churn";
    case Stage::kThetaHm: return "theta_hm";
    case Stage::kSignatureBuild: return "signature_build";
    case Stage::kPairwiseDistance: return "pairwise_distance";
    case Stage::kClustering: return "clustering";
    case Stage::kCheckpointSave: return "checkpoint_save";
    case Stage::kCheckpointRestore: return "checkpoint_restore";
    case Stage::kBatchDecode: return "batch_decode";
    case Stage::kFinalize: return "finalize";
    case Stage::kRelease: return "release";
  }
  return "unknown";
}

Histogram& stage_histogram(Stage s) {
  // One atomic pointer per stage: after the first (mutex-guarded, in the
  // registry) registration, lookups are a single relaxed load. Racing first
  // calls both reach the registry, which dedups by (name, labels) and hands
  // back the same instance.
  static std::array<std::atomic<Histogram*>, kStageCount> cache{};
  const auto idx = static_cast<std::size_t>(s);
  Histogram* h = cache[idx].load(std::memory_order_acquire);
  if (h == nullptr) {
    h = &Registry::global().histogram(
        "tradeplot_stage_duration_seconds",
        "Wall-clock duration of one pipeline stage execution", duration_buckets(),
        {{"stage", std::string(to_string(s))}});
    cache[idx].store(h, std::memory_order_release);
  }
  return *h;
}

}  // namespace tradeplot::obs

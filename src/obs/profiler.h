// Stage profiler: RAII wall-clock timers for the detection pipeline phases.
//
// Every phase an operator would ask "where does the window's latency go?"
// about gets a Stage enum value; StageTimer records the enclosing scope's
// duration into the `tradeplot_stage_duration_seconds{stage="..."}`
// histogram family on the global registry. When obs::enabled() is false the
// timer never reads the clock and never touches the registry — constructing
// one costs a single branch, so timers can stay in place on hot paths.
//
// ScopedTimer is the generic building block (any histogram, nullable);
// StageTimer binds it to the per-stage family.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/metrics.h"

namespace tradeplot::obs {

/// Pipeline phases with per-stage latency histograms. Order is wire-stable
/// (names, not indices, are exported); extend at the end.
enum class Stage : std::uint8_t {
  kWindowClose,        // StreamingDetector::emit, end to end
  kDataReduction,      // §V-A failed-rate reduction
  kThetaVol,           // θ_vol volume test
  kThetaChurn,         // θ_churn churn test
  kThetaHm,            // θ_hm end to end
  kSignatureBuild,     // per-host histogram signatures
  kPairwiseDistance,   // the O(n²) distance matrix
  kClustering,         // agglomerative clustering + cut
  kCheckpointSave,
  kCheckpointRestore,
  kBatchDecode,        // one TraceReader::next_batch call (columnar decode)
  kFinalize,           // one window's accumulators -> FeatureMap
  kRelease,            // one window's state released after the sink
};
constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kRelease) + 1;

[[nodiscard]] std::string_view to_string(Stage s);

/// The `tradeplot_stage_duration_seconds{stage="..."}` histogram for one
/// stage, registered on the global registry on first use. Call only when
/// obs::enabled() — the lookup itself is lock-free after first registration.
[[nodiscard]] Histogram& stage_histogram(Stage s);

/// Records the scope's duration into `h` at destruction; a null histogram
/// makes the whole object a no-op (no clock reads).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) noexcept
      : h_(h), start_(h != nullptr ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (h_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    h_->observe(std::chrono::duration<double>(elapsed).count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

/// ScopedTimer bound to a pipeline stage; no-op while obs is disabled.
class StageTimer : public ScopedTimer {
 public:
  explicit StageTimer(Stage s)
      : ScopedTimer(enabled() ? &stage_histogram(s) : nullptr) {}
};

}  // namespace tradeplot::obs

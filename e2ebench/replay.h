// The traced replay: the detectors' per-flow and per-window work, driven
// layer by layer through the library's public functions with a span around
// each call.
//
// ReplayDetector reproduces StreamingDetector (shards == 1) and
// ShardedDetector (shards > 1) step for step: the same window anchoring and
// rolls, WindowAccumulator::apply_initiator/apply_responder (routed through
// HashRing::shard_of and applied per shard on the thread pool when sharded),
// WindowAccumulator::finalize, then find_plotters' own composition
// (data_reduction, volume_test, churn_test, host_union, human_machine_test
// with the detector's HmCache) or shard::merged_find_plotters. The run
// checks that its verdicts are byte-equal to the real detector's.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "detect/accumulator.h"
#include "detect/features.h"
#include "detect/hm_cache.h"
#include "detect/streaming.h"
#include "netflow/flow_batch.h"
#include "shard/ring.h"

namespace e2e {

class ReplayDetector {
 public:
  using Sink = std::function<void(const tradeplot::detect::WindowVerdict&)>;

  /// `tracer` may be null (no spans). Window length is kWindow and the
  /// pipeline configuration is the detectors' default, as in every workload.
  ReplayDetector(std::size_t shards, Tracer* tracer, Sink sink);

  void ingest(const tradeplot::netflow::FlowBatch& batch, std::size_t begin, std::size_t end);
  void flush();

  /// Checkpoint image of the replay state: every shard's accumulator and
  /// θ_hm cache through their public encode/decode, CRC-checked. Timed as
  /// checkpoint_save / checkpoint_restore.
  void save_checkpoint_file(const std::string& path);
  void restore_checkpoint_file(const std::string& path);

  [[nodiscard]] std::uint64_t flows_ingested_total() const { return flows_total_; }
  [[nodiscard]] double current_window_start() const { return window_start_; }

 private:
  void accumulate(const tradeplot::netflow::FlowBatch& batch, std::size_t begin, std::size_t end);
  void roll_to(double t);
  void emit();
  [[nodiscard]] tradeplot::detect::FindPlottersResult find_plotters_traced(
      const tradeplot::detect::FeatureMap& features);
  void count_hm(const tradeplot::detect::HumanMachineResult& hm);

  std::size_t shards_;
  Tracer* tracer_;
  Sink sink_;
  tradeplot::shard::HashRing ring_;
  tradeplot::detect::FindPlottersConfig pipeline_;
  /// Called through std::function, as the detectors' configs do.
  std::function<bool(tradeplot::simnet::Ipv4)> is_internal_ =
      tradeplot::detect::default_internal_predicate;

  std::vector<tradeplot::detect::WindowAccumulator> acc_;
  std::vector<tradeplot::detect::HmCache> caches_;
  std::vector<std::vector<std::uint32_t>> ops_;
  std::vector<std::uint64_t> shard_ops_total_;

  double window_start_ = 0.0;
  bool window_open_ = false;
  std::size_t flows_in_window_ = 0;
  std::size_t windows_emitted_ = 0;
  std::uint64_t flows_total_ = 0;
};

}  // namespace e2e

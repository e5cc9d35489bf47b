#include "replay.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "detect/features.h"
#include "detect/find_plotters.h"
#include "detect/payload_codec.h"
#include "shard/merge.h"
#include "util/checksum.h"
#include "util/parallel.h"

namespace e2e {

using namespace tradeplot;

namespace {

constexpr std::uint32_t kResponderBit = 0x80000000u;
constexpr double kGrace = 3600.0;  // StreamingConfig / ShardedConfig default

}  // namespace

ReplayDetector::ReplayDetector(std::size_t shards, Tracer* tracer, Sink sink)
    : shards_(shards), tracer_(tracer), sink_(std::move(sink)), ring_(shards) {
  acc_.resize(shards_);
  caches_.resize(shards_);
  ops_.resize(shards_);
  shard_ops_total_.assign(shards_, 0);
  // Phase timing reads a clock inside the clustering loops; it is on only
  // here, in the traced replay, and never changes a result.
  pipeline_.human_machine.collect_phase_timing = true;
}

void ReplayDetector::ingest(const netflow::FlowBatch& batch, std::size_t begin,
                            std::size_t end) {
  const double* start = batch.start_time();
  std::size_t i = begin;
  while (i < end) {
    if (!window_open_) {
      window_start_ = std::floor(start[i] / kWindow) * kWindow;
      window_open_ = true;
    }
    if (start[i] >= window_start_ + kWindow) {
      roll_to(start[i]);
      continue;
    }
    // Rows up to the next boundary crossing belong to the open window (late
    // rows included, as in the detectors).
    std::size_t k = i;
    const double limit = window_start_ + kWindow;
    while (k < end && start[k] < limit) ++k;
    accumulate(batch, i, k);
    i = k;
  }
}

void ReplayDetector::accumulate(const netflow::FlowBatch& batch, std::size_t begin,
                                std::size_t end) {
  const simnet::Ipv4* src = batch.src();
  const simnet::Ipv4* dst = batch.dst();
  const double* start = batch.start_time();
  const std::uint64_t* bytes_src = batch.bytes_src();
  const std::uint64_t* bytes_dst = batch.bytes_dst();
  const netflow::FlowState* state = batch.state();
  const auto& internal = is_internal_;
  std::uint64_t ops = 0;
  if (shards_ == 1) {
    const Scoped span(tracer_, "accumulate");
    detect::WindowAccumulator& acc = acc_[0];
    for (std::size_t i = begin; i < end; ++i) {
      const bool failed = state[i] != netflow::FlowState::kEstablished;
      if (internal(src[i])) {
        acc.apply_initiator(src[i], dst[i], start[i], bytes_src[i], failed, 0);
        ++ops;
      }
      if (internal(dst[i]) && !failed) {
        acc.apply_responder(dst[i], start[i], bytes_dst[i]);
        ++ops;
      }
    }
  } else {
    {
      const Scoped span(tracer_, "route");
      for (std::size_t i = begin; i < end; ++i) {
        const bool failed = state[i] != netflow::FlowState::kEstablished;
        if (internal(src[i])) ops_[ring_.shard_of(src[i])].push_back(static_cast<std::uint32_t>(i));
        if (internal(dst[i]) && !failed)
          ops_[ring_.shard_of(dst[i])].push_back(static_cast<std::uint32_t>(i) | kResponderBit);
      }
    }
    for (std::size_t s = 0; s < shards_; ++s) {
      ops += ops_[s].size();
      shard_ops_total_[s] += ops_[s].size();
    }
    const Scoped span(tracer_, "accumulate");
    util::parallel_for(0, shards_, 1, 0, [&](std::size_t s) {
      detect::WindowAccumulator& acc = acc_[s];
      for (const std::uint32_t op : ops_[s]) {
        const std::size_t i = op & ~kResponderBit;
        if ((op & kResponderBit) != 0) {
          acc.apply_responder(dst[i], start[i], bytes_dst[i]);
        } else {
          acc.apply_initiator(src[i], dst[i], start[i], bytes_src[i],
                              state[i] != netflow::FlowState::kEstablished, 0);
        }
      }
    });
    for (auto& list : ops_) list.clear();
  }
  if (tracer_) {
    tracer_->count("accumulate.ops", static_cast<double>(ops));
    if (shards_ > 1) tracer_->count("route.ops", static_cast<double>(ops));
  }
  flows_in_window_ += end - begin;
  flows_total_ += end - begin;
}

void ReplayDetector::roll_to(double t) {
  while (window_open_ && t >= window_start_ + kWindow) {
    emit();
    window_start_ += kWindow;
  }
}

void ReplayDetector::flush() {
  if (!window_open_) return;
  emit();
  window_open_ = false;
}

void ReplayDetector::count_hm(const detect::HumanMachineResult& hm) {
  if (!tracer_) return;
  const detect::HmPruneStats& p = hm.prune;
  tracer_->count("theta_hm.exact_evals", static_cast<double>(p.exact_kernel_evals));
  tracer_->count("theta_hm.pairs_total", static_cast<double>(p.pairs_total));
  tracer_->count("clustering.pivot_build_ms", p.pivot_build_ms);
  tracer_->count("clustering.bound_scan_ms", p.bound_scan_ms);
  tracer_->count("clustering.exact_eval_ms", p.exact_eval_ms);
  tracer_->count("clustering.replay_ms", p.replay_ms);
}

detect::FindPlottersResult ReplayDetector::find_plotters_traced(const detect::FeatureMap& features) {
  // detect::find_plotters, one public call per stage.
  detect::FindPlottersResult r;
  {
    const Scoped span(tracer_, "data_reduction");
    r.input = detect::all_hosts(features);
    if (!r.input.empty()) r.reduced = detect::data_reduction(features, r.input, pipeline_.reduction);
  }
  if (r.input.empty() || r.reduced.empty()) return r;
  {
    const Scoped span(tracer_, "theta_vol");
    r.s_vol = detect::volume_test(features, r.reduced, pipeline_.volume);
  }
  {
    const Scoped span(tracer_, "theta_churn");
    r.s_churn = detect::churn_test(features, r.reduced, pipeline_.churn);
  }
  {
    const Scoped span(tracer_, "theta_hm");
    r.vol_or_churn = detect::host_union(r.s_vol, r.s_churn);
    r.hm = detect::human_machine_test(features, r.vol_or_churn, pipeline_.human_machine,
                                      &caches_[0]);
  }
  r.plotters = r.hm.flagged;
  count_hm(r.hm);
  return r;
}

void ReplayDetector::emit() {
  const long window = static_cast<long>(windows_emitted_);
  detect::WindowVerdict verdict;
  verdict.window_index = windows_emitted_;
  verdict.window_start = window_start_;
  verdict.window_end = window_start_ + kWindow;
  verdict.flows_seen = flows_in_window_;
  std::uint64_t sig_built = 0, sig_reused = 0, dist_computed = 0, dist_reused = 0;
  for (const detect::HmCache& c : caches_) {
    sig_built -= c.signatures_built;
    sig_reused -= c.signatures_reused;
    dist_computed -= c.distances_computed;
    dist_reused -= c.distances_reused;
  }
  {
    const Scoped close_span(tracer_, "window_close", window);
    std::vector<detect::FeatureMap> features(shards_);
    {
      const Scoped span(tracer_, "finalize", window);
      if (tracer_) {
        for (const detect::WindowAccumulator& a : acc_) {
          tracer_->count("accumulate.hosts", static_cast<double>(a.host_count()));
          tracer_->count("accumulate.timing_samples", static_cast<double>(a.timing_samples()));
        }
      }
      if (shards_ == 1) {
        features[0] = acc_[0].finalize(kGrace);
      } else {
        util::parallel_for(0, shards_, 1, 0,
                           [&](std::size_t s) { features[s] = acc_[s].finalize(kGrace); });
      }
    }
    if (shards_ == 1) {
      if (!features[0].empty()) verdict.result = find_plotters_traced(features[0]);
      verdict.features = std::move(features[0]);
    } else {
      std::size_t hosts = 0;
      for (const detect::FeatureMap& m : features) hosts += m.size();
      if (hosts > 0) {
        const Scoped span(tracer_, "merge", window);
        std::vector<detect::HmCache*> caches;
        for (detect::HmCache& c : caches_) caches.push_back(&c);
        shard::MergedResult m = shard::merged_find_plotters(features, pipeline_, caches);
        verdict.result = std::move(m.result);
        if (tracer_)
          tracer_->count("merge.representatives", static_cast<double>(m.report.representatives));
        count_hm(verdict.result.hm);
      }
      verdict.features.reserve(hosts);
      for (detect::FeatureMap& m : features)
        for (auto& [host, f] : m) verdict.features.emplace(host, std::move(f));
    }
  }
  if (tracer_) {
    const detect::FindPlottersResult& r = verdict.result;
    tracer_->count("finalize.hosts", static_cast<double>(verdict.features.size()));
    tracer_->count("data_reduction.hosts_out", static_cast<double>(r.reduced.size()));
    tracer_->count("theta_vol.hosts_out", static_cast<double>(r.s_vol.size()));
    tracer_->count("theta_churn.hosts_out", static_cast<double>(r.s_churn.size()));
    tracer_->count("theta_hm.hosts_in", static_cast<double>(r.vol_or_churn.size()));
    for (const detect::HmCache& c : caches_) {
      sig_built += c.signatures_built;
      sig_reused += c.signatures_reused;
      dist_computed += c.distances_computed;
      dist_reused += c.distances_reused;
    }
    tracer_->count("theta_hm.signature_reuse", static_cast<double>(sig_reused));
    tracer_->count("theta_hm.signature_base", static_cast<double>(sig_reused + sig_built));
    tracer_->count("theta_hm.distance_reuse", static_cast<double>(dist_reused));
    tracer_->count("theta_hm.distance_base", static_cast<double>(dist_reused + dist_computed));
    if (shards_ > 1) {
      const auto hi = std::max_element(shard_ops_total_.begin(), shard_ops_total_.end());
      double sum = 0.0;
      for (const std::uint64_t n : shard_ops_total_) sum += static_cast<double>(n);
      if (sum > 0.0)
        tracer_->set("route.balance", static_cast<double>(*hi) * static_cast<double>(shards_) / sum);
    }
  }
  sink_(verdict);
  {
    // Releasing the window's state is part of the close, as in the detectors.
    const Scoped span(tracer_, "window_close", window);
    verdict = detect::WindowVerdict{};
    for (detect::WindowAccumulator& a : acc_) a.reset();
  }
  flows_in_window_ = 0;
  ++windows_emitted_;
}

// The image: u64 payload size, payload, u32 CRC-32 of the payload. The
// payload holds the window cursor and, per shard, the accumulator and the
// θ_hm cache in their own public codecs — the same sections, in the same
// order, as the detectors' checkpoints.
void ReplayDetector::save_checkpoint_file(const std::string& path) {
  const Scoped span(tracer_, "checkpoint_save");
  detect::PayloadWriter w;
  w.put(static_cast<std::uint8_t>(window_open_));
  w.put(window_start_);
  w.put(static_cast<std::uint64_t>(flows_in_window_));
  w.put(static_cast<std::uint64_t>(windows_emitted_));
  w.put(flows_total_);
  for (std::size_t s = 0; s < shards_; ++s) {
    acc_[s].encode(w);
    caches_[s].encode(w);
  }
  const std::string& payload = w.bytes();
  const std::uint32_t crc = util::crc32(payload.data(), payload.size());
  const auto size = static_cast<std::uint64_t>(payload.size());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(&size), sizeof(size));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.close();
  if (!out) throw std::runtime_error("replay checkpoint write failed: " + path);
  if (tracer_) {
    tracer_->count("checkpoint_save.count", 1.0);
    tracer_->count("checkpoint_save.bytes", static_cast<double>(payload.size() + 12));
  }
}

void ReplayDetector::restore_checkpoint_file(const std::string& path) {
  const Scoped span(tracer_, "checkpoint_restore");
  std::ifstream in(path, std::ios::binary);
  std::uint64_t size = 0;
  in.read(reinterpret_cast<char*>(&size), sizeof(size));
  std::string payload(static_cast<std::size_t>(size), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  std::uint32_t crc = 0;
  in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  if (!in || crc != util::crc32(payload.data(), payload.size()))
    throw std::runtime_error("replay checkpoint unreadable: " + path);
  detect::PayloadReader r(payload);
  window_open_ = r.take<std::uint8_t>() != 0;
  window_start_ = r.take<double>();
  flows_in_window_ = static_cast<std::size_t>(r.take<std::uint64_t>());
  windows_emitted_ = static_cast<std::size_t>(r.take<std::uint64_t>());
  flows_total_ = r.take<std::uint64_t>();
  for (std::size_t s = 0; s < shards_; ++s) {
    acc_[s] = detect::WindowAccumulator{};
    acc_[s].decode(r);
    caches_[s] = detect::HmCache{};
    caches_[s].decode(r);
  }
}

}  // namespace e2e

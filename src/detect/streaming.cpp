#include "detect/streaming.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>

#include "detect/payload_codec.h"
#include "netflow/trace_reader.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/replace_file.h"

namespace tradeplot::detect {

namespace {

/// Streaming-detector metric handles; registered as one family set on first
/// enabled use so scrapes cover degraded/checkpoint families even at zero.
struct StreamObs {
  obs::Counter& flows = obs::Registry::global().counter(
      "tradeplot_stream_flows_total", "Flows ingested by the streaming detector");
  obs::Counter& windows = obs::Registry::global().counter(
      "tradeplot_stream_windows_total", "Detection windows closed, by outcome",
      {{"outcome", "ok"}});
  obs::Counter& windows_degraded = obs::Registry::global().counter(
      "tradeplot_stream_windows_total", "Detection windows closed, by outcome",
      {{"outcome", "degraded"}});
  obs::Counter& hosts_shed = obs::Registry::global().counter(
      "tradeplot_stream_hosts_shed_total",
      "Hosts whose timing state was shed by the budget");
  obs::Counter& samples_shed = obs::Registry::global().counter(
      "tradeplot_stream_timing_samples_shed_total",
      "Buffered timing samples dropped by budget shedding");
  obs::Gauge& timing_samples = obs::Registry::global().gauge(
      "tradeplot_stream_timing_samples",
      "Per-destination timing samples currently buffered across all hosts");
  obs::Gauge& timing_budget = obs::Registry::global().gauge(
      "tradeplot_stream_timing_budget",
      "Configured timing-sample budget (0 = unlimited)");
  obs::Histogram& window_flows = obs::Registry::global().histogram(
      "tradeplot_window_flows", "Flows per closed detection window",
      obs::count_buckets());
  obs::Histogram& checkpoint_bytes = obs::Registry::global().histogram(
      "tradeplot_checkpoint_bytes", "Checkpoint payload size",
      obs::size_buckets());

  static StreamObs& get() {
    static StreamObs o;
    return o;
  }
};

constexpr std::uint32_t kResponderBit = 0x80000000u;

}  // namespace

StreamingDetector::StreamingDetector(StreamingConfig config, VerdictSink sink)
    : config_(std::move(config)),
      sink_(std::move(sink)),
      ring_(config_.shards) {  // ConfigError on zero shards
  if (!config_.is_internal)
    throw util::ConfigError("StreamingDetector: is_internal required");
  if (config_.window <= 0.0)
    throw util::ConfigError("StreamingDetector: window must be > 0");
  if (!sink_) throw util::ConfigError("StreamingDetector: verdict sink required");
  accumulators_.resize(config_.shards);
  if (config_.shards > 1) ops_.resize(config_.shards);
  // The exact global shed order would need cross-shard coordination on the
  // hot path; each shard sheds against its share instead (at one shard the
  // whole budget applies).
  shard_budget_ = config_.timing_budget == 0
                      ? 0
                      : std::max<std::size_t>(1, config_.timing_budget / config_.shards);
}

void StreamingDetector::advance_to(double t) {
  if (!window_open_) {
    // First flow anchors the first window at a whole multiple of D, so
    // window boundaries are stable regardless of when traffic starts.
    window_start_ = std::floor(t / config_.window) * config_.window;
    window_open_ = true;
  }
  while (t >= window_start_ + config_.window) {
    emit();
    window_start_ += config_.window;
  }
}

void StreamingDetector::observe_ingest(std::size_t flows) {
  if (!obs::enabled() || flows == 0) return;
  StreamObs& o = StreamObs::get();
  o.flows.add(flows);
  std::size_t samples = 0;
  for (const WindowAccumulator& acc : accumulators_) samples += acc.timing_samples();
  o.timing_samples.set(static_cast<double>(samples));
  o.timing_budget.set(static_cast<double>(config_.timing_budget));
}

void StreamingDetector::ingest(const netflow::FlowRecord& flow) {
  netflow::FlowBatch one(1);
  one.push_back(flow);
  ingest(one);
}

void StreamingDetector::ingest(const netflow::FlowBatch& batch) {
  ingest(batch, 0, batch.size());
}

void StreamingDetector::ingest(const netflow::FlowBatch& batch, std::size_t begin,
                               std::size_t end) {
  // Split the range at window boundaries: each segment is accumulated into
  // the open window, then the next segment's first row closes it. Late rows
  // (stamped before the window start) stay in the open window, so verdicts
  // land exactly where record-at-a-time ingestion would put them.
  const double* start = batch.start_time();
  std::size_t i = begin;
  while (i < end) {
    advance_to(start[i]);
    const double limit = window_start_ + config_.window;
    std::size_t k = i + 1;
    while (k < end && start[k] < limit) ++k;
    apply(batch, i, k);
    i = k;
  }
  observe_ingest(end - begin);
}

void StreamingDetector::apply(const netflow::FlowBatch& batch, std::size_t begin,
                              std::size_t end) {
  // Column scan: only the six fields the detector reads are ever touched,
  // so ingesting a batch streams ~33 bytes per flow instead of the whole
  // 144-byte record.
  const simnet::Ipv4* src = batch.src();
  const simnet::Ipv4* dst = batch.dst();
  const double* start = batch.start_time();
  const std::uint64_t* bytes_src = batch.bytes_src();
  const std::uint64_t* bytes_dst = batch.bytes_dst();
  const netflow::FlowState* state = batch.state();
  const auto& internal = config_.is_internal;
  if (accumulators_.size() == 1) {
    WindowAccumulator& acc = accumulators_[0];
    for (std::size_t i = begin; i < end; ++i) {
      const bool failed = state[i] != netflow::FlowState::kEstablished;
      if (internal(src[i]))
        acc.apply_initiator(src[i], dst[i], start[i], bytes_src[i], failed, shard_budget_);
      if (internal(dst[i]) && !failed) acc.apply_responder(dst[i], start[i], bytes_dst[i]);
    }
  } else {
    // Route once on this thread; a host's ops land in its shard's list in
    // row order, so every shard sees exactly the sub-sequence of flows it
    // owns, in arrival order.
    for (std::size_t i = begin; i < end; ++i) {
      const auto row = static_cast<std::uint32_t>(i);
      if (internal(src[i])) ops_[ring_.shard_of(src[i])].push_back(row);
      if (internal(dst[i]) && state[i] == netflow::FlowState::kEstablished)
        ops_[ring_.shard_of(dst[i])].push_back(row | kResponderBit);
    }
    // One task per shard; each touches only its own accumulator, so every
    // thread count produces identical per-shard state.
    util::parallel_for(0, accumulators_.size(), 1, [&](std::size_t s) {
      WindowAccumulator& acc = accumulators_[s];
      for (const std::uint32_t op : ops_[s]) {
        const std::size_t i = op & ~kResponderBit;
        if ((op & kResponderBit) != 0) {
          acc.apply_responder(dst[i], start[i], bytes_dst[i]);
        } else {
          acc.apply_initiator(src[i], dst[i], start[i], bytes_src[i],
                              state[i] != netflow::FlowState::kEstablished, shard_budget_);
        }
      }
      ops_[s].clear();
    });
  }
  flows_in_window_ += end - begin;
  flows_ingested_total_ += end - begin;
}

void StreamingDetector::emit() {
  const obs::StageTimer close_timer(obs::Stage::kWindowClose);
  const std::size_t shards = accumulators_.size();
  std::vector<std::size_t> shard_hosts(shards);
  std::size_t hosts_shed = 0, samples_shed = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    shard_hosts[s] = accumulators_[s].host_count();
    hosts_shed += accumulators_[s].hosts_shed();
    samples_shed += accumulators_[s].timing_samples_shed();
  }

  // Finalize every shard in parallel, each writing its own slot, then
  // splice the host-disjoint maps into one (node moves, no feature copies).
  FeatureMap features;
  {
    const obs::StageTimer finalize_timer(obs::Stage::kFinalize);
    std::vector<FeatureMap> parts(shards);
    util::parallel_for(0, shards, 1, [&](std::size_t s) {
      parts[s] = accumulators_[s].finalize(config_.new_ip_grace);
    });
    features = std::move(parts[0]);
    for (std::size_t s = 1; s < shards; ++s) features.merge(parts[s]);
  }

  WindowVerdict verdict;
  verdict.window_index = windows_emitted_;
  verdict.window_start = window_start_;
  verdict.window_end = window_start_ + config_.window;
  verdict.flows_seen = flows_in_window_;
  verdict.degraded = hosts_shed > 0;
  verdict.hosts_shed = hosts_shed;
  verdict.timing_samples_shed = samples_shed;
  if (!features.empty()) {
    verdict.result =
        find_plotters(features, config_.pipeline, config_.signature_cache ? &hm_cache_ : nullptr);
  }
  verdict.features = std::move(features);
  sink_(verdict);

  if (obs::enabled()) {
    StreamObs& o = StreamObs::get();
    (verdict.degraded ? o.windows_degraded : o.windows).add();
    o.hosts_shed.add(hosts_shed);
    o.samples_shed.add(samples_shed);
    o.window_flows.observe(static_cast<double>(flows_in_window_));
    o.timing_samples.set(0.0);
    // How evenly the ring spread this window's hosts (one series per shard).
    for (std::size_t s = 0; s < shards; ++s) {
      obs::Registry::global()
          .gauge("tradeplot_shard_window_hosts",
                 "Hosts a shard tracked in the last closed window",
                 {{"shard", std::to_string(s)}})
          .set(static_cast<double>(shard_hosts[s]));
    }
  }

  {
    const obs::StageTimer release_timer(obs::Stage::kRelease);
    verdict.features = FeatureMap{};
    for (WindowAccumulator& acc : accumulators_) acc.reset();
  }
  flows_in_window_ = 0;
  ++windows_emitted_;
}

void StreamingDetector::flush() {
  if (!window_open_) return;
  emit();
  window_open_ = false;
}

// ---------------------------------------------------------------------------
// Checkpoint format: a versioned, CRC-checked image of the full mid-window
// state. Layout (packed little-endian):
//
//   u32 magic "TPCK"   u32 version   u64 payload_size   payload   u32 crc32
//
// The payload opens with the config parameters the state depends on
// (window D, churn grace, shard count) so a restore into a differently-
// configured detector is rejected instead of silently producing different
// verdicts — a different shard count would route a host's future flows to
// a shard that does not hold its accumulated state. Then the window cursor,
// one accumulator section per shard, and the one θ_hm signature cache
// (detect/hm_cache.h), so a resumed monitor keeps its warm cross-window
// cache. (The codec classes live in detect/payload_codec.h.)
//
// Version 4 is the one image at every shard count; its accumulator sections
// are array dumps of the flat window state (detect/accumulator.h). Version 3
// (per-host, per-destination records), version 2 (no shard count, one
// accumulator) and the former separate sharded image are rejected by the
// version and magic checks.

namespace {

constexpr std::uint32_t kCkptMagic = 0x4B435054;  // "TPCK" on the wire
constexpr std::uint32_t kCkptVersion = 4;
/// Upper bound on a plausible checkpoint payload; a corrupted size field
/// must not make restore attempt a multi-gigabyte allocation.
constexpr std::uint64_t kCkptMaxPayload = 1ull << 30;

}  // namespace

void StreamingDetector::encode_payload(PayloadWriter& w) const {
  w.put(config_.window);
  w.put(config_.new_ip_grace);
  w.put(static_cast<std::uint64_t>(config_.shards));
  w.put(static_cast<std::uint8_t>(window_open_));
  w.put(window_start_);
  w.put(static_cast<std::uint64_t>(flows_in_window_));
  w.put(static_cast<std::uint64_t>(windows_emitted_));
  w.put(flows_ingested_total_);
  for (const WindowAccumulator& acc : accumulators_) acc.encode(w);
  hm_cache_.encode(w);
}

void StreamingDetector::save_checkpoint(std::ostream& out) const {
  const obs::StageTimer save_timer(obs::Stage::kCheckpointSave);
  // Size the payload before writing it: growing a buffer of many megabytes
  // by doubling holds two copies at once, and the allocator keeps the freed
  // blocks (e2ebench daemon_unix_paced, seed 1: peak RSS 101-117 MB
  // without the sizing pass, 72 MB with it).
  PayloadWriter sizer(PayloadWriter::Mode::kCount);
  encode_payload(sizer);
  PayloadWriter w;
  w.reserve(sizer.size());
  encode_payload(w);

  const std::string& payload = w.bytes();
  if (obs::enabled())
    StreamObs::get().checkpoint_bytes.observe(static_cast<double>(payload.size()));
  const std::uint32_t crc = util::crc32(payload.data(), payload.size());
  const auto put_raw = [&](const void* p, std::size_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  };
  put_raw(&kCkptMagic, sizeof(kCkptMagic));
  put_raw(&kCkptVersion, sizeof(kCkptVersion));
  const auto size = static_cast<std::uint64_t>(payload.size());
  put_raw(&size, sizeof(size));
  put_raw(payload.data(), payload.size());
  put_raw(&crc, sizeof(crc));
  out.flush();
  if (!out) throw util::IoError("checkpoint write failed");
}

void StreamingDetector::restore_checkpoint(std::istream& in) {
  const obs::StageTimer restore_timer(obs::Stage::kCheckpointRestore);
  const auto read_raw = [&](void* p, std::size_t n) {
    in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in.gcount()) != n)
      throw util::ParseError("checkpoint: truncated");
  };
  std::uint32_t magic = 0, version = 0;
  read_raw(&magic, sizeof(magic));
  if (magic != kCkptMagic) throw util::ParseError("checkpoint: bad magic");
  read_raw(&version, sizeof(version));
  if (version != kCkptVersion)
    throw util::ParseError("checkpoint: unsupported version " + std::to_string(version));
  std::uint64_t size = 0;
  read_raw(&size, sizeof(size));
  if (size > kCkptMaxPayload) throw util::ParseError("checkpoint: implausible payload size");
  std::string payload(static_cast<std::size_t>(size), '\0');
  read_raw(payload.data(), payload.size());
  std::uint32_t crc = 0;
  read_raw(&crc, sizeof(crc));
  if (crc != util::crc32(payload.data(), payload.size()))
    throw util::ParseError("checkpoint: checksum mismatch");

  PayloadReader r(payload);
  const auto window = r.take<double>();
  const auto grace = r.take<double>();
  const auto shards = r.take<std::uint64_t>();
  if (window != config_.window || grace != config_.new_ip_grace)
    throw util::ConfigError(
        "checkpoint: saved with different window/grace than this detector");
  if (shards != config_.shards)
    throw util::ConfigError("checkpoint: saved with " + std::to_string(shards) +
                            " shards, this detector runs " + std::to_string(config_.shards));

  // Decode into fresh state first; only swap in once the whole payload
  // parsed, so a fault mid-payload never leaves the detector half-restored.
  const auto open = r.take<std::uint8_t>();
  const auto window_start = r.take<double>();
  const auto flows_in_window = r.take<std::uint64_t>();
  const auto windows_emitted = r.take<std::uint64_t>();
  const auto flows_total = r.take<std::uint64_t>();
  std::vector<WindowAccumulator> accumulators(config_.shards);
  for (WindowAccumulator& acc : accumulators) acc.decode(r);
  HmCache cache;
  cache.decode(r);
  if (!r.exhausted()) throw util::ParseError("checkpoint: trailing bytes in payload");

  accumulators_ = std::move(accumulators);
  hm_cache_ = std::move(cache);
  window_open_ = open != 0;
  window_start_ = window_start;
  flows_in_window_ = static_cast<std::size_t>(flows_in_window);
  windows_emitted_ = static_cast<std::size_t>(windows_emitted);
  flows_ingested_total_ = flows_total;
}

void StreamingDetector::save_checkpoint_file(const std::string& path) const {
  util::replace_file(path, [this](std::ostream& out) { save_checkpoint(out); });
}

void StreamingDetector::restore_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::IoError("cannot open checkpoint for reading: " + path);
  restore_checkpoint(in);
}

std::size_t feed(netflow::TraceReader& reader, StreamingDetector& detector) {
  netflow::FlowBatch batch;
  std::size_t fed = 0;
  for (;;) {
    std::size_t n = 0;
    try {
      n = reader.next_batch(batch);
    } catch (...) {
      // A decode fault (strict policy / exhausted skip budget) may leave
      // rows already staged in `batch`; the reader counted them, so ingest
      // them before propagating — a restart that skip_flows()es past the
      // reader's records_ok must not lose those flows.
      if (!batch.empty()) detector.ingest(batch);
      throw;
    }
    if (n == 0) break;
    detector.ingest(batch);
    fed += n;
  }
  detector.flush();
  return fed;
}

}  // namespace tradeplot::detect

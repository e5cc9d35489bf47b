#include "workloads.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "detect/features.h"
#include "netflow/trace_reader.h"
#include "replay.h"
#include "shard/sharded_detector.h"
#include "svc/daemon.h"
#include "svc/frame.h"
#include "svc/net.h"
#include "svc/tenant.h"
#include "util/json.h"

namespace e2e {

using namespace tradeplot;

namespace {

constexpr std::size_t kShards = 4;
constexpr const char* kTenant = "campus";

/// Host times taken since `start`.
HostTimes since(const HostTimes& start) {
  const HostTimes now = host_times();
  return {now.cpu_s - start.cpu_s, now.steal_s - start.steal_s};
}

// ------------------------------------------------------------------ sinks

struct Emitted {
  std::vector<std::string> lines;    // svc::format_verdict_line, one per window
  std::vector<std::string> records;  // verdict_record, for the oracle
  std::vector<double> close_ms;      // boundary-crossing ingest call -> sink entry
};

/// The verdict sink of every file-driven pass: format the verdict line and
/// append it to a log, as the daemon's tenants do (the emit layer). It also
/// stamps window-close latency: mark_close_begin() is called right before
/// the ingest call whose first row crosses a window boundary.
class VerdictLog {
 public:
  VerdictLog(const std::string& path, Tracer* tracer)
      : out_(path, std::ios::trunc), tracer_(tracer) {
    if (!out_) throw std::runtime_error("cannot open " + path);
  }
  void mark_close_begin() { close_begin_ = now_s(); }
  void operator()(const detect::WindowVerdict& v) {
    got_.close_ms.push_back((now_s() - close_begin_) * 1e3);
    {
      const Scoped span(tracer_, "emit", static_cast<long>(v.window_index));
      std::string line = svc::format_verdict_line(v);
      out_ << line << '\n';
      out_.flush();
      if (tracer_) tracer_->count("emit.bytes", static_cast<double>(line.size() + 1));
      got_.lines.push_back(std::move(line));
    }
    got_.records.push_back(verdict_record(v.window_index, v.result));
  }
  [[nodiscard]] Emitted take() { return std::move(got_); }

 private:
  std::ofstream out_;
  Tracer* tracer_;
  double close_begin_ = 0.0;
  Emitted got_;
};

/// Splits incoming batches at window boundaries (so window-close latency is
/// stamped per ingest call) and at checkpoint boundaries (so a checkpoint
/// lands after exactly every `every`-th flow, as campus_monitor and the
/// daemon's tenants do), and feeds the segments to the detector.
template <class Detector>
class Feeder {
 public:
  Feeder(Detector& det, VerdictLog& log, std::uint64_t every, std::string ckpt,
         double first_boundary)
      : det_(det), log_(log), every_(every), ckpt_(std::move(ckpt)), boundary_(first_boundary) {}

  void feed(const netflow::FlowBatch& batch) {
    const std::size_t n = batch.size();
    if (n == 0) return;
    const double* t = batch.start_time();
    if (boundary_ < 0.0) boundary_ = std::floor(t[0] / kWindow) * kWindow + kWindow;
    std::size_t begin = 0;
    while (begin < n) {
      if (t[begin] >= boundary_) {
        log_.mark_close_begin();
        while (t[begin] >= boundary_) boundary_ += kWindow;
      }
      std::size_t end = begin + 1;
      while (end < n && t[end] < boundary_) ++end;
      if (every_ > 0) {
        const std::uint64_t until = every_ - det_.flows_ingested_total() % every_;
        end = static_cast<std::size_t>(std::min<std::uint64_t>(end, begin + until));
      }
      det_.ingest(batch, begin, end);
      fed_ += end - begin;
      begin = end;
      if (every_ > 0 && det_.flows_ingested_total() % every_ == 0) save();
    }
  }

  /// Writes through a temp file and renames it into place, like a tenant.
  void save() {
    det_.save_checkpoint_file(ckpt_ + ".tmp");
    if (std::rename((ckpt_ + ".tmp").c_str(), ckpt_.c_str()) != 0)
      throw std::runtime_error("rename failed: " + ckpt_);
  }

  void finish() {
    log_.mark_close_begin();
    det_.flush();
  }

  [[nodiscard]] std::uint64_t fed() const { return fed_; }

 private:
  Detector& det_;
  VerdictLog& log_;
  std::uint64_t every_;
  std::string ckpt_;
  double boundary_;
  std::uint64_t fed_ = 0;
};

template <class Detector>
std::uint64_t drain(netflow::TraceReader& reader, Feeder<Detector>& feeder, Tracer* tracer) {
  netflow::FlowBatch batch;
  for (;;) {
    std::size_t n = 0;
    {
      const Scoped span(tracer, "decode");
      n = reader.next_batch(batch);
    }
    if (n == 0) break;
    if (tracer) tracer->count("decode.rows", static_cast<double>(n));
    feeder.feed(batch);
  }
  feeder.finish();
  return feeder.fed();
}

std::function<void(const detect::WindowVerdict&)> sink_of(VerdictLog& log) {
  return [&log](const detect::WindowVerdict& v) { log(v); };
}

// ------------------------------------------------------------ file passes

struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;   // first read -> last verdict emitted
  double total_s = 0.0;  // set-up included
  HostTimes host;        // taken from the host during the pass, set-up included
  std::uint64_t flows = 0;
  Emitted got;
  std::map<std::string, std::pair<double, double>> layers;  // traced passes only
  std::map<std::string, double> counts;
};

detect::StreamingConfig streaming_config() {
  detect::StreamingConfig cfg;
  cfg.window = kWindow;
  cfg.is_internal = detect::default_internal_predicate;
  return cfg;
}

shard::ShardedConfig sharded_config() {
  shard::ShardedConfig cfg;
  cfg.shards = kShards;
  cfg.window = kWindow;
  cfg.is_internal = detect::default_internal_predicate;
  return cfg;
}

/// campus_v3_serial: the v3 corpus through one StreamingDetector. With a
/// tracer, the same input through the traced replay.
Pass serial_pass(const CorpusPaths& corpus, Tracer* tracer) {
  Pass p;
  const double t0 = now_s();
  VerdictLog log(tracer ? "replay.verdicts.jsonl" : "verdicts.jsonl", tracer);
  netflow::TraceReader reader(corpus.cbin());
  if (tracer) {
    ReplayDetector det(1, tracer, sink_of(log));
    Feeder<ReplayDetector> feeder(det, log, 0, "", -1.0);
    p.setup_s = now_s() - t0;
    const double t1 = now_s();
    p.flows = drain(reader, feeder, tracer);
    p.wall_s = now_s() - t1;
  } else {
    detect::StreamingDetector det(streaming_config(), sink_of(log));
    Feeder<detect::StreamingDetector> feeder(det, log, 0, "", -1.0);
    p.setup_s = now_s() - t0;
    const double t1 = now_s();
    p.flows = drain(reader, feeder, tracer);
    p.wall_s = now_s() - t1;
  }
  p.total_s = now_s() - t0;
  p.got = log.take();
  return p;
}

/// campus_csv_sharded_resume: the CSV corpus through a 4-shard
/// ShardedDetector resumed from the day-0 checkpoint. Set-up is the
/// restore plus the CSV fast-forward past day 0.
Pass sharded_pass(const CorpusPaths& corpus, Tracer* tracer) {
  Pass p;
  const double t0 = now_s();
  VerdictLog log(tracer ? "replay.verdicts.jsonl" : "verdicts.jsonl", tracer);
  netflow::TraceReader reader(corpus.csv());
  if (tracer) {
    ReplayDetector det(kShards, tracer, sink_of(log));
    det.restore_checkpoint_file("resume.replay");
    {
      const Scoped span(tracer, "skip");
      reader.skip_flows(static_cast<std::size_t>(det.flows_ingested_total()));
    }
    Feeder<ReplayDetector> feeder(det, log, kCheckpointEvery, "replay.ckpt",
                                  det.current_window_start() + kWindow);
    p.setup_s = now_s() - t0;
    const double t1 = now_s();
    p.flows = drain(reader, feeder, tracer);
    p.wall_s = now_s() - t1;
  } else {
    shard::ShardedDetector det(sharded_config(), sink_of(log));
    det.restore_checkpoint_file("resume.ckpt");
    reader.skip_flows(static_cast<std::size_t>(det.flows_ingested_total()));
    Feeder<shard::ShardedDetector> feeder(det, log, kCheckpointEvery, "sharded.ckpt",
                                          det.current_window_start() + kWindow);
    p.setup_s = now_s() - t0;
    const double t1 = now_s();
    p.flows = drain(reader, feeder, tracer);
    p.wall_s = now_s() - t1;
  }
  p.total_s = now_s() - t0;
  p.got = log.take();
  return p;
}

/// Ingests exactly the first `rows` flows of `reader` into `det`.
template <class Detector>
void ingest_prefix(netflow::TraceReader& reader, Detector& det, std::uint64_t rows) {
  netflow::FlowBatch batch;
  while (rows > 0) {
    const std::size_t n = reader.next_batch(batch);
    if (n == 0) throw std::runtime_error("corpus shorter than its first day");
    const auto take = static_cast<std::size_t>(std::min<std::uint64_t>(n, rows));
    det.ingest(batch, 0, take);
    rows -= take;
  }
}

/// The resume point of campus_csv_sharded_resume, saved untimed: every flow
/// of day 0 ingested, its window still open. The replay gets its own image
/// of the identical state.
void prepare_resume(const CorpusPaths& corpus, std::uint64_t day0_rows, bool replay) {
  const auto no_verdict = [](const detect::WindowVerdict&) {
    throw std::runtime_error("resume point closed a window");
  };
  {
    netflow::TraceReader reader(corpus.csv());
    shard::ShardedDetector det(sharded_config(), no_verdict);
    ingest_prefix(reader, det, day0_rows);
    det.save_checkpoint_file("resume.ckpt");
  }
  if (replay) {
    netflow::TraceReader reader(corpus.csv());
    ReplayDetector det(kShards, nullptr, no_verdict);
    ingest_prefix(reader, det, day0_rows);
    det.save_checkpoint_file("resume.replay");
  }
}

// ----------------------------------------------------------------- daemon

/// The v3 corpus as kFlows frames, back to back in one file; frames are read
/// on demand, so the process never holds the corpus.
class FrameFile {
 public:
  explicit FrameFile(const std::string& path) : fd_(::open(path.c_str(), O_RDONLY)) {
    if (fd_ < 0) throw std::runtime_error("cannot open " + path);
    char head[svc::kFrameHeaderSize];
    std::uint64_t off = 0;
    while (::pread(fd_, head, sizeof(head), static_cast<off_t>(off)) ==
           static_cast<ssize_t>(sizeof(head))) {
      std::uint32_t len = 0;
      std::memcpy(&len, head + 5, sizeof(len));
      offsets_.push_back(off);
      sizes_.push_back(svc::kFrameHeaderSize + len);
      off += svc::kFrameHeaderSize + len;
    }
  }
  ~FrameFile() { ::close(fd_); }
  FrameFile(const FrameFile&) = delete;
  FrameFile& operator=(const FrameFile&) = delete;

  [[nodiscard]] std::size_t count() const { return offsets_.size(); }
  void read(std::size_t i, std::vector<char>& out) const {
    out.resize(sizes_[i]);
    if (::pread(fd_, out.data(), out.size(), static_cast<off_t>(offsets_[i])) !=
        static_cast<ssize_t>(out.size()))
      throw std::runtime_error("short read in frame file");
  }

 private:
  int fd_;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint64_t> sizes_;
};

struct DaemonPass {
  double rate = 0.0;  // 0 = closed loop
  double setup_s = 0.0;
  bool completed = false;
  bool sustained = false;       // ladder rungs: see holds_limit
  double wall_s = 0.0;          // first send -> every row ingested
  std::vector<double> lag_ms;   // per frame: ingested - due
  std::vector<double> late_ms;  // per frame: generator lateness
  std::vector<double> wait_ms;  // per frame: ingested - accepted (queue + ingest)
  std::vector<double> close_ms; // mid-stream window closes
  std::uint64_t depth_max_rows = 0;
  double total_s = 0.0;  // set-up and shutdown included
  HostTimes host;        // taken from the host over total_s
  std::uint64_t rows_sent = 0;
  std::uint64_t shed = 0;
  std::uint64_t quarantined = 0;
  std::vector<std::string> lines;  // verdict log, deduplicated by window_index
};

svc::Frame recv_frame_blocking(int fd, svc::FrameParser& parser) {
  svc::Frame f;
  char buf[4096];
  const double deadline = now_s() + 30.0;
  while (!parser.next(f)) {
    if (now_s() > deadline) throw std::runtime_error("daemon did not answer");
    if (!svc::wait_readable(fd, 100)) continue;
    const std::size_t got = svc::recv_some(fd, buf, sizeof(buf));
    if (got == 0) throw std::runtime_error("daemon closed the connection");
    parser.append(buf, got);
  }
  return f;
}

std::vector<std::string> read_verdict_log(const std::string& path) {
  std::ifstream in(path);
  std::map<std::size_t, std::string> by_window;  // last entry wins
  std::string line;
  while (std::getline(in, line)) {
    std::size_t w = 0;
    if (std::sscanf(line.c_str(), "{\"window_index\":%zu", &w) == 1) by_window[w] = line;
  }
  std::vector<std::string> out;
  for (auto& [w, l] : by_window) out.push_back(std::move(l));
  return out;
}

/// One tenant as the workload runs it: lossless backpressure, one shard,
/// the default checkpoint cadence, a fresh state directory per daemon.
svc::DaemonConfig daemon_config(int index) {
  svc::DaemonConfig cfg;
  cfg.ingest = "unix:d" + std::to_string(index) + ".sock";
  cfg.state_dir = "state" + std::to_string(index);
  svc::TenantParams tenant_params;
  tenant_params.name = kTenant;
  tenant_params.window = kWindow;
  tenant_params.checkpoint_every = kCheckpointEvery;
  tenant_params.shards = 1;
  tenant_params.overflow = svc::Overflow::kBlock;
  cfg.tenants.push_back(tenant_params);
  return cfg;
}

/// Starts `daemon` and waits until its tenant is ready.
svc::Tenant* start_ready(svc::Daemon& daemon) {
  daemon.start();
  svc::Tenant* tenant = daemon.find_tenant(kTenant);
  while (!tenant->ready()) std::this_thread::sleep_for(std::chrono::microseconds(20));
  return tenant;
}

/// One pass of the corpus through an in-process daemon over a unix socket:
/// at `rate` flows/s on an open-loop schedule, or back to back when rate is
/// 0. The only sender thread also polls the tenant's cursors, which is how
/// lag, queue wait and window closes are observed from outside.
DaemonPass daemon_pass(const FrameFile& frames, const std::vector<std::uint64_t>& window_flows,
                       double rate, double abort_after_s, int index) {
  const HostTimes host0 = host_times();
  DaemonPass r;
  r.rate = rate;
  const std::size_t F = frames.count();
  const std::vector<std::uint64_t> rows = frame_rows(window_flows);
  if (rows.size() != F) throw std::runtime_error("frame file does not match the corpus shape");
  std::vector<std::uint64_t> row_end(F);  // rows in frames 0..f
  std::partial_sum(rows.begin(), rows.end(), row_end.begin());

  const svc::DaemonConfig cfg = daemon_config(index);
  const double t0 = now_s();
  svc::Daemon daemon(cfg);
  svc::Tenant* tenant = start_ready(daemon);
  r.setup_s = now_s() - t0;

  svc::Fd fd = svc::connect_to(svc::Endpoint::parse(cfg.ingest));
  {
    const std::vector<char> hello = svc::encode_frame(svc::FrameType::kHello, kTenant);
    if (!svc::send_all(fd.get(), hello.data(), hello.size()))
      throw std::runtime_error("hello failed");
    svc::FrameParser parser;
    if (recv_frame_blocking(fd.get(), parser).type != svc::FrameType::kHelloAck)
      throw std::runtime_error("no hello ack");
  }
  // Non-blocking while frames go out, so a full socket never stops the
  // sender from polling the tenant.
  const int blocking_flags = ::fcntl(fd.get(), F_GETFL);
  ::fcntl(fd.get(), F_SETFL, blocking_flags | O_NONBLOCK);

  // Boundary frame of each mid-stream window close: the frame that opens
  // the next window.
  std::vector<std::size_t> boundary_frame;
  {
    std::uint64_t row = 0;
    for (std::size_t w = 0; w + 1 < window_flows.size(); ++w) {
      row += window_flows[w];
      boundary_frame.push_back(static_cast<std::size_t>(
          std::upper_bound(row_end.begin(), row_end.end(), row) - row_end.begin()));
    }
  }

  std::vector<double> due(F), t_acc(F, -1.0), t_ing(F, -1.0), verdict_at;
  const double start = now_s() + 0.002;
  for (std::size_t f = 0; f < F; ++f) {
    const double before = static_cast<double>(row_end[f] - rows[f]);
    due[f] = rate > 0.0 ? start + before / rate : start;
  }
  std::vector<char> buf;
  frames.read(0, buf);
  std::size_t f = 0, off = 0, acc_f = 0, ing_f = 0;
  double prev_send_end = start;
  const auto poll_tenant = [&](double now) {
    const svc::Tenant::Stats s = tenant->stats();
    while (acc_f < F && s.accepted >= row_end[acc_f]) t_acc[acc_f++] = now;
    while (ing_f < F && s.ingested >= row_end[ing_f]) t_ing[ing_f++] = now;
    while (verdict_at.size() < s.verdicts) verdict_at.push_back(now);
    r.depth_max_rows = std::max(r.depth_max_rows, tenant->queued_rows());
  };

  bool aborted = false;
  for (;;) {
    const double now = now_s();
    poll_tenant(now);
    if (f < F) {
      if (now < due[f]) {
        std::this_thread::sleep_for(std::chrono::duration<double>(std::min(due[f] - now, 50e-6)));
      } else {
        if (off == 0) r.late_ms.push_back((now - std::max(due[f], prev_send_end)) * 1e3);
        const ssize_t k = ::send(fd.get(), buf.data() + off, buf.size() - off,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (k > 0) {
          off += static_cast<std::size_t>(k);
          if (off == buf.size()) {
            prev_send_end = now_s();
            r.rows_sent += rows[f];
            off = 0;
            if (++f < F) frames.read(f, buf);
          }
        } else if (k < 0 && (errno == EAGAIN || errno == EINTR)) {
          // Backpressure: the tenant queue is full and the socket with it.
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        } else {
          throw std::runtime_error("send to daemon failed");
        }
      }
    } else if (ing_f < F) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    } else {
      break;
    }
    if (ing_f < F && now - due[ing_f] > abort_after_s) {
      aborted = true;  // the backlog outgrew the rung; not worth finishing
      break;
    }
  }
  r.completed = !aborted;
  if (r.completed) {
    r.wall_s = t_ing[F - 1] - start;
    ::fcntl(fd.get(), F_SETFL, blocking_flags);
    const std::vector<char> flush = svc::encode_frame(svc::FrameType::kFlush, {});
    if (!svc::send_all(fd.get(), flush.data(), flush.size()))
      throw std::runtime_error("flush failed");
    svc::FrameParser parser;
    (void)recv_frame_blocking(fd.get(), parser);
    const std::vector<char> bye = svc::encode_frame(svc::FrameType::kBye, {});
    (void)svc::send_all(fd.get(), bye.data(), bye.size());
    for (std::size_t i = 0; i < F; ++i) {
      r.lag_ms.push_back((t_ing[i] - due[i]) * 1e3);
      r.wait_ms.push_back((t_ing[i] - t_acc[i]) * 1e3);
    }
    for (std::size_t w = 0; w < boundary_frame.size() && w < verdict_at.size(); ++w) {
      const std::size_t bf = boundary_frame[w];
      const double begin = std::max(t_acc[bf], bf > 0 ? t_ing[bf - 1] : start);
      r.close_ms.push_back((verdict_at[w] - begin) * 1e3);
    }
  }
  fd.reset();
  daemon.stop();
  const svc::Tenant::Stats s = tenant->stats();
  r.shed = s.shed;
  r.quarantined = s.quarantined;
  if (r.completed) r.lines = read_verdict_log(tenant->verdict_log_path());
  // Drop the pass's checkpoints now: left in place, their dirty pages would
  // be written back to disk during a later pass.
  std::filesystem::remove_all(cfg.state_dir);
  r.total_s = now_s() - t0;
  r.host = since(host0);
  return r;
}

/// The ladder's rule for a sustained rate: the rung completed, lag p99 and
/// the last frame's lag (the backlog left when sending stops) stay within
/// kLagLimitMs, and the median lag within a tenth of it. Percentiles are the
/// floor rank of the sorted lags.
bool holds_limit(const DaemonPass& d) {
  if (!d.completed || d.lag_ms.empty()) return false;
  std::vector<double> lag = d.lag_ms;
  std::sort(lag.begin(), lag.end());
  const auto rank = [&](double p) {
    return lag[static_cast<std::size_t>(p * static_cast<double>(lag.size() - 1))];
  };
  return rank(0.99) <= kLagLimitMs && d.lag_ms.back() <= kLagLimitMs &&
         rank(0.5) <= kLagLimitMs / 10.0;
}

/// The daemon path replayed on one thread: svc::FrameParser over the frame
/// file, each kFlows payload decoded by TraceReader, the tenant's
/// checkpoint cadence, and the detector's layers through ReplayDetector.
Pass daemon_replay(const CorpusPaths& corpus, Tracer* tracer) {
  Pass p;
  const double t0 = now_s();
  VerdictLog log("replay.verdicts.jsonl", tracer);
  ReplayDetector det(1, tracer, sink_of(log));
  Feeder<ReplayDetector> feeder(det, log, kCheckpointEvery, "replay.ckpt", -1.0);
  const int fd = ::open(corpus.frames().c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + corpus.frames());
  p.setup_s = now_s() - t0;
  const double t1 = now_s();
  svc::FrameParser parser;
  std::vector<char> chunk(64 * 1024);
  netflow::FlowBatch batch;
  svc::Frame frame;  // reused across frames, as the daemon's connection loop does
  for (;;) {
    bool got = false;
    bool eof = false;
    {
      const Scoped span(tracer, "frame_parse");
      got = parser.next(frame);
      if (!got) {
        const ssize_t n = ::read(fd, chunk.data(), chunk.size());
        if (n <= 0) eof = true;
        else parser.append(chunk.data(), static_cast<std::size_t>(n));
      }
    }
    if (eof) break;
    if (!got || frame.type != svc::FrameType::kFlows) continue;
    if (tracer) tracer->count("frame_parse.frames", 1.0);
    svc::MemoryStream payload(frame.payload.data(), frame.payload.size());
    std::optional<netflow::TraceReader> reader;
    {
      const Scoped span(tracer, "decode");
      reader.emplace(payload, netflow::ErrorPolicy::skip());
    }
    for (;;) {
      std::size_t n = 0;
      {
        const Scoped span(tracer, "decode");
        n = reader->next_batch(batch);
      }
      if (n == 0) break;
      if (tracer) tracer->count("decode.rows", static_cast<double>(n));
      feeder.feed(batch);
    }
    const Scoped span(tracer, "decode");
    reader.reset();
  }
  ::close(fd);
  // Tenant::stop: a final checkpoint of the open window, then the flush.
  feeder.save();
  feeder.finish();
  p.flows = feeder.fed();
  p.wall_s = now_s() - t1;
  p.total_s = now_s() - t0;
  p.got = log.take();
  return p;
}

// ----------------------------------------------------------------- output

void write_strings(util::JsonWriter& w, const std::vector<std::string>& v) {
  w.begin_array();
  for (const std::string& s : v) w.value(s);
  w.end_array();
}

void write_doubles(util::JsonWriter& w, const std::vector<double>& v) {
  w.begin_array();
  for (const double d : v) w.value(d);
  w.end_array();
}

void write_pass(util::JsonWriter& w, const Pass& p) {
  w.begin_object();
  w.kv("setup_s", p.setup_s);
  w.kv("wall_s", p.wall_s);
  w.kv("total_s", p.total_s);
  w.kv("cpu_s", p.host.cpu_s);
  w.kv("steal_s", p.host.steal_s);
  w.kv("flows", p.flows);
  w.key("close_ms");
  write_doubles(w, p.got.close_ms);
  w.key("lines");
  write_strings(w, p.got.lines);
  w.key("records");
  write_strings(w, p.got.records);
  if (!p.layers.empty()) {
    w.key("layers");
    w.begin_object();
    for (const auto& [name, t] : p.layers) {
      w.key(name);
      w.begin_array();
      w.value(t.first * 1e3);
      w.value(t.second * 1e3);
      w.end_array();
    }
    w.end_object();
    w.key("counts");
    w.begin_object();
    for (const auto& [name, v] : p.counts) w.kv(name, v);
    w.end_object();
  }
  w.end_object();
}

void write_daemon_pass(util::JsonWriter& w, const DaemonPass& d) {
  w.begin_object();
  w.kv("rate", d.rate);
  w.kv("setup_s", d.setup_s);
  w.kv("completed", d.completed);
  w.kv("sustained", d.sustained);
  w.kv("wall_s", d.wall_s);
  w.kv("rows_sent", d.rows_sent);
  w.kv("shed", d.shed);
  w.kv("quarantined", d.quarantined);
  w.kv("depth_max_rows", d.depth_max_rows);
  w.kv("total_s", d.total_s);
  w.kv("cpu_s", d.host.cpu_s);
  w.kv("steal_s", d.host.steal_s);
  w.key("lag_ms");
  write_doubles(w, d.lag_ms);
  w.key("late_ms");
  write_doubles(w, d.late_ms);
  w.key("wait_ms");
  write_doubles(w, d.wait_ms);
  w.key("close_ms");
  write_doubles(w, d.close_ms);
  w.key("lines");
  write_strings(w, d.lines);
  w.end_object();
}

/// One pass and the host times it took; traced when `tracer` is set.
Pass measured(const std::function<Pass(Tracer*)>& run, Tracer* tracer) {
  const HostTimes host0 = host_times();
  Pass p = run(tracer);
  p.host = since(host0);
  return p;
}

/// Writes the spans out, one JSON object per line, times in ms from the
/// first span.
void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  const double origin = tracer.spans().empty() ? 0.0 : tracer.spans().front().start;
  for (const Tracer::Span& s : tracer.spans()) {
    util::JsonWriter w(out, 0);
    w.begin_object();
    w.kv("name", s.name);
    w.kv("start_ms", (s.start - origin) * 1e3);
    w.kv("end_ms", (s.end - origin) * 1e3);
    w.kv("parent", static_cast<std::int64_t>(s.parent));
    w.kv("window", static_cast<std::int64_t>(s.window));
    w.end_object();
    out << '\n';
  }
}

/// A traced replay pass; its spans are written to spans.jsonl (the last
/// traced pass of a run is the one left there).
Pass traced(const std::function<Pass(Tracer*)>& run) {
  Tracer tracer;
  Pass p = measured(run, &tracer);
  write_spans(tracer, "spans.jsonl");
  p.layers = tracer.layer_times();
  p.counts = tracer.counts();
  return p;
}

}  // namespace

int run_workload(const RunArgs& a) {
  const CorpusPaths corpus{a.corpus};
  const std::vector<std::uint64_t> window_flows = corpus.window_flows();
  const double deadline = now_s() + a.seconds;
  std::vector<Pass> passes, replays;
  std::vector<double> setup_extra;
  std::vector<DaemonPass> closed, ladder;

  if (a.workload == "campus_v3_serial") {
    const auto run = [&](Tracer* t) { return serial_pass(corpus, t); };
    (void)run(nullptr);  // warm-up: page cache, allocator, lazy set-up
    do {
      passes.push_back(measured(run, nullptr));
      if (a.trace) replays.push_back(traced(run));
    } while (now_s() < deadline || passes.size() < (a.trace ? 1u : 3u));
    // Set-up here is only construction; repeat it so its median is steady.
    for (int i = 0; i < 500; ++i) {
      const double t0 = now_s();
      VerdictLog log("setup.jsonl", nullptr);
      netflow::TraceReader reader(corpus.cbin());
      detect::StreamingDetector det(streaming_config(), sink_of(log));
      setup_extra.push_back(now_s() - t0);
    }
  } else if (a.workload == "campus_csv_sharded_resume") {
    prepare_resume(corpus, window_flows.at(0), a.trace);
    const auto run = [&](Tracer* t) { return sharded_pass(corpus, t); };
    (void)run(nullptr);  // warm-up: page cache, allocator, thread pool
    do {
      passes.push_back(measured(run, nullptr));
      if (a.trace) replays.push_back(traced(run));
    } while (now_s() < deadline || passes.size() < (a.trace ? 1u : 3u));
  } else if (a.workload == "daemon_unix_paced") {
    const FrameFile frames(corpus.frames());
    int index = 0;
    const double abort_after = std::max(1.0, 4.0 * kLagLimitMs / 1e3);
    if (a.trace) {
      // Untraced reference passes (closed loop) beside the traced replay,
      // and one pass at the reference rate for the queue and generator.
      do {
        closed.push_back(daemon_pass(frames, window_flows, 0.0, 60.0, index++));
        replays.push_back(traced([&](Tracer* t) { return daemon_replay(corpus, t); }));
      } while (now_s() < deadline);
      ladder.push_back(daemon_pass(frames, window_flows, a.ladder.at(0), abort_after, index++));
    } else {
      // Closed-loop passes for the whole run, then the open-loop ladder.
      (void)daemon_pass(frames, window_flows, 0.0, 60.0, index++);  // warm-up
      do {
        closed.push_back(daemon_pass(frames, window_flows, 0.0, 60.0, index++));
      } while (now_s() < deadline || closed.size() < 3);
      int failures = 0;
      for (const double rate : a.ladder) {
        ladder.push_back(daemon_pass(frames, window_flows, rate, abort_after, index++));
        DaemonPass& d = ladder.back();
        d.sustained = holds_limit(d);
        failures = d.sustained ? 0 : failures + 1;
        if (failures >= 2) break;  // two rungs past capacity: the rest would fail too
      }
      // Set-up takes well under a millisecond; repeat it so its median is
      // steady.
      for (int i = 0; i < 100; ++i) {
        const svc::DaemonConfig cfg = daemon_config(index++);
        const double t0 = now_s();
        svc::Daemon daemon(cfg);
        (void)start_ready(daemon);
        setup_extra.push_back(now_s() - t0);
        daemon.stop();
        std::filesystem::remove_all(cfg.state_dir);
      }
    }
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  util::JsonWriter w(std::cout, 0);
  w.begin_object();
  w.kv("workload", a.workload);
  // The whole process's peak: passes keep the heap, as a long-running
  // monitor does.
  w.kv("peak_rss_mb", peak_rss_mb());
  w.key("passes");
  w.begin_array();
  for (const Pass& p : passes) write_pass(w, p);
  w.end_array();
  w.key("replays");
  w.begin_array();
  for (const Pass& p : replays) write_pass(w, p);
  w.end_array();
  w.key("setup_extra");
  write_doubles(w, setup_extra);
  w.key("closed");
  w.begin_array();
  for (const DaemonPass& d : closed) write_daemon_pass(w, d);
  w.end_array();
  w.key("ladder");
  w.begin_array();
  for (const DaemonPass& d : ladder) write_daemon_pass(w, d);
  w.end_array();
  w.end_object();
  std::cout << std::endl;
  return 0;
}

}  // namespace e2e

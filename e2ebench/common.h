// Shared pieces of the end-to-end benchmark binary: clocks, the span
// recorder used by the traced replay, verdict records, and the corpus
// layout that `e2ebench gen` writes and the workloads read.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "detect/streaming.h"

namespace e2e {

/// Detection window D: one campus day of the corpus per window.
inline constexpr double kWindow = 6 * 3600.0;
/// Rows per kFlows frame on the daemon path (the FrameSender default).
inline constexpr std::size_t kRowsPerFrame = 4096;
/// Flows between checkpoints (campus_monitor's and the daemon's default).
inline constexpr std::uint64_t kCheckpointEvery = 100000;
/// Campus days in the corpus, one window each.
inline constexpr std::size_t kDays = 2;
/// daemon_unix_paced: the ingest-lag limit of a sustained ladder rate.
inline constexpr double kLagLimitMs = 250.0;

/// Seconds on the steady clock.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Corpus files inside one generated directory.
struct CorpusPaths {
  std::string dir;
  [[nodiscard]] std::string cbin() const { return dir + "/corpus.cbin"; }
  [[nodiscard]] std::string csv() const { return dir + "/corpus.csv"; }
  /// The v3 corpus cut into kFlows frames, back to back, ready for a socket.
  [[nodiscard]] std::string frames() const { return dir + "/corpus.tpmf"; }
  [[nodiscard]] std::string oracle() const { return dir + "/oracle.jsonl"; }
  [[nodiscard]] std::string shape() const { return dir + "/shape.json"; }
  /// Rows of each window, in corpus order, as shape() records them.
  [[nodiscard]] std::vector<std::uint64_t> window_flows() const;
};

/// Rows of each kFlows frame of the daemon corpus, in order: kRowsPerFrame
/// per frame, and a frame is also cut at each window boundary, so every
/// window's first row opens a frame.
[[nodiscard]] std::vector<std::uint64_t> frame_rows(const std::vector<std::uint64_t>& window_flows);

/// What the host took from a pass beside its wall time: this process's CPU
/// time and the machine's steal time (vCPU time the hypervisor gave to
/// someone else), both in seconds since an arbitrary origin.
struct HostTimes {
  double cpu_s = 0.0;
  double steal_s = 0.0;
};
[[nodiscard]] HostTimes host_times();

/// One window's verdict as the oracle compares it: the funnel counts and the
/// plotter set, as one compact JSON object.
[[nodiscard]] std::string verdict_record(std::size_t window, const tradeplot::detect::FindPlottersResult& r);

/// In-memory span recorder for the traced replay. Spans nest on one thread
/// (the replay's driving thread); parallel sections are recorded as one span
/// around the fork-join call. Counts sit beside the spans under the same
/// layer names.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    long window = -1;
  };

  int open(const std::string& name, long window = -1);
  void close(int id);
  void count(const std::string& name, double v) { counts_[name] += v; }
  void set(const std::string& name, double v) { counts_[name] = v; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::map<std::string, double>& counts() const { return counts_; }
  /// Per layer name: total span time and self time (span time minus the time
  /// its child spans cover), in seconds.
  [[nodiscard]] std::map<std::string, std::pair<double, double>> layer_times() const;
  void clear();

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counts_;
};

/// RAII span; a null tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* t, const std::string& name, long window = -1)
      : t_(t), id_(t ? t->open(name, window) : -1) {}
  ~Scoped() {
    if (t_) t_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Peak resident set of this process so far (the kernel's VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace e2e

// One tenant = one StreamingDetector universe inside the monitor daemon
// (TenantParams::shards sets the detector's shard count; verdicts are
// identical at every count).
//
// Connection threads parse kFlows payloads into columnar batches and
// offer() them here; a dedicated worker thread drains the bounded queue
// into the detector. The queue is where load management happens:
//
//  * Overflow::kBlock — offer() waits for room: lossless backpressure that
//    stalls the socket (TCP pushes back on the client). The oracle-equality
//    guarantee (daemon verdicts == single-shot batch run) holds under this
//    policy.
//  * Overflow::kShed — offer() drops the whole batch when it does not fit,
//    accounts every dropped row, and returns immediately. This is the
//    service-level analog of the detector's timing_budget shedding: both
//    trade evidence for boundedness and both leave an audit trail
//    (Stats::shed here, WindowVerdict::degraded there).
//
// Durability: the worker checkpoints the detector every checkpoint_every
// flows (batch splitting makes the boundary record-exact, the same pattern
// as campus_monitor --checkpoint) through a temp-file + rename, so a crash
// never leaves a torn checkpoint. start() restores the newest checkpoint if
// one exists; a corrupt or mismatched image is quarantined (renamed aside)
// and the tenant starts fresh — restore problems are accounted, never fatal.
// Verdicts append to <state_dir>/<name>.verdicts.jsonl; after a crash +
// resume the log may repeat a window index (the re-run suffix of the
// window), so readers deduplicate by window_index, last entry wins — the
// checkpoint guarantee makes duplicates bit-identical under kBlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "detect/streaming.h"
#include "netflow/flow_batch.h"
#include "svc/config.h"
#include "util/clock.h"

namespace tradeplot::svc {

/// One verdict as a JSON line — the tenant verdict-log format, without the
/// trailing newline. Doubles print at %.17g, so equal verdicts produce equal
/// bytes; tests and the soak oracle format their expected verdicts through
/// this exact function and compare lines.
[[nodiscard]] std::string format_verdict_line(const detect::WindowVerdict& v);

class Tenant {
 public:
  /// Monotonic row/event accounting. accepted is the resume cursor the
  /// daemon acknowledges in HelloAck: every row a client offered is in
  /// exactly one of {queued-or-ingested, shed, quarantined}, and all three
  /// advance the cursor — an accounted loss is an answered row.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t ingested = 0;
    std::uint64_t shed = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t verdicts = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpoint_failures = 0;
    std::uint64_t restore_failures = 0;
  };

  struct Offer {
    std::uint64_t enqueued = 0;
    std::uint64_t shed = 0;
  };

  Tenant(TenantParams params, std::string state_dir, util::Clock& clock);
  ~Tenant();
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  /// Restores the checkpoint (if any), opens the verdict log, and spawns
  /// the worker. Throws util::IoError only for an unusable state_dir.
  void start();

  /// Graceful shutdown: drains the queue, writes a final checkpoint, then
  /// flushes the partial window (in that order — the checkpoint must
  /// describe the still-open window so a restart resumes it; the flushed
  /// verdict is the "superseded by restart" entry readers deduplicate).
  void stop();

  /// Offers a batch under the tenant's overflow policy. Advances the
  /// accepted cursor by batch.size() whether the rows were enqueued or
  /// shed. Thread-safe.
  Offer offer(netflow::FlowBatch&& batch);

  /// Rows the payload parser quarantined (malformed records). They advance
  /// the accepted cursor: the client's copy was answered, the loss is in
  /// the books.
  void add_quarantined(std::uint64_t n);

  /// Ingest barrier: blocks until every row enqueued before the call has
  /// been ingested, then returns the accounting snapshot (the kFlush
  /// reply). Does NOT close the detection window — windows roll on flow
  /// time only, so a barrier never perturbs verdicts.
  [[nodiscard]] Stats flush_barrier();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::uint64_t accepted_total() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t queued_rows() const;

  /// Ready = started, checkpoint settled, worker alive. Feeds /readyz.
  [[nodiscard]] bool ready() const { return ready_.load(std::memory_order_relaxed); }

  [[nodiscard]] const std::string& name() const { return params_.name; }
  [[nodiscard]] const TenantParams& params() const { return params_; }

  /// Applies reloadable knobs (queue_capacity, overflow, checkpoint_every,
  /// policy). Detector-shaping parameters (window, timing_budget, shards)
  /// are fixed per process lifetime — changing them would invalidate live
  /// state and saved checkpoints; a mismatch is reported, not applied.
  /// Returns false when a fixed parameter differed.
  bool update(const TenantParams& fresh);

  [[nodiscard]] std::string checkpoint_path() const;
  [[nodiscard]] std::string verdict_log_path() const;

  /// Daemon-global wall-clock checkpoint cadence (0 = flow-count only).
  /// Call before start().
  void set_checkpoint_interval(double seconds) { checkpoint_interval_ = seconds; }

 private:
  void worker_loop();
  void ingest_batch(const netflow::FlowBatch& batch);
  void save_checkpoint();
  void restore_on_start();
  void write_verdict(const detect::WindowVerdict& v);

  TenantParams params_;
  const std::string state_dir_;
  util::Clock& clock_;

  std::unique_ptr<detect::StreamingDetector> detector_;  // worker thread only (after start)
  std::ofstream verdict_log_;

  mutable std::mutex mutex_;
  std::condition_variable cv_nonempty_;
  std::condition_variable cv_nonfull_;
  std::condition_variable cv_drained_;
  std::deque<netflow::FlowBatch> queue_;
  std::uint64_t queued_rows_locked_ = 0;  // rows in queue_ (under mutex_)
  bool worker_busy_ = false;
  bool stopping_ = false;
  std::thread worker_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> ingested_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> verdicts_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> checkpoint_failures_{0};
  std::atomic<std::uint64_t> restore_failures_{0};
  std::atomic<bool> ready_{false};

  double next_interval_checkpoint_ = 0.0;  // worker thread only
  double checkpoint_interval_ = 0.0;       // fixed at start()
};

}  // namespace tradeplot::svc

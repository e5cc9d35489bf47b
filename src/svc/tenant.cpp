#include "svc/tenant.h"

#include <cstdio>
#include <utility>

#include "detect/features.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/interrupt.h"

namespace tradeplot::svc {

namespace {

obs::Counter* tenant_counter(const char* name, const char* help, const std::string& tenant) {
  if (!obs::enabled()) return nullptr;
  return &obs::Registry::global().counter(name, help, {{"tenant", tenant}});
}

}  // namespace

Tenant::Tenant(TenantParams params, std::string state_dir, util::Clock& clock)
    : params_(std::move(params)), state_dir_(std::move(state_dir)), clock_(clock) {}

Tenant::~Tenant() {
  if (worker_.joinable()) stop();
}

std::string Tenant::checkpoint_path() const {
  return state_dir_ + "/" + params_.name + ".ckpt";
}

std::string Tenant::verdict_log_path() const {
  return state_dir_ + "/" + params_.name + ".verdicts.jsonl";
}

std::string format_verdict_line(const detect::WindowVerdict& v) {
  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"window_index\":%zu,\"window_start\":%.17g,\"window_end\":%.17g,"
                "\"flows_seen\":%zu,\"hosts\":%zu,\"degraded\":%s,\"hosts_shed\":%zu,"
                "\"timing_samples_shed\":%zu,\"plotters\":[",
                v.window_index, v.window_start, v.window_end, v.flows_seen,
                v.features.size(), v.degraded ? "true" : "false", v.hosts_shed,
                v.timing_samples_shed);
  std::string line = head;
  for (std::size_t i = 0; i < v.result.plotters.size(); ++i) {
    if (i) line += ',';
    line += '"';
    line += v.result.plotters[i].to_string();
    line += '"';
  }
  line += "]}";
  return line;
}

void Tenant::write_verdict(const detect::WindowVerdict& v) {
  verdict_log_ << format_verdict_line(v) << '\n';
  verdict_log_.flush();
  verdicts_.fetch_add(1, std::memory_order_relaxed);
  if (auto* c = tenant_counter("tradeplot_svc_verdicts_total",
                               "Window verdicts emitted per tenant", params_.name))
    c->add();
}

void Tenant::restore_on_start() {
  const std::string path = checkpoint_path();
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return;  // first start: no checkpoint yet
  probe.close();
  try {
    detector_->restore_checkpoint_file(path);
  } catch (const util::Error& e) {
    // A torn or mismatched checkpoint must not keep the tenant down: move
    // it aside for post-mortem, account the failure, start fresh.
    restore_failures_.fetch_add(1, std::memory_order_relaxed);
    const std::string quarantine = path + ".corrupt";
    std::rename(path.c_str(), quarantine.c_str());
    std::fprintf(stderr, "[svc] tenant %s: checkpoint restore failed (%s); starting fresh\n",
                 params_.name.c_str(), e.what());
  }
}

void Tenant::start() {
  detect::StreamingConfig cfg;
  cfg.shards = static_cast<std::size_t>(params_.shards);
  cfg.window = params_.window;
  cfg.is_internal = detect::default_internal_predicate;
  cfg.timing_budget = static_cast<std::size_t>(params_.timing_budget);
  detector_ = std::make_unique<detect::StreamingDetector>(
      std::move(cfg), [this](const detect::WindowVerdict& v) { write_verdict(v); });

  restore_on_start();
  const std::uint64_t resumed = detector_->flows_ingested_total();
  accepted_.store(resumed, std::memory_order_relaxed);
  ingested_.store(resumed, std::memory_order_relaxed);

  verdict_log_.open(verdict_log_path(), std::ios::app);
  if (!verdict_log_)
    throw util::IoError("tenant " + params_.name + ": cannot open verdict log in " +
                        state_dir_);

  next_interval_checkpoint_ =
      checkpoint_interval_ > 0.0 ? clock_.now() + checkpoint_interval_ : 0.0;
  stopping_ = false;
  {
    // The worker must not be picked for SIGINT/SIGTERM/SIGHUP delivery —
    // those signals drive the process's cooperative-shutdown EINTR wakeups
    // (util/interrupt.h). The spawn inherits the blocked mask.
    util::ScopedWorkerSignalMask mask;
    worker_ = std::thread([this] { worker_loop(); });
  }
  ready_.store(true, std::memory_order_relaxed);
  if (obs::enabled()) {
    obs::Registry::global()
        .gauge("tradeplot_svc_tenant_ready", "1 once the tenant universe is serving",
               {{"tenant", params_.name}})
        .set(1.0);
    obs::Registry::global()
        .gauge("tradeplot_svc_tenant_live", "1 while the tenant worker thread runs",
               {{"tenant", params_.name}})
        .set(1.0);
  }
}

void Tenant::stop() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_nonempty_.notify_all();
  cv_nonfull_.notify_all();
  if (worker_.joinable()) worker_.join();
  ready_.store(false, std::memory_order_relaxed);

  if (detector_) {
    // Final checkpoint BEFORE flush: the checkpoint must capture the still-
    // open window so a restarted daemon resumes it; flush then emits the
    // partial-window verdict this run can still report.
    save_checkpoint();
    try {
      detector_->flush();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[svc] tenant %s: flush failed: %s\n", params_.name.c_str(),
                   e.what());
    }
  }
  if (obs::enabled())
    obs::Registry::global()
        .gauge("tradeplot_svc_tenant_live", "1 while the tenant worker thread runs",
               {{"tenant", params_.name}})
        .set(0.0);
}

Tenant::Offer Tenant::offer(netflow::FlowBatch&& batch) {
  Offer result;
  const std::uint64_t rows = batch.size();
  if (rows == 0) return result;
  accepted_.fetch_add(rows, std::memory_order_relaxed);

  bool shed = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto fits = [&] {
      // An oversize batch (> whole capacity) is admitted once the queue is
      // empty: blocking policy must make progress, not deadlock.
      return queued_rows_locked_ + rows <= params_.queue_capacity ||
             (params_.overflow == Overflow::kBlock && queue_.empty());
    };
    if (!fits()) {
      if (params_.overflow == Overflow::kShed || stopping_) {
        shed = true;
      } else {
        cv_nonfull_.wait(lock, [&] { return fits() || stopping_; });
        if (stopping_ && !fits()) shed = true;
      }
    }
    if (!shed) {
      queued_rows_locked_ += rows;
      queue_.push_back(std::move(batch));
      if (obs::enabled())
        obs::Registry::global()
            .histogram("tradeplot_svc_queue_depth_rows",
                       "Ingest queue depth (rows) observed at each offer",
                       obs::count_buckets(), {{"tenant", params_.name}})
            .observe(static_cast<double>(queued_rows_locked_));
    }
  }
  if (shed) {
    shed_.fetch_add(rows, std::memory_order_relaxed);
    result.shed = rows;
    if (auto* c = tenant_counter("tradeplot_svc_rows_shed_total",
                                 "Rows dropped by queue overflow policy", params_.name))
      c->add(rows);
  } else {
    result.enqueued = rows;
    cv_nonempty_.notify_one();
    if (auto* c = tenant_counter("tradeplot_svc_rows_enqueued_total",
                                 "Rows admitted to the ingest queue", params_.name))
      c->add(rows);
  }
  return result;
}

void Tenant::add_quarantined(std::uint64_t n) {
  if (n == 0) return;
  accepted_.fetch_add(n, std::memory_order_relaxed);
  quarantined_.fetch_add(n, std::memory_order_relaxed);
  if (auto* c = tenant_counter("tradeplot_svc_rows_quarantined_total",
                               "Malformed rows quarantined by the payload parser",
                               params_.name))
    c->add(n);
}

Tenant::Stats Tenant::flush_barrier() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_drained_.wait(lock, [&] { return queue_.empty() && !worker_busy_; });
  return stats();
}

Tenant::Stats Tenant::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.ingested = ingested_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  s.verdicts = verdicts_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.checkpoint_failures = checkpoint_failures_.load(std::memory_order_relaxed);
  s.restore_failures = restore_failures_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t Tenant::queued_rows() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return queued_rows_locked_;
}

bool Tenant::update(const TenantParams& fresh) {
  // shards shapes the live detector's routing and its checkpoint, so like
  // window/timing_budget it is fixed per process lifetime.
  const bool compatible = fresh.window == params_.window &&
                          fresh.timing_budget == params_.timing_budget &&
                          fresh.shards == params_.shards;
  std::unique_lock<std::mutex> lock(mutex_);
  params_.queue_capacity = fresh.queue_capacity;
  params_.overflow = fresh.overflow;
  params_.checkpoint_every = fresh.checkpoint_every;
  params_.policy = fresh.policy;
  lock.unlock();
  cv_nonfull_.notify_all();  // a raised capacity may unblock waiting offers
  return compatible;
}

void Tenant::save_checkpoint() {
  try {
    detector_->save_checkpoint_file(checkpoint_path());
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    if (auto* c = tenant_counter("tradeplot_svc_checkpoints_total",
                                 "Checkpoints written per tenant", params_.name))
      c->add();
  } catch (const std::exception& e) {
    // A failed checkpoint narrows the durability window but must not stop
    // ingestion; the failure is visible in stats and metrics.
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "[svc] tenant %s: checkpoint failed: %s\n", params_.name.c_str(),
                 e.what());
  }
}

void Tenant::ingest_batch(const netflow::FlowBatch& batch) {
  // Split the batch at checkpoint boundaries so a checkpoint lands after
  // exactly every checkpoint_every-th flow, record-granular — the same
  // discipline as campus_monitor --checkpoint, and the reason a resumed
  // daemon fast-forwards to an identical position.
  const std::uint64_t every = params_.checkpoint_every;
  const std::size_t n = batch.size();
  std::size_t begin = 0;
  while (begin < n) {
    std::size_t take = n - begin;
    if (every > 0) {
      const std::uint64_t until = every - detector_->flows_ingested_total() % every;
      if (static_cast<std::uint64_t>(take) > until) take = static_cast<std::size_t>(until);
    }
    detector_->ingest(batch, begin, begin + take);
    begin += take;
    ingested_.fetch_add(take, std::memory_order_relaxed);
    if (every > 0 && detector_->flows_ingested_total() % every == 0) save_checkpoint();
  }
  if (auto* c = tenant_counter("tradeplot_svc_rows_ingested_total",
                               "Rows the detector consumed per tenant", params_.name))
    c->add(n);
  if (checkpoint_interval_ > 0.0 && clock_.now() >= next_interval_checkpoint_) {
    save_checkpoint();
    next_interval_checkpoint_ = clock_.now() + checkpoint_interval_;
  }
}

void Tenant::worker_loop() {
  for (;;) {
    netflow::FlowBatch batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_nonempty_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping_ with a drained queue
      batch = std::move(queue_.front());
      queue_.pop_front();
      queued_rows_locked_ -= batch.size();
      worker_busy_ = true;
    }
    cv_nonfull_.notify_all();
    ingest_batch(batch);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      worker_busy_ = false;
    }
    cv_drained_.notify_all();
  }
  // Drained and stopping: wake any barrier waiting on the final batch.
  cv_drained_.notify_all();
}

}  // namespace tradeplot::svc

#include "svc/daemon.h"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "netflow/trace_reader.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "svc/frame.h"
#include "util/error.h"
#include "util/interrupt.h"

namespace tradeplot::svc {

namespace {

/// Socket-poll granularity: loops re-check stop flags and clock deadlines
/// at this cadence, so shutdown latency and timeout jitter are bounded by
/// it (timeout precision beyond this is not a goal).
constexpr int kPollMs = 100;

void count_frame(FrameType type) {
  if (!obs::enabled()) return;
  obs::Registry::global()
      .counter("tradeplot_svc_frames_total", "Protocol frames received by type",
               {{"type", std::string(to_string(type))}})
      .add();
}

void count_disconnect(const char* reason) {
  if (!obs::enabled()) return;
  obs::Registry::global()
      .counter("tradeplot_svc_disconnects_total", "Connection ends by reason",
               {{"reason", reason}})
      .add();
}

bool send_frame(int fd, FrameType type, std::string_view payload) {
  const std::vector<char> wire = encode_frame(type, payload);
  return send_all(fd, wire.data(), wire.size());
}

bool send_error(int fd, const std::string& reason) {
  return send_frame(fd, FrameType::kError, reason);
}

}  // namespace

Daemon::Daemon(DaemonConfig config, util::Clock& clock)
    : config_(std::move(config)), clock_(clock) {
  read_timeout_.store(config_.read_timeout);
  idle_timeout_.store(config_.idle_timeout);
}

Daemon::~Daemon() { stop(); }

void Daemon::track_thread(std::thread t) {
  std::lock_guard<std::mutex> lock(mutex_);
  threads_.push_back(std::move(t));
}

void Daemon::start() {
  if (running_.load()) return;
  if (config_.metrics) obs::set_enabled(true);

  if (::mkdir(config_.state_dir.c_str(), 0755) != 0 && errno != EEXIST)
    throw util::IoError("cannot create state_dir " + config_.state_dir + ": " +
                        std::strerror(errno));

  for (const TenantParams& params : config_.tenants) {
    auto tenant = std::make_unique<Tenant>(params, config_.state_dir, clock_);
    tenant->set_checkpoint_interval(config_.checkpoint_interval);
    tenant->start();
    std::lock_guard<std::mutex> lock(mutex_);
    tenants_.push_back(std::move(tenant));
  }

  ingest_listener_ = listen_on(Endpoint::parse(config_.ingest), 32, &ingest_port_);
  if (!config_.http.empty())
    http_listener_ = listen_on(Endpoint::parse(config_.http), 16, &http_port_);

  started_at_ = clock_.now();
  stopping_.store(false);
  running_.store(true);
  {
    // Service threads (and the connection threads they spawn, which inherit
    // this mask transitively) must leave SIGINT/SIGTERM/SIGHUP delivery to
    // the main thread; see util/interrupt.h.
    util::ScopedWorkerSignalMask mask;
    track_thread(std::thread([this] { accept_loop(); }));
    if (http_listener_.valid()) track_thread(std::thread([this] { http_loop(); }));
    track_thread(std::thread([this] { housekeeping_loop(); }));
  }
}

void Daemon::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);

  // Join in passes: the accept loops may spawn one last connection thread
  // before observing stopping_, and it lands in threads_ after the first
  // swap. Joining the accept loops first guarantees the second pass sees
  // every straggler.
  for (;;) {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      threads.swap(threads_);
    }
    if (threads.empty()) break;
    for (std::thread& t : threads)
      if (t.joinable()) t.join();
  }
  ingest_listener_.reset();
  http_listener_.reset();

  std::vector<Tenant*> all = tenants();
  for (Tenant* t : all) t->stop();
}

Tenant* Daemon::find_tenant(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& t : tenants_)
    if (t->name() == name) return t.get();
  return nullptr;
}

std::vector<Tenant*> Daemon::tenants() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Tenant*> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) out.push_back(t.get());
  return out;
}

std::string Daemon::reload(const DaemonConfig& fresh) {
  read_timeout_.store(fresh.read_timeout);
  idle_timeout_.store(fresh.idle_timeout);
  std::size_t updated = 0, added = 0, incompatible = 0;
  for (const TenantParams& params : fresh.tenants) {
    if (Tenant* existing = find_tenant(params.name)) {
      if (existing->update(params)) ++updated;
      else ++incompatible;
      continue;
    }
    auto tenant = std::make_unique<Tenant>(params, config_.state_dir, clock_);
    tenant->set_checkpoint_interval(config_.checkpoint_interval);
    tenant->start();
    std::lock_guard<std::mutex> lock(mutex_);
    tenants_.push_back(std::move(tenant));
    ++added;
  }
  if (obs::enabled())
    obs::Registry::global()
        .counter("tradeplot_svc_reloads_total", "Config reloads applied")
        .add();
  std::ostringstream out;
  out << "reload: " << updated << " tenant(s) updated, " << added << " added";
  if (incompatible > 0)
    out << ", " << incompatible
        << " kept prior window/timing_budget (fixed for process lifetime)";
  return out.str();
}

void Daemon::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!wait_readable(ingest_listener_.get(), kPollMs)) continue;
    Fd conn = accept_conn(ingest_listener_.get());
    if (!conn.valid()) continue;
    if (obs::enabled())
      obs::Registry::global()
          .counter("tradeplot_svc_connections_total", "Ingest connections accepted")
          .add();
    track_thread(std::thread([this, fd = std::move(conn)]() mutable {
      serve_connection(std::move(fd));
    }));
  }
}

void Daemon::serve_connection(Fd fd) {
  FrameParser parser;
  Frame frame;
  Tenant* tenant = nullptr;
  std::vector<char> rbuf(64 * 1024);
  double last_activity = clock_.now();

  while (!stopping_.load(std::memory_order_relaxed)) {
    // Drain every complete frame before touching the socket again: a
    // blocked tenant queue (backpressure) must stop the reads, not grow
    // the parser buffer.
    while (parser.next(frame)) {
      last_activity = clock_.now();
      count_frame(frame.type);
      switch (frame.type) {
        case FrameType::kHello: {
          const std::string name(frame.payload_view());
          tenant = find_tenant(name);
          if (tenant == nullptr) {
            (void)send_error(fd.get(), "unknown tenant: " + name);
            count_disconnect("unknown_tenant");
            return;
          }
          std::vector<char> ack;
          append_u64(ack, tenant->accepted_total());
          if (!send_frame(fd.get(), FrameType::kHelloAck,
                          {ack.data(), ack.size()})) {
            count_disconnect("peer_gone");
            return;
          }
          break;
        }
        case FrameType::kFlows: {
          if (tenant == nullptr) {
            (void)send_error(fd.get(), "flows before hello");
            break;
          }
          MemoryStream payload(frame.payload.data(), frame.payload.size());
          std::optional<netflow::TraceReader> reader;
          try {
            // The preamble is parsed here, so a payload that is not a trace
            // at all is answered like any other malformed payload.
            reader.emplace(payload, tenant->params().policy);
            for (;;) {
              netflow::FlowBatch batch;
              if (reader->next_batch(batch) == 0) break;
              (void)tenant->offer(std::move(batch));
            }
          } catch (const util::Error& e) {
            // Bad preamble, strict-policy fault or lost record sync inside
            // one payload: the faulting payload is abandoned (batches
            // completed before the fault were offered above), the
            // connection and other frames are fine.
            (void)send_error(fd.get(), e.what());
          }
          if (reader) tenant->add_quarantined(reader->ingest_stats().records_quarantined);
          break;
        }
        case FrameType::kFlush: {
          if (tenant == nullptr) {
            (void)send_error(fd.get(), "flush before hello");
            break;
          }
          const Tenant::Stats s = tenant->flush_barrier();
          std::vector<char> ack;
          append_u64(ack, s.accepted);
          append_u64(ack, s.ingested);
          append_u64(ack, s.shed);
          append_u64(ack, s.quarantined);
          if (!send_frame(fd.get(), FrameType::kFlushAck,
                          {ack.data(), ack.size()})) {
            count_disconnect("peer_gone");
            return;
          }
          break;
        }
        case FrameType::kBye:
          count_disconnect("bye");
          return;
        default:
          // Server-to-client types from a client: ignore with accounting
          // (count_frame above already recorded it).
          break;
      }
    }

    // A connection holding half a frame gets the (short) read timeout; an
    // idle one between frames gets the idle timeout.
    const double limit =
        parser.buffered() > 0 ? read_timeout_.load() : idle_timeout_.load();
    if (clock_.now() - last_activity > limit) {
      (void)send_error(fd.get(), parser.buffered() > 0 ? "read timeout" : "idle timeout");
      count_disconnect(parser.buffered() > 0 ? "read_timeout" : "idle_timeout");
      return;
    }

    if (!wait_readable(fd.get(), kPollMs)) continue;
    std::size_t got = 0;
    try {
      got = recv_some(fd.get(), rbuf.data(), rbuf.size());
    } catch (const util::IoError&) {
      count_disconnect("recv_error");
      return;
    }
    if (got == 0) {
      count_disconnect("eof");
      return;
    }
    parser.append(rbuf.data(), got);
    last_activity = clock_.now();
  }
  count_disconnect("shutdown");
}

std::string Daemon::http_response_for(const std::string& path) {
  const auto respond = [](int code, const char* status, const std::string& type,
                          const std::string& body) {
    std::ostringstream out;
    out << "HTTP/1.0 " << code << ' ' << status << "\r\nContent-Type: " << type
        << "\r\nContent-Length: " << body.size() << "\r\nConnection: close\r\n\r\n"
        << body;
    return out.str();
  };

  if (path == "/healthz") return respond(200, "OK", "text/plain", "ok\n");
  if (path == "/readyz") {
    std::string unready;
    for (Tenant* t : tenants())
      if (!t->ready()) unready += (unready.empty() ? "" : ", ") + t->name();
    if (unready.empty()) return respond(200, "OK", "text/plain", "ready\n");
    return respond(503, "Service Unavailable", "text/plain", "not ready: " + unready + "\n");
  }
  if (path == "/metrics") {
    if (!obs::enabled())
      return respond(503, "Service Unavailable", "text/plain",
                     "metrics disabled (set metrics = true)\n");
    return respond(200, "OK", "text/plain; version=0.0.4",
                   obs::to_prometheus(obs::Registry::global().snapshot()));
  }
  if (path == "/tenants") {
    std::ostringstream body;
    body << "{\"tenants\":[";
    bool first = true;
    for (Tenant* t : tenants()) {
      const Tenant::Stats s = t->stats();
      if (!first) body << ',';
      first = false;
      body << "{\"name\":\"" << t->name() << "\",\"ready\":" << (t->ready() ? "true" : "false")
           << ",\"accepted\":" << s.accepted << ",\"ingested\":" << s.ingested
           << ",\"shed\":" << s.shed << ",\"quarantined\":" << s.quarantined
           << ",\"verdicts\":" << s.verdicts << ",\"checkpoints\":" << s.checkpoints
           << ",\"checkpoint_failures\":" << s.checkpoint_failures
           << ",\"restore_failures\":" << s.restore_failures
           << ",\"queued_rows\":" << t->queued_rows() << "}";
    }
    body << "]}";
    return respond(200, "OK", "application/json", body.str());
  }
  return respond(404, "Not Found", "text/plain", "not found\n");
}

void Daemon::serve_http(Fd fd) {
  // Minimal HTTP/1.0: read the request head (bounded), answer, close.
  std::string req;
  char buf[2048];
  const double deadline = clock_.now() + 5.0;
  while (req.find("\r\n\r\n") == std::string::npos && req.size() < 8192) {
    if (stopping_.load(std::memory_order_relaxed) || clock_.now() > deadline) return;
    if (!wait_readable(fd.get(), kPollMs)) continue;
    std::size_t got = 0;
    try {
      got = recv_some(fd.get(), buf, sizeof(buf));
    } catch (const util::IoError&) {
      return;
    }
    if (got == 0) break;
    req.append(buf, got);
  }
  std::istringstream head(req);
  std::string method, path;
  head >> method >> path;
  if (method != "GET" || path.empty()) return;
  const std::string response = http_response_for(path);
  (void)send_all(fd.get(), response.data(), response.size());
}

void Daemon::http_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!wait_readable(http_listener_.get(), kPollMs)) continue;
    Fd conn = accept_conn(http_listener_.get());
    if (!conn.valid()) continue;
    track_thread(
        std::thread([this, fd = std::move(conn)]() mutable { serve_http(std::move(fd)); }));
  }
}

void Daemon::housekeeping_loop() {
  // Touch the family up front so a scrape in the daemon's first second
  // already sees it (at 0) instead of a missing series.
  obs::Counter* uptime =
      obs::enabled()
          ? &obs::Registry::global().counter("tradeplot_svc_uptime_seconds_total",
                                             "Whole seconds since daemon start")
          : nullptr;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Real-time cadence (stop latency); elapsed time via the injected clock.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    if (uptime == nullptr) continue;
    const auto up = static_cast<std::uint64_t>(clock_.now() - started_at_);
    if (up > uptime_reported_) {
      uptime->add(up - uptime_reported_);
      uptime_reported_ = up;
    }
  }
}

}  // namespace tradeplot::svc

// Campus monitor: the operational scenario from the paper's introduction.
//
// A network administrator collects border flow records day after day and
// wants a morning report: which internal hosts look like P2P bots? This
// example simulates a working week, runs FindPlotters on each day, and
// prints the report an operator would read — flagged hosts, their feature
// profile, and (since this is a simulation) whether the alarm was right.
//
// Usage: campus_monitor [days] [seed]
//        campus_monitor --stream <trace.(csv|bin)> [window_s] [options]
//
// The --stream mode is the production ingestion path: it pulls flows from
// the trace file through netflow::TraceReader into detect::StreamingDetector,
// so memory stays bounded by one detection window no matter how large the
// trace is, and prints the same per-window report. It is also the
// fault-tolerant path:
//   --policy strict|skip|stop-after=N   what to do with malformed records
//                                       (default strict; skip quarantines
//                                       and keeps going)
//   --checkpoint PATH                   periodically checkpoint detector
//   --checkpoint-every N                state every N flows (default 100000)
//   --resume PATH                       restore a checkpoint, fast-forward
//                                       the trace, and continue
//   --timing-budget N                   per-window cap on buffered timing
//                                       samples; beyond it the lowest-
//                                       evidence state is shed and the
//                                       window is marked degraded
//   --metrics PATH[,interval_s]         enable the obs metrics registry and
//                                       write a snapshot to PATH at exit
//                                       ("-" = stdout); with an interval,
//                                       also rewrite it periodically so a
//                                       textfile scraper sees live values
//   --metrics-format prom|json          snapshot format (default prom)
//   --shards N                          accumulate per-host state on N
//                                       worker shards (default 1); the
//                                       report is byte-identical at every
//                                       N (windows degraded by the timing
//                                       budget aside); a checkpoint resumes
//                                       only at the N that saved it
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "botnet/honeynet.h"
#include "detect/find_plotters.h"
#include "detect/streaming.h"
#include "eval/day.h"
#include "netflow/trace_reader.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "svc/sender.h"
#include "util/error.h"
#include "util/format.h"
#include "util/interrupt.h"
#include "util/parallel.h"

using namespace tradeplot;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [days] [seed]\n"
               "       %s --stream <trace.(csv|bin)> [window_s]\n"
               "                 [--policy strict|skip|stop-after=N]\n"
               "                 [--checkpoint PATH] [--checkpoint-every N]\n"
               "                 [--resume PATH] [--timing-budget N]\n"
               "                 [--metrics PATH[,interval_s]] [--metrics-format prom|json]\n"
               "                 [--shards N]\n"
               "       %s --send <trace.(csv|bin)> --endpoint EP --tenant NAME\n"
               "days and window_s must be positive numbers; seed and N must be\n"
               "non-negative integers. --send streams the trace to a running\n"
               "campus_monitord (EP like tcp:127.0.0.1:7171 or unix:/path.sock).\n",
               argv0, argv0, argv0);
  return 2;
}

// std::atof/std::atoi silently turn garbage into 0; these helpers accept a
// value only when the whole argument parses.
bool parse_double_arg(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  out = std::strtod(s, &end);
  return *end == '\0';
}

bool parse_u64_arg(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

struct StreamOptions {
  std::string path;
  double window = 6 * 3600.0;
  netflow::ErrorPolicy policy{};
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 100000;
  std::string resume_path;
  std::uint64_t timing_budget = 0;
  std::string metrics_path;  // empty = metrics disabled
  double metrics_interval = 0.0;  // seconds between periodic dumps (0 = exit only)
  obs::ExpositionFormat metrics_format = obs::ExpositionFormat::kPrometheus;
  std::uint64_t shards = 1;
};

std::string_view policy_name(const netflow::ErrorPolicy& policy) {
  switch (policy.action) {
    case netflow::OnError::kStrict: return "strict";
    case netflow::OnError::kSkip: return "skip";
    case netflow::OnError::kStopAfter: return "stop-after";
  }
  return "unknown";
}

std::string verdict(const eval::DayData& day, simnet::Ipv4 host) {
  if (day.is_storm(host)) return "TRUE POSITIVE (Storm)";
  if (day.is_nugache(host)) return "TRUE POSITIVE (Nugache)";
  if (day.is_trader(host)) return "false alarm (file-sharing host)";
  return "false alarm (" + std::string(netflow::to_string(day.combined.kind_of(host))) + ")";
}

// The fault-tolerant driver: resume fast-forward, record-granular
// checkpoint boundaries, SIGINT handling, the summary.
template <class DumpFn>
int drive_stream(const StreamOptions& opt, netflow::TraceReader& reader,
                 detect::StreamingDetector& detector, const DumpFn& dump_metrics,
                 int& flagged_total, int& tp_total, int& degraded_windows) {
  if (!opt.resume_path.empty()) {
    detector.restore_checkpoint_file(opt.resume_path);
    const auto already = detector.flows_ingested_total();
    const std::size_t skipped = reader.skip_flows(static_cast<std::size_t>(already));
    std::printf("resumed from %s: %llu flows already ingested, fast-forwarded %zu\n\n",
                opt.resume_path.c_str(), static_cast<unsigned long long>(already), skipped);
  }

  // Ingest columnar batches (rather than detect::feed) so we can checkpoint
  // periodically and, on a mid-trace failure, still flush the partial
  // window instead of discarding everything ingested since the last
  // boundary. Batches are split at checkpoint boundaries with the range-
  // ingest overload, so a checkpoint still lands after exactly every
  // checkpoint_every-th flow — record-granular, batch size notwithstanding
  // — and --resume fast-forwards to the identical position.
  std::size_t fed = 0;
  bool failed = false;
  bool interrupted = false;
  std::string error;
  auto next_dump = std::chrono::steady_clock::now() +
                   std::chrono::duration<double>(opt.metrics_interval);
  const bool checkpointing = !opt.checkpoint_path.empty() && opt.checkpoint_every > 0;
  try {
    netflow::FlowBatch batch;
    for (;;) {
      // Graceful SIGINT/SIGTERM: stop pulling at a batch boundary, write a
      // final checkpoint, flush the partial window, exit 0. A blocked read
      // (e.g. a FIFO source) is interrupted too: the signal handlers omit
      // SA_RESTART and util::read_retry turns the interruption into a clean
      // short read at a record boundary.
      if (util::shutdown_requested()) {
        interrupted = true;
        break;
      }
      std::size_t n = 0;
      try {
        n = reader.next_batch(batch);
      } catch (...) {
        // A decode fault may leave rows already staged in the batch; the
        // reader counted them, so ingest them before reporting the error —
        // otherwise a --resume past records_ok would skip flows the
        // detector never saw.
        if (!batch.empty()) {
          detector.ingest(batch);
          fed += batch.size();
        }
        throw;
      }
      if (n == 0) break;
      std::size_t begin = 0;
      while (begin < n) {
        std::size_t take = n - begin;
        if (checkpointing) {
          const std::uint64_t until_boundary =
              opt.checkpoint_every - detector.flows_ingested_total() % opt.checkpoint_every;
          if (static_cast<std::uint64_t>(take) > until_boundary)
            take = static_cast<std::size_t>(until_boundary);
        }
        detector.ingest(batch, begin, begin + take);
        begin += take;
        fed += take;
        if (checkpointing && detector.flows_ingested_total() % opt.checkpoint_every == 0) {
          detector.save_checkpoint_file(opt.checkpoint_path);
        }
      }
      // Clock checks are amortized over a batch of flows; a periodic scrape
      // does not need per-flow precision.
      if (opt.metrics_interval > 0.0 &&
          std::chrono::steady_clock::now() >= next_dump) {
        dump_metrics();
        next_dump = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(opt.metrics_interval);
      }
    }
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }
  if (interrupted) {
    // Checkpoint BEFORE flushing: the checkpoint must describe the still-
    // open window so --resume continues it; the verdicts printed below are
    // this run's partial view. The marker line lets a comparing harness
    // separate complete windows (above) from the partial tail (below).
    if (checkpointing) detector.save_checkpoint_file(opt.checkpoint_path);
    std::printf("=== interrupted: final checkpoint %s; flushing partial window ===\n",
                checkpointing ? opt.checkpoint_path.c_str() : "skipped (no --checkpoint)");
  }
  try {
    detector.flush();
  } catch (const std::exception& e) {
    if (!failed) throw;
    std::fprintf(stderr, "while flushing partial window: %s\n", e.what());
  }

  const netflow::IngestStats& stats = reader.ingest_stats();
  std::printf("=== summary: %zu flows across %zu windows, %d flagged (%d true positives) ===\n",
              fed, detector.windows_emitted(), flagged_total, tp_total);
  if (degraded_windows > 0)
    std::printf("  %d window(s) emitted degraded verdicts (timing budget %llu)\n",
                degraded_windows, static_cast<unsigned long long>(opt.timing_budget));
  if (stats.records_quarantined > 0 || stats.lost_sync) {
    std::printf("  ingest health (policy %s): %zu ok, %zu quarantined across %zu resync event(s)%s\n",
                std::string(policy_name(opt.policy)).c_str(), stats.records_ok,
                stats.records_quarantined, stats.resync_events,
                stats.lost_sync ? ", stream abandoned after losing record sync" : "");
    std::printf("  first fault (record %zu): %s\n", stats.first_error_record,
                stats.first_error.c_str());
  }
  dump_metrics();
  if (failed) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

int run_stream(const StreamOptions& opt) {
  if (!opt.metrics_path.empty()) {
    obs::set_enabled(true);
    // Pre-register the whole per-stage family so a scrape shows every
    // pipeline stage (checkpoint save/restore included) even before it has
    // run once — absent series and zero series are different signals.
    for (std::size_t s = 0; s < obs::kStageCount; ++s)
      (void)obs::stage_histogram(static_cast<obs::Stage>(s));
  }
  const auto dump_metrics = [&] {
    if (opt.metrics_path.empty()) return;
    obs::write_snapshot_file(opt.metrics_path, obs::Registry::global().snapshot(),
                             opt.metrics_format);
  };

  netflow::TraceReader reader(opt.path, opt.policy);
  std::printf("streaming %s (%s) in %.0f s windows, bounded-memory ingestion",
              opt.path.c_str(), std::string(netflow::to_string(reader.format())).c_str(),
              opt.window);
  if (opt.shards > 1)
    std::printf(", %llu worker shards", static_cast<unsigned long long>(opt.shards));
  std::printf("\n\n");

  int flagged_total = 0, tp_total = 0, degraded_windows = 0;
  const auto on_verdict = [&](const detect::WindowVerdict& v) {
    std::printf("=== window %zu [%.0f, %.0f): %zu flows, %zu internal hosts%s ===\n",
                v.window_index, v.window_start, v.window_end, v.flows_seen, v.features.size(),
                v.degraded ? " [DEGRADED]" : "");
    if (v.degraded) {
      ++degraded_windows;
      std::printf("  timing budget exceeded: shed %zu hosts' timing state (%zu samples);\n"
                  "  volume/failed-rate evidence stayed exact\n",
                  v.hosts_shed, v.timing_samples_shed);
    }
    if (v.result.plotters.empty()) {
      std::printf("  nothing flagged\n\n");
      return;
    }
    std::printf("  %-16s %10s %12s %10s %8s  %s\n", "host", "flows", "avg B/flow", "failed%",
                "new-IP%", "assessment");
    for (const simnet::Ipv4 host : v.result.plotters) {
      const detect::HostFeatures& f = v.features.at(host);
      // Ground truth travels in the trace preamble; unknown hosts stay
      // "unlabeled" when the trace carries none.
      const auto it = reader.truth().find(host);
      const netflow::HostKind kind =
          it == reader.truth().end() ? netflow::HostKind::kUnknown : it->second;
      const bool is_bot = netflow::host_class(kind) == netflow::HostClass::kPlotter;
      std::printf("  %-16s %10zu %12.0f %9.1f%% %7.1f%%  %s (%s)\n", host.to_string().c_str(),
                  f.flows_initiated, f.volume(detect::VolumeMetric::kSentPerFlow),
                  f.failed_rate() * 100.0, f.new_ip_fraction() * 100.0,
                  is_bot ? "TRUE POSITIVE" : "false alarm",
                  std::string(netflow::to_string(kind)).c_str());
      ++flagged_total;
      if (is_bot) ++tp_total;
    }
    std::printf("\n");
  };

  detect::StreamingConfig cfg;
  cfg.shards = static_cast<std::size_t>(opt.shards);
  cfg.window = opt.window;
  cfg.is_internal = detect::default_internal_predicate;
  cfg.timing_budget = static_cast<std::size_t>(opt.timing_budget);
  detect::StreamingDetector detector(cfg, on_verdict);
  return drive_stream(opt, reader, detector, dump_metrics, flagged_total, tp_total,
                      degraded_windows);
}

int parse_stream_args(int argc, char** argv, StreamOptions& opt) {
  opt.path = argv[2];
  int i = 3;
  if (i < argc && std::strncmp(argv[i], "--", 2) != 0) {
    if (!parse_double_arg(argv[i], opt.window) || opt.window <= 0.0) {
      std::fprintf(stderr, "bad window '%s': must be a positive number of seconds\n", argv[i]);
      return usage(argv[0]);
    }
    ++i;
  }
  for (; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--policy") {
      const char* v = value();
      std::uint64_t n = 0;
      if (v != nullptr && std::strcmp(v, "strict") == 0) {
        opt.policy = netflow::ErrorPolicy::strict();
      } else if (v != nullptr && std::strcmp(v, "skip") == 0) {
        opt.policy = netflow::ErrorPolicy::skip();
      } else if (v != nullptr && std::strncmp(v, "stop-after=", 11) == 0 &&
                 parse_u64_arg(v + 11, n)) {
        opt.policy = netflow::ErrorPolicy::stop_after(static_cast<std::size_t>(n));
      } else {
        std::fprintf(stderr, "bad --policy '%s'\n", v == nullptr ? "(missing)" : v);
        return usage(argv[0]);
      }
    } else if (flag == "--checkpoint") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.checkpoint_path = v;
    } else if (flag == "--checkpoint-every") {
      const char* v = value();
      if (v == nullptr || !parse_u64_arg(v, opt.checkpoint_every) ||
          opt.checkpoint_every == 0) {
        std::fprintf(stderr, "bad --checkpoint-every '%s': must be a positive integer\n",
                     v == nullptr ? "(missing)" : v);
        return usage(argv[0]);
      }
    } else if (flag == "--resume") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.resume_path = v;
    } else if (flag == "--timing-budget") {
      const char* v = value();
      if (v == nullptr || !parse_u64_arg(v, opt.timing_budget)) {
        std::fprintf(stderr, "bad --timing-budget '%s': must be a non-negative integer\n",
                     v == nullptr ? "(missing)" : v);
        return usage(argv[0]);
      }
    } else if (flag == "--metrics") {
      const char* v = value();
      if (v == nullptr || *v == '\0') {
        std::fprintf(stderr, "bad --metrics: expected PATH[,interval_s]\n");
        return usage(argv[0]);
      }
      const std::string_view arg = v;
      const std::size_t comma = arg.rfind(',');
      if (comma == std::string_view::npos) {
        opt.metrics_path = std::string(arg);
      } else {
        const std::string interval(arg.substr(comma + 1));
        if (!parse_double_arg(interval.c_str(), opt.metrics_interval) ||
            opt.metrics_interval <= 0.0) {
          std::fprintf(stderr, "bad --metrics interval '%s': must be a positive number\n",
                       interval.c_str());
          return usage(argv[0]);
        }
        opt.metrics_path = std::string(arg.substr(0, comma));
      }
      if (opt.metrics_path.empty()) {
        std::fprintf(stderr, "bad --metrics '%s': empty path\n", v);
        return usage(argv[0]);
      }
    } else if (flag == "--shards") {
      const char* v = value();
      if (v == nullptr || !parse_u64_arg(v, opt.shards) || opt.shards == 0) {
        std::fprintf(stderr, "bad --shards '%s': must be a positive integer\n",
                     v == nullptr ? "(missing)" : v);
        return usage(argv[0]);
      }
    } else if (flag == "--metrics-format") {
      const char* v = value();
      try {
        if (v == nullptr) throw util::ConfigError("missing value");
        opt.metrics_format = obs::exposition_format_from_string(v);
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad --metrics-format '%s': expected prom|json\n",
                     v == nullptr ? "(missing)" : v);
        return usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return usage(argv[0]);
    }
  }
  return -1;  // parsed OK
}

}  // namespace

int run_send(int argc, char** argv) {
  svc::SenderOptions opt;
  const std::string trace = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--endpoint" && v != nullptr) {
      opt.endpoint = v;
      ++i;
    } else if (flag == "--tenant" && v != nullptr) {
      opt.tenant = v;
      ++i;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.endpoint.empty() || opt.tenant.empty()) return usage(argv[0]);
  svc::FrameSender sender(opt);
  const svc::SendReport report = sender.stream(trace);
  std::printf("sent %llu rows in %llu frames (%llu reconnects)\n"
              "daemon accounting: %llu accepted = %llu ingested + %llu shed + %llu "
              "quarantined (+ queued)\n",
              static_cast<unsigned long long>(report.rows_sent),
              static_cast<unsigned long long>(report.frames_sent),
              static_cast<unsigned long long>(report.reconnects),
              static_cast<unsigned long long>(report.accepted),
              static_cast<unsigned long long>(report.ingested),
              static_cast<unsigned long long>(report.shed),
              static_cast<unsigned long long>(report.quarantined));
  return 0;
}

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--stream") {
    if (argc < 3) return usage(argv[0]);
    StreamOptions opt;
    const int rc = parse_stream_args(argc, argv, opt);
    if (rc >= 0) return rc;
    util::install_signal_handlers();
    try {
      return run_stream(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (argc > 1 && std::string(argv[1]) == "--send") {
    if (argc < 3) return usage(argv[0]);
    try {
      return run_send(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  double days_value = 5;
  std::uint64_t seed = 20100621;
  if (argc > 1 && (!parse_double_arg(argv[1], days_value) || days_value <= 0 ||
                   days_value != static_cast<double>(static_cast<int>(days_value)))) {
    std::fprintf(stderr, "bad days '%s': must be a positive integer\n", argv[1]);
    return usage(argv[0]);
  }
  if (argc > 2 && !parse_u64_arg(argv[2], seed)) {
    std::fprintf(stderr, "bad seed '%s': must be a non-negative integer\n", argv[2]);
    return usage(argv[0]);
  }
  const int days = static_cast<int>(days_value);

  // The infection: Storm bots have a foothold on campus. The honeynet trace
  // stands in for their command-and-control traffic.
  botnet::HoneynetConfig honeynet;
  honeynet.seed = seed;
  const netflow::TraceSet storm = botnet::generate_storm_trace(honeynet);
  const netflow::TraceSet no_nugache;

  trace::CampusConfig campus;
  campus.seed = seed;

  // θ_hm's pairwise kernels honor TRADEPLOT_THREADS; the verdicts are
  // bit-identical no matter how many workers run them.
  std::printf("pairwise kernels on %zu thread(s)\n\n", util::resolve_threads());

  int tp_total = 0, fp_total = 0, bots_total = 0;
  for (int d = 0; d < days; ++d) {
    const eval::DayData day =
        eval::make_day(campus, storm, no_nugache, static_cast<std::uint64_t>(d));
    const detect::FindPlottersResult result = detect::find_plotters(day.features);

    std::printf("=== day %d: %zu flows from %zu internal hosts ===\n", d + 1,
                day.combined.flows().size(), day.features.size());
    std::printf("  pipeline: %zu hosts -> %zu after reduction -> %zu in S_vol u S_churn "
                "-> %zu flagged\n",
                result.input.size(), result.reduced.size(), result.vol_or_churn.size(),
                result.plotters.size());
    if (result.plotters.empty()) {
      std::printf("  nothing flagged today\n\n");
      continue;
    }
    std::printf("  %-16s %10s %12s %10s %8s  %s\n", "host", "flows", "avg B/flow", "failed%",
                "new-IP%", "assessment");
    for (const simnet::Ipv4 host : result.plotters) {
      const detect::HostFeatures& f = day.features.at(host);
      std::printf("  %-16s %10zu %12.0f %9.1f%% %7.1f%%  %s\n", host.to_string().c_str(),
                  f.flows_initiated, f.volume(detect::VolumeMetric::kSentPerFlow),
                  f.failed_rate() * 100.0, f.new_ip_fraction() * 100.0,
                  verdict(day, host).c_str());
      if (day.is_plotter(host)) ++tp_total;
      else ++fp_total;
    }
    bots_total += static_cast<int>(day.storm_hosts.size());
    std::printf("\n");
  }

  std::printf("=== week summary ===\n");
  std::printf("  caught %d of %d bot-days (%.1f%%), %d false alarms across %d days\n", tp_total,
              bots_total, bots_total ? 100.0 * tp_total / bots_total : 0.0, fp_total, days);
  return 0;
}

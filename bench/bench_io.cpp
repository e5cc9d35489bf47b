// Trace-ingestion throughput: absolute ns/flow of each TraceReader entry
// point, per trace format.
//
// Generates a synthetic trace (default 1,000,000 flows; argv[1] overrides),
// writes it as CSV, binary v1 and binary v3, then times over each file:
//   read_all   — io.h's read_csv_file / read_binary_file, which loop
//                TraceReader::next_batch into a TraceSet;
//   next_batch — a next_batch() drain computing counter aggregates;
//   skip_flows — fast-forwarding past every flow (CSV only: the resume path
//                of a checkpointed monitor over a CSV trace).
// Each figure is the median of kReps passes. Every read_all pass must decode
// the identical TraceSet, every drain the identical aggregates, and every
// skip the whole trace; any mismatch fails the run.
//
// A feature-scan profile rides along: counter reductions over in-memory
// rows, AoS record walk vs. SoA FlowBatch columns, verified to agree.
//
//   bench_io [flows] [--json <path>]
//
// --json writes a machine-readable report to <path>. TRADEPLOT_THREADS is
// parsed strictly (the readers are single-threaded, but a malformed value in
// the environment should fail any bench run, not be silently ignored): a bad
// value aborts with the pinned config error on stderr and exit code 2.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "netflow/flow_batch.h"
#include "netflow/io.h"
#include "netflow/trace_reader.h"
#include "util/error.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace tradeplot;

namespace {

netflow::TraceSet synthetic_trace(std::size_t flows, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  netflow::TraceSet trace(0.0, 86400.0);
  for (int h = 0; h < 64; ++h)
    trace.set_truth(simnet::Ipv4(128, 2, 1, static_cast<std::uint8_t>(h)),
                    rng.chance(0.1) ? netflow::HostKind::kStorm : netflow::HostKind::kWebClient);
  trace.reserve_flows(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    netflow::FlowRecord r;
    r.src = simnet::Ipv4(128, 2, static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                         static_cast<std::uint8_t>(rng.uniform_int(1, 254)));
    r.dst = simnet::Ipv4(static_cast<std::uint32_t>(rng.uniform_int(1 << 26, 1 << 30)));
    r.sport = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    r.dport = static_cast<std::uint16_t>(rng.uniform_int(1, 1023));
    r.proto = rng.chance(0.7) ? netflow::Protocol::kTcp : netflow::Protocol::kUdp;
    r.start_time = rng.uniform(0, 86400);
    r.end_time = r.start_time + rng.uniform(0, 120);
    r.pkts_src = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
    r.pkts_dst = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
    r.bytes_src = static_cast<std::uint64_t>(rng.uniform_int(0, 10'000'000));
    r.bytes_dst = static_cast<std::uint64_t>(rng.uniform_int(0, 10'000'000));
    r.state = r.pkts_dst == 0 ? netflow::FlowState::kAttempted : netflow::FlowState::kEstablished;
    if (rng.chance(0.3)) {
      unsigned char payload[netflow::kPayloadPrefixLen];
      const auto len = static_cast<std::size_t>(rng.uniform_int(1, 64));
      for (std::size_t b = 0; b < len; ++b)
        payload[b] = static_cast<unsigned char>(rng.uniform_int(0, 255));
      r.set_payload({reinterpret_cast<const char*>(payload), len});
    }
    trace.add_flow(std::move(r));
  }
  return trace;
}

bool traces_equal(const netflow::TraceSet& a, const netflow::TraceSet& b) {
  if (a.window_start() != b.window_start() || a.window_end() != b.window_end()) return false;
  if (a.flows() != b.flows()) return false;
  if (a.truth().size() != b.truth().size()) return false;
  for (const auto& [ip, kind] : a.truth())
    if (b.kind_of(ip) != kind) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Feature-scan profile: the counter reductions a detection pass makes
// (total bytes/packets, failed-flow count) over an in-memory trace, AoS
// record walk vs. columnar SoA batches (stats::simd column reductions).
// ---------------------------------------------------------------------------

struct ScanAggregates {
  std::uint64_t bytes = 0;
  std::uint64_t pkts = 0;
  std::uint64_t failed = 0;
  bool operator==(const ScanAggregates&) const = default;
};

ScanAggregates scan_records(const netflow::TraceSet& trace) {
  ScanAggregates a;
  for (const netflow::FlowRecord& r : trace.flows()) {
    a.bytes += r.bytes_src + r.bytes_dst;
    a.pkts += r.pkts_src + r.pkts_dst;
    a.failed += r.failed() ? 1 : 0;
  }
  return a;
}

ScanAggregates scan_batches(const std::vector<netflow::FlowBatch>& batches) {
  ScanAggregates a;
  for (const netflow::FlowBatch& b : batches) {
    a.bytes += b.total_bytes();
    a.pkts += b.total_pkts();
    a.failed += b.failed_count();
  }
  return a;
}

std::vector<netflow::FlowBatch> to_batches(const netflow::TraceSet& trace) {
  std::vector<netflow::FlowBatch> batches;
  batches.emplace_back();
  for (const netflow::FlowRecord& r : trace.flows()) {
    if (batches.back().full()) batches.emplace_back();
    batches.back().push_back(r);
  }
  if (batches.back().empty()) batches.pop_back();
  return batches;
}

/// Times `reps` passes of `scan` and checks every pass agrees with `expect`
/// (which also keeps the whole computation observable, so nothing is
/// optimized away).
template <typename ScanFn>
double time_scan(std::size_t reps, const ScanAggregates& expect, ScanFn scan, bool& ok) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reps; ++i)
    if (!(scan() == expect)) ok = false;
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Passes per timed ingest figure; the report gives their median.
constexpr std::size_t kReps = 5;

/// Times kReps calls of `run` and returns the median wall time in ns per
/// flow. Each result is checked with `check` after its clock stops; a
/// failed check clears `ok`.
template <typename RunFn, typename CheckFn>
double median_ns_per_flow(std::size_t flows, RunFn run, CheckFn check, bool& ok) {
  std::vector<double> ns;
  for (std::size_t i = 0; i < kReps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = run();
    const auto t1 = std::chrono::steady_clock::now();
    if (!check(out)) ok = false;
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(std::max<std::size_t>(flows, 1)));
  }
  std::sort(ns.begin(), ns.end());
  return ns[kReps / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t flows = 1'000'000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      flows = static_cast<std::size_t>(std::strtoull(arg.c_str(), nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: bench_io [flows] [--json <path>]\n");
      return 2;
    }
  }

  std::optional<std::size_t> env_threads;
  try {
    env_threads = util::threads_env_strict();
  } catch (const util::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf("==============================================================\n");
  std::printf("bench_io - trace ingestion throughput, %zu flows\n", flows);
  std::printf("==============================================================\n");

  const auto dir = std::filesystem::temp_directory_path();
  const std::string csv_path = (dir / "tp_bench_io.csv").string();
  const std::string bin_path = (dir / "tp_bench_io.bin").string();
  const std::string cbin_path = (dir / "tp_bench_io.cbin").string();

  std::printf("  generating synthetic trace...\n");
  const netflow::TraceSet trace = synthetic_trace(flows, 20100621);
  netflow::write_csv_file(csv_path, trace);
  netflow::write_binary_file(bin_path, trace);
  netflow::write_binary_columnar_file(cbin_path, trace);
  const auto mib = [](const std::string& path) {
    return static_cast<double>(std::filesystem::file_size(path)) / (1 << 20);
  };
  std::printf("  csv %.1f MiB, binary v1 %.1f MiB, binary v3 %.1f MiB; median of %zu passes\n\n",
              mib(csv_path), mib(bin_path), mib(cbin_path), kReps);

  // Per-format ingest profile. The counter aggregates of a next_batch()
  // drain keep every decoded column observable, so nothing is optimized away.
  const ScanAggregates expect = scan_records(trace);
  struct FormatTimes {
    const char* format;
    std::string path;
    double read_all_ns = 0.0;
    double next_batch_ns = 0.0;
    double skip_flows_ns = 0.0;  // CSV only
  };
  std::vector<FormatTimes> formats = {
      {"csv", csv_path}, {"binary_v1", bin_path}, {"binary_v3", cbin_path}};
  bool decoded_ok = true, drains_agree = true, skips_complete = true;
  for (FormatTimes& f : formats) {
    const bool csv = f.path == csv_path;
    f.read_all_ns = median_ns_per_flow(
        flows,
        [&] { return csv ? netflow::read_csv_file(f.path) : netflow::read_binary_file(f.path); },
        [&](const netflow::TraceSet& got) { return traces_equal(trace, got); }, decoded_ok);
    f.next_batch_ns = median_ns_per_flow(
        flows,
        [&] {
          netflow::TraceReader reader(f.path);
          ScanAggregates a;
          netflow::FlowBatch batch;
          while (reader.next_batch(batch) > 0) {
            a.bytes += batch.total_bytes();
            a.pkts += batch.total_pkts();
            a.failed += batch.failed_count();
          }
          return a;
        },
        [&](const ScanAggregates& got) { return got == expect; }, drains_agree);
    if (csv) {
      f.skip_flows_ns = median_ns_per_flow(
          flows,
          [&] {
            netflow::TraceReader reader(f.path);
            return reader.skip_flows(flows + 1);
          },
          [&](std::size_t skipped) { return skipped == flows; }, skips_complete);
    }
    std::printf("  %-9s  read_all %7.1f ns/flow   next_batch %7.1f ns/flow", f.format,
                f.read_all_ns, f.next_batch_ns);
    if (csv) std::printf("   skip_flows %7.1f ns/flow", f.skip_flows_ns);
    std::printf("\n");
  }
  std::printf("\n  read_all traces identical to the generated one: %s\n",
              decoded_ok ? "PASS" : "FAIL");
  std::printf("  next_batch aggregates identical: %s; skip_flows skipped every flow: %s\n",
              drains_agree ? "PASS" : "FAIL", skips_complete ? "PASS" : "FAIL");

  // Feature-scan profile: counter reductions over the in-memory trace. The
  // same rows are held both ways (AoS record vector / SoA batches); each
  // pass computes identical aggregates, so the speedup is pure memory
  // layout + SIMD.
  const std::vector<netflow::FlowBatch> batches = to_batches(trace);
  // Enough repetitions for a stable measurement regardless of trace size
  // (~20M rows scanned per side).
  const std::size_t reps = std::max<std::size_t>(4, 20'000'000 / std::max<std::size_t>(flows, 1));
  bool scans_agree = scan_batches(batches) == expect;
  const double aos_s = time_scan(reps, expect, [&] { return scan_records(trace); }, scans_agree);
  const double col_s = time_scan(reps, expect, [&] { return scan_batches(batches); }, scans_agree);
  const double scan_speedup = aos_s / col_s;
  std::printf("\n  feature-scan (%zu reps): AoS %7.3f s   columnar %7.3f s   speedup %5.2fx   "
              "aggregates %s\n",
              reps, aos_s, col_s, scan_speedup, scans_agree ? "identical" : "DIVERGED");

  const bool ok = decoded_ok && drains_agree && skips_complete && scans_agree;

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "bench_io: cannot write JSON to %s\n", json_path.c_str());
      return 1;
    }
    util::JsonWriter w(out);
    w.begin_object();
    w.kv("bench", "bench_io");
    w.kv("flows", static_cast<std::uint64_t>(flows));
    w.key("tradeplot_threads");
    if (env_threads) {
      w.value(static_cast<std::uint64_t>(*env_threads));
    } else {
      w.null();
    }
    w.kv("passes_per_figure", static_cast<std::uint64_t>(kReps));
    w.key("formats");
    w.begin_array();
    for (const FormatTimes& f : formats) {
      w.begin_object();
      w.kv("format", f.format);
      w.key("read_all_ns_per_flow");
      w.number(f.read_all_ns, "%.1f");
      w.key("next_batch_ns_per_flow");
      w.number(f.next_batch_ns, "%.1f");
      if (f.path == csv_path) {
        w.key("skip_flows_ns_per_flow");
        w.number(f.skip_flows_ns, "%.1f");
      }
      w.end_object();
    }
    w.end_array();
    w.kv("decoded_traces_identical", decoded_ok);
    w.kv("next_batch_aggregates_identical", drains_agree);
    w.kv("skip_flows_complete", skips_complete);
    w.key("feature_scan");
    w.begin_object();
    w.kv("reps", static_cast<std::uint64_t>(reps));
    w.key("aos_s");
    w.number(aos_s, "%.4f");
    w.key("columnar_s");
    w.number(col_s, "%.4f");
    w.key("speedup_columnar_vs_aos");
    w.number(scan_speedup, "%.3f");
    w.kv("aggregates_identical", scans_agree);
    w.end_object();
    w.end_object();
    out << "\n";
    if (!out.flush()) {
      std::fprintf(stderr, "bench_io: cannot write JSON to %s\n", json_path.c_str());
      return 1;
    }
    std::printf("  JSON report written to %s\n", json_path.c_str());
  }

  std::filesystem::remove(csv_path);
  std::filesystem::remove(bin_path);
  std::filesystem::remove(cbin_path);
  return ok ? 0 : 1;
}

// Sharded-detector ingest scaling: how much of the per-flow accumulation
// cost the consistent-hash partition takes off the critical path.
//
// The sharded ingest path is route + apply: a cheap per-row ring lookup on
// the ingest thread, then per-shard accumulator work that runs on worker
// threads, each touching only its own shard. On an N-core box the wall
// clock of one batch is ~ route + max_shard(apply); this bench measures
// exactly those components with single-threaded timing — route_ms from the
// routing pass, apply_ms per shard from replaying each shard's routed op
// list into its own WindowAccumulator — and reports the critical-path model
//
//   critical_path_ms = route_ms + max_s apply_ms[s]
//   model_speedup    = critical_path_ms(shards=1) / critical_path_ms(N)
//
// alongside the real end-to-end StreamingDetector wall time at that shard
// count, and whether its verdicts equal a shards=1 run's (the detector is
// exact at every shard count; a mismatch exits non-zero). The model, not
// the wall clock, is the scaling claim: CI boxes (including the one that
// produced BENCH_shard.json) often expose a single hardware thread, where
// parallel sections serialize and wall time cannot show the speedup that
// the same binary reaches with N cores. The model is honest about the
// serial residue (routing) and the partition imbalance (max shard, not
// mean), so it is an Amdahl bound measured, not guessed.
//
//   bench_shard [--quick] [--json <path>] [--shards <n>[,<n>...]]
//
// --quick shrinks the workload for CI smoke runs. TRADEPLOT_THREADS is
// parsed strictly: a malformed value aborts with the pinned config error on
// stderr and exit code 2.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "detect/accumulator.h"
#include "detect/streaming.h"
#include "netflow/flow_batch.h"
#include "shard/ring.h"
#include "util/error.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace tradeplot;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool is_internal(simnet::Ipv4 a) { return (a.value() >> 24) == 10; }

/// One detection window of campus-shaped traffic: internal sources fanning
/// out to a large external population (plus some internal-to-internal flows
/// so the responder path is exercised), timestamps nondecreasing.
std::vector<netflow::FlowBatch> make_workload(std::size_t hosts, std::size_t flows,
                                              std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<netflow::FlowBatch> batches;
  batches.emplace_back();
  const double window = 6 * 3600.0;
  for (std::size_t i = 0; i < flows; ++i) {
    if (batches.back().full()) batches.emplace_back();
    netflow::FlowBatch& b = batches.back();
    const std::size_t row = b.append_default();
    const auto h = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<long>(hosts) - 1));
    b.src()[row] = simnet::Ipv4(10, static_cast<std::uint8_t>(h >> 8),
                                static_cast<std::uint8_t>(h), 1);
    if (rng.uniform(0.0, 1.0) < 0.15) {
      // internal destination: the flow is routed to two shards
      const auto d =
          static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<long>(hosts) - 1));
      b.dst()[row] = simnet::Ipv4(10, static_cast<std::uint8_t>(d >> 8),
                                  static_cast<std::uint8_t>(d), 2);
    } else {
      b.dst()[row] = simnet::Ipv4(198, static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                                  static_cast<std::uint8_t>(rng.uniform_int(0, 255)), 7);
    }
    const double t = window * static_cast<double>(i) / static_cast<double>(flows);
    b.start_time()[row] = t;
    b.end_time()[row] = t + 1.0;
    b.bytes_src()[row] = 200 + static_cast<std::uint64_t>(rng.uniform_int(0, 1023));
    b.bytes_dst()[row] = 400 + static_cast<std::uint64_t>(rng.uniform_int(0, 4095));
    b.state()[row] = rng.uniform(0.0, 1.0) < 0.2 ? netflow::FlowState::kAttempted
                                                 : netflow::FlowState::kEstablished;
  }
  return batches;
}

struct ShardReport {
  std::size_t shards = 0;
  double route_ms = 0.0;
  double serial_apply_ms = 0.0;     // sum of all shards' apply time
  double max_shard_apply_ms = 0.0;  // slowest shard (the parallel straggler)
  double critical_path_ms = 0.0;    // route + straggler
  double model_speedup = 0.0;       // vs the shards=1 critical path
  double wall_ms = 0.0;             // real StreamingDetector ingest+flush
  double balance = 0.0;             // max shard ops / mean shard ops
  std::size_t plotters = 0;
  bool verdicts_equal_shards1 = false;
};

/// Every window's verdict at full precision: window, stage survivor sets,
/// τ_hm and the θ_hm clusters. Equal strings = bit-identical verdicts.
void append_verdict(std::string& out, const detect::WindowVerdict& v) {
  char buf[64];
  const auto put_set = [&](const char* name, detect::HostSet hosts) {
    std::sort(hosts.begin(), hosts.end());
    out += name;
    for (const simnet::Ipv4 h : hosts) out += " " + h.to_string();
    out += "\n";
  };
  std::snprintf(buf, sizeof(buf), "window %zu flows %zu tau %.17g\n", v.window_index,
                v.flows_seen, v.result.hm.tau_hm);
  out += buf;
  put_set("reduced", v.result.reduced);
  put_set("s_vol", v.result.s_vol);
  put_set("s_churn", v.result.s_churn);
  put_set("plotters", v.result.plotters);
  for (const detect::HostCluster& c : v.result.hm.clusters) {
    std::snprintf(buf, sizeof(buf), "cluster %.17g %d", c.diameter, c.kept ? 1 : 0);
    put_set(buf, c.members);
  }
}

/// Routes every row exactly the way the detector's shard router does and
/// returns per-shard op lists (top bit = responder op).
std::vector<std::vector<std::uint32_t>> route_all(
    const std::vector<netflow::FlowBatch>& batches, const shard::HashRing& ring,
    std::vector<std::uint32_t>& flat_rows) {
  std::vector<std::vector<std::uint32_t>> ops(ring.shards());
  std::uint32_t global_row = 0;
  for (const netflow::FlowBatch& b : batches) {
    for (std::size_t i = 0; i < b.size(); ++i, ++global_row) {
      if (is_internal(b.src()[i])) ops[ring.shard_of(b.src()[i])].push_back(global_row);
      if (is_internal(b.dst()[i]) && b.state()[i] == netflow::FlowState::kEstablished)
        ops[ring.shard_of(b.dst()[i])].push_back(global_row | 0x80000000u);
    }
  }
  flat_rows.clear();
  return ops;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  std::vector<std::size_t> shard_override;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--shards" && i + 1 < argc) {
      const std::string list = argv[++i];
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = std::min(list.find(',', start), list.size());
        const std::string tok = list.substr(start, comma - start);
        char* end = nullptr;
        const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
        if (tok.empty() || end == nullptr || *end != '\0' || v == 0) {
          std::fprintf(stderr, "bench_shard: bad --shards value '%s'\n", tok.c_str());
          return 2;
        }
        shard_override.push_back(static_cast<std::size_t>(v));
        start = comma + 1;
      }
    } else {
      std::fprintf(stderr, "usage: bench_shard [--quick] [--json <path>] [--shards <n>[,...]]\n");
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
  std::printf("bench_shard - consistent-hash sharded ingest scaling\n");
  std::printf("==============================================================\n");
  std::printf("  hardware threads: %zu, TRADEPLOT_THREADS: %s\n",
              static_cast<std::size_t>(std::thread::hardware_concurrency()),
              env_threads ? std::to_string(*env_threads).c_str() : "(unset)");

  const std::size_t hosts = quick ? 2048 : 8192;
  const std::size_t flows = quick ? 400000 : 2000000;
  const std::vector<std::size_t> shard_counts =
      !shard_override.empty() ? shard_override : std::vector<std::size_t>{1, 2, 4, 8};
  std::printf("  workload: %zu internal hosts, %zu flows, one 6h window\n\n", hosts, flows);

  const std::vector<netflow::FlowBatch> batches = make_workload(hosts, flows, 20100621);

  // The real detector at `shards`: wall clock of ingest + flush, every
  // window's verdict digest, and the plotters flagged.
  struct DetectorRun {
    double wall_ms = 0.0;
    std::string verdicts;
    std::size_t plotters = 0;
  };
  const auto run_detector = [&](std::size_t shards) {
    detect::StreamingConfig cfg;
    cfg.shards = shards;
    cfg.window = 6 * 3600.0;
    cfg.is_internal = is_internal;
    DetectorRun run;
    detect::StreamingDetector det(cfg, [&](const detect::WindowVerdict& v) {
      append_verdict(run.verdicts, v);
      run.plotters += v.result.plotters.size();
    });
    const auto tw = std::chrono::steady_clock::now();
    for (const netflow::FlowBatch& b : batches) det.ingest(b);
    det.flush();
    run.wall_ms = ms_since(tw);
    return run;
  };

  // The shards=1 reference every shard count's verdicts must equal.
  const DetectorRun reference = run_detector(1);

  std::vector<ShardReport> reports;
  double baseline_critical = 0.0;
  bool deterministic = true;
  bool all_equal = true;

  for (const std::size_t shards : shard_counts) {
    ShardReport r;
    r.shards = shards;
    const shard::HashRing ring(shards);

    // --- decomposition: route pass, then per-shard apply replay ----------
    std::vector<std::uint32_t> scratch;
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::vector<std::uint32_t>> ops = route_all(batches, ring, scratch);
    r.route_ms = ms_since(t0);

    // Flatten batch boundaries once so the replay indexes rows directly.
    std::vector<const netflow::FlowBatch*> row_batch;
    std::vector<std::uint32_t> row_in_batch;
    row_batch.reserve(flows);
    row_in_batch.reserve(flows);
    for (const netflow::FlowBatch& b : batches) {
      for (std::size_t i = 0; i < b.size(); ++i) {
        row_batch.push_back(&b);
        row_in_batch.push_back(static_cast<std::uint32_t>(i));
      }
    }

    std::size_t max_ops = 0, total_ops = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      detect::WindowAccumulator acc;
      const auto ts = std::chrono::steady_clock::now();
      for (const std::uint32_t op : ops[s]) {
        const std::uint32_t row = op & 0x7fffffffu;
        const netflow::FlowBatch& b = *row_batch[row];
        const std::uint32_t i = row_in_batch[row];
        if (op & 0x80000000u) {
          acc.apply_responder(b.dst()[i], b.start_time()[i], b.bytes_dst()[i]);
        } else {
          acc.apply_initiator(b.src()[i], b.dst()[i], b.start_time()[i], b.bytes_src()[i],
                              b.state()[i] != netflow::FlowState::kEstablished, 0);
        }
      }
      const double shard_ms = ms_since(ts);
      r.serial_apply_ms += shard_ms;
      r.max_shard_apply_ms = std::max(r.max_shard_apply_ms, shard_ms);
      max_ops = std::max(max_ops, ops[s].size());
      total_ops += ops[s].size();
    }
    r.balance = total_ops == 0 ? 1.0
                               : static_cast<double>(max_ops) * static_cast<double>(shards) /
                                     static_cast<double>(total_ops);
    r.critical_path_ms = r.route_ms + r.max_shard_apply_ms;
    if (shards == 1 || baseline_critical == 0.0)
      baseline_critical = shards == 1 ? r.critical_path_ms : baseline_critical;

    // --- real end-to-end detector run ------------------------------------
    const DetectorRun run = run_detector(shards);
    r.wall_ms = run.wall_ms;
    r.plotters = run.plotters;
    if (run_detector(shards).verdicts != run.verdicts) deterministic = false;
    r.verdicts_equal_shards1 = run.verdicts == reference.verdicts;
    all_equal = all_equal && r.verdicts_equal_shards1;

    r.model_speedup = baseline_critical > 0.0 ? baseline_critical / r.critical_path_ms : 1.0;
    reports.push_back(r);

    std::printf("  shards=%zu: route %.1f ms, apply total %.1f ms, straggler %.1f ms\n",
                shards, r.route_ms, r.serial_apply_ms, r.max_shard_apply_ms);
    std::printf("            critical path %.1f ms, model speedup %.2fx, balance %.2f\n",
                r.critical_path_ms, r.model_speedup, r.balance);
    std::printf("            end-to-end wall %.1f ms, %zu plotters, verdicts %s shards=1\n\n",
                r.wall_ms, r.plotters, r.verdicts_equal_shards1 ? "equal to" : "DIFFER from");
  }

  std::printf("  determinism (repeat run agreement): %s\n",
              deterministic ? "pass" : "FAIL");
  std::printf("  verdicts equal to shards=1 at every shard count: %s (%zu plotters)\n",
              all_equal ? "pass" : "FAIL", reference.plotters);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "bench_shard: cannot write JSON to %s\n", json_path.c_str());
      return 1;
    }
    util::JsonWriter w(out);
    w.begin_object();
    w.kv("bench", "bench_shard");
    w.kv("quick", quick);
    w.key("tradeplot_threads");
    if (env_threads) {
      w.value(static_cast<std::uint64_t>(*env_threads));
    } else {
      w.null();
    }
    w.kv("hardware_threads", std::thread::hardware_concurrency());
    w.kv("hosts", static_cast<std::uint64_t>(hosts));
    w.kv("flows", static_cast<std::uint64_t>(flows));
    w.key("configs");
    w.begin_array();
    for (const ShardReport& r : reports) {
      w.begin_object();
      w.kv("shards", static_cast<std::uint64_t>(r.shards));
      w.key("route_ms");
      w.number(r.route_ms, "%.3f");
      w.key("serial_apply_ms");
      w.number(r.serial_apply_ms, "%.3f");
      w.key("max_shard_apply_ms");
      w.number(r.max_shard_apply_ms, "%.3f");
      w.key("critical_path_ms");
      w.number(r.critical_path_ms, "%.3f");
      w.key("model_speedup");
      w.number(r.model_speedup, "%.3f");
      w.key("wall_ms");
      w.number(r.wall_ms, "%.3f");
      w.key("balance");
      w.number(r.balance, "%.3f");
      w.kv("plotters", static_cast<std::uint64_t>(r.plotters));
      w.kv("verdicts_equal_shards1", r.verdicts_equal_shards1);
      w.end_object();
    }
    w.end_array();
    w.kv("determinism", deterministic ? "pass" : "fail");
    w.kv("verdicts_equal_shards1", all_equal);
    w.end_object();
    out << "\n";
    if (!out.flush()) {
      std::fprintf(stderr, "bench_shard: cannot write JSON to %s\n", json_path.c_str());
      return 1;
    }
  }
  return deterministic && all_equal ? 0 : 1;
}

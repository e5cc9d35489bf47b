// End-to-end tests for the monitor daemon (src/svc/daemon.h): config
// parsing, tenant queue accounting, the batch-oracle verdict guarantee,
// crash-image restart resume, payload quarantine, timeouts, reload, and the
// HTTP sidecar endpoints.
#include "svc/daemon.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "detect/features.h"
#include "detect/streaming.h"
#include "netflow/io.h"
#include "netflow/trace_reader.h"
#include "netflow/trace_set.h"
#include "svc/config.h"
#include "svc/frame.h"
#include "svc/net.h"
#include "svc/sender.h"
#include "util/error.h"

namespace tradeplot::svc {
namespace {

std::string make_temp_dir() {
  char tmpl[] = "/tmp/tp_daemon_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// A trace whose flows span several 60 s detection windows, with internal
/// hosts (128.2/16) fanning out enough that windows carry real feature work.
netflow::TraceSet make_trace(std::size_t flows, double seconds) {
  netflow::TraceSet trace;
  trace.set_window(0.0, seconds);
  for (std::size_t i = 0; i < flows; ++i) {
    netflow::FlowRecord r;
    r.src = simnet::Ipv4(0x80020001u + static_cast<std::uint32_t>(i % 40));
    r.dst = simnet::Ipv4(0x0a000001u + static_cast<std::uint32_t>(i % 997));
    r.sport = static_cast<std::uint16_t>(1024 + i % 50000);
    r.dport = static_cast<std::uint16_t>(i % 3 == 0 ? 6881 : 80);
    r.proto = netflow::Protocol::kTcp;
    r.start_time = seconds * static_cast<double>(i) / static_cast<double>(flows);
    r.end_time = r.start_time + 0.5;
    r.pkts_src = 3 + i % 11;
    r.pkts_dst = 2 + i % 7;
    r.bytes_src = 120 + i % 1400;
    r.bytes_dst = 90 + i % 900;
    r.state = i % 5 == 0 ? netflow::FlowState::kAttempted : netflow::FlowState::kEstablished;
    trace.add_flow(r);
  }
  return trace;
}

std::string write_trace_file(const std::string& dir, const netflow::TraceSet& trace) {
  const std::string path = dir + "/trace.bin";
  std::ofstream out(path, std::ios::binary);
  netflow::write_binary(out, trace);
  return path;
}

/// Single-shot batch run: the verdict stream the daemon must reproduce.
std::vector<std::string> batch_oracle(const std::string& trace_path,
                                      const TenantParams& params) {
  detect::StreamingConfig cfg;
  cfg.window = params.window;
  cfg.is_internal = detect::default_internal_predicate;
  cfg.timing_budget = static_cast<std::size_t>(params.timing_budget);
  std::vector<std::string> lines;
  detect::StreamingDetector det(
      cfg, [&](const detect::WindowVerdict& v) { lines.push_back(format_verdict_line(v)); });
  netflow::TraceReader reader(trace_path, netflow::ErrorPolicy::strict());
  for (;;) {
    netflow::FlowBatch batch;
    if (reader.next_batch(batch) == 0) break;
    det.ingest(batch);
  }
  det.flush();
  return lines;
}

/// Reads a tenant verdict log and deduplicates by window_index, last entry
/// wins — the documented reader discipline for crash-resumed logs.
std::vector<std::string> read_deduped_log(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::map<std::size_t, std::string> last;  // ordered by window index
  std::string line;
  while (std::getline(in, line)) {
    std::size_t idx = 0;
    EXPECT_EQ(std::sscanf(line.c_str(), "{\"window_index\":%zu", &idx), 1) << line;
    last[idx] = line;
  }
  std::vector<std::string> out;
  for (auto& [idx, l] : last) out.push_back(std::move(l));
  return out;
}

void copy_file(const std::string& src, const std::string& dst) {
  std::ifstream in(src, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << src;
  std::ofstream out(dst, std::ios::binary);
  out << in.rdbuf();
  ASSERT_TRUE(out.good()) << dst;
}

netflow::FlowBatch batch_of(std::size_t rows) {
  const netflow::TraceSet trace = make_trace(rows, 10.0);
  netflow::FlowBatch batch(rows);
  for (const netflow::FlowRecord& r : trace.flows()) batch.push_back(r);
  return batch;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  Fd fd = connect_to(Endpoint::parse("tcp:127.0.0.1:" + std::to_string(port)));
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_TRUE(send_all(fd.get(), req.data(), req.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    if (!wait_readable(fd.get(), 2000)) break;
    const std::size_t got = recv_some(fd.get(), buf, sizeof(buf));
    if (got == 0) break;
    response.append(buf, got);
  }
  return response;
}

TEST(DaemonConfig, ParsesDaemonAndTenantSections) {
  std::istringstream in(
      "# monitor config\n"
      "ingest = tcp:127.0.0.1:0\n"
      "http = tcp:127.0.0.1:0\n"
      "state_dir = /tmp/state\n"
      "read_timeout = 5\n"
      "idle_timeout = 60\n"
      "metrics = true\n"
      "checkpoint_interval = 30\n"
      "\n"
      "[tenant campus-a]\n"
      "window = 3600\n"
      "checkpoint_every = 5000\n"
      "queue_capacity = 1000\n"
      "overflow = shed\n"
      "policy = stop-after=10\n"
      "\n"
      "[tenant campus-b]\n"
      "policy = strict\n");
  const DaemonConfig cfg = DaemonConfig::parse(in);
  EXPECT_EQ(cfg.ingest, "tcp:127.0.0.1:0");
  EXPECT_EQ(cfg.state_dir, "/tmp/state");
  EXPECT_DOUBLE_EQ(cfg.read_timeout, 5.0);
  EXPECT_DOUBLE_EQ(cfg.idle_timeout, 60.0);
  EXPECT_TRUE(cfg.metrics);
  EXPECT_DOUBLE_EQ(cfg.checkpoint_interval, 30.0);
  ASSERT_EQ(cfg.tenants.size(), 2u);
  const TenantParams* a = cfg.find_tenant("campus-a");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->window, 3600.0);
  EXPECT_EQ(a->checkpoint_every, 5000u);
  EXPECT_EQ(a->queue_capacity, 1000u);
  EXPECT_EQ(a->overflow, Overflow::kShed);
  const TenantParams* b = cfg.find_tenant("campus-b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->overflow, Overflow::kBlock);  // default
}

TEST(DaemonConfig, RejectsTyposAndIncompleteConfigs) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return DaemonConfig::parse(in);
  };
  const std::string base = "ingest = tcp:127.0.0.1:0\nstate_dir = /tmp/s\n[tenant t]\n";
  EXPECT_THROW((void)parse(base + "windw = 60\n"), util::ConfigError);  // typo
  EXPECT_THROW((void)parse("state_dir = /tmp/s\n[tenant t]\n"), util::ConfigError);
  EXPECT_THROW((void)parse("ingest = tcp:127.0.0.1:0\nstate_dir = /tmp/s\n"),
               util::ConfigError);  // no tenant
  EXPECT_THROW((void)parse(base + "[tenant t]\n"), util::ConfigError);  // duplicate
  EXPECT_THROW((void)parse(base + "overflow = drop\n"), util::ConfigError);
  (void)parse(base);  // the base itself is valid
}

TEST(TenantQueue, ShedPolicyDropsOversizeBatchDeterministically) {
  const std::string dir = make_temp_dir();
  TenantParams params;
  params.name = "shedder";
  params.window = 60.0;
  params.queue_capacity = 100;
  params.overflow = Overflow::kShed;
  Tenant tenant(params, dir, util::Clock::system());
  tenant.start();

  // 500 rows can never fit a 100-row queue: shed in full, no matter how
  // fast the worker drains — the assertion is scheduling-independent.
  const Tenant::Offer big = tenant.offer(batch_of(500));
  EXPECT_EQ(big.shed, 500u);
  EXPECT_EQ(big.enqueued, 0u);

  const Tenant::Offer small = tenant.offer(batch_of(50));
  EXPECT_EQ(small.enqueued, 50u);
  tenant.add_quarantined(7);

  const Tenant::Stats s = tenant.flush_barrier();
  EXPECT_EQ(s.accepted, 500u + 50u + 7u);
  EXPECT_EQ(s.ingested, 50u);
  EXPECT_EQ(s.shed, 500u);
  EXPECT_EQ(s.quarantined, 7u);
  // The books balance: every accepted row is ingested, shed, or quarantined.
  EXPECT_EQ(s.accepted, s.ingested + s.shed + s.quarantined);
  tenant.stop();
}

TEST(TenantQueue, BlockPolicyAdmitsOversizeBatchInsteadOfDeadlocking) {
  const std::string dir = make_temp_dir();
  TenantParams params;
  params.name = "blocker";
  params.window = 60.0;
  params.queue_capacity = 10;  // smaller than the batch
  params.overflow = Overflow::kBlock;
  Tenant tenant(params, dir, util::Clock::system());
  tenant.start();
  const Tenant::Offer offer = tenant.offer(batch_of(500));
  EXPECT_EQ(offer.enqueued, 500u);
  const Tenant::Stats s = tenant.flush_barrier();
  EXPECT_EQ(s.ingested, 500u);
  EXPECT_EQ(s.shed, 0u);
  tenant.stop();
}

DaemonConfig base_config(const std::string& dir, const std::string& tenant_name,
                         double window = 60.0) {
  DaemonConfig cfg;
  cfg.ingest = "unix:" + dir + "/ingest.sock";
  cfg.state_dir = dir + "/state";
  TenantParams t;
  t.name = tenant_name;
  t.window = window;
  t.checkpoint_every = 777;  // deliberately not a multiple of any frame size
  cfg.tenants.push_back(t);
  return cfg;
}

SendReport stream_to(const std::string& endpoint, const std::string& tenant,
                     const std::string& trace, std::size_t rows_per_frame = 100) {
  SenderOptions opts;
  opts.endpoint = endpoint;
  opts.tenant = tenant;
  opts.rows_per_frame = rows_per_frame;
  FrameSender sender(opts);
  return sender.stream(trace);
}

TEST(Daemon, VerdictsMatchTheBatchOracleAcrossTenants) {
  const std::string dir = make_temp_dir();
  DaemonConfig cfg = base_config(dir, "campus-a");
  TenantParams b = cfg.tenants[0];
  b.name = "campus-b";
  b.window = 45.0;  // different windowing: universes must stay independent
  cfg.tenants.push_back(b);

  const netflow::TraceSet trace = make_trace(5000, 300.0);
  const std::string trace_path = write_trace_file(dir, trace);

  Daemon daemon(cfg);
  daemon.start();
  const SendReport ra = stream_to(cfg.ingest, "campus-a", trace_path);
  const SendReport rb = stream_to(cfg.ingest, "campus-b", trace_path, 333);
  EXPECT_EQ(ra.accepted, 5000u);
  EXPECT_EQ(ra.ingested, 5000u);
  EXPECT_EQ(ra.shed, 0u);
  EXPECT_EQ(ra.quarantined, 0u);
  EXPECT_EQ(rb.ingested, 5000u);
  daemon.stop();  // graceful: final checkpoint, partial-window flush

  for (const TenantParams& params : cfg.tenants) {
    const std::vector<std::string> expected = batch_oracle(trace_path, params);
    const std::vector<std::string> got =
        read_deduped_log(cfg.state_dir + "/" + params.name + ".verdicts.jsonl");
    ASSERT_EQ(got.size(), expected.size()) << params.name;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(got[i], expected[i]) << params.name << " window " << i;
  }
}

TEST(Daemon, CrashImageRestartResumesAtNonFrameAlignedCheckpoint) {
  const std::string dir1 = make_temp_dir();
  const std::string dir2 = make_temp_dir();
  const netflow::TraceSet trace = make_trace(3000, 300.0);
  const std::string trace_path = write_trace_file(dir1, trace);

  // Run 1 ingests everything; checkpoints land at rows 777/1554/2331.
  DaemonConfig cfg1 = base_config(dir1, "campus");
  {
    Daemon daemon(cfg1);
    daemon.start();
    const SendReport r = stream_to(cfg1.ingest, "campus", trace_path);
    ASSERT_EQ(r.ingested, 3000u);

    // Snapshot the state dir NOW — after the flush barrier, before the
    // graceful stop. This is byte-for-byte what a kill -9 leaves behind:
    // the row-2331 checkpoint plus the verdict-log prefix, no final
    // checkpoint, no partial-window flush.
    DaemonConfig cfg2 = base_config(dir2, "campus");
    ASSERT_EQ(::mkdir(cfg2.state_dir.c_str(), 0755), 0);
    copy_file(cfg1.state_dir + "/campus.ckpt", cfg2.state_dir + "/campus.ckpt");
    copy_file(cfg1.state_dir + "/campus.verdicts.jsonl",
              cfg2.state_dir + "/campus.verdicts.jsonl");
    daemon.stop();

    // Run 2 restores the crash image: the HelloAck cursor must be exactly
    // the checkpoint position, so the sender re-sends rows 2331..2999 —
    // not frame-aligned (frames carry 100 rows).
    Daemon daemon2(cfg2);
    daemon2.start();
    EXPECT_EQ(daemon2.find_tenant("campus")->stats().ingested, 2331u);
    const SendReport resumed = stream_to(cfg2.ingest, "campus", trace_path);
    EXPECT_EQ(resumed.rows_sent, 3000u - 2331u);
    EXPECT_EQ(resumed.ingested, 3000u);
    daemon2.stop();

    // Deduped by window_index (last wins), run 2's log equals the oracle:
    // the crash and resume are invisible in the verdict stream.
    const std::vector<std::string> expected = batch_oracle(trace_path, cfg2.tenants[0]);
    const std::vector<std::string> got =
        read_deduped_log(cfg2.state_dir + "/campus.verdicts.jsonl");
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(got[i], expected[i]);
  }
}

TEST(Daemon, MalformedPayloadRowsAreQuarantinedAndAccounted) {
  const std::string dir = make_temp_dir();
  const DaemonConfig cfg = base_config(dir, "campus");  // default policy: skip
  Daemon daemon(cfg);
  daemon.start();

  // A CSV payload with three garbage rows: the tenant's ErrorPolicy must
  // quarantine them and the books must still balance.
  std::ostringstream csv;
  netflow::write_csv(csv, make_trace(20, 10.0));
  std::string payload = csv.str();
  payload += "this,is,not,a,flow\ngarbage\n1,2,3\n";

  Fd fd = connect_to(Endpoint::parse(cfg.ingest));
  const auto send = [&](FrameType type, std::string_view body) {
    const std::vector<char> wire = encode_frame(type, body);
    ASSERT_TRUE(send_all(fd.get(), wire.data(), wire.size()));
  };
  const auto recv = [&](FrameParser& parser, Frame& out) {
    char buf[8192];
    while (!parser.next(out)) {
      ASSERT_TRUE(wait_readable(fd.get(), 5000));
      const std::size_t got = recv_some(fd.get(), buf, sizeof(buf));
      ASSERT_GT(got, 0u);
      parser.append(buf, got);
    }
  };

  FrameParser parser;
  Frame reply;
  send(FrameType::kHello, "campus");
  recv(parser, reply);
  ASSERT_EQ(reply.type, FrameType::kHelloAck);
  send(FrameType::kFlows, payload);
  send(FrameType::kFlush, {});
  recv(parser, reply);
  ASSERT_EQ(reply.type, FrameType::kFlushAck);
  const char* p = reply.payload.data();
  EXPECT_EQ(read_u64(p), 23u);       // accepted: 20 good + 3 quarantined
  EXPECT_EQ(read_u64(p + 8), 20u);   // ingested
  EXPECT_EQ(read_u64(p + 16), 0u);   // shed
  EXPECT_EQ(read_u64(p + 24), 3u);   // quarantined
  send(FrameType::kBye, {});
  daemon.stop();
}

TEST(Daemon, MalformedPayloadsGetAnErrorFrameAndTheConnectionKeepsServing) {
  const std::string dir = make_temp_dir();
  DaemonConfig cfg = base_config(dir, "campus");
  // Strict, so a bad block size is an error rather than a quarantine.
  cfg.tenants[0].policy = netflow::ErrorPolicy::strict();
  Daemon daemon(cfg);
  daemon.start();

  // Preamble-level garbage and counts read off the wire that must be
  // rejected before anything is allocated from them.
  std::string bad_version;
  {
    std::ostringstream bin;
    netflow::write_binary(bin, make_trace(5, 10.0));
    bad_version = bin.str();
    const std::uint32_t version = 2;
    std::memcpy(bad_version.data() + 4, &version, sizeof(version));
  }
  // A binary preamble that ends right after its truth count, or, when the
  // count is 0, after the flow count.
  const auto preamble = [](std::uint32_t version, std::uint64_t truth_count,
                           std::uint64_t flow_count) {
    std::string out;
    const auto put = [&out](const void* p, std::size_t n) {
      out.append(static_cast<const char*>(p), n);
    };
    const std::uint32_t magic = 0x54504654;
    const double window[2] = {0.0, 10.0};
    put(&magic, 4);
    put(&version, 4);
    put(window, sizeof(window));
    put(&truth_count, 8);
    if (truth_count == 0) put(&flow_count, 8);
    return out;
  };
  const std::string huge_truth = preamble(1, std::uint64_t{1} << 62, 0);
  std::string huge_block = preamble(3, 0, 0xFFFFFFFFull);
  const std::uint32_t rows = 0xFFFFFFFFu;
  huge_block.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
  const std::vector<std::string> malformed = {"not a trace\n", bad_version, huge_truth,
                                              huge_block};

  std::ostringstream good;
  const netflow::TraceSet good_trace = make_trace(30, 10.0);
  netflow::write_binary_columnar(good, good_trace);

  Fd fd = connect_to(Endpoint::parse(cfg.ingest));
  const auto send = [&](FrameType type, std::string_view body) {
    const std::vector<char> wire = encode_frame(type, body);
    ASSERT_TRUE(send_all(fd.get(), wire.data(), wire.size()));
  };
  const auto recv = [&](FrameParser& parser, Frame& out) {
    char buf[8192];
    while (!parser.next(out)) {
      ASSERT_TRUE(wait_readable(fd.get(), 5000));
      const std::size_t got = recv_some(fd.get(), buf, sizeof(buf));
      ASSERT_GT(got, 0u);
      parser.append(buf, got);
    }
  };

  FrameParser parser;
  Frame reply;
  send(FrameType::kHello, "campus");
  recv(parser, reply);
  ASSERT_EQ(reply.type, FrameType::kHelloAck);
  const std::vector<std::string> want_errors = {
      "missing CSV header", "binary trace: bad version", "binary trace: short read",
      "binary trace: bad block size"};
  for (std::size_t i = 0; i < malformed.size(); ++i) {
    SCOPED_TRACE(want_errors[i]);
    send(FrameType::kFlows, malformed[i]);
    recv(parser, reply);
    ASSERT_EQ(reply.type, FrameType::kError);
    const std::string error(reply.payload_view());
    EXPECT_NE(error.find(want_errors[i]), std::string::npos) << error;
    send(FrameType::kFlows, good.str());  // the same connection still ingests
  }
  send(FrameType::kFlush, {});
  recv(parser, reply);
  ASSERT_EQ(reply.type, FrameType::kFlushAck);
  const std::uint64_t rows_sent = malformed.size() * good_trace.flows().size();
  const char* p = reply.payload.data();
  EXPECT_EQ(read_u64(p), rows_sent);       // accepted
  EXPECT_EQ(read_u64(p + 8), rows_sent);   // ingested
  EXPECT_EQ(read_u64(p + 16), 0u);         // shed
  EXPECT_EQ(read_u64(p + 24), 0u);         // quarantined
  send(FrameType::kBye, {});
  daemon.stop();
}

TEST(Daemon, UnknownTenantIsRejectedWithAnErrorFrame) {
  const std::string dir = make_temp_dir();
  const DaemonConfig cfg = base_config(dir, "campus");
  Daemon daemon(cfg);
  daemon.start();

  Fd fd = connect_to(Endpoint::parse(cfg.ingest));
  const std::vector<char> hello = encode_frame(FrameType::kHello, "nope");
  ASSERT_TRUE(send_all(fd.get(), hello.data(), hello.size()));
  FrameParser parser;
  Frame reply;
  char buf[4096];
  bool got_reply = false;
  while (!got_reply) {
    ASSERT_TRUE(wait_readable(fd.get(), 5000));
    const std::size_t got = recv_some(fd.get(), buf, sizeof(buf));
    if (got == 0) break;
    parser.append(buf, got);
    got_reply = parser.next(reply);
  }
  ASSERT_TRUE(got_reply);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_NE(std::string(reply.payload_view()).find("unknown tenant"), std::string::npos);
  daemon.stop();
}

TEST(Daemon, SilentConnectionsAreDisconnectedByTimeouts) {
  const std::string dir = make_temp_dir();
  DaemonConfig cfg = base_config(dir, "campus");
  cfg.read_timeout = 0.2;
  cfg.idle_timeout = 0.2;
  Daemon daemon(cfg);
  daemon.start();

  // A half-frame then silence: the read timeout fires and the daemon sends
  // kError before closing. The client sees the error, then EOF.
  Fd fd = connect_to(Endpoint::parse(cfg.ingest));
  const std::vector<char> frame = encode_frame(FrameType::kHello, "campus");
  ASSERT_TRUE(send_all(fd.get(), frame.data(), frame.size() - 4));  // truncated
  FrameParser parser;
  Frame reply;
  char buf[4096];
  bool got_error = false, got_eof = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!got_eof && std::chrono::steady_clock::now() < deadline) {
    if (!wait_readable(fd.get(), 100)) continue;
    const std::size_t got = recv_some(fd.get(), buf, sizeof(buf));
    if (got == 0) {
      got_eof = true;
      break;
    }
    parser.append(buf, got);
    if (parser.next(reply) && reply.type == FrameType::kError) got_error = true;
  }
  EXPECT_TRUE(got_error);
  EXPECT_TRUE(got_eof);
  daemon.stop();
}

TEST(Daemon, ReloadUpdatesKnobsAndAddsTenants) {
  const std::string dir = make_temp_dir();
  DaemonConfig cfg = base_config(dir, "campus");
  Daemon daemon(cfg);
  daemon.start();

  DaemonConfig fresh = cfg;
  fresh.tenants[0].queue_capacity = 9999;       // reloadable
  fresh.tenants[0].window = 120.0;              // fixed: must be reported, not applied
  TenantParams extra;
  extra.name = "new-campus";
  extra.window = 60.0;
  fresh.tenants.push_back(extra);

  const std::string summary = daemon.reload(fresh);
  EXPECT_NE(summary.find("1 added"), std::string::npos) << summary;
  EXPECT_NE(summary.find("kept prior window"), std::string::npos) << summary;
  Tenant* added = daemon.find_tenant("new-campus");
  ASSERT_NE(added, nullptr);
  EXPECT_TRUE(added->ready());
  // The fixed parameter kept its original value.
  EXPECT_DOUBLE_EQ(daemon.find_tenant("campus")->params().window, 60.0);
  EXPECT_EQ(daemon.find_tenant("campus")->params().queue_capacity, 9999u);
  daemon.stop();
}

TEST(Daemon, CorruptCheckpointIsQuarantinedAndServiceStartsFresh) {
  const std::string dir = make_temp_dir();
  const DaemonConfig cfg = base_config(dir, "campus");
  ASSERT_EQ(::mkdir(cfg.state_dir.c_str(), 0755), 0);
  {
    std::ofstream bad(cfg.state_dir + "/campus.ckpt", std::ios::binary);
    bad << "this is not a checkpoint";
  }

  Daemon daemon(cfg);
  daemon.start();
  Tenant* tenant = daemon.find_tenant("campus");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->stats().restore_failures, 1u);
  EXPECT_EQ(tenant->stats().ingested, 0u);  // fresh start
  EXPECT_TRUE(std::ifstream(cfg.state_dir + "/campus.ckpt.corrupt").is_open());

  // And the fresh universe still produces oracle-exact verdicts.
  const netflow::TraceSet trace = make_trace(1500, 180.0);
  const std::string trace_path = write_trace_file(dir, trace);
  const SendReport r = stream_to(cfg.ingest, "campus", trace_path);
  EXPECT_EQ(r.ingested, 1500u);
  daemon.stop();
  const std::vector<std::string> expected = batch_oracle(trace_path, cfg.tenants[0]);
  EXPECT_EQ(read_deduped_log(cfg.state_dir + "/campus.verdicts.jsonl"), expected);
}

TEST(Daemon, OldFormatCheckpointIsQuarantinedAndServiceStartsFresh) {
  // Images of earlier checkpoint formats — TPCK v2 and the former separate
  // sharded detector's image — are rejected with a pinned ParseError; the
  // tenant moves them aside and starts a fresh universe instead of refusing
  // to serve.
  std::string image;
  {
    detect::StreamingConfig cfg;
    cfg.window = 60.0;
    cfg.is_internal = detect::default_internal_predicate;
    detect::StreamingDetector det(cfg, [](const detect::WindowVerdict&) {});
    const netflow::TraceSet trace = make_trace(300, 30.0);
    for (const netflow::FlowRecord& r : trace.flows()) det.ingest(r);
    std::ostringstream out;
    det.save_checkpoint(out);
    image = out.str();
  }
  std::string v2 = image;
  v2[4] = 2;  // the version field follows the 4-byte magic
  std::string sharded = image;
  const std::uint32_t old_sharded_magic = 0x48535054;
  std::memcpy(sharded.data(), &old_sharded_magic, sizeof(old_sharded_magic));

  for (const std::string& old : {v2, sharded}) {
    const std::string dir = make_temp_dir();
    const DaemonConfig cfg = base_config(dir, "campus");
    ASSERT_EQ(::mkdir(cfg.state_dir.c_str(), 0755), 0);
    {
      std::ofstream out(cfg.state_dir + "/campus.ckpt", std::ios::binary);
      out << old;
    }
    Daemon daemon(cfg);
    daemon.start();
    Tenant* tenant = daemon.find_tenant("campus");
    ASSERT_NE(tenant, nullptr);
    EXPECT_TRUE(tenant->ready());
    EXPECT_EQ(tenant->stats().restore_failures, 1u);
    EXPECT_EQ(tenant->stats().ingested, 0u);  // fresh start
    EXPECT_TRUE(std::ifstream(cfg.state_dir + "/campus.ckpt.corrupt").is_open());
    daemon.stop();
  }
}

TEST(Daemon, V3CheckpointIsQuarantinedAndServiceStartsFresh) {
  // A TPCK v3 image (per-host, per-destination records) predates the flat
  // v4 array dump: restore rejects it with the pinned version error, and
  // the tenant moves it aside and serves a fresh universe.
  std::string v3;
  {
    detect::StreamingConfig cfg;
    cfg.window = 60.0;
    cfg.is_internal = detect::default_internal_predicate;
    detect::StreamingDetector det(cfg, [](const detect::WindowVerdict&) {});
    const netflow::TraceSet trace = make_trace(300, 30.0);
    for (const netflow::FlowRecord& r : trace.flows()) det.ingest(r);
    std::ostringstream out;
    det.save_checkpoint(out);
    v3 = out.str();
  }
  v3[4] = 3;  // the version field follows the 4-byte magic

  const std::string dir = make_temp_dir();
  const DaemonConfig cfg = base_config(dir, "campus");
  ASSERT_EQ(::mkdir(cfg.state_dir.c_str(), 0755), 0);
  {
    std::ofstream out(cfg.state_dir + "/campus.ckpt", std::ios::binary);
    out << v3;
  }
  Daemon daemon(cfg);
  daemon.start();
  Tenant* tenant = daemon.find_tenant("campus");
  ASSERT_NE(tenant, nullptr);
  EXPECT_TRUE(tenant->ready());
  EXPECT_EQ(tenant->stats().restore_failures, 1u);
  EXPECT_EQ(tenant->stats().ingested, 0u);  // fresh start
  std::ifstream quarantined(cfg.state_dir + "/campus.ckpt.corrupt", std::ios::binary);
  ASSERT_TRUE(quarantined.is_open());
  const std::string moved((std::istreambuf_iterator<char>(quarantined)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(moved, v3);

  // The fresh universe still produces oracle-exact verdicts.
  const netflow::TraceSet trace = make_trace(1500, 180.0);
  const std::string trace_path = write_trace_file(dir, trace);
  const SendReport r = stream_to(cfg.ingest, "campus", trace_path);
  EXPECT_EQ(r.ingested, 1500u);
  daemon.stop();
  const std::vector<std::string> expected = batch_oracle(trace_path, cfg.tenants[0]);
  EXPECT_EQ(read_deduped_log(cfg.state_dir + "/campus.verdicts.jsonl"), expected);
}

TEST(Daemon, HttpSidecarServesHealthReadinessAndTenants) {
  const std::string dir = make_temp_dir();
  DaemonConfig cfg = base_config(dir, "campus");
  cfg.http = "tcp:127.0.0.1:0";
  Daemon daemon(cfg);
  daemon.start();
  ASSERT_NE(daemon.http_port(), 0);

  EXPECT_NE(http_get(daemon.http_port(), "/healthz").find("200 OK"), std::string::npos);
  EXPECT_NE(http_get(daemon.http_port(), "/readyz").find("ready"), std::string::npos);
  const std::string tenants = http_get(daemon.http_port(), "/tenants");
  EXPECT_NE(tenants.find("\"name\":\"campus\""), std::string::npos);
  EXPECT_NE(tenants.find("\"ready\":true"), std::string::npos);
  // Metrics are off by default: the endpoint says so instead of lying with
  // an empty exposition.
  EXPECT_NE(http_get(daemon.http_port(), "/metrics").find("503"), std::string::npos);
  EXPECT_NE(http_get(daemon.http_port(), "/nope").find("404"), std::string::npos);
  daemon.stop();
}

}  // namespace
}  // namespace tradeplot::svc

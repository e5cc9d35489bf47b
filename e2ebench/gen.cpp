// `e2ebench gen`: the seeded corpus and its batch oracle.
//
// K campus days come from eval::make_day (Storm and Nugache overlays on a
// simulated campus window of D = 6 h). Day d is shifted by d*D and the days
// are concatenated, so the detectors' window d (anchored at multiples of D)
// is exactly day d. The oracle for window d is find_plotters over day d's
// own extracted features. The system under test later sees only the files.
#include "gen.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "botnet/honeynet.h"
#include "detect/find_plotters.h"
#include "eval/day.h"
#include "netflow/io.h"
#include "svc/frame.h"
#include "util/json.h"

namespace e2e {

using namespace tradeplot;

namespace {

trace::CampusConfig campus_config(const GenArgs& args) {
  trace::CampusConfig c;
  c.seed = args.seed;
  if (args.smoke) {
    // A short day: a tenth of the campus, same traffic mix.
    c.web_clients = 70;
    c.idle_hosts = 25;
    c.dns_clients = 10;
    c.ntp_clients = 4;
    c.web_servers = 4;
    c.mail_servers = 2;
    c.scanners = 1;
    c.gnutella_hosts = 4;
    c.emule_hosts = 4;
    c.bittorrent_hosts = 5;
    c.bittorrent_web_only = 2;
    c.kad_overlay_size = 80;
    c.bt_overlay_size = 100;
  }
  return c;
}

botnet::HoneynetConfig honeynet_config(const GenArgs& args) {
  botnet::HoneynetConfig h;
  h.seed = args.seed;
  if (args.smoke) {
    h.nugache_bots = 12;
    h.overnet_size = 150;
  }
  return h;
}

/// The flows as kFlows frames of frame_rows(window_flows) rows each.
void write_frames(const std::string& path, const std::vector<netflow::FlowRecord>& flows,
                  const std::vector<std::uint64_t>& window_flows) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::size_t begin = 0;
  for (const std::uint64_t rows : frame_rows(window_flows)) {
    const auto n = static_cast<std::size_t>(rows);
    // Each payload is a self-contained v3 mini-trace, exactly what
    // svc::FrameSender puts on the wire.
    std::ostringstream payload;
    netflow::write_binary_columnar(payload, flows.data() + begin, n, 0.0, 0.0);
    const std::vector<char> wire = svc::encode_frame(svc::FrameType::kFlows, payload.str());
    out.write(wire.data(), static_cast<std::streamsize>(wire.size()));
    begin += n;
  }
  out.close();
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace

int run_gen(const GenArgs& args) {
  const CorpusPaths paths{args.out};
  const botnet::HoneynetConfig hn = honeynet_config(args);
  const netflow::TraceSet storm = botnet::generate_storm_trace(hn);
  const netflow::TraceSet nugache = botnet::generate_nugache_trace(hn);
  const trace::CampusConfig campus = campus_config(args);

  netflow::TraceSet corpus(0.0, kWindow * static_cast<double>(kDays));
  std::ofstream oracle(paths.oracle(), std::ios::trunc);
  std::ostringstream shape_text;
  util::JsonWriter shape(shape_text, 0);
  shape.begin_object();
  shape.kv("seed", static_cast<std::uint64_t>(args.seed));
  shape.kv("smoke", args.smoke);
  shape.key("days");
  shape.begin_array();
  std::uint64_t total_flows = 0;
  std::vector<std::uint64_t> window_flows;
  for (std::size_t d = 0; d < kDays; ++d) {
    eval::DayData day = eval::make_day(campus, storm, nugache, d);
    const detect::FindPlottersResult result = detect::find_plotters(day.features);
    oracle << verdict_record(d, result) << '\n';

    std::size_t true_positives = 0;
    for (const simnet::Ipv4 h : result.plotters) true_positives += day.is_plotter(h) ? 1 : 0;
    shape.begin_object();
    shape.kv("window", static_cast<std::uint64_t>(d));
    shape.kv("flows", static_cast<std::uint64_t>(day.combined.flows().size()));
    shape.kv("internal_hosts", static_cast<std::uint64_t>(day.features.size()));
    shape.kv("reduced_hosts", static_cast<std::uint64_t>(result.reduced.size()));
    shape.kv("theta_hm_input", static_cast<std::uint64_t>(result.vol_or_churn.size()));
    shape.kv("plotters", static_cast<std::uint64_t>(result.plotters.size()));
    shape.kv("true_positives", static_cast<std::uint64_t>(true_positives));
    shape.kv("bots", static_cast<std::uint64_t>(day.storm_hosts.size() + day.nugache_hosts.size()));
    shape.end_object();

    const double lo = kWindow * static_cast<double>(d);
    for (netflow::FlowRecord f : day.combined.flows()) {
      f.start_time += lo;
      f.end_time += lo;
      // A flow outside its day would land in a neighbouring window and make
      // the oracle comparison meaningless.
      if (f.start_time < lo || f.start_time >= lo + kWindow)
        throw std::runtime_error("day " + std::to_string(d) + " has a flow outside its window");
      corpus.add_flow(f);
    }
    total_flows += day.combined.flows().size();
    window_flows.push_back(day.combined.flows().size());
  }
  shape.end_array();
  shape.kv("flows", total_flows);
  shape.kv("windows", static_cast<std::uint64_t>(kDays));
  shape.end_object();
  oracle.close();
  if (!oracle) throw std::runtime_error("cannot write " + paths.oracle());
  {
    std::ofstream out(paths.shape(), std::ios::trunc);
    out << shape_text.str() << '\n';
    if (!out) throw std::runtime_error("cannot write " + paths.shape());
  }

  if (args.cbin) netflow::write_binary_columnar_file(paths.cbin(), corpus);
  if (args.csv) netflow::write_csv_file(paths.csv(), corpus);
  if (args.frames) write_frames(paths.frames(), corpus.flows(), window_flows);
  std::printf("%s\n", shape_text.str().c_str());
  return 0;
}

}  // namespace e2e

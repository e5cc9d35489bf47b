#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace e2e {

std::string verdict_record(std::size_t window, const tradeplot::detect::FindPlottersResult& r) {
  std::ostringstream out;
  tradeplot::util::JsonWriter w(out, 0);
  w.begin_object();
  w.kv("window", static_cast<std::uint64_t>(window));
  w.kv("input", static_cast<std::uint64_t>(r.input.size()));
  w.kv("reduced", static_cast<std::uint64_t>(r.reduced.size()));
  w.kv("s_vol", static_cast<std::uint64_t>(r.s_vol.size()));
  w.kv("s_churn", static_cast<std::uint64_t>(r.s_churn.size()));
  w.kv("flagged", static_cast<std::uint64_t>(r.plotters.size()));
  w.key("plotters");
  w.begin_array();
  for (const tradeplot::simnet::Ipv4 h : r.plotters) w.value(h.to_string());
  w.end_array();
  w.end_object();
  return out.str();
}

std::vector<std::uint64_t> CorpusPaths::window_flows() const {
  std::ifstream in(shape());
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // The day objects hold no arrays, so the first ']' after "days" ends them.
  const std::size_t begin = text.find("\"days\":[");
  const std::size_t end = text.find(']', begin);
  if (begin == std::string::npos || end == std::string::npos)
    throw std::runtime_error("no days in " + shape());
  std::vector<std::uint64_t> out;
  const std::string key = "\"flows\":";
  for (std::size_t at = text.find(key, begin); at < end; at = text.find(key, at + 1))
    out.push_back(std::stoull(text.substr(at + key.size())));
  if (out.empty()) throw std::runtime_error("no window flows in " + shape());
  return out;
}

std::vector<std::uint64_t> frame_rows(const std::vector<std::uint64_t>& window_flows) {
  std::vector<std::uint64_t> out;
  for (const std::uint64_t n : window_flows)
    for (std::uint64_t done = 0; done < n; done += kRowsPerFrame)
      out.push_back(std::min<std::uint64_t>(kRowsPerFrame, n - done));
  return out;
}

HostTimes host_times() {
  HostTimes h;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  h.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal ...", summed over all CPUs, in clock ticks.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {};
  stat >> cpu;
  for (double& f : field) stat >> f;
  if (stat) h.steal_s = field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
  return h;
}

int Tracer::open(const std::string& name, long window) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.window = window;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  spans_[static_cast<std::size_t>(id)].start = now_s();
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  stack_.pop_back();
}

std::map<std::string, std::pair<double, double>> Tracer::layer_times() const {
  // Children of one span are sequential on the driving thread, so the time
  // they cover is the sum of their durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, std::pair<double, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end - spans_[i].start;
    auto& [total, self] = out[spans_[i].name];
    total += d;
    self += std::max(0.0, d - child_time[i]);
  }
  return out;
}

void Tracer::clear() {
  spans_.clear();
  stack_.clear();
  counts_.clear();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB on Linux
}

}  // namespace e2e

#include "obs/exposition.h"

#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>

#include "util/error.h"
#include "util/json.h"
#include "util/replace_file.h"

namespace tradeplot::obs {

namespace {

/// Shortest round-trip rendering; Prometheus spells non-finite values out.
std::string format_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, p) : std::string("NaN");
}

/// Exposition-format escaping for label values: backslash, double quote,
/// and line feed (help text uses the same rules minus the quote).
std::string escape_label_value(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string escape_help(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Renders `{k="v",...}` with `extra` ("le" for buckets) appended; empty
/// label sets render as nothing.
std::string label_block(const Labels& labels, const char* extra_key = nullptr,
                        const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += escape_label_value(extra_value);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string_view to_string(ExpositionFormat f) {
  switch (f) {
    case ExpositionFormat::kPrometheus: return "prom";
    case ExpositionFormat::kJson: return "json";
  }
  return "unknown";
}

ExpositionFormat exposition_format_from_string(std::string_view s) {
  if (s == "prom" || s == "prometheus") return ExpositionFormat::kPrometheus;
  if (s == "json") return ExpositionFormat::kJson;
  throw util::ConfigError("unknown metrics format '" + std::string(s) +
                          "' (expected prom|json)");
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string_view current_family;
  for (const SnapshotSample& s : snapshot.samples) {
    // Samples are sorted by name, so each family's HELP/TYPE header goes out
    // once, before its first sample.
    if (s.name != current_family) {
      current_family = s.name;
      out += "# HELP " + s.name + ' ' + escape_help(s.help) + '\n';
      out += "# TYPE " + s.name + ' ';
      out += to_string(s.type);
      out += '\n';
    }
    switch (s.type) {
      case MetricType::kCounter:
      case MetricType::kGauge:
        out += s.name + label_block(s.labels) + ' ' + format_double(s.value) + '\n';
        break;
      case MetricType::kHistogram: {
        const HistogramValue& h = s.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          cumulative += h.counts[i];
          out += s.name + "_bucket" +
                 label_block(s.labels, "le", format_double(h.bounds[i])) + ' ' +
                 std::to_string(cumulative) + '\n';
        }
        out += s.name + "_bucket" + label_block(s.labels, "le", "+Inf") + ' ' +
               std::to_string(h.count) + '\n';
        out += s.name + "_sum" + label_block(s.labels) + ' ' + format_double(h.sum) +
               '\n';
        out += s.name + "_count" + label_block(s.labels) + ' ' +
               std::to_string(h.count) + '\n';
        break;
      }
    }
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("metrics");
  w.begin_array();
  for (const SnapshotSample& s : snapshot.samples) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("help", s.help);
    w.kv("type", to_string(s.type));
    w.key("labels");
    w.begin_object();
    for (const auto& [k, v] : s.labels) w.kv(k, v);
    w.end_object();
    switch (s.type) {
      case MetricType::kCounter:
      case MetricType::kGauge: w.kv("value", s.value); break;
      case MetricType::kHistogram: {
        const HistogramValue& h = s.histogram;
        w.kv("count", h.count);
        w.kv("sum", h.sum);
        w.key("buckets");
        w.begin_array();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          cumulative += h.counts[i];
          w.begin_object();
          w.kv("le", format_double(h.bounds[i]));
          w.kv("count", cumulative);
          w.end_object();
        }
        w.begin_object();
        w.kv("le", "+Inf");
        w.kv("count", h.count);
        w.end_object();
        w.end_array();
        break;
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return os.str();
}

void write_snapshot(std::ostream& out, const MetricsSnapshot& snapshot,
                    ExpositionFormat format) {
  switch (format) {
    case ExpositionFormat::kPrometheus: out << to_prometheus(snapshot); break;
    case ExpositionFormat::kJson: out << to_json(snapshot); break;
  }
}

void write_snapshot_file(const std::string& path, const MetricsSnapshot& snapshot,
                         ExpositionFormat format) {
  if (path == "-") {
    write_snapshot(std::cout, snapshot, format);
    std::cout.flush();
    return;
  }
  util::replace_file(path, [&](std::ostream& out) { write_snapshot(out, snapshot, format); });
}

}  // namespace tradeplot::obs

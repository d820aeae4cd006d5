#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "obs/json.hpp"

namespace gridtrust::obs {

namespace detail {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  // Integers below 9e15 print exactly without a fraction; everything else
  // uses %.17g so the value round-trips.  The magnitude is checked first:
  // converting a double outside long long's range is undefined behaviour.
  if (std::abs(value) < 9.0e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace detail

namespace {

using detail::json_escape;
using detail::json_number;

template <typename Map, typename Fn>
void append_json_map(std::string& out, const Map& map, Fn&& format_value) {
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":";
    out += format_value(value);
  }
}

}  // namespace

std::string to_json(const Snapshot& snapshot) {
  std::string out = "{\"counters\":{";
  append_json_map(out, snapshot.counters,
                  [](double v) { return json_number(v); });
  out += "},\"gauges\":{";
  append_json_map(out, snapshot.gauges,
                  [](double v) { return json_number(v); });
  out += "},\"histograms\":{";
  append_json_map(out, snapshot.histograms, [](const HistogramSnapshot& h) {
    std::string entry = "{\"count\":" + json_number(static_cast<double>(h.count)) +
                        ",\"sum\":" + json_number(h.sum) +
                        ",\"min\":" + json_number(h.min) +
                        ",\"max\":" + json_number(h.max) +
                        ",\"mean\":" + json_number(h.mean()) + ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i != 0) entry += ',';
      entry += json_number(h.bounds[i]);
    }
    entry += "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) entry += ',';
      entry += json_number(static_cast<double>(h.buckets[i]));
    }
    entry += "]}";
    return entry;
  });
  out += "}}";
  return out;
}

std::string to_csv(const Snapshot& snapshot) {
  std::ostringstream out;
  out << "kind,name,field,value\n";
  out.precision(17);
  for (const auto& [name, value] : snapshot.counters) {
    out << "counter," << name << ",value," << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out << "gauge," << name << ",value," << value << "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    out << "histogram," << name << ",count," << hist.count << "\n"
        << "histogram," << name << ",sum," << hist.sum << "\n"
        << "histogram," << name << ",min," << hist.min << "\n"
        << "histogram," << name << ",max," << hist.max << "\n";
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      out << "histogram," << name << ",bucket_le_";
      if (i < hist.bounds.size()) {
        out << hist.bounds[i];
      } else {
        out << "inf";
      }
      out << "," << hist.buckets[i] << "\n";
    }
  }
  return out.str();
}

void add_metrics_flags(CliParser& cli) {
  cli.add_string("metrics-out", "",
                 "write a metrics dump here on exit (.csv => CSV, else JSON)");
}

MetricsExportScope::MetricsExportScope(const CliParser& cli)
    : MetricsExportScope(cli.get_string("metrics-out")) {}

MetricsExportScope::MetricsExportScope(std::string path)
    : path_(std::move(path)) {
  if (path_.empty()) return;
  registry_ = std::make_unique<MetricsRegistry>();
  install(registry_.get());
}

MetricsExportScope::~MetricsExportScope() {
  if (registry_ == nullptr) return;
  install(nullptr);
  const Snapshot snap = registry_->snapshot();
  const bool csv =
      path_.size() >= 4 && path_.compare(path_.size() - 4, 4, ".csv") == 0;
  try {
    // Atomic rename: a crash (or a concurrent reader) never sees a torn
    // dump.
    atomic_write_file(path_, (csv ? to_csv(snap) : to_json(snap)) + "\n");
  } catch (const std::exception& e) {
    // Destructors must not throw; warn instead of silently losing the dump.
    std::fprintf(stderr, "warning: cannot write metrics dump to %s: %s\n",
                 path_.c_str(), e.what());
  }
}

}  // namespace gridtrust::obs

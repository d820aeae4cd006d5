// Observability: snapshot exporters and CLI wiring.
//
// Every bench and example can dump its metrics with one flag:
//
//   CliParser cli(...);
//   obs::add_metrics_flags(cli);          // registers --metrics-out
//   cli.parse(argc, argv);
//   obs::MetricsExportScope metrics(cli); // installs a registry if requested
//   ...run...                             // destructor writes the dump
//
// The dump format follows the file extension: `.csv` writes CSV, anything
// else writes JSON.
#pragma once

#include <string>

#include "common/cli.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::obs {

/// Renders a snapshot as one JSON object:
///   {"counters":{...},"gauges":{...},"histograms":{"name":{"count":...}}}
std::string to_json(const Snapshot& snapshot);

/// Renders a snapshot as CSV with header `kind,name,field,value`; histogram
/// buckets appear as `histogram,<name>,bucket_le_<bound>,<count>`.
std::string to_csv(const Snapshot& snapshot);

/// Registers the shared `--metrics-out` flag.
void add_metrics_flags(CliParser& cli);

/// RAII scope: when the parsed CLI carries a non-empty --metrics-out, owns
/// and installs a MetricsRegistry, and on destruction writes the snapshot
/// to the requested path (and uninstalls).  When the flag is absent the
/// scope is inert and metrics stay disabled.
class MetricsExportScope {
 public:
  explicit MetricsExportScope(const CliParser& cli);
  /// Explicit-path variant (empty path => inert).
  explicit MetricsExportScope(std::string path);
  ~MetricsExportScope();
  MetricsExportScope(const MetricsExportScope&) = delete;
  MetricsExportScope& operator=(const MetricsExportScope&) = delete;

  bool enabled() const { return registry_ != nullptr; }
  /// The live registry (nullptr when inert); exposed so callers can take
  /// mid-run snapshots.
  MetricsRegistry* registry() { return registry_.get(); }

 private:
  std::string path_;
  std::unique_ptr<MetricsRegistry> registry_;
};

}  // namespace gridtrust::obs

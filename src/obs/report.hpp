// Observability: the canonical run-result container.
//
// Every simulation entry point (sim::SimulationResult, sim::run_paired,
// sim::CampaignResult, sim::MarketCampaignResult, lab sweep units) reports
// through a RunReport — an ordered name → scalar map — so the lab engine
// aggregates a single shape instead of one hand-rolled struct per study.
//
// Naming mirrors the metrics convention: `<group>.<field>`, e.g.
// "makespan", "aware.makespan_mean", "round_01.misplaced_pct".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gridtrust::obs {

/// Ordered name → scalar map; names() keeps insertion order.  A report
/// holds a handful of entries (no catalog cell reports more than 15), so
/// names are looked up by a linear scan rather than through an index that
/// every per-unit report would have to build.
class RunReport {
 public:
  /// Sets a scalar (overwrites an existing entry).
  RunReport& set(const std::string& name, double value);

  /// Sets a scalar from an exact event count.  Counts above 2^53 would lose
  /// precision in the double-backed store (and in JSON); the report layer is
  /// for run summaries, so that is rejected rather than rounded.
  RunReport& set_count(const std::string& name, std::uint64_t value);

  bool has(const std::string& name) const;
  /// Scalar accessor; throws PreconditionError when absent.
  double get(const std::string& name) const;

  /// All entry names in insertion order.
  std::vector<std::string> names() const;
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
  };
  /// Position of the entry named `name`; entries_.size() when absent.
  std::size_t position(const std::string& name) const;

  std::vector<Entry> entries_;
};

}  // namespace gridtrust::obs

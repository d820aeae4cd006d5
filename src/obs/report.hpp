// Observability: the canonical run-result container.
//
// Every simulation entry point (sim::SimulationResult, sim::run_paired,
// sim::CampaignResult, sim::MarketCampaignResult, lab sweep units) reports
// through a RunReport — an ordered name → scalar / series map with one JSON
// and one CSV serialization — so downstream tooling consumes a single shape
// instead of one hand-rolled struct per bench.
//
// Naming mirrors the metrics convention: `<group>.<field>`, e.g.
// "makespan", "aware.makespan_mean", "rounds.misplaced_fraction".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gridtrust::obs {

/// Ordered name → scalar / series map.  Insertion order is preserved in
/// both serializations (reports read like the tables they replace).  A
/// report holds a handful of entries (no catalog cell reports more than
/// 15), so names are looked up by a linear scan rather than through an
/// index that every per-unit report would have to build.
class RunReport {
 public:
  /// Sets a scalar (overwrites an existing entry of either shape).
  RunReport& set(const std::string& name, double value);

  /// Sets a scalar from an exact event count.  Counts above 2^53 would lose
  /// precision in the double-backed store (and in JSON); the report layer is
  /// for run summaries, so that is rejected rather than rounded.
  RunReport& set_count(const std::string& name, std::uint64_t value);

  /// Sets a series (per-round / per-replication vectors).
  RunReport& set_series(const std::string& name, std::vector<double> values);

  bool has(const std::string& name) const;
  /// Scalar accessor; throws PreconditionError when absent or a series.
  double get(const std::string& name) const;
  /// Series accessor; throws PreconditionError when absent or a scalar.
  const std::vector<double>& get_series(const std::string& name) const;

  /// All entry names in insertion order.
  std::vector<std::string> names() const;
  std::size_t size() const { return entries_.size(); }

  /// {"name":value,...,"series_name":[v0,v1,...]}
  std::string to_json() const;

  /// `name,index,value` rows; scalars leave the index empty.
  std::string to_csv() const;

 private:
  struct Entry {
    std::string name;
    bool is_series = false;
    double scalar = 0.0;
    std::vector<double> series;
  };
  Entry& upsert(const std::string& name);
  /// Position of the entry named `name`; entries_.size() when absent.
  std::size_t position(const std::string& name) const;
  const Entry& find(const std::string& name) const;

  std::vector<Entry> entries_;
};

}  // namespace gridtrust::obs

// Types of activity (ToA) a task can engage in at a resource domain (§3.1).
//
// Example activities from the paper: printing, storing data, using display
// services.  An activity doubles as a trust *context*: the trust-level table
// and the trust engine are indexed by activity.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gridtrust::grid {

/// Index of an activity type in the catalog.
using ActivityId = std::size_t;

/// Registry of the activity types known to a Grid.
class ActivityCatalog {
 public:
  /// Empty catalog.
  ActivityCatalog() = default;

  /// Adds an activity type; names must be unique and non-empty.
  ActivityId add(std::string name);

  /// Number of registered activity types.
  std::size_t size() const { return names_.size(); }

  /// Id of an activity by name; throws if absent.
  ActivityId id_of(const std::string& name) const;

  /// True when the catalog contains the name.
  bool contains(const std::string& name) const;

  /// The default Grid catalog used by the simulations: eight common ToAs
  /// (execute, store, retrieve, print, display, transfer, query, instrument).
  static ActivityCatalog standard();

 private:
  std::vector<std::string> names_;
};

}  // namespace gridtrust::grid

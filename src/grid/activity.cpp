#include "grid/activity.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gridtrust::grid {

ActivityId ActivityCatalog::add(std::string name) {
  GT_REQUIRE(!name.empty(), "activity name must be non-empty");
  GT_REQUIRE(!contains(name), "duplicate activity name: " + name);
  names_.push_back(std::move(name));
  return names_.size() - 1;
}

ActivityId ActivityCatalog::id_of(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  GT_REQUIRE(it != names_.end(), "unknown activity: " + name);
  return static_cast<ActivityId>(it - names_.begin());
}

bool ActivityCatalog::contains(const std::string& name) const {
  return std::find(names_.begin(), names_.end(), name) != names_.end();
}

ActivityCatalog ActivityCatalog::standard() {
  ActivityCatalog catalog;
  catalog.add("execute");
  catalog.add("store");
  catalog.add("retrieve");
  catalog.add("print");
  catalog.add("display");
  catalog.add("transfer");
  catalog.add("query");
  catalog.add("instrument");
  return catalog;
}

}  // namespace gridtrust::grid

// Tasks, requests, and meta-requests (§4.1).
//
// A client submits a request r to execute a task t(r).  Tasks are indivisible
// and mapped non-preemptively.  Batch-mode heuristics operate on
// meta-requests: the set of requests collected during one batch interval.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "grid/activity.hpp"
#include "grid/domain.hpp"
#include "trust/trust_level.hpp"

namespace gridtrust::grid {

using RequestId = std::size_t;

/// The ToAs of one request, stored inline: at most kCapacity ids, the size
/// of ActivityCatalog::standard() (the paper draws 1..4).  A contiguous,
/// sized range, so std::span<const ActivityId> views it directly.  Adding
/// past the capacity throws PreconditionError.
class ActivityList {
 public:
  static constexpr std::size_t kCapacity = 8;

  using const_iterator = const ActivityId*;

  ActivityList() = default;
  ActivityList(std::initializer_list<ActivityId> ids) {
    assign(ids.begin(), ids.end());
  }

  /// Replaces the contents with [first, last).
  template <typename It>
  void assign(It first, It last) {
    size_ = 0;
    for (; first != last; ++first) push_back(*first);
  }

  void push_back(ActivityId id) {
    GT_REQUIRE(size_ < kCapacity, "a request holds at most " +
                                      std::to_string(kCapacity) + " ToAs");
    ids_[size_++] = id;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const ActivityId* data() const { return ids_.data(); }
  const_iterator begin() const { return ids_.data(); }
  const_iterator end() const { return ids_.data() + size_; }

  /// Unchecked, like std::vector::operator[].
  const ActivityId& operator[](std::size_t i) const { return ids_[i]; }

  friend bool operator==(const ActivityList& a, const ActivityList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<ActivityId, kCapacity> ids_{};
  std::size_t size_ = 0;
};

/// A resource request: one task plus its trust requirements.
struct Request {
  RequestId id = 0;
  /// The originating client c(r); meaningful when the Grid tracks clients
  /// (GridSystem::clients() non-empty), 0 otherwise.
  ClientId client = 0;
  /// Client domain of the originating client c(r).  The trust machinery
  /// works at domain granularity (clients inherit the CD's attributes).
  ClientDomainId client_domain = 0;
  /// ToAs the task engages in (1..4 in the paper's workload, at most
  /// ActivityList::kCapacity); the request's offered trust level is the
  /// minimum table entry over these.
  ActivityList activities;
  /// Client-side required trust level (A..F).
  trust::TrustLevel client_rtl = trust::TrustLevel::kA;
  /// Resource-side required trust level (A..F).
  trust::TrustLevel resource_rtl = trust::TrustLevel::kA;
  /// Arrival time at the RMS (seconds).
  double arrival_time = 0.0;

  // --- QoS terms (gridtrust::econ; Buyya-style deadline/budget requests).
  // All three default to "unconstrained", so requests built before the
  // economy subsystem behave exactly as they always did.
  /// Latest acceptable completion time (absolute seconds); 0 = none.
  double deadline = 0.0;
  /// Most the client will spend on this request (G$); 0 = unlimited.
  double budget = 0.0;
  /// What serving the request is worth to the client (G$); welfare
  /// accounting sums valuation - spend over served requests.  0 = unknown.
  double valuation = 0.0;

  /// True when a deadline constrains this request.
  bool has_deadline() const { return deadline > 0.0; }
  /// True when a budget constrains this request.
  bool has_budget() const { return budget > 0.0; }

  /// Effective RTL: the activity may proceed without supplement only if the
  /// offer meets the *maximum* of the client and resource requirements.
  trust::TrustLevel effective_rtl() const {
    return trust::max_level(client_rtl, resource_rtl);
  }
};

}  // namespace gridtrust::grid

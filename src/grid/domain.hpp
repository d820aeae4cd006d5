// Grid domains and their virtual resource/client domains (§3.1).
//
// A Grid is a collection of autonomously administered Grid domains (GDs).
// Each GD projects two virtual domains: a resource domain (RD) covering its
// resources and a client domain (CD) covering its clients.  Trust attributes
// attach to RDs and CDs; machines and clients inherit them from their domain,
// which is what makes the trust-level table scale.
#pragma once

#include <cstddef>
#include <set>
#include <string>

#include "grid/activity.hpp"

namespace gridtrust::grid {

using GridDomainId = std::size_t;
using ResourceDomainId = std::size_t;
using ClientDomainId = std::size_t;
using MachineId = std::size_t;

/// An autonomous administrative unit of the Grid.
struct GridDomain {
  GridDomainId id = 0;
  std::string name;
  /// The virtual resource domain projected from this GD.
  ResourceDomainId resource_domain = 0;
  /// The virtual client domain projected from this GD.
  ClientDomainId client_domain = 0;
};

/// A resource domain: ownership and supported ToAs.  Required trust
/// levels are per request (the simulations of §5.3 sample an RTL per
/// request), not per domain.
struct ResourceDomain {
  ResourceDomainId id = 0;
  std::string name;
  GridDomainId owner = 0;
  /// ToAs the domain's resources support; empty means "all activities".
  std::set<ActivityId> supported_activities;

  /// True when the domain supports the activity.
  bool supports(ActivityId activity) const {
    return supported_activities.empty() ||
           supported_activities.count(activity) > 0;
  }
};

/// A client domain and its owning Grid domain.
struct ClientDomain {
  ClientDomainId id = 0;
  std::string name;
  GridDomainId owner = 0;
};

/// A machine (resource) inside a resource domain.  Scheduling state such as
/// the machine-available time lives in the scheduler, not here.
struct Machine {
  MachineId id = 0;
  std::string name;
  ResourceDomainId resource_domain = 0;
};

using ClientId = std::size_t;

/// A client inside a client domain — the c(r) of §4.1.  Clients inherit
/// their domain's trust attributes (that inheritance is what makes the
/// trust-level table scale, §3.1), so the client record carries identity
/// only.
struct Client {
  ClientId id = 0;
  std::string name;
  ClientDomainId client_domain = 0;
};

}  // namespace gridtrust::grid

// The assembled Grid: domains, machines, and the activity catalog.
//
// GridSystem is the static topology the scheduler and trust machinery
// operate on.  Build one with GridSystemBuilder (explicit construction) or
// make_random_grid (the paper's randomized topology: #CD, #RD ~ U[1, 4]).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "grid/activity.hpp"
#include "grid/domain.hpp"

namespace gridtrust::grid {

/// Immutable Grid topology.
class GridSystem {
 public:
  GridSystem(ActivityCatalog activities, std::vector<GridDomain> grid_domains,
             std::vector<ResourceDomain> resource_domains,
             std::vector<ClientDomain> client_domains,
             std::vector<Machine> machines,
             std::vector<Client> clients = {});

  const ActivityCatalog& activities() const { return activities_; }
  const std::vector<GridDomain>& grid_domains() const { return grid_domains_; }
  const std::vector<ResourceDomain>& resource_domains() const {
    return resource_domains_;
  }
  const std::vector<ClientDomain>& client_domains() const {
    return client_domains_;
  }
  const std::vector<Machine>& machines() const { return machines_; }
  /// Individual clients; may be empty (domain-granular modelling only).
  const std::vector<Client>& clients() const { return clients_; }

  const ResourceDomain& resource_domain(ResourceDomainId id) const;
  const ClientDomain& client_domain(ClientDomainId id) const;
  const Client& client(ClientId id) const;

  /// Resource domain a machine belongs to.  Served from a dense
  /// machine -> domain array (not the string-heavy Machine structs): the
  /// scheduler, chaos, and staging layers call this per machine per tick,
  /// and the whole index stays a few cache lines at paper scale.
  ResourceDomainId domain_of_machine(MachineId id) const {
    GT_REQUIRE(id < machine_domain_.size(), "machine id out of range");
    return machine_domain_[id];
  }

 private:
  ActivityCatalog activities_;
  std::vector<GridDomain> grid_domains_;
  std::vector<ResourceDomain> resource_domains_;
  std::vector<ClientDomain> client_domains_;
  std::vector<Machine> machines_;
  std::vector<Client> clients_;
  // SoA hot-path index, derived from machines_ at construction (the
  // topology is immutable, so it can never go stale).
  std::vector<ResourceDomainId> machine_domain_;
};

/// Incremental construction with validation at build().
class GridSystemBuilder {
 public:
  explicit GridSystemBuilder(ActivityCatalog activities);

  /// Adds a Grid domain along with its projected RD and CD; returns the GD id.
  GridDomainId add_grid_domain(const std::string& name);

  /// Adds a machine to the RD of Grid domain `gd`; returns the machine id.
  MachineId add_machine(GridDomainId gd, const std::string& name);

  /// Restricts the RD of `gd` to a set of supported activities.
  void set_supported_activities(GridDomainId gd, std::set<ActivityId> acts);

  /// Validates and assembles the GridSystem.  Requires at least one GD and
  /// one machine.
  GridSystem build() const;

 private:
  ActivityCatalog activities_;
  std::vector<GridDomain> grid_domains_;
  std::vector<ResourceDomain> resource_domains_;
  std::vector<ClientDomain> client_domains_;
  std::vector<Machine> machines_;
};

/// Parameters of the randomized topology of §5.3.
struct RandomGridParams {
  /// Client domains ~ U[min_cd, max_cd].
  std::size_t min_client_domains = 1;
  std::size_t max_client_domains = 4;
  /// Resource domains ~ U[min_rd, max_rd].
  std::size_t min_resource_domains = 1;
  std::size_t max_resource_domains = 4;
  /// Total machines, distributed over the resource domains such that every
  /// RD owns at least one machine (requires machines >= resource domains
  /// drawn; the draw is capped at `machines`).
  std::size_t machines = 5;
  /// Clients created per client domain (0 = domain-granular model only).
  std::size_t clients_per_domain = 3;
};

/// Builds the randomized Grid of the paper's simulations: #CD, #RD drawn
/// uniformly, machines spread round-robin over RDs after a random shuffle.
/// CDs and RDs beyond the GD count pair arbitrarily with existing GDs (the
/// paper allows several virtual domains to map onto the same GD).
GridSystem make_random_grid(const RandomGridParams& params, Rng& rng);

}  // namespace gridtrust::grid

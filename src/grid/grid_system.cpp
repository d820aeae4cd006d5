#include "grid/grid_system.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gridtrust::grid {

GridSystem::GridSystem(ActivityCatalog activities,
                       std::vector<GridDomain> grid_domains,
                       std::vector<ResourceDomain> resource_domains,
                       std::vector<ClientDomain> client_domains,
                       std::vector<Machine> machines,
                       std::vector<Client> clients)
    : activities_(std::move(activities)),
      grid_domains_(std::move(grid_domains)),
      resource_domains_(std::move(resource_domains)),
      client_domains_(std::move(client_domains)),
      machines_(std::move(machines)),
      clients_(std::move(clients)) {
  GT_REQUIRE(activities_.size() > 0, "a Grid needs at least one activity");
  GT_REQUIRE(!grid_domains_.empty(), "a Grid needs at least one Grid domain");
  GT_REQUIRE(!resource_domains_.empty(),
             "a Grid needs at least one resource domain");
  GT_REQUIRE(!client_domains_.empty(),
             "a Grid needs at least one client domain");
  GT_REQUIRE(!machines_.empty(), "a Grid needs at least one machine");
  for (std::size_t i = 0; i < grid_domains_.size(); ++i) {
    GT_REQUIRE(grid_domains_[i].id == i, "grid domain ids must be dense");
    GT_REQUIRE(grid_domains_[i].resource_domain < resource_domains_.size(),
               "grid domain references an unknown resource domain");
    GT_REQUIRE(grid_domains_[i].client_domain < client_domains_.size(),
               "grid domain references an unknown client domain");
  }
  for (std::size_t i = 0; i < resource_domains_.size(); ++i) {
    GT_REQUIRE(resource_domains_[i].id == i,
               "resource domain ids must be dense");
    GT_REQUIRE(resource_domains_[i].owner < grid_domains_.size(),
               "resource domain owned by an unknown grid domain");
    for (const ActivityId act : resource_domains_[i].supported_activities) {
      GT_REQUIRE(act < activities_.size(),
                 "resource domain supports an unknown activity");
    }
  }
  for (std::size_t i = 0; i < client_domains_.size(); ++i) {
    GT_REQUIRE(client_domains_[i].id == i, "client domain ids must be dense");
    GT_REQUIRE(client_domains_[i].owner < grid_domains_.size(),
               "client domain owned by an unknown grid domain");
  }
  machine_domain_.reserve(machines_.size());
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    GT_REQUIRE(machines_[i].id == i, "machine ids must be dense");
    GT_REQUIRE(machines_[i].resource_domain < resource_domains_.size(),
               "machine belongs to an unknown resource domain");
    machine_domain_.push_back(machines_[i].resource_domain);
  }
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    GT_REQUIRE(clients_[i].id == i, "client ids must be dense");
    GT_REQUIRE(clients_[i].client_domain < client_domains_.size(),
               "client belongs to an unknown client domain");
  }
}

const Client& GridSystem::client(ClientId id) const {
  GT_REQUIRE(id < clients_.size(), "client id out of range");
  return clients_[id];
}

const ResourceDomain& GridSystem::resource_domain(ResourceDomainId id) const {
  GT_REQUIRE(id < resource_domains_.size(),
             "resource domain id out of range");
  return resource_domains_[id];
}

const ClientDomain& GridSystem::client_domain(ClientDomainId id) const {
  GT_REQUIRE(id < client_domains_.size(), "client domain id out of range");
  return client_domains_[id];
}

GridSystemBuilder::GridSystemBuilder(ActivityCatalog activities)
    : activities_(std::move(activities)) {}

GridDomainId GridSystemBuilder::add_grid_domain(const std::string& name) {
  const GridDomainId gd = grid_domains_.size();
  const ResourceDomainId rd = resource_domains_.size();
  const ClientDomainId cd = client_domains_.size();
  grid_domains_.push_back(GridDomain{gd, name, rd, cd});
  resource_domains_.push_back(
      ResourceDomain{rd, name + "/resources", gd, {}});
  client_domains_.push_back(
      ClientDomain{cd, name + "/clients", gd});
  return gd;
}

MachineId GridSystemBuilder::add_machine(GridDomainId gd,
                                         const std::string& name) {
  GT_REQUIRE(gd < grid_domains_.size(), "unknown grid domain");
  const MachineId id = machines_.size();
  machines_.push_back(Machine{id, name, grid_domains_[gd].resource_domain});
  return id;
}

void GridSystemBuilder::set_supported_activities(GridDomainId gd,
                                                 std::set<ActivityId> acts) {
  GT_REQUIRE(gd < grid_domains_.size(), "unknown grid domain");
  resource_domains_[grid_domains_[gd].resource_domain].supported_activities =
      std::move(acts);
}

GridSystem GridSystemBuilder::build() const {
  return GridSystem(activities_, grid_domains_, resource_domains_,
                    client_domains_, machines_);
}

GridSystem make_random_grid(const RandomGridParams& params, Rng& rng) {
  GT_REQUIRE(params.min_client_domains >= 1 &&
                 params.min_client_domains <= params.max_client_domains,
             "invalid client-domain range");
  GT_REQUIRE(params.min_resource_domains >= 1 &&
                 params.min_resource_domains <= params.max_resource_domains,
             "invalid resource-domain range");
  GT_REQUIRE(params.machines >= 1, "need at least one machine");

  const auto n_cd = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(params.min_client_domains),
      static_cast<std::int64_t>(params.max_client_domains)));
  // Every RD must own at least one machine, so the RD draw is capped.
  const std::size_t rd_hi =
      std::min(params.max_resource_domains, params.machines);
  const std::size_t rd_lo = std::min(params.min_resource_domains, rd_hi);
  const auto n_rd = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(rd_lo),
                      static_cast<std::int64_t>(rd_hi)));

  // One GD per distinct virtual-domain index; extra CDs/RDs wrap onto
  // existing GDs (several virtual domains may map to the same GD, §3.1).
  const std::size_t n_gd = std::max(n_cd, n_rd);
  std::vector<GridDomain> gds;
  std::vector<ResourceDomain> rds;
  std::vector<ClientDomain> cds;
  for (std::size_t i = 0; i < n_gd; ++i) {
    gds.push_back(GridDomain{i, "gd" + std::to_string(i), i % n_rd, i % n_cd});
  }
  for (std::size_t j = 0; j < n_rd; ++j) {
    rds.push_back(ResourceDomain{j, "rd" + std::to_string(j), j % n_gd, {}});
  }
  for (std::size_t i = 0; i < n_cd; ++i) {
    cds.push_back(ClientDomain{i, "cd" + std::to_string(i), i % n_gd});
  }

  // Spread machines over RDs: one each first, the remainder uniformly.
  std::vector<Machine> machines;
  machines.reserve(params.machines);
  std::vector<ResourceDomainId> placement;
  placement.reserve(params.machines);
  for (std::size_t j = 0; j < n_rd; ++j) placement.push_back(j);
  while (placement.size() < params.machines) {
    placement.push_back(rng.index(n_rd));
  }
  rng.shuffle(placement);
  for (std::size_t m = 0; m < params.machines; ++m) {
    machines.push_back(Machine{m, "m" + std::to_string(m), placement[m]});
  }

  std::vector<Client> clients;
  clients.reserve(n_cd * params.clients_per_domain);
  for (std::size_t cd = 0; cd < n_cd; ++cd) {
    for (std::size_t k = 0; k < params.clients_per_domain; ++k) {
      const ClientId id = clients.size();
      clients.push_back(Client{
          id, "cd" + std::to_string(cd) + "/client" + std::to_string(k), cd});
    }
  }

  return GridSystem(ActivityCatalog::standard(), std::move(gds),
                    std::move(rds), std::move(cds), std::move(machines),
                    std::move(clients));
}

}  // namespace gridtrust::grid

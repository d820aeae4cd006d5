// Tests for the Grid system model: activities, domains, machines, builders,
// and the randomized topology of §5.3.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "grid/activity.hpp"
#include "grid/grid_system.hpp"
#include "grid/request.hpp"

namespace gridtrust::grid {
namespace {

// ---------------------------------------------------------------- activities

TEST(ActivityCatalog, AddAndLookup) {
  ActivityCatalog catalog;
  const ActivityId print = catalog.add("print");
  const ActivityId store = catalog.add("store");
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.id_of("print"), print);
  EXPECT_EQ(catalog.id_of("store"), store);
  EXPECT_TRUE(catalog.contains("print"));
  EXPECT_FALSE(catalog.contains("render"));
}

TEST(ActivityCatalog, RejectsDuplicatesAndEmpty) {
  ActivityCatalog catalog;
  catalog.add("print");
  EXPECT_THROW(catalog.add("print"), PreconditionError);
  EXPECT_THROW(catalog.add(""), PreconditionError);
  EXPECT_THROW(catalog.id_of("missing"), PreconditionError);
}

TEST(ActivityCatalog, StandardHasEightDistinctActivities) {
  const ActivityCatalog catalog = ActivityCatalog::standard();
  EXPECT_EQ(catalog.size(), 8u);
  EXPECT_TRUE(catalog.contains("execute"));
  EXPECT_TRUE(catalog.contains("store"));
  EXPECT_TRUE(catalog.contains("print"));
  EXPECT_TRUE(catalog.contains("display"));
}

// ---------------------------------------------------------------- domains

/// Machines of resource domain `rd`, counted through domain_of_machine.
std::size_t machines_in(const GridSystem& grid, ResourceDomainId rd) {
  std::size_t n = 0;
  for (const Machine& m : grid.machines()) {
    if (grid.domain_of_machine(m.id) == rd) ++n;
  }
  return n;
}

TEST(ResourceDomain, EmptySupportMeansEverything) {
  ResourceDomain rd;
  EXPECT_TRUE(rd.supports(0));
  EXPECT_TRUE(rd.supports(99));
  rd.supported_activities = {1, 2};
  EXPECT_FALSE(rd.supports(0));
  EXPECT_TRUE(rd.supports(2));
}

TEST(Request, EffectiveRtlIsTheMaxOfBothSides) {
  Request r;
  r.client_rtl = trust::TrustLevel::kB;
  r.resource_rtl = trust::TrustLevel::kE;
  EXPECT_EQ(r.effective_rtl(), trust::TrustLevel::kE);
  r.resource_rtl = trust::TrustLevel::kA;
  EXPECT_EQ(r.effective_rtl(), trust::TrustLevel::kB);
}

// ---------------------------------------------------------------- builder

TEST(GridSystemBuilder, BuildsWellFormedSystem) {
  GridSystemBuilder builder(ActivityCatalog::standard());
  const GridDomainId campus = builder.add_grid_domain("campus");
  const GridDomainId lab = builder.add_grid_domain("lab");
  builder.add_machine(campus, "c1");
  builder.add_machine(campus, "c2");
  const MachineId l1 = builder.add_machine(lab, "l1");
  const GridSystem grid = builder.build();

  EXPECT_EQ(grid.grid_domains().size(), 2u);
  EXPECT_EQ(grid.resource_domains().size(), 2u);
  EXPECT_EQ(grid.client_domains().size(), 2u);
  EXPECT_EQ(grid.machines().size(), 3u);
  EXPECT_EQ(grid.domain_of_machine(l1), grid.grid_domains()[lab].resource_domain);
  EXPECT_EQ(machines_in(grid, 0), 2u);
  EXPECT_EQ(machines_in(grid, 1), 1u);
}

TEST(GridSystemBuilder, ClientsBelongToTheirDomains) {
  GridSystemBuilder builder(ActivityCatalog::standard());
  const GridDomainId campus = builder.add_grid_domain("campus");
  const GridDomainId lab = builder.add_grid_domain("lab");
  builder.add_machine(campus, "m");
  const GridSystem base = builder.build();
  const ClientDomainId campus_cd = base.grid_domains()[campus].client_domain;
  const ClientDomainId lab_cd = base.grid_domains()[lab].client_domain;
  const ClientId alice = 0;
  const ClientId bob = 1;
  const GridSystem grid(base.activities(), base.grid_domains(),
                        base.resource_domains(), base.client_domains(),
                        base.machines(),
                        {{alice, "alice", campus_cd},
                         {bob, "bob", lab_cd},
                         {2, "carol", campus_cd}});
  EXPECT_EQ(grid.clients().size(), 3u);
  EXPECT_EQ(grid.client(alice).name, "alice");
  EXPECT_EQ(grid.client(bob).client_domain, lab_cd);
  EXPECT_THROW(grid.client(9), PreconditionError);
}

TEST(GridSystem, ValidatesClientReferences) {
  GridSystemBuilder builder(ActivityCatalog::standard());
  builder.add_machine(builder.add_grid_domain("gd"), "m");
  const GridSystem base = builder.build();
  std::vector<Client> bad{{0, "x", 7}};  // unknown client domain
  EXPECT_THROW(GridSystem(base.activities(), base.grid_domains(),
                          base.resource_domains(), base.client_domains(),
                          base.machines(), bad),
               PreconditionError);
}

TEST(RandomGrid, CreatesClientsPerDomain) {
  Rng rng(4);
  RandomGridParams params;
  params.clients_per_domain = 4;
  const GridSystem grid = make_random_grid(params, rng);
  EXPECT_EQ(grid.clients().size(), 4u * grid.client_domains().size());
  for (const Client& c : grid.clients()) {
    EXPECT_LT(c.client_domain, grid.client_domains().size());
  }
  // Zero clients keeps the domain-granular model.
  Rng rng2(4);
  params.clients_per_domain = 0;
  EXPECT_TRUE(make_random_grid(params, rng2).clients().empty());
}

TEST(GridSystemBuilder, SupportedActivitiesRestrictTheRd) {
  GridSystemBuilder builder(ActivityCatalog::standard());
  const GridDomainId gd = builder.add_grid_domain("gd");
  builder.add_machine(gd, "m");
  builder.set_supported_activities(gd, {0, 3});
  const GridSystem grid = builder.build();
  EXPECT_TRUE(grid.resource_domain(0).supports(0));
  EXPECT_FALSE(grid.resource_domain(0).supports(1));
}

TEST(GridSystemBuilder, RejectsUnknownDomain) {
  GridSystemBuilder builder(ActivityCatalog::standard());
  EXPECT_THROW(builder.add_machine(0, "m"), PreconditionError);
  EXPECT_THROW(builder.set_supported_activities(3, {0}), PreconditionError);
}

TEST(GridSystemBuilder, BuildRequiresMachines) {
  GridSystemBuilder builder(ActivityCatalog::standard());
  builder.add_grid_domain("gd");
  EXPECT_THROW(builder.build(), PreconditionError);
}

TEST(GridSystem, ValidatesCrossReferences) {
  ActivityCatalog catalog = ActivityCatalog::standard();
  std::vector<GridDomain> gds{{0, "g", 0, 0}};
  std::vector<ResourceDomain> rds{{0, "r", 0, {}}};
  std::vector<ClientDomain> cds{{0, "c", 0}};
  // Machine points at a non-existent resource domain.
  std::vector<Machine> bad{{0, "m", 7}};
  EXPECT_THROW(
      GridSystem(catalog, gds, rds, cds, bad), PreconditionError);
  // Resource domain supports an unknown activity.
  std::vector<Machine> machines{{0, "m", 0}};
  std::vector<ResourceDomain> bad_rd{{0, "r", 0, {999}}};
  EXPECT_THROW(GridSystem(catalog, gds, bad_rd, cds, machines),
               PreconditionError);
}

TEST(GridSystem, AccessorsAreBoundsChecked) {
  GridSystemBuilder builder(ActivityCatalog::standard());
  const GridDomainId gd = builder.add_grid_domain("gd");
  builder.add_machine(gd, "m");
  const GridSystem grid = builder.build();
  EXPECT_THROW(grid.domain_of_machine(5), PreconditionError);
  EXPECT_THROW(grid.resource_domain(5), PreconditionError);
  EXPECT_THROW(grid.client_domain(5), PreconditionError);
}

// ---------------------------------------------------------------- random grid

class RandomGridSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGridSweep, TopologyRespectsPaperRanges) {
  Rng rng(GetParam());
  RandomGridParams params;  // defaults: #CD,#RD ~ U[1,4], 5 machines
  const GridSystem grid = make_random_grid(params, rng);

  EXPECT_GE(grid.client_domains().size(), 1u);
  EXPECT_LE(grid.client_domains().size(), 4u);
  EXPECT_GE(grid.resource_domains().size(), 1u);
  EXPECT_LE(grid.resource_domains().size(), 4u);
  EXPECT_EQ(grid.machines().size(), 5u);

  // Every resource domain owns at least one machine.
  for (const ResourceDomain& rd : grid.resource_domains()) {
    EXPECT_GE(machines_in(grid, rd.id), 1u) << "rd " << rd.id;
  }
  // Machines reference valid domains (the GridSystem constructor validated,
  // but assert the public accessors agree).
  for (const Machine& m : grid.machines()) {
    EXPECT_LT(m.resource_domain, grid.resource_domains().size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGridSweep,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(RandomGrid, DrawsCoverTheWholeRange) {
  RandomGridParams params;
  std::set<std::size_t> cd_counts;
  std::set<std::size_t> rd_counts;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const GridSystem grid = make_random_grid(params, rng);
    cd_counts.insert(grid.client_domains().size());
    rd_counts.insert(grid.resource_domains().size());
  }
  EXPECT_EQ(cd_counts, (std::set<std::size_t>{1, 2, 3, 4}));
  EXPECT_EQ(rd_counts, (std::set<std::size_t>{1, 2, 3, 4}));
}

TEST(RandomGrid, RdDrawCappedByMachineCount) {
  RandomGridParams params;
  params.machines = 2;
  params.min_resource_domains = 1;
  params.max_resource_domains = 4;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const GridSystem grid = make_random_grid(params, rng);
    EXPECT_LE(grid.resource_domains().size(), 2u);
    for (const ResourceDomain& rd : grid.resource_domains()) {
      EXPECT_GE(machines_in(grid, rd.id), 1u);
    }
  }
}

TEST(RandomGrid, ValidatesParams) {
  Rng rng(1);
  RandomGridParams bad;
  bad.min_client_domains = 0;
  EXPECT_THROW(make_random_grid(bad, rng), PreconditionError);
  bad = RandomGridParams{};
  bad.min_client_domains = 5;
  bad.max_client_domains = 4;
  EXPECT_THROW(make_random_grid(bad, rng), PreconditionError);
  bad = RandomGridParams{};
  bad.machines = 0;
  EXPECT_THROW(make_random_grid(bad, rng), PreconditionError);
}

TEST(RandomGrid, DeterministicForSeed) {
  RandomGridParams params;
  Rng a(99);
  Rng b(99);
  const GridSystem g1 = make_random_grid(params, a);
  const GridSystem g2 = make_random_grid(params, b);
  EXPECT_EQ(g1.client_domains().size(), g2.client_domains().size());
  EXPECT_EQ(g1.resource_domains().size(), g2.resource_domains().size());
  for (std::size_t m = 0; m < g1.machines().size(); ++m) {
    EXPECT_EQ(g1.machines()[m].resource_domain,
              g2.machines()[m].resource_domain);
  }
}

}  // namespace
}  // namespace gridtrust::grid

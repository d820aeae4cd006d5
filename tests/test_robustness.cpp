// Robustness sweeps: randomly mutated inputs to the text parsers must
// either parse to a valid object or throw PreconditionError — never crash,
// hang, or produce an out-of-range object.  Also stress-cases for the DES
// kernel and the trust engine under randomized operation sequences.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "trust/serialization.hpp"
#include "trust/trust_engine.hpp"
#include "workload/heterogeneity.hpp"
#include "workload/request_gen.hpp"
#include "workload/trace.hpp"

namespace gridtrust {
namespace {

std::string mutate(std::string text, Rng& rng) {
  if (text.empty()) return text;
  switch (rng.index(4)) {
    case 0: {  // flip a character
      const std::size_t pos = rng.index(text.size());
      text[pos] = static_cast<char>(rng.uniform_int(32, 126));
      break;
    }
    case 1: {  // delete a slice
      const std::size_t pos = rng.index(text.size());
      const std::size_t len = 1 + rng.index(8);
      text.erase(pos, len);
      break;
    }
    case 2: {  // duplicate a slice
      const std::size_t pos = rng.index(text.size());
      const std::size_t len =
          std::min<std::size_t>(1 + rng.index(16), text.size() - pos);
      text.insert(pos, text.substr(pos, len));
      break;
    }
    case 3: {  // truncate
      text.resize(rng.index(text.size()));
      break;
    }
  }
  return text;
}

class ParserRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserRobustness, MutatedTrustTablesNeverEscapeValidation) {
  Rng rng(GetParam());
  trust::TrustLevelTable table(2, 3, 4);
  table.randomize(rng);
  std::string text = trust::table_to_string(table);
  for (int round = 0; round < 40; ++round) {
    text = mutate(text, rng);
    try {
      const trust::TrustLevelTable parsed = trust::table_from_string(text);
      // If it parsed, every entry must be a valid offered level.
      for (std::size_t cd = 0; cd < parsed.client_domains(); ++cd) {
        for (std::size_t rd = 0; rd < parsed.resource_domains(); ++rd) {
          for (std::size_t act = 0; act < parsed.activities(); ++act) {
            const int v = trust::to_numeric(parsed.get(cd, rd, act));
            ASSERT_GE(v, 1);
            ASSERT_LE(v, 5);
          }
        }
      }
    } catch (const PreconditionError&) {
      // Rejection is the expected outcome for most mutations.
    }
  }
}

TEST_P(ParserRobustness, MutatedTracesNeverEscapeValidation) {
  Rng rng(GetParam() + 1000);
  const grid::GridSystem grid =
      grid::make_random_grid(grid::RandomGridParams{}, rng);
  const auto requests = workload::generate_requests(grid, 8, {}, rng);
  const auto eec = workload::generate_eec(8, grid.machines().size(),
                                          workload::inconsistent_lolo(), rng);
  std::ostringstream saved;
  workload::save_trace(requests, eec, saved);
  std::string text = saved.str();
  for (int round = 0; round < 40; ++round) {
    text = mutate(text, rng);
    try {
      const workload::Trace parsed = workload::trace_from_string(text);
      ASSERT_FALSE(parsed.requests.empty());
      for (const grid::Request& req : parsed.requests) {
        ASSERT_FALSE(req.activities.empty());
        ASSERT_GE(req.arrival_time, 0.0);
      }
      for (std::size_t r = 0; r < parsed.eec.rows(); ++r) {
        for (std::size_t m = 0; m < parsed.eec.cols(); ++m) {
          ASSERT_GE(parsed.eec.get(r, m), 0.0);
        }
      }
    } catch (const PreconditionError&) {
    } catch (const std::out_of_range&) {
      // std::stoull overflow on a mutated giant number is acceptable too.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustness,
                         ::testing::Range<std::uint64_t>(0, 8));

// --------------------------------------------------------- stress cases

TEST(DesStress, RandomScheduleCancelInterleavingStaysConsistent) {
  Rng rng(42);
  des::Simulator sim;
  std::vector<des::EventId> live;
  std::uint64_t executed_expected = 0;
  std::uint64_t fired = 0;
  for (int op = 0; op < 5000; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.6 || live.empty()) {
      live.push_back(sim.schedule_in(rng.uniform(0.0, 10.0),
                                     [&fired] { ++fired; }));
    } else if (roll < 0.8) {
      const std::size_t pick = rng.index(live.size());
      sim.cancel(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      // Execute a few events between the schedule and cancel bursts.
      const std::size_t steps = rng.index(4);
      for (std::size_t k = 0; k < steps; ++k) {
        if (!sim.step()) break;
      }
    }
  }
  sim.run();
  executed_expected = sim.executed_events();
  EXPECT_EQ(fired, executed_expected);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TrustEngineStress, GammaStaysOnScaleUnderRandomHistories) {
  Rng rng(77);
  trust::TrustEngineConfig cfg;
  cfg.learn_recommender_weights = true;
  cfg.decay = trust::make_exponential_decay(50.0);
  trust::TrustEngine engine(cfg, 8, 3);
  engine.alliances().ally(1, 2);
  engine.alliances().ally(3, 4);
  double t = 0.0;
  for (int i = 0; i < 3000; ++i) {
    const auto a = static_cast<trust::EntityId>(rng.index(8));
    auto b = static_cast<trust::EntityId>(rng.index(8));
    if (a == b) b = static_cast<trust::EntityId>((b + 1) % 8);
    t += rng.exponential(1.0);
    engine.record_transaction({a, b,
                               static_cast<trust::ContextId>(rng.index(3)), t,
                               rng.uniform(1.0, 6.0)});
    if (i % 100 == 0) {
      for (trust::EntityId x = 0; x < 8; ++x) {
        for (trust::EntityId y = 0; y < 8; ++y) {
          if (x == y) continue;
          const double gamma = engine.eventual_trust(x, y, 0, t);
          // Decay can push Γ below the 1.0 floor of the observation scale,
          // but never below 0 or above 6.
          ASSERT_GE(gamma, 0.0);
          ASSERT_LE(gamma, 6.0);
        }
      }
    }
  }
}

}  // namespace
}  // namespace gridtrust

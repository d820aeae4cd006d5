#include "sim/campaign.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "chaos/behavior.hpp"
#include "chaos/faults.hpp"
#include "common/error.hpp"
#include "des/simulator.hpp"
#include "econ/market.hpp"
#include "econ/price_model.hpp"
#include "obs/metrics.hpp"
#include "sched/problem.hpp"
#include "trust/agents.hpp"
#include "trust/reputation_registry.hpp"
#include "workload/heterogeneity.hpp"
#include "workload/request_gen.hpp"

namespace gridtrust::sim {

namespace {

const obs::Counter kCampaignRounds("chaos.campaign_rounds");
const obs::Counter kOutcomesFlipped("chaos.outcomes_flipped");
const obs::Counter kRecsForged("chaos.recommendations_forged");
const obs::Counter kRecsDropped("chaos.recommendations_dropped");
const obs::Counter kRecsDelayed("chaos.recommendations_delayed");
const obs::Counter kWhitewashResets("chaos.whitewash_resets");
const obs::Counter kMarketRounds("econ.market_rounds");
const obs::Counter kServed("econ.served");
const obs::Counter kRejectedBudget("econ.rejected_budget");
const obs::Counter kRejectedDeadline("econ.rejected_deadline");
const obs::Counter kBudgetOverruns("econ.budget_overruns");
const obs::Counter kDeadlineMisses("econ.deadline_misses");

/// One recommendation held back by an active report-delay fault.
struct PendingReport {
  std::size_t cd = 0;
  std::size_t rd = 0;
  std::size_t activity = 0;
  double score = 0.0;
};

/// One noisy observation of a latent conduct mean, kept on the 1..6 scale.
double draw_conduct(double mean, double sigma, Rng& rng) {
  return std::clamp(mean + rng.normal(0.0, sigma), 1.0, 6.0);
}

/// Mean of one per-round metric over the last half of the rounds (the
/// learned steady state).
template <typename Round>
double steady_mean(const std::vector<Round>& rounds, double Round::*metric) {
  const std::size_t half = rounds.size() / 2;
  double sum = 0.0;
  for (std::size_t i = half; i < rounds.size(); ++i) sum += rounds[i].*metric;
  return sum / static_cast<double>(rounds.size() - half);
}

grid::GridSystem draw_grid(const Scenario& scenario, Rng topo_rng) {
  return grid::make_random_grid(scenario.grid, topo_rng);
}

/// The closed loop both campaign kinds run (§2.2, Fig. 1).  It owns RNG
/// substreams 0..3 (topology, workload, conduct, report faults), the grid,
/// the adversaries, the faults on the DES clock, and the trust-level table
/// with the agents that refresh it and its read replica.  A round body calls
/// its steps in order: start_round -> problem -> map or clear -> observe
/// each placement -> finish_round.
class RoundLoop {
 public:
  /// This round's requests and their EEC matrix, perturbed by live faults.
  struct Workload {
    std::vector<grid::Request> requests;
    sched::CostMatrix eec;
  };

  RoundLoop(const Scenario& scenario, const RoundConfig& config,
            std::uint64_t seed)
      : scenario_(scenario),
        config_(config),
        workload_rng_(Rng(seed).stream(1)),
        conduct_rng_(Rng(seed).stream(2)),
        chaos_rng_(Rng(seed).stream(3)),
        grid_(draw_grid(scenario, Rng(seed).stream(0))),
        n_cd_(grid_.client_domains().size()),
        n_rd_(grid_.resource_domains().size()),
        n_act_(grid_.activities().size()),
        behavior_(scenario.chaos.adversaries, n_rd_, n_cd_),
        table_(n_cd_, n_rd_, n_act_),
        bridge_(trust::make_reputation_policy(scenario.reputation,
                                              config.engine, n_cd_ + n_rd_,
                                              n_act_),
                n_cd_, n_rd_, n_act_, config.min_transactions),
        injector_(scenario.chaos.faults, grid_.machines().size()),
        model_(scenario.security),
        policy_(config.trust_aware ? sched::trust_aware_policy()
                                   : sched::trust_unaware_policy()) {
    GT_REQUIRE(config.rounds >= 1, "need at least one round");
    GT_REQUIRE(config.tasks_per_round >= 1,
               "need at least one task per round");
    GT_REQUIRE(config.round_period > 0.0, "round period must be positive");
    GT_REQUIRE(trust::to_numeric(config.initial_level) <=
                   trust::to_numeric(trust::kMaxOfferedLevel),
               "initial level must be an offered level (A..E)");
    GT_REQUIRE(config.honest_rd_mean >= 1.0 && config.honest_rd_mean <= 6.0 &&
                   config.honest_cd_mean >= 1.0 &&
                   config.honest_cd_mean <= 6.0,
               "honest conduct means must be on the [1, 6] trust scale");
    GT_REQUIRE(config.conduct_sigma >= 0.0,
               "conduct noise must be non-negative");
    scenario.chaos.validate();
    for (const chaos::FaultSpec& spec : scenario.chaos.faults) {
      if (spec.kind == chaos::FaultKind::kReportDrop ||
          spec.kind == chaos::FaultKind::kReportDelay) {
        GT_REQUIRE(spec.target == chaos::kAllTargets || spec.target < n_cd_,
                   "report fault targets an unknown client domain");
      }
    }
    for (std::size_t rd = 0; rd < n_rd_; ++rd) reset(rd);
    if (config.replica_staleness_rounds > 0) {
      // A lag of `rounds` already hides every refresh; a longer window
      // would only cost memory.
      replicas_.assign(
          std::min(config.replica_staleness_rounds, config.rounds) + 1,
          table_);
    }
    // Register collusive alliances so the recommender factor R can discount
    // ballot-stuffed recommendations (§2.2's collusion defence).  Backends
    // without an alliance notion (beta, fuzzy) face the same forged stream
    // with no structural hint — exactly the handicap the tournament
    // measures.
    if (trust::AllianceGraph* alliances = bridge_.policy().alliance_graph()) {
      for (const auto& [cd, rd] : behavior_.collusive_pairs()) {
        alliances->ally(bridge_.cd_entity(cd), bridge_.rd_entity(rd));
      }
    }
    injector_.install(des_);
  }

  RoundLoop(const RoundLoop&) = delete;
  RoundLoop& operator=(const RoundLoop&) = delete;

  const grid::GridSystem& grid() const { return grid_; }
  const chaos::BehaviorEngine& behavior() const { return behavior_; }
  const trust::TrustLevelTable& table() const { return table_; }
  /// The table the scheduler reads this round: the master, or with
  /// replica staleness s the master as it stood s rounds ago.
  const trust::TrustLevelTable& scheduler_table() const {
    return replicas_.empty() ? table_ : replicas_[oldest_];
  }
  const chaos::FaultInjector& injector() const { return injector_; }
  const trust::ReputationPolicy& policy() const { return bridge_.policy(); }
  const sched::SecurityCostModel& model() const { return model_; }

  /// Plays config.rounds rounds: `body(round)` runs at the round's start on
  /// the DES clock as an event of type `event`, interleaved with the
  /// fault windows.
  template <typename Body>
  void run(const char* event, Body body) {
    for (std::size_t round = 0; round < config_.rounds; ++round) {
      des_.schedule_at(static_cast<double>(round) * config_.round_period,
                       [&body, round] { body(round); }, event);
    }
    des_.run();
  }

  /// Delivers the reports whose delay expires this round, then draws the
  /// round's workload.  Delayed recommendations are stamped with the
  /// *current* clock: the engine requires non-decreasing transaction times,
  /// and the delay is exactly why the evidence is stale.
  Workload start_round(std::size_t round) {
    if (const auto it = delayed_.find(round); it != delayed_.end()) {
      if (config_.adaptive) {
        for (const PendingReport& report : it->second) {
          bridge_.observe_client_side(report.cd, report.rd, report.activity,
                                      clock_, report.score);
        }
      }
      delayed_.erase(it);
    }

    Workload out;
    const std::size_t n_machines = grid_.machines().size();
    out.requests = workload::generate_requests(grid_, config_.tasks_per_round,
                                               scenario_.requests,
                                               workload_rng_);
    out.eec = workload::generate_eec(out.requests.size(), n_machines,
                                     scenario_.heterogeneity, workload_rng_);
    for (std::size_t m = 0; m < n_machines; ++m) {
      const double factor = injector_.slowdown(m);
      const bool up = injector_.machine_up(m);
      if (factor == 1.0 && up) continue;
      for (std::size_t r = 0; r < out.requests.size(); ++r) {
        double cost = out.eec.get(r, m) * factor;
        if (!up) cost += scenario_.chaos.crash_penalty;
        out.eec.at(r, m) = cost;
      }
    }
    return out;
  }

  /// Binds `eec` and the trust costs scheduler_table() implies into the
  /// round's scheduling problem under the configured policy.
  sched::SchedulingProblem problem(const std::vector<grid::Request>& requests,
                                   sched::CostMatrix eec) const {
    auto tc =
        sched::compute_trust_costs(grid_, requests, scheduler_table(), model_);
    std::vector<double> arrivals;
    arrivals.reserve(requests.size());
    for (const auto& r : requests) arrivals.push_back(r.arrival_time);
    return sched::SchedulingProblem(std::move(eec), std::move(tc), policy_,
                                    model_, std::move(arrivals));
  }

  /// Latent conduct mean of `rd` this round.
  double rd_conduct_mean(std::size_t rd, std::size_t round) const {
    return behavior_.rd_conduct_mean(rd, round, config_.honest_rd_mean);
  }

  /// Feeds the transaction `request` ran on `machine` to the trust
  /// machinery: one client-side and one resource-side observation per
  /// activity, subject to forged, dropped and delayed reports.
  void observe(std::size_t round, const grid::Request& request,
               std::size_t machine) {
    const grid::ResourceDomainId rd = grid_.domain_of_machine(machine);
    const std::size_t cd = request.client_domain;
    const double rd_mean = rd_conduct_mean(rd, round);
    const bool misbehaving = behavior_.rd_misbehaving(rd, round);
    clock_ += 1.0;
    for (const grid::ActivityId act : request.activities) {
      if (misbehaving) {
        ++counters_.outcomes_flipped;
        kOutcomesFlipped.add();
      }
      double client_score;
      if (const auto forged = behavior_.forged_report(cd, rd)) {
        client_score = *forged;
        ++counters_.recommendations_forged;
        kRecsForged.add();
      } else {
        client_score = draw_conduct(rd_mean, config_.conduct_sigma,
                                    conduct_rng_);
      }
      const double resource_score = draw_conduct(
          behavior_.cd_conduct_mean(cd, round, config_.honest_cd_mean),
          config_.conduct_sigma, conduct_rng_);
      if (!config_.adaptive) continue;
      // Report-channel faults act on the CD -> table path only; the
      // resource-side agent reports through a different channel.
      const double drop_p = injector_.report_drop_probability(cd);
      const std::size_t delay = injector_.report_delay_rounds(cd);
      if (drop_p > 0.0 && chaos_rng_.bernoulli(drop_p)) {
        ++counters_.recommendations_dropped;
        kRecsDropped.add();
      } else if (delay > 0) {
        delayed_[round + delay].push_back({cd, rd, act, client_score});
        ++counters_.recommendations_delayed;
        kRecsDelayed.add();
      } else {
        bridge_.observe_client_side(cd, rd, act, clock_, client_score);
      }
      bridge_.observe_resource_side(rd, cd, act, clock_, resource_score);
    }
  }

  /// Closes the round: the agents refresh the master table (adaptive runs
  /// only), collapsed whitewashers reset, and the read replica ages one
  /// round.  Returns the number of entries the refresh updated.
  std::size_t finish_round() {
    const std::size_t updates =
        config_.adaptive ? bridge_.refresh(table_, clock_) : 0;
    whitewash();
    if (!replicas_.empty()) {
      replicas_[oldest_] = table_;
      oldest_ = (oldest_ + 1) % replicas_.size();
    }
    return updates;
  }

  chaos::ChaosCounters counters() const {
    chaos::ChaosCounters out = counters_;
    out.faults_injected = injector_.faults_injected();
    return out;
  }

 private:
  /// Whitewashing: a collapsed adversary resets its identity.  The backend
  /// forgets every record involving the domain and the table snaps back to
  /// the stranger level — the cost of admitting newcomers.
  void whitewash() {
    for (std::size_t rd = 0; rd < n_rd_; ++rd) {
      if (!behavior_.should_whitewash(rd, table_.resource_domain_mean(rd))) {
        continue;
      }
      bridge_.policy().forget(bridge_.rd_entity(rd));
      reset(rd);
      ++counters_.whitewash_resets;
      kWhitewashResets.add();
    }
  }

  /// Sets every table entry of `rd` to the stranger level.
  void reset(std::size_t rd) {
    for (std::size_t cd = 0; cd < n_cd_; ++cd) {
      for (std::size_t act = 0; act < n_act_; ++act) {
        table_.set(cd, rd, act, config_.initial_level);
      }
    }
  }

  const Scenario& scenario_;
  const RoundConfig& config_;
  Rng workload_rng_;
  Rng conduct_rng_;
  Rng chaos_rng_;
  const grid::GridSystem grid_;
  const std::size_t n_cd_;
  const std::size_t n_rd_;
  const std::size_t n_act_;
  const chaos::BehaviorEngine behavior_;
  trust::TrustLevelTable table_;
  /// Read-replica window (replica_staleness_rounds > 0 only), a ring of
  /// the master as it stood after each of the last rounds: the oldest
  /// entry is what the scheduler reads, and the next rotation overwrites
  /// it with the master.
  std::vector<trust::TrustLevelTable> replicas_;
  std::size_t oldest_ = 0;
  trust::DomainTrustBridge bridge_;
  chaos::FaultInjector injector_;
  des::Simulator des_;
  const sched::SecurityCostModel model_;
  const sched::SchedulingPolicy policy_;
  chaos::ChaosCounters counters_;
  /// Reports held back by delay faults, keyed by delivery round.
  std::map<std::size_t, std::vector<PendingReport>> delayed_;
  /// Transaction clock, monotone across rounds.
  double clock_ = 0.0;
};

}  // namespace

obs::RunReport CampaignResult::report() const {
  obs::RunReport out;
  out.set("rounds", static_cast<double>(rounds.size()));
  out.set("detection_latency_rounds",
          static_cast<double>(detection_latency_rounds));
  out.set("steady_true_trust_cost", steady_true_trust_cost);
  out.set("steady_makespan", steady_makespan);
  out.set("steady_misclassification", steady_misclassification);
  out.set_count("transactions", transactions);
  counters.to_report(out);
  const std::string prefix = "trust." + reputation_backend + ".";
  for (const auto& [name, value] : backend_counters) {
    out.set_count(prefix + name, value);
  }
  return out;
}

CampaignResult run_campaign(const Scenario& scenario,
                            const RoundConfig& config, std::uint64_t seed) {
  RoundLoop loop(scenario, config, seed);
  const std::size_t n_rd = loop.grid().resource_domains().size();

  CampaignResult result;
  result.rounds.reserve(config.rounds);
  loop.run("chaos_round", [&](std::size_t round) {
    kCampaignRounds.add();
    CampaignRoundMetrics metrics;
    metrics.round = round;
    metrics.machines_down = loop.injector().machines_down();

    auto [requests, eec] = loop.start_round(round);
    const sched::SchedulingProblem problem =
        loop.problem(requests, std::move(eec));
    const SimulationResult sim = run_trms(problem, scenario.rms);
    metrics.makespan = sim.makespan;

    // Price the placements against true conduct and against the table,
    // measure what the table left uncovered, then feed the placements to
    // the trust machinery.
    double true_tc_sum = 0.0;
    double table_tc_sum = 0.0;
    double exposure_sum = 0.0;
    double honest_exposure_sum = 0.0;
    std::size_t honest = 0;
    std::size_t sensitive = 0;
    std::size_t misplaced = 0;
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const grid::Request& request = requests[r];
      const std::size_t m = sim.schedule.machine_of[r];
      const grid::ResourceDomainId rd = loop.grid().domain_of_machine(m);
      const double conduct = loop.rd_conduct_mean(rd, round);
      const trust::TrustLevel required = request.effective_rtl();
      const trust::TrustLevel true_offered = trust::min_level(
          trust::quantize_level(conduct), trust::kMaxOfferedLevel);
      true_tc_sum += static_cast<double>(
          loop.model().trust_cost(required, true_offered));
      table_tc_sum += static_cast<double>(problem.trust_cost(r, m));

      const trust::TrustLevel believed =
          loop.scheduler_table().offered_trust_level(
              request.client_domain, rd,
              std::span<const std::size_t>(request.activities));
      const double residual = std::max(
          0.0, static_cast<double>(trust::to_numeric(
                   trust::min_level(required, believed))) -
                   conduct);
      exposure_sum += residual;
      if (!loop.behavior().adversarial_cd(request.client_domain)) {
        honest_exposure_sum += residual;
        ++honest;
      }
      if (trust::to_numeric(required) >=
          trust::to_numeric(trust::TrustLevel::kD)) {
        ++sensitive;
        if (conduct < 3.0) ++misplaced;
      }
      loop.observe(round, request, m);
    }
    const auto n = static_cast<double>(requests.size());
    metrics.mean_true_trust_cost = true_tc_sum / n;
    metrics.mean_table_trust_cost = table_tc_sum / n;
    metrics.mean_residual_exposure = exposure_sum / n;
    metrics.mean_residual_exposure_honest =
        honest == 0 ? 0.0 : honest_exposure_sum / static_cast<double>(honest);
    metrics.misplaced_sensitive_fraction =
        sensitive == 0 ? 0.0
                       : static_cast<double>(misplaced) /
                             static_cast<double>(sensitive);

    metrics.table_updates = loop.finish_round();

    // Misclassification against ground truth, post-refresh/reset.
    std::size_t wrong = 0;
    for (std::size_t rd = 0; rd < n_rd; ++rd) {
      const bool believed_bad = loop.table().resource_domain_mean(rd) < 3.0;
      if (believed_bad != loop.behavior().adversarial_rd(rd)) ++wrong;
    }
    metrics.misclassification_rate =
        static_cast<double>(wrong) / static_cast<double>(n_rd);

    result.rounds.push_back(metrics);
  });
  result.counters = loop.counters();

  // Detection latency: the first round from which the table's adversary
  // labels stay correct.  A clean campaign detects at round 0 by definition.
  int latency = 0;
  for (std::size_t i = result.rounds.size(); i-- > 0;) {
    if (result.rounds[i].misclassification_rate > 0.0) {
      latency = static_cast<int>(i) + 1;
      break;
    }
  }
  result.detection_latency_rounds =
      latency >= static_cast<int>(result.rounds.size()) ? -1 : latency;

  result.steady_true_trust_cost = steady_mean(
      result.rounds, &CampaignRoundMetrics::mean_true_trust_cost);
  result.steady_makespan =
      steady_mean(result.rounds, &CampaignRoundMetrics::makespan);
  result.steady_misclassification = steady_mean(
      result.rounds, &CampaignRoundMetrics::misclassification_rate);

  result.final_table = loop.table();
  result.transactions = loop.policy().transaction_count();
  result.reputation_backend = loop.policy().name();
  result.backend_counters = loop.policy().counters();
  return result;
}

obs::RunReport MarketCampaignResult::report() const {
  obs::RunReport out;
  out.set("rounds", static_cast<double>(rounds.size()));
  out.set("served_fraction", served_fraction);
  out.set("budget_overrun_rate", budget_overrun_rate);
  out.set("deadline_miss_rate", deadline_miss_rate);
  out.set("steady_spend", steady_spend);
  out.set("steady_welfare", steady_welfare);
  out.set("steady_price_index", steady_price_index);
  out.set("steady_adversary_premium", steady_adversary_premium);
  out.set_count("transactions", transactions);
  counters.to_report(out);
  return out;
}

MarketCampaignResult run_market_campaign(const Scenario& scenario,
                                         const RoundConfig& config,
                                         std::uint64_t seed) {
  GT_REQUIRE(scenario.economy.enabled,
             "market campaign needs an enabled economy "
             "(ScenarioBuilder::with_economy)");
  scenario.economy.validate();
  RoundLoop loop(scenario, config, seed);
  const grid::GridSystem& grid = loop.grid();
  const std::size_t n_machines = grid.machines().size();

  // The economy's own draws live on stream 4, past the loop's streams, so a
  // market campaign's topology, workload and conduct draws agree with a
  // chaos campaign on the same seed.
  Rng econ_rng = Rng(seed).stream(4);
  const econ::MechanismKind mechanism =
      econ::mechanism_from_string(scenario.economy.mechanism);
  auto prices = econ::make_price_model(
      scenario.economy,
      econ::draw_base_rates(scenario.economy, n_machines, econ_rng));

  MarketCampaignResult result;
  result.rounds.reserve(config.rounds);
  result.pricing = prices->name();
  result.mechanism = scenario.economy.mechanism;
  std::uint64_t offered = 0;

  loop.run("econ_round", [&](std::size_t round) {
    kMarketRounds.add();
    MarketRoundMetrics metrics;
    metrics.round = round;

    auto [requests, eec] = loop.start_round(round);
    // QoS terms anchor on the decision costs and current rates, so a
    // buyer's budget reflects what it believed the market charges.
    econ::draw_qos_terms(requests, eec, prices->rates(), scenario.economy,
                         econ_rng);
    const sched::SchedulingProblem problem =
        loop.problem(requests, std::move(eec));

    // Clear the market (round-local time; arrivals are intra-round).
    const econ::MarketProblem market(problem, requests, prices->rates());
    const econ::MarketResult cleared = econ::run_market(market, mechanism);
    offered += requests.size();
    metrics.served = static_cast<std::size_t>(cleared.counters.served);
    metrics.rejected =
        static_cast<std::size_t>(cleared.counters.rejected_budget +
                                 cleared.counters.rejected_deadline);
    metrics.total_spend = cleared.total_spend;
    metrics.welfare = cleared.welfare;
    metrics.budget_overruns =
        static_cast<std::size_t>(cleared.counters.budget_overruns);
    metrics.deadline_misses =
        static_cast<std::size_t>(cleared.counters.deadline_misses);
    result.counters += cleared.counters;
    kServed.add(static_cast<double>(cleared.counters.served));
    kRejectedBudget.add(static_cast<double>(cleared.counters.rejected_budget));
    kRejectedDeadline.add(
        static_cast<double>(cleared.counters.rejected_deadline));
    kBudgetOverruns.add(static_cast<double>(cleared.counters.budget_overruns));
    kDeadlineMisses.add(static_cast<double>(cleared.counters.deadline_misses));

    // Only served requests generate evidence: a rejected request never
    // touches a machine, so the trust machinery learns nothing from it.
    for (std::size_t r = 0; r < requests.size(); ++r) {
      if (cleared.outcomes[r].served) {
        loop.observe(round, requests[r], cleared.outcomes[r].machine);
      }
    }
    loop.finish_round();

    // Reprice for the next round from realized utilization and the
    // refreshed table: trust moved, so trust-weighted rates move too.
    double makespan = 0.0;
    for (std::size_t m = 0; m < n_machines; ++m) {
      makespan = std::max(makespan, cleared.schedule.machine_available[m]);
    }
    metrics.makespan = makespan;
    econ::RoundSignals signals;
    signals.utilization.resize(n_machines, 0.0);
    signals.trust_level.resize(n_machines, 0.0);
    for (std::size_t m = 0; m < n_machines; ++m) {
      signals.utilization[m] =
          makespan > 0.0 ? cleared.schedule.machine_available[m] / makespan
                         : 0.0;
      signals.trust_level[m] =
          loop.table().resource_domain_mean(grid.domain_of_machine(m));
    }
    prices->update_round(signals);
    metrics.price_index = prices->price_index();

    // Adversary price premium: what the cartel's machines charge relative
    // to honest machines after this round's repricing.
    double adv_sum = 0.0;
    double hon_sum = 0.0;
    std::size_t adv_n = 0;
    std::size_t hon_n = 0;
    for (std::size_t m = 0; m < n_machines; ++m) {
      if (loop.behavior().adversarial_rd(grid.domain_of_machine(m))) {
        adv_sum += prices->rate(m);
        ++adv_n;
      } else {
        hon_sum += prices->rate(m);
        ++hon_n;
      }
    }
    if (adv_n > 0 && hon_n > 0 && hon_sum > 0.0) {
      metrics.adversary_premium =
          (adv_sum / static_cast<double>(adv_n)) /
          (hon_sum / static_cast<double>(hon_n));
    }

    result.rounds.push_back(metrics);
  });

  result.served_fraction =
      offered > 0 ? static_cast<double>(result.counters.served) /
                        static_cast<double>(offered)
                  : 0.0;
  if (result.counters.served > 0) {
    result.budget_overrun_rate =
        static_cast<double>(result.counters.budget_overruns) /
        static_cast<double>(result.counters.served);
    result.deadline_miss_rate =
        static_cast<double>(result.counters.deadline_misses) /
        static_cast<double>(result.counters.served);
  }

  result.steady_spend =
      steady_mean(result.rounds, &MarketRoundMetrics::total_spend);
  result.steady_welfare =
      steady_mean(result.rounds, &MarketRoundMetrics::welfare);
  result.steady_price_index =
      steady_mean(result.rounds, &MarketRoundMetrics::price_index);
  result.steady_adversary_premium =
      steady_mean(result.rounds, &MarketRoundMetrics::adversary_premium);

  result.transactions = loop.policy().transaction_count();
  result.reputation_backend = loop.policy().name();
  return result;
}

}  // namespace gridtrust::sim

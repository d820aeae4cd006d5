// The string-keyed reputation-backend registry.
//
// Backends register a factory under a name; everything above the trust
// layer (sim::ScenarioBuilder, sim::run_campaign, lab sweeps) selects a
// policy by that string.  Built-ins:
//
//   "gamma"        the paper's Γ = αΘ + βΩ engine (the default)
//   "beta"         pooled-evidence Beta reputation (Jøsang & Ismail)
//   "fuzzy"        FRTRUST-style fuzzy aggregation
//   "purge:<base>" the recommendation-purging decorator over any of the
//                  above ("purge" alone decorates gamma)
//
// The composite "purge:" prefix resolves recursively, so "purge:fuzzy" is
// valid without separate registration.  Additional backends register via
// register_reputation_backend() (e.g. from tests); names are unique.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trust/beta_policy.hpp"
#include "trust/fuzzy_policy.hpp"
#include "trust/purging_policy.hpp"
#include "trust/reputation_policy.hpp"
#include "trust/trust_engine.hpp"

namespace gridtrust::trust {

/// Typed tuning for every built-in backend; factories read the slice they
/// need.  Passing one struct keeps factory signatures uniform without
/// stringly-typed configuration.
struct ReputationParams {
  std::size_t entities = 0;
  std::size_t contexts = 0;
  TrustEngineConfig gamma;
  BetaReputationConfig beta;
  FuzzyTrustConfig fuzzy;
  PurgeConfig purge;
};

/// A backend constructor.  Must be pure: equal params give equivalent
/// policies (the determinism contract of the conformance suite).
using ReputationFactory =
    std::function<std::unique_ptr<ReputationPolicy>(const ReputationParams&)>;

/// Registers a backend; throws PreconditionError on a duplicate or
/// reserved ("purge:"-prefixed) name.  Thread-safe.
void register_reputation_backend(const std::string& name,
                                 ReputationFactory factory);

/// All registered backend names in sorted order (composites not expanded).
std::vector<std::string> reputation_backend_names();

/// True when `name` resolves — a registered backend or a "purge:<base>"
/// composite whose base resolves.
bool reputation_backend_exists(const std::string& name);

/// Constructs the named backend.  Throws PreconditionError for unknown
/// names, naming the known backends in the message.
std::unique_ptr<ReputationPolicy> make_reputation_policy(
    const std::string& name, const ReputationParams& params);

/// Convenience for scenario-driven callers: resolves `config.name`,
/// applies `config.params` numeric overrides onto a default ReputationParams
/// seeded with `gamma_config`, and constructs the policy.  Unknown override
/// keys throw.  Recognized keys:
///   gamma.alpha, gamma.beta, gamma.learning_rate, gamma.alliance_discount,
///   gamma.independent_weight, gamma.default_score,
///   gamma.learn_recommender_weights (0/1), gamma.recommender_learning_rate,
///   beta.half_life,
///   fuzzy.learning_rate, fuzzy.default_score,
///   purge.deviation_threshold, purge.min_consensus, purge.consensus_rate
std::unique_ptr<ReputationPolicy> make_reputation_policy(
    const ReputationBackendConfig& config, const TrustEngineConfig& gamma_config,
    std::size_t entities, std::size_t contexts);

}  // namespace gridtrust::trust

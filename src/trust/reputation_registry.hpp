// Reputation backends by name.
//
// Everything above the trust layer (sim::ScenarioBuilder, sim::run_campaign,
// lab sweeps) selects a policy by a string.  The backends:
//
//   "gamma"        the paper's Γ = αΘ + βΩ engine (the default)
//   "beta"         pooled-evidence Beta reputation (Jøsang & Ismail)
//   "fuzzy"        FRTRUST-style fuzzy aggregation
//   "purge:<base>" the recommendation-purging decorator over any of the
//                  above ("purge" alone decorates gamma)
//
// The composite "purge:" prefix resolves recursively, so "purge:fuzzy" is
// valid without a separate entry.  The set is fixed: a new backend is one
// more case in make_reputation_policy (docs/reputation-backends.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trust/beta_policy.hpp"
#include "trust/fuzzy_policy.hpp"
#include "trust/purging_policy.hpp"
#include "trust/reputation_policy.hpp"
#include "trust/trust_engine.hpp"

namespace gridtrust::trust {

/// Typed tuning for every backend; each reads the slice it needs.
struct ReputationParams {
  std::size_t entities = 0;
  std::size_t contexts = 0;
  TrustEngineConfig gamma;
  BetaReputationConfig beta;
  FuzzyTrustConfig fuzzy;
  PurgeConfig purge;
};

/// The base backend names in sorted order (composites not expanded).
std::vector<std::string> reputation_backend_names();

/// True when `name` resolves — a base backend or a "purge:<base>"
/// composite whose base resolves.
bool reputation_backend_exists(const std::string& name);

/// Constructs the named backend.  Throws PreconditionError for unknown
/// names, naming the known backends in the message.
std::unique_ptr<ReputationPolicy> make_reputation_policy(
    const std::string& name, const ReputationParams& params);

/// Convenience for scenario-driven callers: builds `config.name` with
/// default ReputationParams whose gamma slice is `gamma_config`.
std::unique_ptr<ReputationPolicy> make_reputation_policy(
    const ReputationBackendConfig& config, const TrustEngineConfig& gamma_config,
    std::size_t entities, std::size_t contexts);

}  // namespace gridtrust::trust

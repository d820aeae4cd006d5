#include "trust/reputation_registry.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "trust/beta_policy.hpp"
#include "trust/gamma_policy.hpp"

namespace gridtrust::trust {

namespace {

constexpr const char* kPurgePrefix = "purge:";

/// The base backends, sorted: make_reputation_policy builds each.
constexpr std::array<const char*, 3> kBaseBackends = {"beta", "fuzzy",
                                                      "gamma"};

bool is_base_backend(const std::string& name) {
  return std::find(kBaseBackends.begin(), kBaseBackends.end(), name) !=
         kBaseBackends.end();
}

/// How many purge: layers a composite name may stack.  Each layer is a
/// full deviation-tracking decorator, so depth beyond a couple has no
/// modelling meaning — a runaway name like purge:purge:purge:... is far
/// more likely a config-generation bug than intent, and without a ceiling
/// the resolver would chase it through unbounded recursion.
constexpr std::size_t kMaxPurgeDepth = 4;

/// Counts leading purge: layers and strips them from `name` in place.
std::size_t strip_purge_layers(std::string& name) {
  std::size_t depth = 0;
  while (name.rfind(kPurgePrefix, 0) == 0) {
    ++depth;
    name = name.substr(6);
  }
  return depth;
}

std::string known_backends_message() {
  std::string names;
  for (const std::string& name : reputation_backend_names()) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return "known backends: " + names + ", purge:<base>";
}

}  // namespace

std::vector<std::string> reputation_backend_names() {
  return {kBaseBackends.begin(), kBaseBackends.end()};
}

bool reputation_backend_exists(const std::string& name) {
  std::string base = name;
  std::size_t depth = strip_purge_layers(base);
  if (base == "purge") ++depth;  // trailing bare decorator over gamma
  if (depth > kMaxPurgeDepth) return false;
  if (depth > 0 && base.empty()) return false;  // trailing "purge:"
  if (base == "purge") return true;
  return is_base_backend(base);
}

std::unique_ptr<ReputationPolicy> make_reputation_policy(
    const std::string& name, const ReputationParams& params) {
  GT_REQUIRE(params.entities > 0, "need at least one entity");
  GT_REQUIRE(params.contexts > 0, "need at least one context");
  // "purge" decorates the default gamma backend; "purge:<base>" composes
  // over any base backend, up to kMaxPurgeDepth stacked layers.
  std::string base = name;
  std::size_t depth = strip_purge_layers(base);
  if (base == "purge") {  // trailing bare decorator over the default base
    base = "gamma";
    ++depth;
  }
  GT_REQUIRE(depth <= kMaxPurgeDepth,
             "purge composite nested too deeply: '" + name + "' (" +
                 std::to_string(depth) + " layers, max " +
                 std::to_string(kMaxPurgeDepth) + ")");
  GT_REQUIRE(!(depth > 0 && base.empty()),
             "invalid purge composite: '" + name + "' names no base backend");
  GT_REQUIRE(is_base_backend(base), "unknown reputation backend: " + base +
                                        " (" + known_backends_message() + ")");
  std::unique_ptr<ReputationPolicy> policy;
  if (base == "gamma") {
    policy = std::make_unique<GammaReputationPolicy>(
        params.gamma, params.entities, params.contexts);
  } else if (base == "beta") {
    policy = std::make_unique<BetaReputationPolicy>(
        params.beta, params.entities, params.contexts);
  } else {
    policy = std::make_unique<FuzzyReputationPolicy>(
        params.fuzzy, params.entities, params.contexts);
  }
  for (std::size_t layer = 0; layer < depth; ++layer) {
    policy = std::make_unique<PurgingReputationPolicy>(std::move(policy),
                                                       params.purge);
  }
  return policy;
}

std::unique_ptr<ReputationPolicy> make_reputation_policy(
    const ReputationBackendConfig& config,
    const TrustEngineConfig& gamma_config, std::size_t entities,
    std::size_t contexts) {
  ReputationParams params;
  params.entities = entities;
  params.contexts = contexts;
  params.gamma = gamma_config;
  return make_reputation_policy(config.name, params);
}

}  // namespace gridtrust::trust

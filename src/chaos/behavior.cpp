#include "chaos/behavior.hpp"

#include <limits>

#include "common/error.hpp"

namespace gridtrust::chaos {

namespace {

constexpr std::size_t kNoSpec = std::numeric_limits<std::size_t>::max();

bool on_trust_scale(double value) { return value >= 1.0 && value <= 6.0; }

}  // namespace

const char* to_string(BehaviorKind kind) {
  switch (kind) {
    case BehaviorKind::kHonest:
      return "honest";
    case BehaviorKind::kMalicious:
      return "malicious";
    case BehaviorKind::kOscillating:
      return "oscillating";
    case BehaviorKind::kWhitewashing:
      return "whitewashing";
    case BehaviorKind::kCollusive:
      return "collusive";
  }
  GT_ASSERT(false);
  return "?";
}

AdversarySpec fixed_conduct(std::size_t rd, double mean) {
  AdversarySpec spec;
  spec.domain = rd;
  if (mean < 3.0) {
    spec.kind = BehaviorKind::kMalicious;
    spec.malicious_mean = mean;
  } else {
    spec.kind = BehaviorKind::kHonest;
    spec.honest_mean = mean;
  }
  return spec;
}

void validate_spec(const AdversarySpec& spec) {
  GT_REQUIRE(on_trust_scale(spec.honest_mean),
             "adversary honest_mean must be on the [1, 6] trust scale");
  GT_REQUIRE(on_trust_scale(spec.malicious_mean),
             "adversary malicious_mean must be on the [1, 6] trust scale");
  if (spec.kind == BehaviorKind::kOscillating) {
    GT_REQUIRE(spec.rounds_on >= 1 && spec.rounds_off >= 1,
               "oscillating phases need at least one round each");
  }
  if (spec.kind == BehaviorKind::kWhitewashing) {
    GT_REQUIRE(on_trust_scale(spec.whitewash_threshold),
               "whitewash threshold must be on the [1, 6] trust scale");
  }
  if (spec.side == AdversarySide::kClientDomain) {
    GT_REQUIRE(spec.kind == BehaviorKind::kCollusive ||
                   spec.kind == BehaviorKind::kHonest ||
                   spec.kind == BehaviorKind::kMalicious,
               "client-domain adversaries attack the recommendation channel "
               "(collusive) or their own conduct (honest/malicious); "
               "oscillating/whitewashing are resource-domain strategies");
  }
}

BehaviorEngine::BehaviorEngine(std::vector<AdversarySpec> specs,
                               std::size_t resource_domains,
                               std::size_t client_domains)
    : specs_(std::move(specs)),
      rd_index_(resource_domains, kNoSpec),
      cd_index_(client_domains, kNoSpec) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const AdversarySpec& spec = specs_[i];
    validate_spec(spec);
    std::vector<std::size_t>& index =
        spec.side == AdversarySide::kResourceDomain ? rd_index_ : cd_index_;
    GT_REQUIRE(spec.domain < index.size(),
               "adversary spec names a domain outside the drawn grid");
    GT_REQUIRE(index[spec.domain] == kNoSpec,
               "at most one adversary spec per (side, domain)");
    index[spec.domain] = i;
  }
}

const AdversarySpec* BehaviorEngine::rd_spec(std::size_t rd) const {
  GT_REQUIRE(rd < rd_index_.size(), "resource domain index out of range");
  return rd_index_[rd] == kNoSpec ? nullptr : &specs_[rd_index_[rd]];
}

const AdversarySpec* BehaviorEngine::cd_spec(std::size_t cd) const {
  GT_REQUIRE(cd < cd_index_.size(), "client domain index out of range");
  return cd_index_[cd] == kNoSpec ? nullptr : &specs_[cd_index_[cd]];
}

double BehaviorEngine::conduct_mean(const AdversarySpec& spec,
                                    std::size_t round) {
  return misbehaving(spec, round) ? spec.malicious_mean : spec.honest_mean;
}

bool BehaviorEngine::misbehaving(const AdversarySpec& spec,
                                 std::size_t round) {
  switch (spec.kind) {
    case BehaviorKind::kHonest:
      return false;
    case BehaviorKind::kMalicious:
    case BehaviorKind::kWhitewashing:
    case BehaviorKind::kCollusive:
      return true;
    case BehaviorKind::kOscillating:
      return round % (spec.rounds_on + spec.rounds_off) >= spec.rounds_on;
  }
  GT_ASSERT(false);
  return false;
}

bool BehaviorEngine::adversarial_rd(std::size_t rd) const {
  const AdversarySpec* spec = rd_spec(rd);
  return spec != nullptr && spec->kind != BehaviorKind::kHonest;
}

bool BehaviorEngine::adversarial_cd(std::size_t cd) const {
  const AdversarySpec* spec = cd_spec(cd);
  return spec != nullptr && spec->kind != BehaviorKind::kHonest;
}

double BehaviorEngine::rd_conduct_mean(std::size_t rd, std::size_t round,
                                       double fallback) const {
  const AdversarySpec* spec = rd_spec(rd);
  return spec == nullptr ? fallback : conduct_mean(*spec, round);
}

double BehaviorEngine::cd_conduct_mean(std::size_t cd, std::size_t round,
                                       double fallback) const {
  const AdversarySpec* spec = cd_spec(cd);
  // A collusive CD's *conduct* as a resource user stays honest — its attack
  // is the forged recommendation, which keeps the channel attack isolated
  // from the conduct attack.
  if (spec == nullptr || spec->kind == BehaviorKind::kCollusive) {
    return fallback;
  }
  return conduct_mean(*spec, round);
}

bool BehaviorEngine::rd_misbehaving(std::size_t rd, std::size_t round) const {
  const AdversarySpec* spec = rd_spec(rd);
  return spec != nullptr && misbehaving(*spec, round);
}

std::optional<double> BehaviorEngine::forged_report(std::size_t cd,
                                                    std::size_t rd) const {
  const AdversarySpec* reporter = cd_spec(cd);
  if (reporter == nullptr || reporter->kind != BehaviorKind::kCollusive) {
    return std::nullopt;
  }
  const AdversarySpec* target = rd_spec(rd);
  const bool allied = target != nullptr &&
                      target->kind == BehaviorKind::kCollusive &&
                      target->alliance == reporter->alliance;
  // Ballot-stuff the alliance, badmouth everyone else.
  return allied ? 6.0 : 1.0;
}

bool BehaviorEngine::should_whitewash(std::size_t rd,
                                      double mean_table_level) const {
  const AdversarySpec* spec = rd_spec(rd);
  return spec != nullptr && spec->kind == BehaviorKind::kWhitewashing &&
         mean_table_level <= spec->whitewash_threshold;
}

std::vector<std::pair<std::size_t, std::size_t>>
BehaviorEngine::collusive_pairs() const {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t cd = 0; cd < cd_index_.size(); ++cd) {
    const AdversarySpec* reporter = cd_spec(cd);
    if (reporter == nullptr || reporter->kind != BehaviorKind::kCollusive) {
      continue;
    }
    for (std::size_t rd = 0; rd < rd_index_.size(); ++rd) {
      const AdversarySpec* target = rd_spec(rd);
      if (target != nullptr && target->kind == BehaviorKind::kCollusive &&
          target->alliance == reporter->alliance) {
        pairs.emplace_back(cd, rd);
      }
    }
  }
  return pairs;
}

}  // namespace gridtrust::chaos

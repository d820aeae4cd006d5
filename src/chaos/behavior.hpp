// Adversary behavior strategies (gridtrust::chaos).
//
// The trust machinery of §2.2 only earns its keep when some participants
// misbehave.  This module models the adversaries the related work shows
// matter: consistently malicious domains, oscillating (on-off) peers,
// whitewashers that shed a collapsed reputation by re-registering, and
// collusive alliances that ballot-stuff their own members and badmouth
// outsiders through the recommendation channel (the attack the paper's
// recommender factor R is designed to resist).
//
// A BehaviorEngine is a pure function of (specs, domain, round): it resolves
// each domain's latent conduct for a scheduling round and the forged
// recommendations collusive client domains emit.  It draws no randomness
// itself — observation noise stays with the caller — so campaigns replay
// deterministically from a seed.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace gridtrust::chaos {

/// How an adversarial domain behaves over time.
enum class BehaviorKind {
  /// Behaves at honest_mean throughout.  Useful to pin a domain's conduct
  /// explicitly inside an otherwise-adversarial campaign.
  kHonest,
  /// Behaves at malicious_mean throughout.
  kMalicious,
  /// On-off attack: rounds_on rounds of honest conduct, then rounds_off
  /// rounds of malicious conduct, repeating.  Defeats naive averaging:
  /// the domain rebuilds trust between attack bursts.
  kOscillating,
  /// Misbehaves constantly and resets its identity (history erased, table
  /// entries back to the initial level) whenever its mean table level falls
  /// to whitewash_threshold or below.
  kWhitewashing,
  /// Member of a collusive alliance.  A collusive resource domain misbehaves
  /// like kMalicious; a collusive client domain reports flawless conduct
  /// (6.0) for allied resource domains and badmouths (1.0) every outsider,
  /// regardless of what it observed.
  kCollusive,
};

/// Stable identifier ("honest", "malicious", ...).
const char* to_string(BehaviorKind kind);

/// Which side of a Grid transaction the adversary controls.
enum class AdversarySide {
  kResourceDomain,  ///< the domain hosting executions (conduct attacks)
  kClientDomain,    ///< the domain recommending (recommendation attacks)
};

/// One adversarial domain.  At most one spec per (side, domain).
struct AdversarySpec {
  AdversarySide side = AdversarySide::kResourceDomain;
  /// RD index (kResourceDomain) or CD index (kClientDomain).
  std::size_t domain = 0;
  BehaviorKind kind = BehaviorKind::kMalicious;
  /// Conduct mean on the 1..6 trust scale while behaving.
  double honest_mean = 5.4;
  /// Conduct mean while misbehaving.
  double malicious_mean = 1.6;
  /// Oscillating only: honest / malicious phase lengths in rounds (>= 1).
  std::size_t rounds_on = 3;
  std::size_t rounds_off = 3;
  /// Whitewashing only: mean numeric table level at or below which the
  /// domain resets its identity (on the [1, 6] scale).
  double whitewash_threshold = 2.5;
  /// Collusive only: alliance group id; members with equal ids collude.
  std::size_t alliance = 0;
};

/// Resolves adversary specs against a drawn grid.  Domains without a spec
/// behave honestly at the campaign's honest defaults.
class BehaviorEngine {
 public:
  /// Validates parameter ranges and that each (side, domain) pair appears at
  /// most once and is inside [0, resource_domains) / [0, client_domains).
  BehaviorEngine(std::vector<AdversarySpec> specs,
                 std::size_t resource_domains, std::size_t client_domains);

  bool empty() const { return specs_.empty(); }

  /// Ground-truth adversary label (any spec whose kind ever misbehaves).
  bool adversarial_rd(std::size_t rd) const;
  bool adversarial_cd(std::size_t cd) const;

  /// Latent conduct mean of the domain in `round`; `fallback` when the
  /// domain has no spec (the campaign's honest default).
  double rd_conduct_mean(std::size_t rd, std::size_t round,
                         double fallback) const;
  double cd_conduct_mean(std::size_t cd, std::size_t round,
                         double fallback) const;

  /// True when rd is spec'd and in a misbehaving phase this round (the
  /// "flipped outcome" accounting: an observation that an honest domain
  /// would have passed).
  bool rd_misbehaving(std::size_t rd, std::size_t round) const;

  /// The forged score a collusive client domain reports about `rd`
  /// (6.0 for allies, 1.0 for outsiders); empty when cd reports honestly.
  std::optional<double> forged_report(std::size_t cd, std::size_t rd) const;

  /// Whitewash trigger: rd is a whitewasher whose mean table level has
  /// collapsed to its threshold.
  bool should_whitewash(std::size_t rd, double mean_table_level) const;

  /// All collusive (cd, rd) pairs sharing an alliance id — callers register
  /// them in the trust engine's AllianceGraph so the recommender factor R
  /// can discount ballot-stuffing.
  std::vector<std::pair<std::size_t, std::size_t>> collusive_pairs() const;

  const std::vector<AdversarySpec>& specs() const { return specs_; }

 private:
  const AdversarySpec* rd_spec(std::size_t rd) const;
  const AdversarySpec* cd_spec(std::size_t cd) const;
  /// Conduct mean of a spec'd domain in `round`.
  static double conduct_mean(const AdversarySpec& spec, std::size_t round);
  /// True when the spec misbehaves in `round`.
  static bool misbehaving(const AdversarySpec& spec, std::size_t round);

  std::vector<AdversarySpec> specs_;
  // Index of the spec governing each domain, or npos.
  std::vector<std::size_t> rd_index_;
  std::vector<std::size_t> cd_index_;
};

/// A resource domain whose latent conduct stays at `mean` all run: kHonest
/// at that mean, or kMalicious when the mean is below 3 (so the ground-truth
/// adversary label agrees with the table's "believed bad" threshold).
AdversarySpec fixed_conduct(std::size_t rd, double mean);

/// Validates one spec's parameter ranges (means on [1, 6], phase lengths
/// >= 1, threshold on [1, 6]); throws PreconditionError on violations.
/// Exposed so CampaignConfig::validate can run without a drawn grid.
void validate_spec(const AdversarySpec& spec);

}  // namespace gridtrust::chaos

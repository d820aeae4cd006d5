#include "trust/trust_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::trust {

namespace {

// Engine-level metrics (all no-ops unless an obs registry is installed).
const obs::Counter kGammaEvals("trust.gamma_evals");
const obs::Counter kReputationScans("trust.reputation_scans");
const obs::Counter kReputationRecordsScanned(
    "trust.reputation_records_scanned");
const obs::Counter kDecayApplications("trust.decay_applications");
const obs::Counter kTransactions("trust.transactions");
const obs::Gauge kDirectRecords("trust.direct_records");

// Orders a column's slots against a truster id (columns are sorted by it).
constexpr auto kByTruster = [](const auto& slot, EntityId id) {
  return slot.truster < id;
};

}  // namespace

TrustEngine::TrustEngine(TrustEngineConfig config, std::size_t entities,
                         std::size_t contexts)
    : config_(std::move(config)),
      entities_(entities),
      contexts_(contexts),
      alliances_(entities),
      columns_(entities * contexts),
      learned_weight_(config.learn_recommender_weights ? entities * entities
                                                       : 0,
                      1.0) {
  GT_REQUIRE(entities > 0, "need at least one entity");
  GT_REQUIRE(contexts > 0, "need at least one context");
  GT_REQUIRE(config_.alpha >= 0.0 && config_.beta >= 0.0,
             "Γ weights must be non-negative");
  GT_REQUIRE(config_.alpha + config_.beta > 0.0,
             "at least one Γ weight must be positive");
  GT_REQUIRE(config_.learning_rate > 0.0 && config_.learning_rate <= 1.0,
             "learning rate must be in (0, 1]");
  GT_REQUIRE(config_.alliance_discount >= 0.0 &&
                 config_.alliance_discount <= 1.0,
             "alliance discount must be in [0, 1]");
  GT_REQUIRE(config_.independent_weight >= 0.0 &&
                 config_.independent_weight <= 1.0,
             "independent weight must be in [0, 1]");
  GT_REQUIRE(config_.recommender_learning_rate > 0.0 &&
                 config_.recommender_learning_rate <= 1.0,
             "recommender learning rate must be in (0, 1]");
  // Normalize the Γ weights once so evaluation is a plain blend of two
  // cached doubles (config_ keeps the normalized values for inspection).
  const double total = config_.alpha + config_.beta;
  config_.alpha /= total;
  config_.beta /= total;
  norm_alpha_ = config_.alpha;
  norm_beta_ = config_.beta;
  if (!config_.decay) config_.decay = make_no_decay();
  for (const auto& [context, fn] : config_.context_decay) {
    GT_REQUIRE(static_cast<std::size_t>(context) < contexts,
               "context decay override for an unknown context");
    GT_REQUIRE(fn != nullptr, "context decay override must not be null");
  }
}

void TrustEngine::check_entity(EntityId id) const {
  GT_REQUIRE(id < entities_, "entity id out of range");
}

void TrustEngine::check_context(ContextId id) const {
  GT_REQUIRE(id < contexts_, "context id out of range");
}

const DecayFunction& TrustEngine::decay_for(ContextId context) const {
  const auto it = config_.context_decay.find(context);
  return it != config_.context_decay.end() ? *it->second : *config_.decay;
}

void TrustEngine::record_transaction(const Transaction& tx) {
  check_entity(tx.truster);
  check_entity(tx.trustee);
  check_context(tx.context);
  GT_REQUIRE(tx.truster != tx.trustee,
             "an entity cannot record trust in itself");
  GT_REQUIRE(tx.observed_score >= 1.0 && tx.observed_score <= 6.0,
             "observed score must be on the [1, 6] trust scale");

  if (config_.learn_recommender_weights) learn_recommenders(tx);

  Column& col = column(tx.trustee, tx.context);
  auto it = std::lower_bound(col.begin(), col.end(), tx.truster, kByTruster);
  if (it == col.end() || it->truster != tx.truster) {
    it = col.insert(it, Slot{tx.truster, {}});
    ++record_count_;
  }
  DirectTrustRecord& rec = it->record;
  GT_REQUIRE(rec.count == 0 || tx.time >= rec.last_time,
             "transactions must arrive in non-decreasing time order");
  if (rec.count == 0) {
    rec.level = tx.observed_score;
  } else {
    // The stored level first decays to the current time, then blends with
    // the fresh observation (EWMA).
    const double aged =
        rec.level * decay_for(tx.context).value(tx.time - rec.last_time);
    kDecayApplications.add();
    rec.level = (1.0 - config_.learning_rate) * aged +
                config_.learning_rate * tx.observed_score;
  }
  rec.last_time = tx.time;
  ++rec.count;
  ++tx_count_;
  kTransactions.add();
  kDirectRecords.set(static_cast<double>(record_count_));
}

std::optional<DirectTrustRecord> TrustEngine::direct_record(
    EntityId truster, EntityId trustee, ContextId context) const {
  check_entity(truster);
  check_entity(trustee);
  check_context(context);
  const Column& col = column(trustee, context);
  const auto it = std::lower_bound(col.begin(), col.end(), truster, kByTruster);
  if (it == col.end() || it->truster != truster) return std::nullopt;
  return it->record;
}

std::optional<double> TrustEngine::direct_trust(EntityId truster,
                                                EntityId trustee,
                                                ContextId context,
                                                double now) const {
  const auto rec = direct_record(truster, trustee, context);
  if (!rec) return std::nullopt;
  GT_REQUIRE(now >= rec->last_time, "query time precedes last transaction");
  kDecayApplications.add();
  return rec->level * decay_for(context).value(now - rec->last_time);
}

std::optional<double> TrustEngine::reputation(EntityId evaluator,
                                              EntityId target,
                                              ContextId context,
                                              double now) const {
  check_entity(evaluator);
  check_entity(target);
  check_context(context);
  kReputationScans.add();
  std::size_t summed = 0;
  const std::optional<double> value =
      omega(evaluator, column_terms(target, context, now, evaluator), summed);
  kReputationRecordsScanned.add(static_cast<double>(summed));
  kDecayApplications.add(static_cast<double>(summed));
  return value;
}

double TrustEngine::eventual_trust(EntityId truster, EntityId trustee,
                                   ContextId context, double now) const {
  double gamma = 0.0;
  eventual_trust(std::span<const EntityId>(&truster, 1), trustee, context,
                 now, std::span<double>(&gamma, 1));
  return gamma;
}

void TrustEngine::eventual_trust(std::span<const EntityId> trusters,
                                 EntityId trustee, ContextId context,
                                 double now, std::span<double> out) const {
  GT_REQUIRE(out.size() == trusters.size(), "need one output per truster");
  if (trusters.empty()) return;
  for (const EntityId truster : trusters) check_entity(truster);
  check_entity(trustee);
  check_context(context);
  const std::vector<Term> terms = column_terms(trustee, context, now);
  std::size_t thetas = 0;
  std::size_t scanned = 0;
  for (std::size_t k = 0; k < trusters.size(); ++k) {
    const auto own =
        std::lower_bound(terms.begin(), terms.end(), trusters[k], kByTruster);
    std::optional<double> theta;
    if (own != terms.end() && own->truster == trusters[k]) {
      theta = own->decayed;
      ++thetas;
    }
    std::size_t summed = 0;
    const std::optional<double> rep = omega(trusters[k], terms, summed);
    scanned += summed;
    if (theta && rep) {
      out[k] = norm_alpha_ * *theta + norm_beta_ * *rep;
    } else if (theta) {
      out[k] = *theta;
    } else if (rep) {
      out[k] = *rep;
    } else {
      out[k] = config_.default_score;
    }
  }
  // The per-call totals: every Γ is one evaluation and one Ω scan, and
  // every Θ and every summed Ω term is one decay application.
  kGammaEvals.add(static_cast<double>(trusters.size()));
  kReputationScans.add(static_cast<double>(trusters.size()));
  kReputationRecordsScanned.add(static_cast<double>(scanned));
  kDecayApplications.add(static_cast<double>(thetas + scanned));
}

double TrustEngine::alliance_factor(EntityId recommender,
                                    EntityId target) const {
  return alliances_.allied(recommender, target) ? config_.alliance_discount
                                                : config_.independent_weight;
}

double TrustEngine::recommender_factor(EntityId evaluator,
                                       EntityId recommender,
                                       EntityId target) const {
  check_entity(evaluator);
  check_entity(recommender);
  check_entity(target);
  const double base = alliance_factor(recommender, target);
  if (!config_.learn_recommender_weights) return base;
  return base * learned_weight_[evaluator * entities_ + recommender];
}

std::vector<TrustEngine::Term> TrustEngine::column_terms(
    EntityId trustee, ContextId context, double now,
    std::optional<EntityId> skip) const {
  const DecayFunction& decay = decay_for(context);
  const Column& col = column(trustee, context);
  std::vector<Term> terms;
  terms.reserve(col.size());
  for (const Slot& slot : col) {
    if (slot.truster == skip) continue;
    const DirectTrustRecord& rec = slot.record;
    GT_REQUIRE(now >= rec.last_time, "query time precedes last transaction");
    terms.push_back(Term{slot.truster,
                         rec.level * decay.value(now - rec.last_time),
                         alliance_factor(slot.truster, trustee)});
  }
  return terms;
}

std::optional<double> TrustEngine::omega(EntityId evaluator,
                                         std::span<const Term> terms,
                                         std::size_t& summed) const {
  // The terms are in ascending truster order.  Summing in that order is
  // load-bearing: floating-point addition is not associative, and every
  // committed manifest was produced with this order.  So is the grouping
  // of each product: (DTT · Υ) · R, with R = alliance factor × learned
  // weight.
  const double* learned = config_.learn_recommender_weights
                              ? &learned_weight_[evaluator * entities_]
                              : nullptr;
  double sum = 0.0;
  std::size_t n = 0;
  for (const Term& term : terms) {
    if (term.truster == evaluator) continue;
    const double factor = learned != nullptr
                              ? term.alliance * learned[term.truster]
                              : term.alliance;
    sum += term.decayed * factor;
    ++n;
  }
  summed = n;
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

std::size_t TrustEngine::forget(EntityId entity) {
  check_entity(entity);
  std::size_t removed = 0;
  for (EntityId trustee = 0; trustee < entities_; ++trustee) {
    for (ContextId context = 0; context < contexts_; ++context) {
      Column& col = column(trustee, context);
      removed += std::erase_if(col, [&](const Slot& slot) {
        return trustee == entity || slot.truster == entity;
      });
      if (col.empty()) col = Column();
    }
  }
  record_count_ -= removed;
  if (!learned_weight_.empty()) {
    for (EntityId x = 0; x < entities_; ++x) {
      learned_weight_[x * entities_ + entity] = 1.0;
      learned_weight_[entity * entities_ + x] = 1.0;
    }
  }
  kDirectRecords.set(static_cast<double>(record_count_));
  return removed;
}

void TrustEngine::learn_recommenders(const Transaction& tx) {
  // The evaluator just observed tx.observed_score first-hand.  Compare every
  // third party's stored opinion of the trustee against this ground truth
  // and move the evaluator's reliability weight for that recommender toward
  // 1 - normalized error.  A colluder that praises a misbehaving ally (or
  // badmouths a competitor) accumulates error and loses influence.
  constexpr double kScaleSpan = 5.0;  // |6 - 1|
  double* weights = &learned_weight_[tx.truster * entities_];
  for (const Slot& slot : column(tx.trustee, tx.context)) {
    const EntityId z = slot.truster;
    if (z == tx.truster) continue;
    const double error =
        std::abs(slot.record.level - tx.observed_score) / kScaleSpan;
    const double target_weight = 1.0 - error;
    weights[z] += config_.recommender_learning_rate * (target_weight - weights[z]);
    weights[z] = std::clamp(weights[z], 0.0, 1.0);
  }
}

}  // namespace gridtrust::trust

#include "lab/manifest.hpp"

#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace gridtrust::lab {

namespace {

using obs::detail::json_escape;
using obs::detail::json_number;

void append_params(std::string& out,
                   const std::vector<std::pair<std::string, ParamValue>>&
                       params) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : params) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(key);
    out += "\":";
    if (value.is_number()) {
      out += json_number(value.number());
    } else {
      out += '"';
      out += json_escape(value.text());
      out += '"';
    }
  }
  out += '}';
}

void append_cell(std::string& out, const ManifestCell& cell) {
  out += "{\"index\":";
  out += json_number(static_cast<double>(cell.index));
  out += ",\"params\":";
  append_params(out, cell.params);
  out += ",\"param_hash\":\"";
  out += json_escape(cell.param_hash);
  out += "\",\"replications\":";
  out += json_number(static_cast<double>(cell.replications));
  out += ",\"status\":\"";
  out += to_string(cell.status);
  out += "\",\"metrics\":{";
  bool first = true;
  for (const auto& [name, agg] : cell.metrics) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":{\"mean\":";
    out += json_number(agg.mean);
    out += ",\"ci95\":";
    out += json_number(agg.ci95);
    out += ",\"n\":";
    out += json_number(static_cast<double>(agg.n));
    out += '}';
  }
  out += '}';
  if (!cell.failures.empty()) {
    out += ",\"failures\":[";
    bool first_failure = true;
    for (const UnitFailure& failure : cell.failures) {
      if (!first_failure) out += ',';
      first_failure = false;
      out += "{\"rep\":";
      out += json_number(static_cast<double>(failure.rep));
      // The derived rep seed uses all 64 bits; hex keeps it exact where a
      // JSON double would round.
      out += ",\"seed\":\"";
      out += hash_hex(failure.seed);
      out += "\",\"class\":\"";
      out += to_string(failure.error_class);
      out += "\",\"message\":\"";
      out += json_escape(failure.message);
      out += "\",\"attempts\":";
      out += json_number(static_cast<double>(failure.attempts));
      out += '}';
    }
    out += ']';
  }
  out += '}';
}

std::vector<std::pair<std::string, ParamValue>> parse_params(
    const obs::JsonValue& value) {
  std::vector<std::pair<std::string, ParamValue>> out;
  for (const auto& [key, v] : value.as_object()) {
    if (v.kind() == obs::JsonValue::Kind::kNumber) {
      out.emplace_back(key, ParamValue(v.as_number()));
    } else {
      out.emplace_back(key, ParamValue(v.as_string()));
    }
  }
  return out;
}

std::string params_label(
    const std::vector<std::pair<std::string, ParamValue>>& params) {
  std::string out;
  for (const auto& [key, value] : params) {
    if (!out.empty()) out += ' ';
    out += key + "=" + value.canonical();
  }
  return out;
}

/// Parses the 16-hex-digit seed rendering used in failure records.
std::uint64_t parse_hex64(const std::string& text) {
  GT_REQUIRE(!text.empty() && text.size() <= 16,
             "malformed 64-bit hex value: " + text);
  std::uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      GT_REQUIRE(false, "malformed 64-bit hex value: " + text);
    }
  }
  return value;
}

}  // namespace

std::uint64_t parse_count(const obs::JsonValue& value, const char* what) {
  // Plain integer tokens are read exactly; anything else (an exponent form
  // such as 1.7537090160022989e+19 from older writers) goes through the
  // double.
  if (const std::optional<std::uint64_t> exact = value.exact_uint()) {
    return *exact;
  }
  const double n = value.as_number();
  // 2^64 is exactly representable; every double below it converts to
  // std::uint64_t without undefined behaviour.  NaN fails the first test.
  GT_REQUIRE(n >= 0 && n < 18446744073709551616.0 && n == std::floor(n),
             std::string("field is not a count (a non-negative integer "
                         "below 2^64): ") +
                 what);
  return static_cast<std::uint64_t>(n);
}

std::string to_string(CellStatus status) {
  switch (status) {
    case CellStatus::kOk: return "ok";
    case CellStatus::kFailed: return "failed";
    case CellStatus::kSkipped: return "skipped";
  }
  return "ok";
}

CellStatus parse_cell_status(const std::string& text) {
  if (text == "ok") return CellStatus::kOk;
  if (text == "failed") return CellStatus::kFailed;
  GT_REQUIRE(text == "skipped", "unknown cell status: " + text);
  return CellStatus::kSkipped;
}

std::string to_string(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kComplete: return "complete";
    case RunOutcome::kPartial: return "partial";
    case RunOutcome::kInterrupted: return "interrupted";
  }
  return "complete";
}

RunOutcome parse_run_outcome(const std::string& text) {
  if (text == "complete") return RunOutcome::kComplete;
  if (text == "partial") return RunOutcome::kPartial;
  GT_REQUIRE(text == "interrupted", "unknown run outcome: " + text);
  return RunOutcome::kInterrupted;
}

std::string cell_to_json(const ManifestCell& cell) {
  std::string out;
  append_cell(out, cell);
  return out;
}

std::string to_json(const Manifest& manifest) {
  std::string out = "{\"schema\":\"";
  out += json_escape(manifest.schema);
  out += "\",\"spec\":\"";
  out += json_escape(manifest.spec);
  out += "\",\"title\":\"";
  out += json_escape(manifest.title);
  out += "\",\"spec_hash\":\"";
  out += json_escape(manifest.spec_hash);
  out += "\",\"git_rev\":\"";
  out += json_escape(manifest.git_rev);
  out += "\",\"seed\":";
  out += std::to_string(manifest.seed);  // exact: a double drops low bits
  out += ",\"replications\":";
  out += json_number(static_cast<double>(manifest.replications));
  out += ",\"tolerance_pct\":";
  out += json_number(manifest.tolerance_pct);
  out += ",\"outcome\":\"";
  out += to_string(manifest.outcome);
  out += "\",\"cells\":[";
  bool first = true;
  for (const ManifestCell& cell : manifest.cells) {
    out += first ? "\n" : ",\n";
    first = false;
    append_cell(out, cell);
  }
  out += "\n]}\n";
  return out;
}

ManifestCell parse_manifest_cell(const obs::JsonValue& value) {
  ManifestCell cell;
  cell.index = parse_count(value.at("index"), "index");
  cell.params = parse_params(value.at("params"));
  cell.param_hash = value.at("param_hash").as_string();
  cell.replications = parse_count(value.at("replications"), "replications");
  // v1 cells carry no status/failures: default to ok.
  if (value.has("status")) {
    cell.status = parse_cell_status(value.at("status").as_string());
  }
  for (const auto& [name, agg] : value.at("metrics").as_object()) {
    MetricAggregate m;
    m.mean = agg.at("mean").as_number();
    m.ci95 = agg.at("ci95").as_number();
    m.n = parse_count(agg.at("n"), "metric n");
    cell.metrics.emplace_back(name, m);
  }
  if (value.has("failures")) {
    for (const obs::JsonValue& f : value.at("failures").as_array()) {
      UnitFailure failure;
      failure.rep = parse_count(f.at("rep"), "failure rep");
      failure.seed = parse_hex64(f.at("seed").as_string());
      failure.error_class = parse_error_class(f.at("class").as_string());
      failure.message = f.at("message").as_string();
      failure.attempts = parse_count(f.at("attempts"), "failure attempts");
      cell.failures.push_back(std::move(failure));
    }
  }
  return cell;
}

Manifest parse_manifest(const std::string& json) {
  const obs::JsonValue doc = obs::parse_json(json);
  Manifest m;
  const std::string schema = doc.at("schema").as_string();
  GT_REQUIRE(schema == "gridtrust.lab.manifest/v2" ||
                 schema == "gridtrust.lab.manifest/v1",
             "unknown manifest schema: " + schema);
  // v1 documents upgrade in place: the struct always carries v2 so a
  // re-serialization writes the current schema.
  m.spec = doc.at("spec").as_string();
  m.title = doc.at("title").as_string();
  m.spec_hash = doc.at("spec_hash").as_string();
  m.git_rev = doc.at("git_rev").as_string();
  m.seed = parse_count(doc.at("seed"), "seed");
  m.replications = parse_count(doc.at("replications"), "replications");
  m.tolerance_pct = doc.at("tolerance_pct").as_number();
  if (doc.has("outcome")) {
    m.outcome = parse_run_outcome(doc.at("outcome").as_string());
  }
  for (const obs::JsonValue& cell : doc.at("cells").as_array()) {
    m.cells.push_back(parse_manifest_cell(cell));
  }
  return m;
}

CompareResult compare_manifests(const Manifest& candidate,
                                const Manifest& baseline,
                                const CompareOptions& options) {
  CompareResult result;
  result.tolerance_pct = options.tolerance_pct >= 0.0
                             ? options.tolerance_pct
                             : baseline.tolerance_pct;
  auto fail = [&result](std::string where, std::string what) {
    result.violations.push_back({std::move(where), std::move(what)});
  };

  if (candidate.spec != baseline.spec) {
    fail("manifest", "spec \"" + candidate.spec + "\" vs baseline \"" +
                         baseline.spec + "\"");
  }
  if (candidate.seed != baseline.seed) {
    fail("manifest", "seed " + std::to_string(candidate.seed) +
                         " vs baseline " + std::to_string(baseline.seed));
  }
  if (candidate.cells.size() != baseline.cells.size()) {
    fail("manifest",
         "cell count " + std::to_string(candidate.cells.size()) +
             " vs baseline " + std::to_string(baseline.cells.size()));
  }

  for (const ManifestCell& base_cell : baseline.cells) {
    const ManifestCell* cand_cell = nullptr;
    for (const ManifestCell& c : candidate.cells) {
      if (c.index == base_cell.index) {
        cand_cell = &c;
        break;
      }
    }
    const std::string where_cell =
        "cell " + std::to_string(base_cell.index) + " (" +
        params_label(base_cell.params) + ")";
    if (cand_cell == nullptr) {
      fail(where_cell, "missing from candidate");
      continue;
    }
    if (cand_cell->params != base_cell.params) {
      fail(where_cell,
           "parameters differ: " + params_label(cand_cell->params));
      continue;
    }
    if (cand_cell->replications != base_cell.replications) {
      fail(where_cell,
           "replications " + std::to_string(cand_cell->replications) +
               " vs baseline " + std::to_string(base_cell.replications));
    }
    if (cand_cell->status != base_cell.status) {
      fail(where_cell, "status " + to_string(cand_cell->status) +
                           " vs baseline " + to_string(base_cell.status));
    }
    for (const auto& [name, base_m] : base_cell.metrics) {
      const MetricAggregate* cand_m = nullptr;
      for (const auto& [cname, cm] : cand_cell->metrics) {
        if (cname == name) {
          cand_m = &cm;
          break;
        }
      }
      if (cand_m == nullptr) {
        fail(where_cell + " metric " + name, "missing from candidate");
        continue;
      }
      ++result.metrics_checked;
      const double diff = std::fabs(cand_m->mean - base_m.mean);
      const double gate =
          std::max(options.tolerance_abs,
                   result.tolerance_pct / 100.0 * std::fabs(base_m.mean));
      if (!(diff <= gate)) {
        fail(where_cell + " metric " + name,
             "mean " + obs::detail::json_number(cand_m->mean) +
                 " vs baseline " + obs::detail::json_number(base_m.mean) +
                 " (|diff| " + obs::detail::json_number(diff) +
                 " > gate " + obs::detail::json_number(gate) + ")");
      }
    }
  }

  result.pass = result.violations.empty();
  return result;
}

}  // namespace gridtrust::lab

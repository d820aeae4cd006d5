// Persistence for the trust-level table.
//
// Trust is long-lived by nature — the whole point of the table is that it
// survives across workloads — so deployments need to save and restore it.
// The format is line-oriented text with a versioned header, stable across
// platforms, and validated strictly on load: one row per (cd, rd), each
// exactly once.
//
//   gridtrust-trust-table v1
//   dims <client_domains> <resource_domains> <activities>
//   row <cd> <rd> <levels as letters, one per activity, e.g. ABECD>
#pragma once

#include <iosfwd>
#include <string>

#include "trust/trust_table.hpp"

namespace gridtrust::trust {

/// Writes a trust-level table to a stream.
void save_table(const TrustLevelTable& table, std::ostream& os);

/// Reads a trust-level table; throws PreconditionError on any format or
/// range violation, a missing or repeated row included.  Storage is
/// allocated only once every row is read, so memory follows the input,
/// not the dims line.
TrustLevelTable load_table(std::istream& is);

/// Convenience: round-trip via strings.
std::string table_to_string(const TrustLevelTable& table);
TrustLevelTable table_from_string(const std::string& text);

}  // namespace gridtrust::trust

// Discrete trust levels A..F (§3.1 of the paper).
//
// The paper grades trust from "very low trust level" (A) to "extremely high
// trust level" (F) and assigns the numeric values 1..6.  Offered trust levels
// (OTL) only span A..E; a required trust level (RTL) of F is the escape hatch
// that forces maximal security regardless of the offer (Table 1, row F).
#pragma once

#include <string>

namespace gridtrust::trust {

/// A discrete trust level.  Numeric values match the paper (A=1 .. F=6).
enum class TrustLevel : int {
  kA = 1,  ///< very low trust
  kB = 2,  ///< low trust
  kC = 3,  ///< medium trust
  kD = 4,  ///< high trust
  kE = 5,  ///< very high trust
  kF = 6,  ///< extremely high trust (RTL only; never offered)
};

/// Lowest level (A).
inline constexpr TrustLevel kMinTrustLevel = TrustLevel::kA;
/// Highest level usable as an offered trust level (E).
inline constexpr TrustLevel kMaxOfferedLevel = TrustLevel::kE;
/// Highest level usable as a required trust level (F).
inline constexpr TrustLevel kMaxRequiredLevel = TrustLevel::kF;

/// Numeric value 1..6 of a level.
constexpr int to_numeric(TrustLevel level) { return static_cast<int>(level); }

/// Level from its numeric value; throws PreconditionError outside [1, 6].
TrustLevel level_from_numeric(int value);

/// One-letter name "A".."F".
std::string to_string(TrustLevel level);

/// Parses "A".."F" (case-insensitive); throws PreconditionError otherwise.
TrustLevel level_from_string(const std::string& name);

/// True when `value` is a valid numeric trust level.
constexpr bool is_valid_level(int value) { return value >= 1 && value <= 6; }

/// Quantizes a continuous trust score in [1, 6] to the nearest level,
/// clamping out-of-range scores.  Used when mapping the trust engine's
/// continuous Γ values into the discrete trust-level table.
TrustLevel quantize_level(double score);

/// quantize_level() capped at E: the level an agent may offer for a
/// continuous trust score (an offered level is never F).
TrustLevel quantize_offered_level(double score);

/// The smaller of two levels (used for composite-activity OTL).
constexpr TrustLevel min_level(TrustLevel a, TrustLevel b) {
  return to_numeric(a) < to_numeric(b) ? a : b;
}

/// The larger of two levels (used for the effective RTL).
constexpr TrustLevel max_level(TrustLevel a, TrustLevel b) {
  return to_numeric(a) > to_numeric(b) ? a : b;
}

}  // namespace gridtrust::trust

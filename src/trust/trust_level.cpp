#include "trust/trust_level.hpp"

#include <cctype>
#include <cmath>

#include "common/error.hpp"

namespace gridtrust::trust {

TrustLevel level_from_numeric(int value) {
  GT_REQUIRE(is_valid_level(value), "trust level value must be in [1, 6]");
  return static_cast<TrustLevel>(value);
}

std::string to_string(TrustLevel level) {
  static constexpr char kNames[] = {'A', 'B', 'C', 'D', 'E', 'F'};
  const int v = to_numeric(level);
  GT_REQUIRE(is_valid_level(v), "invalid trust level");
  return std::string(1, kNames[v - 1]);
}

TrustLevel level_from_string(const std::string& name) {
  GT_REQUIRE(name.size() == 1, "trust level name must be one letter A..F");
  const char c = static_cast<char>(
      std::toupper(static_cast<unsigned char>(name.front())));
  GT_REQUIRE(c >= 'A' && c <= 'F', "trust level name must be A..F");
  return static_cast<TrustLevel>(c - 'A' + 1);
}

TrustLevel quantize_level(double score) {
  if (std::isnan(score)) return kMinTrustLevel;
  const double clamped = score < 1.0 ? 1.0 : (score > 6.0 ? 6.0 : score);
  return static_cast<TrustLevel>(static_cast<int>(std::lround(clamped)));
}

TrustLevel quantize_offered_level(double score) {
  return min_level(quantize_level(score), kMaxOfferedLevel);
}

}  // namespace gridtrust::trust

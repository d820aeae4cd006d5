// Test helper: a RunReport as text, one "name=value" line per entry in
// insertion order with every value at full precision, so two reports
// compare bit for bit (NaN included) with one EXPECT_EQ.
#pragma once

#include <sstream>
#include <string>

#include "obs/report.hpp"

namespace gridtrust::testing_support {

inline std::string report_text(const obs::RunReport& report) {
  std::ostringstream out;
  out.precision(17);
  for (const std::string& name : report.names()) {
    out << name << '=' << report.get(name) << '\n';
  }
  return out.str();
}

}  // namespace gridtrust::testing_support

#include "workload/trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace gridtrust::workload {

namespace {

constexpr const char* kHeader = "gridtrust-trace v1";

std::string next_line(std::istream& is, const char* what) {
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    return line;
  }
  GT_REQUIRE(false, std::string("unexpected end of trace reading ") + what);
  return {};
}

}  // namespace

void save_trace(const std::vector<grid::Request>& requests,
                const sched::CostMatrix& eec, std::ostream& os) {
  GT_REQUIRE(!requests.empty(), "cannot save an empty trace");
  GT_REQUIRE(eec.rows() == requests.size(),
             "EEC matrix must have one row per request");
  os << kHeader << "\n"
     << "counts " << requests.size() << " " << eec.cols() << "\n";
  for (const grid::Request& req : requests) {
    GT_REQUIRE(!req.activities.empty(), "request without activities");
    os << "req " << req.id << " " << req.client << " "
       << req.client_domain << " "
       << trust::to_string(req.client_rtl) << " "
       << trust::to_string(req.resource_rtl) << " ";
    os.precision(17);
    os << req.arrival_time << " ";
    for (std::size_t i = 0; i < req.activities.size(); ++i) {
      os << (i ? "," : "") << req.activities[i];
    }
    os << "\n";
  }
  os.precision(17);
  for (std::size_t r = 0; r < eec.rows(); ++r) {
    os << "eec " << r;
    for (std::size_t m = 0; m < eec.cols(); ++m) os << " " << eec.get(r, m);
    os << "\n";
  }
}

Trace load_trace(std::istream& is) {
  GT_REQUIRE(next_line(is, "header") == kHeader,
             "not a gridtrust trace (bad header)");
  std::istringstream counts(next_line(is, "counts"));
  std::string tag;
  std::size_t n_requests = 0;
  std::size_t n_machines = 0;
  counts >> tag >> n_requests >> n_machines;
  GT_REQUIRE(!counts.fail() && tag == "counts", "malformed counts line");
  GT_REQUIRE(n_requests > 0 && n_machines > 0, "empty trace dimensions");

  // Nothing is sized from the counts line: requests and EEC values are
  // stored as they are read, so a count the input does not back ends in
  // "unexpected end of trace", not in a huge allocation.
  Trace trace;
  for (std::size_t i = 0; i < n_requests; ++i) {
    std::istringstream line(next_line(is, "req"));
    grid::Request req;
    std::string client_rtl;
    std::string resource_rtl;
    std::string acts;
    line >> tag >> req.id >> req.client >> req.client_domain >> client_rtl >>
        resource_rtl >> req.arrival_time >> acts;
    GT_REQUIRE(!line.fail() && tag == "req", "malformed req line");
    GT_REQUIRE(req.arrival_time >= 0.0, "negative arrival time");
    req.client_rtl = trust::level_from_string(client_rtl);
    req.resource_rtl = trust::level_from_string(resource_rtl);
    std::istringstream act_stream(acts);
    std::string token;
    while (std::getline(act_stream, token, ',')) {
      GT_REQUIRE(!token.empty(), "empty activity id in req line");
      std::size_t pos = 0;
      unsigned long long act = 0;
      try {
        act = std::stoull(token, &pos);
      } catch (const std::exception&) {
        GT_REQUIRE(false, "malformed activity id: " + token);
      }
      GT_REQUIRE(pos == token.size(), "malformed activity id: " + token);
      req.activities.push_back(static_cast<grid::ActivityId>(act));
    }
    GT_REQUIRE(!req.activities.empty(), "request without activities");
    trace.requests.push_back(std::move(req));
  }

  std::vector<std::size_t> rows;  // rows[i]: the row the i-th eec line sets
  std::vector<double> values;     // n_machines per eec line, as read
  std::vector<bool> seen(n_requests, false);
  rows.reserve(n_requests);
  for (std::size_t i = 0; i < n_requests; ++i) {
    std::istringstream line(next_line(is, "eec"));
    std::size_t row = 0;
    line >> tag >> row;
    GT_REQUIRE(!line.fail() && tag == "eec" && row < n_requests,
               "malformed eec line");
    // A repeated row would leave another request's row at zero cost.
    GT_REQUIRE(!seen[row], "eec row given twice");
    seen[row] = true;
    rows.push_back(row);
    for (std::size_t m = 0; m < n_machines; ++m) {
      double v = 0.0;
      line >> v;
      GT_REQUIRE(!line.fail(), "eec row too short");
      GT_REQUIRE(v >= 0.0, "negative EEC value");
      values.push_back(v);
    }
  }
  trace.eec = sched::CostMatrix(n_requests, n_machines);
  for (std::size_t i = 0; i < n_requests; ++i) {
    std::copy_n(values.data() + i * n_machines, n_machines,
                trace.eec.row(rows[i]));
  }
  return trace;
}

Trace trace_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_trace(is);
}

}  // namespace gridtrust::workload

// Workload traces: save and replay complete scheduling instances.
//
// A trace captures everything that defines one §5.3 instance — the request
// stream (domains, ToAs, RTLs, arrivals) and the EEC matrix — so an
// experiment can be re-run bit-identically elsewhere, shared in a bug
// report, or scheduled under a different policy without re-drawing the
// randomness.  The trust-level table serializes separately
// (trust/serialization.hpp); a full experiment is (trace, table, policy).
//
// Format (line oriented, versioned, '#' comments allowed):
//
//   gridtrust-trace v1
//   counts <requests> <machines>
//   req <id> <client> <cd> <client_rtl> <resource_rtl> <arrival> <acts,...>
//       (1 to 8 comma-separated ToA ids: grid::ActivityList's capacity)
//   eec <request> <cost for machine 0> <machine 1> ...
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "grid/request.hpp"
#include "sched/matrix.hpp"

namespace gridtrust::workload {

/// One replayable instance.
struct Trace {
  std::vector<grid::Request> requests;
  sched::CostMatrix eec;
};

/// Writes a trace.  `eec` must have one row per request.
void save_trace(const std::vector<grid::Request>& requests,
                const sched::CostMatrix& eec, std::ostream& os);

/// Reads a trace; throws PreconditionError on malformed input.
Trace load_trace(std::istream& is);

/// Reads a trace from a string (load_trace over an istringstream).
Trace trace_from_string(const std::string& text);

}  // namespace gridtrust::workload

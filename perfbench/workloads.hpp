// The benchmark's workloads.  Each runs its set-up, a timed phase of
// --seconds and its correctness checks, and records every end-to-end metric
// (and, on a traced run, every per-layer metric) into the report.
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_ncl_single(const RunArgs& args, Report& report);
void run_ncl_stream(const RunArgs& args, Report& report);
void run_fleet_replay(const RunArgs& args, Report& report);

}  // namespace perfbench

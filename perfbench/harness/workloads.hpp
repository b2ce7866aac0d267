// The benchmark's workloads. Each builds its inputs from RunOptions::seed,
// measures for about RunOptions::seconds, checks the program's outputs, and
// fills a RunResult: end-to-end metrics when untraced, per-layer metrics
// when traced. METRICS.md says why each workload exists.
#pragma once

#include "harness.hpp"

namespace perfbench {

RunResult run_steady_admit(const RunOptions& options);
RunResult run_flash_crowd(const RunOptions& options);
RunResult run_paper_sweep(const RunOptions& options);

}  // namespace perfbench

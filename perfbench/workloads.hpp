// The benchmark's workloads (README.md, "Workloads"). Each one sets the
// system up, measures it for RunOptions::seconds, checks its outputs and
// adds the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) to the report.
#pragma once

#include "measure.hpp"

namespace perfbench {

void run_train_blstm(const RunOptions& opts, Report& report);
void run_infer_bgru_int8(const RunOptions& opts, Report& report);
/// `loaded` = false: the `low` phase (200 rps); true: the `mid` phase
/// (1000 rps) followed by the `over` phase (6500 rps).
void run_serve_blstm(const RunOptions& opts, Report& report, bool loaded);

}  // namespace perfbench

// The three workloads and the pass loop they share.
#pragma once

#include <functional>

#include "common.h"
#include "trace.h"

namespace perfbench {

/// What one run of a workload produces.
struct RunOutput {
  Tally tally;
  Metrics end_to_end;  ///< untraced run
  Metrics layers;      ///< traced run; layers a workload bypasses stay 0
  Stamp sizes;         ///< workload sizes in values and bytes
  Tracer* tracer = nullptr;  ///< set for the traced run
};

void run_snapshot(const Options& options, RunOutput& out);
void run_series(const Options& options, RunOutput& out);
void run_fpsnrd(const Options& options, RunOutput& out);

/// One measured pass: runs pass `p` and returns the seconds it measured.
using PassFn = std::function<double(int p)>;

/// Untraced run: passes until `options.seconds` have elapsed and at least
/// `samples()` >= 1000 (so p99 has ten samples beyond it), with at least
/// two passes and a hard time cap. Returns the number of passes run.
int run_measured_passes(const Options& options, const PassFn& pass,
                        const std::function<std::size_t()>& samples);

/// Traced run: N untraced passes for half of `options.seconds` (at least
/// one), then the same N with `out.tracer` installed, which stays installed
/// for the replays that follow. Sets trace.overhead_frac to the traced
/// passes' measured time over the untraced passes' minus one. Returns the
/// index of the first traced pass.
int run_traced_passes(const Options& options, const PassFn& pass,
                      RunOutput& out);

}  // namespace perfbench

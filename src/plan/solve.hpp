// Plan-driven connected-components executor.
//
// solve_with_plan runs label propagation one PlanStep at a time, asking
// a Planner (plan/plan.hpp) what to do before every iteration and
// recording each decision into a PlanTrace (plan/trace.hpp).  Every step
// runs on Thrifty's kernel layer (core/lp_kernels.hpp) over one in-place
// label array, and the solve starts the way Thrifty does:
//
//   * Zero Planting on the maximum-degree vertex, then Initial Push of
//     its label to its neighbours — a prologue, not a plan step;
//   * pull / pullf are Thrifty's partition-scheduled in-place pulls
//     with Zero Convergence, push is its worklist push with hub chunks;
//   * finish hooks the label forest in label space (a planted label is
//     not a vertex id), async drains core::async_propagate on the same
//     array; both are terminal.
//
// In-place sweeps are schedule-dependent, so traces guarantee the step
// kinds that ran and the final partition, not label bytes.
//
// Planners only advise.  The executor sanitizes each step — a push runs
// as a frontier-building pull until a frontier exists and one full pull
// has run (Thrifty's full_pull_done rule) — and owns convergence: a
// zero-change full sweep or an empty push frontier is a fixed point
// regardless of what the plan wanted next.  An adversarial plan
// therefore costs time, never correctness.
#pragma once

#include "core/cc_common.hpp"
#include "plan/plan.hpp"
#include "plan/trace.hpp"

namespace thrifty::plan {

struct PlanResult {
  core::CcResult result;
  PlanTrace trace;
};

/// Runs CC under the given plan spec.  Replay specs load their trace
/// from spec.replay_path (throwing on a missing/malformed file) and run
/// its step kinds; a replay that converges early is simply truncated,
/// and one that runs out of steps falls back to plain pull sweeps until
/// the fixed point.
[[nodiscard]] PlanResult solve_with_plan(const graph::CsrGraph& graph,
                                         const core::CcOptions& options,
                                         const PlanSpec& spec);

/// Registry entry point (the "adaptive" algorithm): plan spec and
/// finish cutover come from run_config().plan / .plan_cutover, the
/// density threshold, seed and sample size from CcOptions.
[[nodiscard]] core::CcResult solve_adaptive(const graph::CsrGraph& graph,
                                            const core::CcOptions& options);

}  // namespace thrifty::plan

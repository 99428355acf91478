// Serialisable record of every decision an execution planner made.
//
// A PlanTrace is the planner's flight recorder: one TraceStep per
// iteration holding both the step the planner *requested* and the step
// the executor actually *ran* after sanitizing (plan/solve.hpp), plus
// the observation that justified it.  Traces serve three purposes:
//   * debugging — dump with `thrifty_cc --plan-trace=<file>` and diff
//     two runs' decision sequences textually;
//   * replay — `--plan=replay:<file>` re-executes the recorded step
//     kinds at any thread count and reaches the same partition.  The
//     in-place sweeps are schedule-dependent, so a replay may converge a
//     step earlier or later than the recording; the counts it records
//     are its own, not a byte copy of the original's;
//   * oracles — plan_test round-trips traces through dump/parse/replay.
//
// Text format, one record per line (`# thrifty plan trace v1`):
//   header keys: planner/seed/vertices/directed_edges
//   step lines:  step <i> <kind> key=value...
// Unknown header keys and step attributes are skipped with a warning so
// old binaries can replay traces from newer writers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "plan/plan.hpp"

namespace thrifty::plan {

/// One executed iteration: the sanitized step that ran, what the planner
/// asked for, and the observation snapshot it decided on.
struct TraceStep {
  /// What the executor ran.
  PlanStep step;
  /// What the planner requested before sanitizing (== step.kind unless
  /// the executor had to demote an unexecutable step, e.g. a push with
  /// no materialised frontier).
  StepKind requested = StepKind::kPull;
  std::uint64_t active_vertices = 0;
  std::uint64_t active_edges = 0;
  std::uint64_t label_changes = 0;
  /// Async steps only: successful CAS-min publishes observed while the
  /// barrier-free drain ran.
  std::uint64_t publishes = 0;
  double density = 0.0;
  double giant_fraction = -1.0;

  friend bool operator==(const TraceStep&, const TraceStep&) = default;
};

/// The full decision record of one solve.
struct PlanTrace {
  /// Spec text of the planner that produced this trace ("auto",
  /// "fixed:...", "replay:<file>").
  std::string planner = "auto";
  std::uint64_t seed = 0;
  graph::VertexId num_vertices = 0;
  graph::EdgeOffset num_directed_edges = 0;
  std::vector<TraceStep> steps;

  friend bool operator==(const PlanTrace&, const PlanTrace&) = default;
};

void write_trace(std::ostream& out, const PlanTrace& trace);
void write_trace_file(const std::string& path, const PlanTrace& trace);

/// Parses a trace; throws std::runtime_error on malformed input.
/// Unknown keys are skipped with a warning (forward compatibility).
[[nodiscard]] PlanTrace read_trace(std::istream& in);
[[nodiscard]] PlanTrace read_trace_file(const std::string& path);

}  // namespace thrifty::plan

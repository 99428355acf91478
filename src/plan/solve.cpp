#include "plan/solve.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/async_cc.hpp"
#include "core/lp_kernels.hpp"
#include "instrument/counters.hpp"
#include "support/random.hpp"
#include "support/run_config.hpp"
#include "support/timer.hpp"

namespace thrifty::plan {

namespace {

using graph::CsrGraph;
using graph::EdgeOffset;
using graph::Label;
using graph::VertexId;

using Kernels = core::LpKernels<instrument::NullCounters, /*kZeroConv=*/true>;

// Seed stream for the giant estimate, derived from CcOptions::seed.
constexpr std::uint64_t kGiantSalt = 0x61a7ull;

/// Fraction of a seeded vertex sample covered by its most frequent
/// label — the ConnectIt giant-component estimate, as a fraction rather
/// than concurrent_hook.hpp's label-only variant.
double sampled_giant_fraction(const core::LabelArray& labels, VertexId n,
                              std::uint32_t samples, std::uint64_t seed) {
  if (n == 0 || samples == 0) return 0.0;
  support::Xoshiro256StarStar rng(seed);
  std::unordered_map<Label, std::uint32_t> counts;
  counts.reserve(samples * 2);
  std::uint32_t best = 0;
  for (std::uint32_t i = 0; i < samples; ++i) {
    const auto v = static_cast<VertexId>(rng.next_below(n));
    best = std::max(best, ++counts[core::load_label(labels[v])]);
  }
  return static_cast<double>(best) / static_cast<double>(samples);
}

/// Replays the step kinds a recorded trace *executed*; once the trace
/// is exhausted (a replay whose schedule needs more sweeps, replay
/// against a different graph, or a hand-truncated file) it degrades to
/// plain pull sweeps, which converge from any state.
class TracePlanner : public Planner {
 public:
  explicit TracePlanner(const PlanTrace& trace) {
    steps_.reserve(trace.steps.size());
    for (const TraceStep& s : trace.steps) steps_.push_back(s.step);
  }

  PlanStep next(const Observation&) override {
    if (cursor_ < steps_.size()) return steps_[cursor_++];
    return PlanStep{};  // kPull fallback
  }

 private:
  std::vector<PlanStep> steps_;
  std::size_t cursor_ = 0;
};

instrument::Direction direction_of(StepKind kind) {
  switch (kind) {
    case StepKind::kPull:
      return instrument::Direction::kPull;
    case StepKind::kPullFrontier:
      return instrument::Direction::kPullFrontier;
    case StepKind::kPush:
      return instrument::Direction::kPush;
    case StepKind::kFinish:
      return instrument::Direction::kHook;
    case StepKind::kAsync:
      return instrument::Direction::kAsync;
  }
  return instrument::Direction::kPull;
}

std::unique_ptr<Planner> make_planner(const PlanSpec& spec,
                                      const core::CcOptions& options,
                                      double finish_cutover) {
  switch (spec.mode) {
    case PlanSpec::Mode::kAuto: {
      PlanOptions popts;
      popts.density_threshold = options.density_threshold;
      popts.finish_cutover = finish_cutover;
      popts.sample_size = options.component_sample_size;
      popts.seed = options.seed;
      return std::make_unique<AdaptivePlanner>(popts);
    }
    case PlanSpec::Mode::kFixed:
      return std::make_unique<FixedPlanner>(spec.fixed_steps);
    case PlanSpec::Mode::kReplay:
      return std::make_unique<TracePlanner>(
          read_trace_file(spec.replay_path));
  }
  throw std::logic_error("unreachable plan mode");
}

PlanResult run(const CsrGraph& graph, const core::CcOptions& options,
               const PlanSpec& spec, double finish_cutover) {
  const support::Timer timer;
  const VertexId n = graph.num_vertices();
  const EdgeOffset m = graph.num_directed_edges();
  PlanResult out;
  out.trace.planner = spec.text;
  out.trace.seed = options.seed;
  out.trace.num_vertices = n;
  out.trace.num_directed_edges = m;
  out.result.stats.algorithm = "adaptive";
  if (n == 0) {
    out.result.stats.total_ms = timer.elapsed_ms();
    return out;
  }

  std::unique_ptr<Planner> planner =
      make_planner(spec, options, finish_cutover);
  const bool sample_giant = finish_cutover > 0.0 && finish_cutover <= 1.0;

  core::LabelArray& labels = out.result.labels;
  labels = core::make_label_array(n);
  instrument::NullCounters counters;
  Kernels kernels(graph, labels, options.partitions_per_thread, counters);

  // Thrifty's start: Zero Planting on the maximum-degree vertex, then
  // Initial Push of its label to its neighbours.
  const VertexId hub = graph.max_degree_vertex();
  kernels.plant({&hub, 1});
  Kernels::Mass active = kernels.initial_push({&hub, 1});
  instrument::IterationRecord initial;
  initial.direction = instrument::Direction::kInitialPush;
  initial.active_vertices = 1;
  initial.density = frontier::frontier_density(1, graph.degree(hub), m);
  initial.label_changes = active.vertices;
  out.result.stats.iterations.push_back(initial);

  Observation obs;
  obs.active_vertices = active.vertices;
  obs.active_edges = active.edges;
  obs.density = frontier::frontier_density(active.vertices, active.edges, m);

  bool converged = false;
  // Every sweep moves each component's smallest label at least one hop,
  // so any plan needs at most diameter + O(1) steps; exceeding n means
  // the convergence protocol is broken and we fail loudly over spinning.
  const std::uint64_t max_steps = static_cast<std::uint64_t>(n) + 8;
  for (std::uint64_t iter = 0; !converged; ++iter) {
    if (iter >= max_steps) {
      throw std::logic_error(
          "plan executor exceeded the iteration bound without "
          "converging (broken convergence protocol?)");
    }
    obs.have_frontier = kernels.push_ready();
    obs.giant_fraction =
        (sample_giant && iter > 0)
            ? sampled_giant_fraction(
                  labels, n, options.component_sample_size,
                  support::hash_mix(options.seed, kGiantSalt + iter))
            : -1.0;

    const PlanStep requested = planner->next(obs);
    PlanStep step = requested;
    // Sanitize: a push is correct only over a materialised frontier with
    // a full pull behind it — run the frontier-building pull that makes
    // the next push legal instead.
    if (step.kind == StepKind::kPush && !kernels.push_ready()) {
      step.kind = StepKind::kPullFrontier;
    }

    std::uint64_t publishes = 0;
    switch (step.kind) {
      case StepKind::kPull:
      case StepKind::kPullFrontier:
        active = kernels.pull(step.kind == StepKind::kPullFrontier);
        converged = active.vertices == 0;
        break;
      case StepKind::kPush:
        // Empty next frontier == fixed point: every vertex able to lower
        // a neighbour was in the frontier.
        active = kernels.push();
        converged = active.vertices == 0;
        break;
      case StepKind::kFinish:
        kernels.hook_finish();
        active = {};
        converged = true;
        break;
      case StepKind::kAsync:
        kernels.drop_frontier();
        publishes =
            core::async_propagate(graph, labels.data(), options).publishes;
        active = {};
        converged = true;
        break;
    }

    TraceStep record;
    record.step = step;
    record.requested = requested.kind;
    record.active_vertices = active.vertices;
    record.active_edges = active.edges;
    record.label_changes = active.vertices;
    record.publishes = publishes;
    record.density =
        frontier::frontier_density(active.vertices, active.edges, m);
    record.giant_fraction = obs.giant_fraction;
    out.trace.steps.push_back(record);

    instrument::IterationRecord iteration;
    iteration.index = static_cast<int>(iter) + 1;
    iteration.direction = direction_of(step.kind);
    iteration.density = obs.density;
    iteration.active_vertices = obs.active_vertices;
    iteration.label_changes = active.vertices;
    out.result.stats.iterations.push_back(iteration);

    obs.active_vertices = active.vertices;
    obs.active_edges = active.edges;
    obs.density = record.density;
  }
  out.result.stats.num_iterations =
      static_cast<int>(out.result.stats.iterations.size());
  out.result.stats.total_ms = timer.elapsed_ms();
  return out;
}

}  // namespace

PlanResult solve_with_plan(const CsrGraph& graph,
                           const core::CcOptions& options,
                           const PlanSpec& spec) {
  const double cutover = spec.mode == PlanSpec::Mode::kAuto
                             ? support::run_config().plan_cutover
                             : 0.0;
  return run(graph, options, spec, cutover);
}

core::CcResult solve_adaptive(const CsrGraph& graph,
                              const core::CcOptions& options) {
  const PlanSpec spec = parse_plan_spec(support::run_config().plan);
  return solve_with_plan(graph, options, spec).result;
}

}  // namespace thrifty::plan

// Tests for src/plan: spec parsing, the adaptive planner's decision
// heuristics, partition determinism across thread counts, PlanTrace
// round-trip and step-kind replay, the sampling-then-finish cutover,
// step sanitizing against adversarial plans, in-place pull convergence
// speed, and a fuzz loop replaying random fixed plans against the
// union-find reference with ddmin shrinking of any failure.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cc_common.hpp"
#include "plan/plan.hpp"
#include "plan/solve.hpp"
#include "plan/trace.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/run_config.hpp"
#include "testing/minimize.hpp"
#include "testing/oracles.hpp"
#include "testing/scenario.hpp"

namespace thrifty::plan {
namespace {

using graph::CsrGraph;
using graph::Label;
using graph::VertexId;

CsrGraph graph_for(const std::string& scenario_spec) {
  return testing::build_scenario_graph(
      testing::scenario_from_spec(scenario_spec));
}

CsrGraph graph_from_edges(const graph::EdgeList& edges,
                          VertexId num_vertices) {
  testing::Scenario shim;
  shim.num_vertices = num_vertices;
  shim.edges = edges;
  return testing::build_scenario_graph(shim);
}

core::CcOptions base_options() {
  core::CcOptions options;
  options.seed = 7;
  return options;
}

std::string trace_text(const PlanTrace& trace) {
  std::ostringstream out;
  write_trace(out, trace);
  return out.str();
}

bool has_finish_step(const PlanTrace& trace) {
  for (const TraceStep& step : trace.steps) {
    if (step.step.kind == StepKind::kFinish) return true;
  }
  return false;
}

TEST(StepKind, RoundTripsThroughText) {
  for (const StepKind kind :
       {StepKind::kPull, StepKind::kPullFrontier, StepKind::kPush,
        StepKind::kFinish, StepKind::kAsync}) {
    const auto parsed = parse_step_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_step_kind("gather").has_value());
  EXPECT_FALSE(parse_step_kind("").has_value());
}

TEST(ParsePlanSpec, AutoAndReplay) {
  const PlanSpec aut = parse_plan_spec("auto");
  EXPECT_EQ(aut.mode, PlanSpec::Mode::kAuto);
  EXPECT_EQ(aut.text, "auto");

  const PlanSpec rep = parse_plan_spec("replay:/tmp/some.trace");
  EXPECT_EQ(rep.mode, PlanSpec::Mode::kReplay);
  EXPECT_EQ(rep.replay_path, "/tmp/some.trace");
}

TEST(ParsePlanSpec, FixedSequencesAndRepeats) {
  const PlanSpec spec = parse_plan_spec("fixed:pullf,push*3,finish");
  EXPECT_EQ(spec.mode, PlanSpec::Mode::kFixed);
  ASSERT_EQ(spec.fixed_steps.size(), 5u);
  EXPECT_EQ(spec.fixed_steps[0].kind, StepKind::kPullFrontier);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(spec.fixed_steps[static_cast<std::size_t>(i)].kind,
              StepKind::kPush);
  }
  EXPECT_EQ(spec.fixed_steps[4].kind, StepKind::kFinish);
  EXPECT_EQ(spec.text, "fixed:pullf,push*3,finish");
}

TEST(ParsePlanSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_plan_spec("fixed:"), std::runtime_error);
  EXPECT_THROW((void)parse_plan_spec("fixed:gather"), std::runtime_error);
  EXPECT_THROW((void)parse_plan_spec("fixed:pull,"), std::runtime_error);
  EXPECT_THROW((void)parse_plan_spec("fixed:pull*0"), std::runtime_error);
  EXPECT_THROW((void)parse_plan_spec("fixed:pull*-2"), std::runtime_error);
  EXPECT_THROW((void)parse_plan_spec("fixed:pull*2x"), std::runtime_error);
  EXPECT_THROW((void)parse_plan_spec("replay:"), std::runtime_error);
  EXPECT_THROW((void)parse_plan_spec("bogus"), std::runtime_error);
}

TEST(ParsePlanSpec, EmptyMeansAutoAndHugeRepeatsAreCapped) {
  // An unset knob ("" from a default-constructed config) is auto.
  EXPECT_EQ(parse_plan_spec("").mode, PlanSpec::Mode::kAuto);
  // Expansion is bounded: a plan is consumed one step per iteration, so
  // anything past 2^20 steps could never execute anyway.
  const PlanSpec capped = parse_plan_spec("fixed:pull*9999999999");
  EXPECT_EQ(capped.fixed_steps.size(), std::size_t{1} << 20);
  // The cap bounds the whole expansion, not each item: three items of
  // 2^20 each still expand to 2^20 steps.
  const PlanSpec many = parse_plan_spec(
      "fixed:pull*1048576,pullf*1048576,push*1048576");
  EXPECT_EQ(many.fixed_steps.size(), std::size_t{1} << 20);
}

TEST(AdaptivePlanner, DensityThresholdDirectionSwitching) {
  PlanOptions options;
  options.density_threshold = 0.01;
  AdaptivePlanner planner(options);

  // Sparse + executable frontier -> push.
  Observation obs;
  obs.density = 0.005;
  obs.have_frontier = true;
  EXPECT_EQ(planner.next(obs).kind, StepKind::kPush);

  // Sparse without a frontier -> the pull that materialises one.
  obs.have_frontier = false;
  EXPECT_EQ(planner.next(obs).kind, StepKind::kPullFrontier);

  // Near the threshold (dense, but descending) -> pull with frontier so
  // the sparse regime can take over next iteration.
  obs.density = 0.02;
  EXPECT_EQ(planner.next(obs).kind, StepKind::kPullFrontier);

  // Deep-dense -> plain pull, no packing overhead.
  obs.density = 0.9;
  EXPECT_EQ(planner.next(obs).kind, StepKind::kPull);
}

TEST(AdaptivePlanner, GiantCutoverTriggersOnlyWhenEnabled) {
  PlanOptions options;
  options.finish_cutover = 0.75;
  AdaptivePlanner planner(options);

  Observation obs;
  obs.density = 0.5;
  obs.giant_fraction = 0.8;
  EXPECT_EQ(planner.next(obs).kind, StepKind::kFinish);
  obs.giant_fraction = 0.5;
  EXPECT_NE(planner.next(obs).kind, StepKind::kFinish);
  // A negative estimate means "not sampled" and can never cut over.
  obs.giant_fraction = -1.0;
  EXPECT_NE(planner.next(obs).kind, StepKind::kFinish);

  options.finish_cutover = 0.0;  // outside (0, 1]: cutover disabled
  AdaptivePlanner no_cutover(options);
  obs.giant_fraction = 1.0;
  EXPECT_NE(no_cutover.next(obs).kind, StepKind::kFinish);
}

TEST(FixedPlanner, LastStepRepeatsForever) {
  const PlanSpec spec = parse_plan_spec("fixed:pullf,push");
  FixedPlanner planner(spec.fixed_steps);
  Observation obs;
  EXPECT_EQ(planner.next(obs).kind, StepKind::kPullFrontier);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(planner.next(obs).kind, StepKind::kPush);
  }
  EXPECT_THROW(FixedPlanner(std::vector<PlanStep>{}), std::runtime_error);
}

// Partition determinism: the in-place kernels make the interior of a
// solve schedule-dependent, so the bar at every thread count is the
// union-find reference partition.  all_satellites drives the planner
// through a solve with no giant component, hub_star through the finish
// cutover.
TEST(Determinism, PartitionIdenticalAtEveryThreadCount) {
  for (const char* scenario :
       {"permuted_rmat:5", "hub_star:2", "all_satellites:6"}) {
    const CsrGraph graph = graph_for(scenario);
    const std::vector<Label> reference = testing::reference_partition(graph);
    const PlanSpec spec = parse_plan_spec("auto");
    for (const int threads : {1, 2, 4, 8}) {
      support::ThreadCountGuard guard(threads);
      const PlanResult result =
          solve_with_plan(graph, base_options(), spec);
      EXPECT_FALSE(result.trace.steps.empty());
      EXPECT_TRUE(
          core::same_partition(result.result.label_span(), reference))
          << scenario << " partition differs at " << threads << " threads";
    }
  }
}

TEST(Trace, RoundTripsThroughTextExactly) {
  const CsrGraph graph = graph_for("permuted_rmat:9");
  const PlanResult result =
      solve_with_plan(graph, base_options(), parse_plan_spec("auto"));
  ASSERT_FALSE(result.trace.steps.empty());

  const std::string text = trace_text(result.trace);
  std::istringstream in(text);
  const PlanTrace parsed = read_trace(in);
  // Hexfloat serialisation makes the doubles bit-exact, so the whole
  // struct — not just the text — survives the round trip.
  EXPECT_EQ(parsed, result.trace);
  EXPECT_EQ(trace_text(parsed), text);
}

// An async step is terminal and records its observed publish count; the
// count survives the text round trip bit-exactly even though it is not
// comparable across runs.
TEST(Trace, AsyncStepRecordsPublishesAndRoundTrips) {
  const CsrGraph graph = graph_for("two_clique_bridge:4");
  const PlanResult result = solve_with_plan(
      graph, base_options(), parse_plan_spec("fixed:async"));
  ASSERT_EQ(result.trace.steps.size(), 1u);
  EXPECT_EQ(result.trace.steps[0].step.kind, StepKind::kAsync);
  // The Initial Push only reaches the hub's clique, so the drain still
  // has the other clique's labels to lower and must publish.
  EXPECT_GT(result.trace.steps[0].publishes, 0u);
  EXPECT_TRUE(core::same_partition(result.result.label_span(),
                                   testing::reference_partition(graph)));

  const std::string text = trace_text(result.trace);
  EXPECT_NE(text.find(" publishes="), std::string::npos);
  std::istringstream in(text);
  const PlanTrace parsed = read_trace(in);
  EXPECT_EQ(parsed, result.trace);
}

// hub_split= and simd= are attributes older writers recorded; they now
// take the same skip-unknown path as a newer writer's attributes.
TEST(Trace, UnknownKeysAndAttributesAreSkippedNotFatal) {
  std::istringstream in(
      "# thrifty plan trace v1\n"
      "planner auto\n"
      "future_header_key 42\n"
      "seed 7\n"
      "vertices 4\n"
      "directed_edges 6\n"
      "steps 2\n"
      "step 0 pullf hub_split=1 simd=auto active_vertices=4 "
      "active_edges=6 label_changes=3 density=0x1p-1 giant=-0x1p+0 "
      "shiny_attr=9\n"
      "step 1 finish hub_split=1 simd=auto active_vertices=0 "
      "active_edges=0 label_changes=0 density=0x0p+0 giant=0x1.8p-1\n");
  const PlanTrace trace = read_trace(in);
  EXPECT_EQ(trace.planner, "auto");
  EXPECT_EQ(trace.seed, 7u);
  ASSERT_EQ(trace.steps.size(), 2u);
  EXPECT_EQ(trace.steps[0].step.kind, StepKind::kPullFrontier);
  EXPECT_EQ(trace.steps[0].label_changes, 3u);
  EXPECT_EQ(trace.steps[1].step.kind, StepKind::kFinish);
}

TEST(Trace, RejectsMalformedInput) {
  {
    std::istringstream in("not a trace\n");
    EXPECT_THROW((void)read_trace(in), std::runtime_error);
  }
  {
    // Out-of-order step indices.
    std::istringstream in(
        "# thrifty plan trace v1\nsteps 2\n"
        "step 1 pull\nstep 0 pull\n");
    EXPECT_THROW((void)read_trace(in), std::runtime_error);
  }
  {
    // Unknown step kind on a known line is a hard error.
    std::istringstream in("# thrifty plan trace v1\nstep 0 warp\n");
    EXPECT_THROW((void)read_trace(in), std::runtime_error);
  }
}

// The replay acceptance bar: dump a trace, replay it through
// --plan=replay semantics at 1, 2, 4 and 8 threads.  The replay must
// reach the reference partition and run the recorded step kinds: the
// two agree over their common prefix, and any step past the recording
// is the plain-pull fallback.
TEST(Replay, RunsRecordedStepKindsToThePartitionAcrossThreadCounts) {
  const CsrGraph graph = graph_for("permuted_rmat:11");
  const PlanResult recorded =
      solve_with_plan(graph, base_options(), parse_plan_spec("auto"));
  const std::vector<Label> reference = testing::reference_partition(graph);
  ASSERT_TRUE(
      core::same_partition(recorded.result.label_span(), reference));

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      "thrifty_plan_test_replay.trace";
  write_trace_file(path.string(), recorded.trace);
  const PlanSpec replay = parse_plan_spec("replay:" + path.string());

  for (const int threads : {1, 2, 4, 8}) {
    support::ThreadCountGuard guard(threads);
    const PlanResult replayed =
        solve_with_plan(graph, base_options(), replay);
    EXPECT_TRUE(
        core::same_partition(replayed.result.label_span(), reference))
        << "replay diverged at " << threads << " threads";
    ASSERT_FALSE(replayed.trace.steps.empty());
    for (std::size_t i = 0; i < replayed.trace.steps.size(); ++i) {
      const StepKind expected = i < recorded.trace.steps.size()
                                    ? recorded.trace.steps[i].step.kind
                                    : StepKind::kPull;
      EXPECT_EQ(replayed.trace.steps[i].step.kind, expected)
          << "step " << i << " at " << threads << " threads";
    }
  }
  std::filesystem::remove(path);
}

TEST(Replay, TruncatedTraceStillConvergesToReference) {
  const CsrGraph graph = graph_for("two_clique_bridge:4");
  const PlanResult recorded =
      solve_with_plan(graph, base_options(), parse_plan_spec("auto"));
  PlanTrace truncated = recorded.trace;
  ASSERT_GT(truncated.steps.size(), 1u);
  truncated.steps.resize(1);  // exhausting the trace mid-solve

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      "thrifty_plan_test_truncated.trace";
  write_trace_file(path.string(), truncated);
  const PlanResult replayed = solve_with_plan(
      graph, base_options(), parse_plan_spec("replay:" + path.string()));
  EXPECT_TRUE(core::same_partition(replayed.result.label_span(),
                                   testing::reference_partition(graph)));
  std::filesystem::remove(path);
}

// Sampling-then-finish: a giant component must trigger the union-find
// cutover; a graph that is nothing but tiny satellites (the ClueWeb09
// regime) must never trigger it.  The giant is an R-MAT graph rather
// than a hub star, because the Initial Push alone converges a star.
TEST(Cutover, TriggersOnPlantedGiantNeverOnAllSatellites) {
  {
    const CsrGraph giant = graph_for("permuted_rmat:6");
    const PlanResult result =
        solve_with_plan(giant, base_options(), parse_plan_spec("auto"));
    EXPECT_TRUE(has_finish_step(result.trace))
        << "giant component never cut over to the finish";
    EXPECT_TRUE(core::same_partition(result.result.label_span(),
                                     testing::reference_partition(giant)));
  }
  {
    const CsrGraph satellites = graph_for("all_satellites:6");
    const PlanResult result = solve_with_plan(
        satellites, base_options(), parse_plan_spec("auto"));
    EXPECT_FALSE(has_finish_step(result.trace))
        << "cutover fired with no giant component";
    EXPECT_TRUE(
        core::same_partition(result.result.label_span(),
                             testing::reference_partition(satellites)));
  }
}

TEST(Cutover, DisabledByRunConfigKnob) {
  support::RunConfig config = support::run_config();
  config.plan_cutover = 0.0;  // outside (0, 1] disables the cutover
  const support::RunConfigOverride scope(config);
  const CsrGraph giant = graph_for("permuted_rmat:6");
  const PlanResult result =
      solve_with_plan(giant, base_options(), parse_plan_spec("auto"));
  EXPECT_FALSE(has_finish_step(result.trace));
  EXPECT_TRUE(core::same_partition(result.result.label_span(),
                                   testing::reference_partition(giant)));
}

// The sanitizer: a push with no materialised frontier is demoted to the
// frontier-building pull, and the trace records both the request and
// what actually ran.
TEST(Sanitizer, DemotesPushWithoutFrontier) {
  const CsrGraph graph = graph_for("two_clique_bridge:8");
  const PlanResult result = solve_with_plan(
      graph, base_options(), parse_plan_spec("fixed:push"));
  ASSERT_FALSE(result.trace.steps.empty());
  EXPECT_EQ(result.trace.steps[0].requested, StepKind::kPush);
  EXPECT_EQ(result.trace.steps[0].step.kind, StepKind::kPullFrontier);
  // Once a frontier exists the requests run as asked.
  for (std::size_t i = 1; i < result.trace.steps.size(); ++i) {
    EXPECT_EQ(result.trace.steps[i].step.kind, StepKind::kPush);
  }
  EXPECT_TRUE(core::same_partition(result.result.label_span(),
                                   testing::reference_partition(graph)));
}

// The acceptance bar for adversarial plans: a deliberately bad plan
// (push-only on a dense graph, finish-immediately, pull-only) degrades
// performance, never the partition.
TEST(AdversarialPlans, AllConvergeToTheReferencePartition) {
  const std::vector<std::string> plans = {
      "fixed:push", "fixed:pull", "fixed:pullf",
      "fixed:finish", "fixed:pullf,push,finish", "fixed:push*4,pull",
      "fixed:async", "fixed:pullf,async", "fixed:push*2,async"};
  const std::vector<std::string> scenarios = {
      "hub_star:1", "all_satellites:2", "two_clique_bridge:3",
      "permuted_rmat:4", "random:5"};
  for (const std::string& scenario : scenarios) {
    const CsrGraph graph = graph_for(scenario);
    const std::vector<Label> reference =
        testing::reference_partition(graph);
    for (const std::string& plan : plans) {
      const PlanResult result = solve_with_plan(
          graph, base_options(), parse_plan_spec(plan));
      EXPECT_TRUE(
          core::same_partition(result.result.label_span(), reference))
          << plan << " diverged on " << scenario;
    }
  }
}

// In-place pulls carry a label along a whole partition per sweep (the
// Unified Labels Array), where a two-array pull moves it one hop: on a
// 4096-vertex path fixed:pull must converge in far fewer than n / 8
// steps at every thread count.
TEST(Solve, InPlacePullCrossesAPathInFewSweeps) {
  constexpr VertexId kN = 4096;
  graph::EdgeList edges;
  for (VertexId v = 0; v + 1 < kN; ++v) edges.push_back({v, v + 1});
  const CsrGraph path = graph_from_edges(edges, kN);
  const std::vector<Label> reference = testing::reference_partition(path);
  for (const int threads : {1, 2, 4, 8}) {
    support::ThreadCountGuard guard(threads);
    const PlanResult result =
        solve_with_plan(path, base_options(), parse_plan_spec("fixed:pull"));
    EXPECT_LT(result.trace.steps.size(), std::size_t{kN / 8})
        << "at " << threads << " threads";
    EXPECT_TRUE(
        core::same_partition(result.result.label_span(), reference));
  }
}

TEST(Solve, HandlesEmptyGraph) {
  const CsrGraph empty = graph_from_edges({}, 0);
  const PlanResult result =
      solve_with_plan(empty, base_options(), parse_plan_spec("auto"));
  EXPECT_TRUE(result.trace.steps.empty());
  EXPECT_EQ(result.result.label_span().size(), 0u);
}

// Fuzz: 100 random fixed plans over random scenarios, each held to the
// union-find reference; a failure is ddmin-shrunk to a minimal witness
// before being reported.
TEST(Fuzz, RandomFixedPlansMatchReference) {
  constexpr const char* kKinds[] = {"pull", "pullf", "push", "finish",
                                    "async"};
  support::Xoshiro256StarStar rng(0x91a2f3u);
  for (int round = 0; round < 100; ++round) {
    std::string spec_text = "fixed:";
    const std::uint64_t length = 1 + rng.next_below(4);
    for (std::uint64_t i = 0; i < length; ++i) {
      if (i > 0) spec_text += ',';
      spec_text += kKinds[rng.next_below(5)];
      if (rng.next_below(4) == 0) {
        spec_text += '*';
        spec_text += std::to_string(1 + rng.next_below(3));
      }
    }
    const PlanSpec spec = parse_plan_spec(spec_text);
    const testing::Scenario scenario = testing::make_random(
        0x9000 + static_cast<std::uint64_t>(round));
    const CsrGraph graph = testing::build_scenario_graph(scenario);
    const PlanResult result =
        solve_with_plan(graph, base_options(), spec);
    if (core::same_partition(result.result.label_span(),
                             testing::reference_partition(graph))) {
      continue;
    }
    // Shrink before reporting: the minimal witness is what goes into a
    // bug report, not the 10k-edge random composition.
    const testing::FailurePredicate fails =
        [&](const graph::EdgeList& edges, VertexId num_vertices) {
          const CsrGraph candidate = graph_from_edges(edges, num_vertices);
          const PlanResult rerun =
              solve_with_plan(candidate, base_options(), spec);
          return !core::same_partition(
              rerun.result.label_span(),
              testing::reference_partition(candidate));
        };
    const testing::MinimizeResult minimized = testing::minimize_failure(
        scenario.edges, scenario.num_vertices, fails, 2000);
    std::ostringstream witness;
    for (const graph::Edge& e : minimized.edges) {
      witness << e.u << "-" << e.v << " ";
    }
    ADD_FAILURE() << "plan " << spec_text << " diverged on "
                  << scenario.spec << "; minimized to "
                  << minimized.num_vertices << " vertices, edges: "
                  << witness.str();
    return;  // one shrunk witness is enough signal per run
  }
}

}  // namespace
}  // namespace thrifty::plan

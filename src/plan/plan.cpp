#include "plan/plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace thrifty::plan {

const char* to_string(StepKind kind) {
  switch (kind) {
    case StepKind::kPull:
      return "pull";
    case StepKind::kPullFrontier:
      return "pullf";
    case StepKind::kPush:
      return "push";
    case StepKind::kFinish:
      return "finish";
    case StepKind::kAsync:
      return "async";
  }
  return "unknown";
}

std::optional<StepKind> parse_step_kind(std::string_view text) {
  if (text == "pull") return StepKind::kPull;
  if (text == "pullf") return StepKind::kPullFrontier;
  if (text == "push") return StepKind::kPush;
  if (text == "finish") return StepKind::kFinish;
  if (text == "async") return StepKind::kAsync;
  return std::nullopt;
}

AdaptivePlanner::AdaptivePlanner(const PlanOptions& options)
    : options_(options) {}

PlanStep AdaptivePlanner::next(const Observation& observation) {
  PlanStep step;

  // Sampling-then-finish: once the sampled giant component covers the
  // cutover fraction, one union-find pass over the remaining edges beats
  // any number of further sweeps.  giant_fraction is negative until the
  // executor has a sweep's worth of labels to sample, so the cutover
  // can never fire before iteration 1.
  const bool cutover_enabled =
      options_.finish_cutover > 0.0 && options_.finish_cutover <= 1.0;
  if (cutover_enabled &&
      observation.giant_fraction >= options_.finish_cutover) {
    step.kind = StepKind::kFinish;
    return step;
  }

  // Direction optimisation on the Thrifty density rule: sparse frontiers
  // push, dense ones pull.  A push the frontier cannot carry yet runs as
  // the frontier-building pull that makes the next push legal.
  if (frontier::is_sparse(observation.density, options_.density_threshold)) {
    step.kind = observation.have_frontier ? StepKind::kPush
                                          : StepKind::kPullFrontier;
  } else {
    // Dense phase: plain pulls are cheapest, but keep the frontier
    // materialised while the trajectory is near the switch point so a
    // push is executable the moment the frontier thins out.
    const bool mid_density =
        observation.density < 4.0 * options_.density_threshold;
    step.kind = mid_density ? StepKind::kPullFrontier : StepKind::kPull;
  }
  return step;
}

FixedPlanner::FixedPlanner(std::vector<PlanStep> steps)
    : steps_(std::move(steps)) {
  if (steps_.empty()) {
    throw std::runtime_error("fixed plan must have at least one step");
  }
}

PlanStep FixedPlanner::next(const Observation&) {
  const PlanStep step = steps_[cursor_];
  if (cursor_ + 1 < steps_.size()) ++cursor_;
  return step;
}

namespace {

constexpr std::size_t kMaxFixedSteps = std::size_t{1} << 20;

}  // namespace

PlanSpec parse_plan_spec(const std::string& text) {
  PlanSpec spec;
  spec.text = text.empty() ? "auto" : text;
  if (text.empty() || text == "auto") {
    spec.mode = PlanSpec::Mode::kAuto;
    return spec;
  }
  if (text.rfind("replay:", 0) == 0) {
    spec.mode = PlanSpec::Mode::kReplay;
    spec.replay_path = text.substr(7);
    if (spec.replay_path.empty()) {
      throw std::runtime_error("plan spec 'replay:' needs a trace file path");
    }
    return spec;
  }
  if (text.rfind("fixed:", 0) != 0) {
    throw std::runtime_error(
        "bad plan spec '" + text +
        "' (expected auto, fixed:<spec>, or replay:<file>)");
  }
  spec.mode = PlanSpec::Mode::kFixed;
  const std::string body = text.substr(6);
  if (body.empty()) {
    throw std::runtime_error("plan spec 'fixed:' needs at least one step");
  }
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t comma = body.find(',', start);
    if (comma == std::string::npos) comma = body.size();
    std::string item = body.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) {
      throw std::runtime_error("plan spec '" + text + "' has an empty step");
    }
    std::uint64_t repeat = 1;
    const std::size_t star = item.find('*');
    if (star != std::string::npos) {
      const std::string count = item.substr(star + 1);
      item = item.substr(0, star);
      std::size_t consumed = 0;
      long long parsed = 0;
      try {
        parsed = std::stoll(count, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != count.size() || parsed <= 0) {
        throw std::runtime_error("plan spec '" + text +
                                 "' has a bad repeat count '" + count + "'");
      }
      repeat = static_cast<std::uint64_t>(parsed);
    }
    const auto kind = parse_step_kind(item);
    if (!kind) {
      throw std::runtime_error("plan spec '" + text +
                               "' has unknown step kind '" + item + "'");
    }
    // A plan is consumed one step per iteration, so nothing past 2^20
    // steps can ever execute: cap the whole expansion, not each item, so
    // a long list of huge repeats stays small in memory too.
    repeat = std::min<std::uint64_t>(repeat,
                                     kMaxFixedSteps - spec.fixed_steps.size());
    spec.fixed_steps.insert(spec.fixed_steps.end(), repeat,
                            PlanStep{*kind});
  }
  return spec;
}

}  // namespace thrifty::plan

// Internals shared by the label-propagation policies (DO-LP, DO-LP+Unified,
// Thrifty and its seeded finish): the per-iteration record keeping and the
// instrumented run's reference pass.  Not part of the public API.
#pragma once

#include <span>
#include <type_traits>

#include "core/cc_common.hpp"
#include "graph/types.hpp"
#include "instrument/counters.hpp"
#include "instrument/run_stats.hpp"
#include "support/timer.hpp"

namespace thrifty::core::detail {

/// Banks one IterationRecord per iteration: its time and, in instrumented
/// runs, the edges it processed and (given the final labels) how many
/// vertices already hold their final label (Figures 3, 7, 8).
template <typename Counters>
class IterationLog {
 public:
  IterationLog(CcResult& result, const Counters& counters,
               std::span<const graph::Label> final_labels)
      : result_(result), counters_(counters), final_labels_(final_labels) {}

  /// Marks the start of an iteration.
  void start() {
    before_ = counters_.total();
    timer_.restart();
  }

  /// Completes `rec` and appends it to the result's iteration list.
  void bank(instrument::IterationRecord& rec) {
    rec.time_ms = timer_.elapsed_ms();
    if constexpr (Counters::kEnabled) {
      rec.edges_processed =
          counters_.total().edges_processed - before_.edges_processed;
      if (!final_labels_.empty()) {
        rec.converged_vertices =
            count_equal_labels(result_.label_span(), final_labels_);
      }
    }
    result_.stats.iterations.push_back(rec);
  }

 private:
  CcResult& result_;
  const Counters& counters_;
  std::span<const graph::Label> final_labels_;
  instrument::EventCounters before_;
  support::Timer timer_;
};

/// Runs `run(std::type_identity<Counters>, options, final_labels)` with
/// NullCounters, or — when options.instrument is set — first plainly, to
/// learn the final labels, and then with ActiveCounters against them, so
/// every iteration record can count its converged vertices.
template <typename Run>
CcResult run_with_reference(const CcOptions& options, const Run& run) {
  if (!options.instrument) {
    return run(std::type_identity<instrument::NullCounters>{}, options,
               std::span<const graph::Label>{});
  }
  CcOptions plain = options;
  plain.instrument = false;
  const CcResult reference =
      run(std::type_identity<instrument::NullCounters>{}, plain,
          std::span<const graph::Label>{});
  return run(std::type_identity<instrument::ActiveCounters>{}, options,
             reference.label_span());
}

}  // namespace thrifty::core::detail

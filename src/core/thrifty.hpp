// Thrifty Label Propagation — Algorithm 2 of the paper, the primary
// contribution: direction-optimising label propagation specialised for
// skewed-degree graphs through four techniques:
//
//   1. Unified Labels Array (§IV-A) — one label array; updates propagate
//      within the iteration that computes them.
//   2. Zero Convergence (§IV-B) — label 0 is the global minimum, so any
//      vertex holding it has converged: skip it, and cut neighbour scans
//      short the moment a 0 is seen.
//   3. Zero Planting (§IV-C) — initial labels are v+1, and label 0 is
//      planted on the maximum-degree vertex, which almost surely lies in
//      (and is central to) the giant component.
//   4. Initial Push (§IV-D) — iteration 0 pushes the zero label from the
//      planted hub to its neighbours only, instead of a full pull pass.
//
// Implementation details follow §IV-E: 1% push/pull threshold, count-only
// pull frontiers with a detailed Pull-Frontier iteration just before
// switching to push, and per-thread push worklists with non-atomic
// byte-array duplicate suppression and work stealing.
#pragma once

#include <string>

#include "core/cc_common.hpp"

namespace thrifty::core {

[[nodiscard]] CcResult thrifty_cc(const graph::CsrGraph& graph,
                                  const CcOptions& options = {});

/// Where Zero Planting places the zero label.  kMaxDegree is the paper's
/// heuristic; the alternatives exist for the per-technique ablation study
/// (a random site models the "uniformly at random" baseline of §IV-B, a
/// fixed first-vertex site models structure-oblivious planting).
enum class PlantSite { kMaxDegree, kRandom, kFirstVertex };

/// Per-technique toggles for ablation experiments.  Defaults reproduce
/// full Thrifty; switching a flag off removes exactly one §IV technique
/// while keeping the rest of the machinery identical.
struct ThriftyVariant {
  PlantSite plant_site = PlantSite::kMaxDegree;
  /// Off: iteration 0 is skipped and the run starts with pull iterations
  /// over all vertices (DO-LP-style eager bootstrap).
  bool initial_push = true;
  /// Off: no converged-vertex skipping and no early scan exit.
  bool zero_convergence = true;
  /// Multi-site planting (extension beyond the paper): the top-k
  /// highest-degree vertices receive labels 0..k-1 and all of them seed
  /// the Initial Push; other vertices start at v+k.  Labels stay
  /// distinct, so correctness is untouched, while graphs with several
  /// large components (e.g. two giants) converge each around its own
  /// hub.  Zero Convergence still keys on label 0 only — the global
  /// minimum is the only provably-final value.  k = 1 is the paper's
  /// algorithm.  Only meaningful with plant_site == kMaxDegree.
  int plant_count = 1;

  [[nodiscard]] std::string describe() const;
};

/// Thrifty with selected techniques disabled — the ablation entry point.
/// `thrifty_cc(g, o)` is exactly `thrifty_cc_variant(g, o, {})`.
[[nodiscard]] CcResult thrifty_cc_variant(const graph::CsrGraph& graph,
                                          const CcOptions& options,
                                          const ThriftyVariant& variant);

/// Thrifty's direction loop (Algorithm 2, Lines 14-37, with Zero
/// Convergence) run from labels the caller has seeded in `result.labels`
/// — the finish of a sampling-then-finish composition.  Precondition, the
/// kernel invariant: 0 appears in one component only, and any other
/// label on a vertex is u + 1 for some vertex u of the same component.
/// Every vertex starts active, as without Initial Push.  Fills the
/// iteration records, num_iterations, events and instrumented of
/// result.stats.  Defined for instrument::NullCounters and
/// instrument::ActiveCounters.
template <typename Counters>
void thrifty_finish(const graph::CsrGraph& graph, const CcOptions& options,
                    CcResult& result);

}  // namespace thrifty::core

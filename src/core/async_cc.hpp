// Barrier-free asynchronous label propagation.
//
// Every other solver in this library is bulk-synchronous: an iteration
// ends at a global barrier even when one straggler partition holds all
// the remaining work, so per-round tail latency is set by the slowest
// partition.  This engine drops the barrier entirely: edge-balanced
// partitions (partition/edge_partitioner.hpp) propagate labels through
// one shared label array with relaxed loads and CAS-min publishes, and
// a partition re-enters the work pool only when a neighbour published a
// smaller label into its range (per-partition dirty flags).  Global
// termination is detected by a two-phase quiescence counter
// (support/quiescence.hpp) — no barrier, no ping-pong arrays.
//
// Correctness rests on the monotone-decreasing contract of
// cc_baselines/concurrent_hook.hpp: labels start at the identity and
// only ever decrease toward the component minimum, so a stale read can
// only delay convergence, never corrupt it, and the fixed point —
// every vertex labelled with its component's minimum id — is unique
// regardless of schedule.  The interior (publish order, activation
// counts) is nondeterministic; the resulting partition is not.
#pragma once

#include <cstdint>

#include "core/cc_common.hpp"
#include "graph/csr_graph.hpp"

namespace thrifty::core {

/// Schedule-dependent counters from one async run.  Reported for traces
/// and benches; never part of any correctness contract.
struct AsyncStats {
  /// Successful CAS-min publishes into a neighbour's label slot.
  std::uint64_t publishes = 0;
  /// Partition activations drained from the dirty pool.
  std::uint64_t activations = 0;
};

/// Runs barrier-free min-label propagation in place over `labels`
/// (graph.num_vertices() entries) until global quiescence.  Labels need
/// not be vertex ids; they must be component-disjoint: no value held in
/// one component occurs in another (the identity initialisation, Zero
/// Planting's v + 1 with 0 on one site, and every kernel of
/// core/lp_kernels.hpp preserve this).  On return every vertex holds its
/// component's smallest initial label.
AsyncStats async_propagate(const graph::CsrGraph& graph,
                           graph::Label* labels, const CcOptions& options);

/// CcFunction entry: identity initialisation + async_propagate.
[[nodiscard]] CcResult async_cc(const graph::CsrGraph& graph,
                                const CcOptions& options);

}  // namespace thrifty::core

#include "core/dolp.hpp"

#include <algorithm>
#include <span>

#include "core/lp_internal.hpp"
#include "core/lp_kernels.hpp"
#include "frontier/bitmap.hpp"
#include "frontier/density.hpp"
#include "frontier/hub_chunks.hpp"
#include "frontier/sliding_queue.hpp"
#include "instrument/counters.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/prefetch.hpp"
#include "support/simd.hpp"
#include "support/timer.hpp"

namespace thrifty::core {

using graph::CsrGraph;
using graph::EdgeOffset;
using graph::Label;
using graph::VertexId;
using instrument::Direction;
using instrument::IterationRecord;

namespace {

/// Algorithm 1 as the paper states it, templated on the counter policy:
/// old and new label arrays, synchronised after every iteration.
template <typename Counters>
CcResult dolp_impl(const CsrGraph& g, const CcOptions& options,
                   std::span<const Label> final_labels) {
  const VertexId n = g.num_vertices();
  const EdgeOffset m = g.num_directed_edges();

  CcResult result;
  result.stats.algorithm = "dolp";
  result.stats.instrumented = Counters::kEnabled;
  result.labels = make_label_array(n);
  if (n == 0) return result;

  LabelArray& new_lbs = result.labels;
  LabelArray old_lbs = make_label_array(n);

  Counters counters;
  support::Timer total_timer;
  detail::IterationLog<Counters> log(result, counters, final_labels);

  // Initial label assignment (Lines 2-4): every vertex labelled by its own
  // id, and every vertex active.
#pragma omp parallel for schedule(static)
  for (VertexId v = 0; v < n; ++v) {
    new_lbs[v] = v;
    old_lbs[v] = v;
  }

  // Frontier bookkeeping: a bitmap deduplicates push insertions within an
  // iteration; two sliding queues ping-pong between "current window" and
  // "next frontier" roles via swap(), so no iteration pays a serial
  // O(frontier) copy into a separate actives vector.
  frontier::Bitmap inserted(n);
  frontier::SlidingQueue queue(n);    // collects the next frontier
  frontier::SlidingQueue actives(n);  // window consumed by push iterations

  const EdgeOffset hub_threshold =
      frontier::hub_split_threshold(m, support::num_threads());
  const auto degree_of = [&g](VertexId v) { return g.degree(v); };
  // Kernel level for the dense pull sweeps (see thrifty.cpp).
  const support::SimdLevel simd_level =
      support::simd::gather_level(support::simd::effective_level(), n);

  std::uint64_t active_vertices = n;
  std::uint64_t active_edges = m;
  bool first_iteration = true;
  int iteration = 0;

  while (active_vertices > 0) {
    IterationRecord rec;
    rec.index = iteration;
    rec.active_vertices = active_vertices;
    rec.density =
        frontier::frontier_density(active_vertices, active_edges, m);
    log.start();

    std::uint64_t changes = 0;
    std::uint64_t changed_edges = 0;
    inserted.clear();
    queue.reset();

    const bool sparse =
        !first_iteration &&
        frontier::is_sparse(rec.density, options.density_threshold);

    if (sparse) {
      // Push traversal (Lines 9-12): propagate each active vertex's label
      // to its neighbours with atomic_min.  Hubs — vertices whose degree
      // exceeds hub_threshold — are stashed during the vertex-parallel
      // sweep and re-traversed edge-parallel afterwards, so one
      // high-degree vertex cannot serialise the iteration.
      rec.direction = Direction::kPush;
      const auto window = actives.window();
      frontier::HubChunks hubs(support::num_threads());
#pragma omp parallel reduction(+ : changes, changed_edges)
      {
        const int t = support::thread_id();
        frontier::SlidingQueue::LocalBuffer buffer(queue);
        const auto push_label_along = [&](Label lv,
                                          std::span<const VertexId> nbrs) {
          for (std::size_t j = 0; j < nbrs.size(); ++j) {
            if (j + support::kPrefetchDistance < nbrs.size()) {
              support::prefetch_write(
                  &new_lbs[nbrs[j + support::kPrefetchDistance]]);
            }
            const VertexId u = nbrs[j];
            counters.edge();
            counters.cas_attempt();
            if (atomic_min(new_lbs[u], lv)) {
              counters.cas_success();
              counters.label_write();
              if (inserted.set_atomic(u)) {
                counters.frontier_push();
                buffer.push_back(u);
                ++changes;
                changed_edges += g.degree(u);
              }
            }
          }
        };
#pragma omp for schedule(dynamic, 64)
        for (std::size_t i = 0; i < window.size(); ++i) {
          const VertexId v = window[i];
          if (g.degree(v) > hub_threshold) {
            hubs.collect(t, v);
            continue;
          }
          counters.label_read();
          push_label_along(old_lbs[v], g.neighbors(v));
        }
        // The worksharing barrier above guarantees every hub is collected
        // before one thread builds the chunk index.
#pragma omp single
        hubs.finalize(degree_of);
        hubs.drain(t, degree_of,
                   [&](int, VertexId v, EdgeOffset begin, EdgeOffset end) {
                     counters.label_read();
                     push_label_along(
                         old_lbs[v],
                         g.neighbors(v).subspan(begin, end - begin));
                   });
      }
    } else {
      // Pull traversal (Lines 13-20): every vertex recomputes its label as
      // the minimum over itself and its neighbours, ignoring the frontier.
      rec.direction = Direction::kPull;
#pragma omp parallel reduction(+ : changes, changed_edges)
      {
        frontier::SlidingQueue::LocalBuffer buffer(queue);
#pragma omp for schedule(dynamic, 256) nowait
        for (VertexId v = 0; v < n; ++v) {
          counters.label_read();
          const Label old_label = old_lbs[v];
          Label new_label = old_label;
          const auto nbrs = g.neighbors(v);
          if constexpr (!Counters::kEnabled) {
            // Vectorized gather–min over the neighbour labels; DO-LP
            // has no zero-convergence exit, so the scan always reads
            // the full adjacency slice.
            new_label = support::simd::min_gather_u32(
                old_lbs.data(), nbrs.data(), nbrs.size(), old_label,
                /*stop_at_zero=*/false, simd_level);
          } else {
            for (std::size_t j = 0; j < nbrs.size(); ++j) {
              if (j + support::kPrefetchDistance < nbrs.size()) {
                support::prefetch_read(
                    &old_lbs[nbrs[j + support::kPrefetchDistance]]);
              }
              const VertexId u = nbrs[j];
              counters.edge();
              counters.label_read();
              const Label lu = old_lbs[u];
              if (lu < new_label) new_label = lu;
            }
          }
          if (new_label < old_label) {
            counters.label_write();
            new_lbs[v] = new_label;
            counters.frontier_push();
            buffer.push_back(v);
            ++changes;
            changed_edges += g.degree(v);
          }
        }
      }
    }

    // Label array synchronisation (Lines 21-22) — removed by the Unified
    // Labels Array optimisation.  Runs as a parallel SIMD copy sweep.
    counters.label_read(n);
    counters.label_write(n);
    copy_labels({new_lbs.data(), new_lbs.size()},
                {old_lbs.data(), old_lbs.size()});

    queue.slide_window();
    actives.swap(queue);  // new frontier becomes next iteration's window

    rec.label_changes = changes;
    log.bank(rec);

    active_vertices = changes;
    active_edges = changed_edges;
    first_iteration = false;
    ++iteration;
  }

  result.stats.total_ms = total_timer.elapsed_ms();
  result.stats.num_iterations = iteration;
  result.stats.events = counters.total();
  return result;
}

/// DO-LP+Unified (§V-D) as a policy over the kernel layer: Algorithm 1
/// with only the Unified Labels Array applied.  The kernels are planted
/// with no sites, so labels start at v, and Zero Convergence is compiled
/// out.  Every pull builds the frontier, as Algorithm 1's pulls do, and a
/// sparse frontier is pushed.
template <typename Counters>
CcResult dolp_unified_impl(const CsrGraph& g, const CcOptions& options,
                           std::span<const Label> final_labels) {
  const VertexId n = g.num_vertices();
  const EdgeOffset m = g.num_directed_edges();

  CcResult result;
  result.stats.algorithm = "dolp_unified";
  result.stats.instrumented = Counters::kEnabled;
  result.labels = make_label_array(n);
  if (n == 0) return result;

  Counters counters;
  support::Timer total_timer;
  LpKernels<Counters, /*kZeroConv=*/false> kernels(
      g, result.labels, options.partitions_per_thread, counters);
  detail::IterationLog<Counters> log(result, counters, final_labels);
  kernels.plant({});

  frontier::LocalWorklists::Mass active{n, m};
  int iteration = 0;
  while (active.vertices > 0) {
    IterationRecord rec;
    rec.index = iteration;
    rec.active_vertices = active.vertices;
    rec.density =
        frontier::frontier_density(active.vertices, active.edges, m);
    log.start();
    if (frontier::is_sparse(rec.density, options.density_threshold) &&
        kernels.push_ready()) {
      rec.direction = Direction::kPush;
      active = kernels.push();
    } else {
      rec.direction = Direction::kPull;
      active = kernels.pull(/*build_frontier=*/true);
    }
    rec.label_changes = active.vertices;
    log.bank(rec);
    ++iteration;
  }

  result.stats.total_ms = total_timer.elapsed_ms();
  result.stats.num_iterations = iteration;
  result.stats.events = counters.total();
  return result;
}

}  // namespace

CcResult dolp_cc(const CsrGraph& graph, const CcOptions& options) {
  return detail::run_with_reference(
      options, [&](auto counters, const CcOptions& run_options,
                   std::span<const Label> final_labels) {
        using Counters = typename decltype(counters)::type;
        return dolp_impl<Counters>(graph, run_options, final_labels);
      });
}

CcResult dolp_unified_cc(const CsrGraph& graph, const CcOptions& options) {
  return detail::run_with_reference(
      options, [&](auto counters, const CcOptions& run_options,
                   std::span<const Label> final_labels) {
        using Counters = typename decltype(counters)::type;
        return dolp_unified_impl<Counters>(graph, run_options,
                                           final_labels);
      });
}

CcResult lp_pull_cc(const CsrGraph& graph, const CcOptions& options) {
  const VertexId n = graph.num_vertices();
  CcResult result;
  result.stats.algorithm = "lp_pull";
  result.labels = make_label_array(n);
  if (n == 0) return result;
  LabelArray& labels = result.labels;
  support::Timer total_timer;
#pragma omp parallel for schedule(static)
  for (VertexId v = 0; v < n; ++v) labels[v] = v;

  bool changed = true;
  int iteration = 0;
  while (changed) {
    std::uint64_t changes = 0;
#pragma omp parallel for schedule(dynamic, 256) reduction(+ : changes)
    for (VertexId v = 0; v < n; ++v) {
      Label new_label = load_label(labels[v]);
      for (const VertexId u : graph.neighbors(v)) {
        const Label lu = load_label(labels[u]);
        if (lu < new_label) new_label = lu;
      }
      if (new_label < load_label(labels[v])) {
        store_label(labels[v], new_label);
        ++changes;
      }
    }
    IterationRecord rec;
    rec.index = iteration;
    rec.direction = Direction::kPull;
    rec.label_changes = changes;
    result.stats.iterations.push_back(rec);
    changed = changes > 0;
    ++iteration;
  }
  result.stats.total_ms = total_timer.elapsed_ms();
  result.stats.num_iterations = iteration;
  (void)options;
  return result;
}

}  // namespace thrifty::core

// The label-propagation kernel layer over the paper's Unified Labels
// Array (§IV-A): one in-place label array that every kernel reads and
// lowers, so an update propagates within the iteration that computes it.
//
// Four policies run over this one layer: Thrifty and its seeded finish
// for Sampled+LP (core/thrifty.cpp), DO-LP+Unified (core/dolp.cpp) and
// the plan executor (plan/solve.cpp).  They decide which kernel runs
// next and record what happened; the kernels own the label array's
// frontier and the invariant that makes a push correct.  The kernels
// are:
//
//   * plant        — Zero Planting (§IV-C): labels start at v + k and the
//                    k plant sites take 0..k-1;
//   * initial_push — Initial Push (§IV-D): the plant labels travel to the
//                    sites' neighbours only, materialising the frontier;
//   * pull         — the partition-scheduled in-place pull (§V-A) with
//                    Zero Convergence (§IV-B), optionally building the
//                    detailed frontier (the Pull-Frontier of §IV-E);
//   * push         — the worklist push over the frontier with work
//                    stealing and edge-parallel hub chunks (§IV-E);
//   * hook_finish  — a union-find finish in label space (ConnectIt's
//                    sampling-then-finish), terminal and exact.
//
// Labels are monotone: each only decreases, and every value held in a
// component is 0 (planted there) or u + k for a vertex u of that
// component.  Label sets of different components are therefore
// disjoint, which is all any kernel order needs to converge to the
// right partition.  The interior of an in-place sweep is schedule-
// dependent; the final partition is not.
//
// Templated on the counter policy and on whether Zero Convergence is
// compiled in, so an uninstrumented Thrifty compiles to the same loops
// it always ran.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>

#include "core/cc_common.hpp"
#include "frontier/hub_chunks.hpp"
#include "frontier/local_worklists.hpp"
#include "partition/scheduler.hpp"
#include "support/parallel.hpp"
#include "support/prefetch.hpp"
#include "support/simd.hpp"

namespace thrifty::core {

template <typename Counters, bool kZeroConv>
class LpKernels {
 public:
  /// Frontier mass a kernel leaves behind: the vertices it changed and
  /// their combined degree — the |F.V| and |F.E| of the next direction
  /// decision.
  using Mass = frontier::LocalWorklists::Mass;

  LpKernels(const graph::CsrGraph& graph, LabelArray& labels,
            int partitions_per_thread, Counters& counters)
      : g_(graph),
        labels_(labels),
        counters_(counters),
        // Kernel instruction-set level for the dense pull sweeps,
        // resolved once per solve (THRIFTY_SIMD clamped to host support,
        // scalar for id spaces beyond the 32-bit gather range).
        simd_level_(support::simd::gather_level(
            support::simd::effective_level(), graph.num_vertices())),
        current_(graph.num_vertices(), support::num_threads()),
        next_(graph.num_vertices(), support::num_threads()),
        scheduler_(graph, partitions_per_thread),
        // Frontier vertices above this degree are traversed edge-parallel
        // during push so one hub cannot serialise an iteration.
        hub_threshold_(frontier::hub_split_threshold(
            graph.num_directed_edges(), support::num_threads())) {}

  /// Whether push() is correct now.  A push-only schedule is correct only
  /// once every vertex has examined all of its edges at least once
  /// (otherwise a component the plant labels never reach would keep its
  /// distinct labels), so a frontier alone is not enough: one full pull
  /// must have run.
  [[nodiscard]] bool push_ready() const {
    return have_frontier_ && full_pull_done_;
  }

  /// Zero Planting (Lines 3-9): labels start at v + k; the k smallest
  /// labels go to `sites`, in order.
  void plant(std::span<const graph::VertexId> sites) {
    LabelArray& labels = labels_;
    const graph::VertexId n = g_.num_vertices();
    const auto k = static_cast<graph::Label>(sites.size());
#pragma omp parallel for schedule(static)
    for (graph::VertexId v = 0; v < n; ++v) {
      labels[v] = v + k;
    }
    for (std::size_t i = 0; i < sites.size(); ++i) {
      labels[sites[i]] = static_cast<graph::Label>(i);
    }
  }

  /// Initial Push (Lines 11-12): one push traversal of each plant label
  /// from its site to the site's neighbours — the only edges processed
  /// in iteration 0.  Leaves the changed neighbours as the frontier.
  Mass initial_push(std::span<const graph::VertexId> sites) {
    const graph::CsrGraph& g = g_;
    LabelArray& labels = labels_;
    Counters& counters = counters_;
    frontier::LocalWorklists& next = next_;
    for (std::size_t seed_index = 0; seed_index < sites.size();
         ++seed_index) {
      const auto seed_label = static_cast<graph::Label>(seed_index);
      const auto seed_neighbors = g.neighbors(sites[seed_index]);
#pragma omp parallel
      {
        const int t = omp_get_thread_num();
#pragma omp for schedule(static) nowait
        for (std::size_t i = 0; i < seed_neighbors.size(); ++i) {
          if (i + support::kPrefetchDistance < seed_neighbors.size()) {
            support::prefetch_write(
                &labels[seed_neighbors[i + support::kPrefetchDistance]]);
          }
          const graph::VertexId u = seed_neighbors[i];
          counters.edge();
          counters.cas_attempt();
          if (atomic_min(labels[u], seed_label)) {
            counters.cas_success();
            counters.label_write();
            if (next.push(t, u, g.degree(u))) counters.frontier_push();
          }
        }
      }
    }
    return advance_frontier();
  }

  /// Pull traversal (Lines 19-34) with Zero Convergence, run over the
  /// edge-balanced partitions with the paper's work-stealing schedule
  /// (§V-A).  A plain pull keeps only the change counts (§IV-E's
  /// count-only frontier); with `build_frontier` it also materialises the
  /// detailed frontier a following push consumes.
  Mass pull(bool build_frontier) {
    const graph::CsrGraph& g = g_;
    LabelArray& labels = labels_;
    Counters& counters = counters_;
    frontier::LocalWorklists& next = next_;
    const support::SimdLevel simd_level = simd_level_;
    std::atomic<std::uint64_t> changes_atomic{0};
    std::atomic<std::uint64_t> changed_edges_atomic{0};
    scheduler_.for_each_partition(
        [&](int t, const partition::VertexRange& range) {
          std::uint64_t local_changes = 0;
          std::uint64_t local_edges = 0;
          for (graph::VertexId v = range.begin; v < range.end; ++v) {
            counters.label_read();
            const graph::Label lv = load_label(labels[v]);
            if (kZeroConv && lv == 0) {  // Zero Convergence
              counters.skipped_converged_vertex();
              continue;
            }
            graph::Label new_label = lv;
            const auto nbrs = g.neighbors(v);
            if constexpr (!Counters::kEnabled) {
              // Vectorized gather–min scan (lane-wise min over the
              // neighbour labels, zero-convergence early exit per
              // chunk).  Bit-identical to the counted loop below.
              new_label = support::simd::min_gather_u32(
                  labels.data(), nbrs.data(), nbrs.size(), lv, kZeroConv,
                  simd_level);
            } else {
              // Instrumented runs keep the scalar loop: the per-edge
              // event counters observe every neighbour access.
              for (std::size_t i = 0; i < nbrs.size(); ++i) {
                if (i + support::kPrefetchDistance < nbrs.size()) {
                  support::prefetch_read(
                      &labels[nbrs[i + support::kPrefetchDistance]]);
                }
                const graph::VertexId u = nbrs[i];
                counters.edge();
                counters.label_read();
                const graph::Label lu = load_label(labels[u]);
                if (lu < new_label) {
                  new_label = lu;
                  if (kZeroConv && new_label == 0) {  // stop the scan
                    counters.early_exit();
                    break;
                  }
                }
              }
            }
            if (new_label < lv) {
              counters.label_write();
              store_label(labels[v], new_label);
              ++local_changes;
              local_edges += g.degree(v);
              if (build_frontier) {
                if (next.push(t, v, g.degree(v))) {
                  counters.frontier_push();
                }
              }
            }
          }
          changes_atomic.fetch_add(local_changes, std::memory_order_relaxed);
          changed_edges_atomic.fetch_add(local_edges,
                                         std::memory_order_relaxed);
        });
    full_pull_done_ = true;
    const Mass changed{changes_atomic.load(), changed_edges_atomic.load()};
    if (build_frontier) {
      advance_frontier();
    } else {
      drop_frontier();
    }
    return changed;
  }

  /// Push traversal over the detailed frontier, consumed with the paper's
  /// per-thread worklists + work stealing.  Hub adjacency lists are split
  /// into edge-parallel chunks; all other vertices take the
  /// one-thread-per-vertex fast path.  Requires push_ready().  An empty
  /// result is a fixed point: every vertex able to lower a neighbour was
  /// in the frontier.
  Mass push() {
    const graph::CsrGraph& g = g_;
    LabelArray& labels = labels_;
    Counters& counters = counters_;
    frontier::LocalWorklists& next = next_;
    const auto push_label_along = [&](int t, graph::Label lv,
                                      std::span<const graph::VertexId> nbrs) {
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (i + support::kPrefetchDistance < nbrs.size()) {
          support::prefetch_write(
              &labels[nbrs[i + support::kPrefetchDistance]]);
        }
        const graph::VertexId u = nbrs[i];
        counters.edge();
        counters.cas_attempt();
        if (atomic_min(labels[u], lv)) {
          counters.cas_success();
          counters.label_write();
          if (next.push(t, u, g.degree(u))) {
            counters.frontier_push();
          }
        }
      }
    };
    current_.process_with_stealing_split(
        hub_threshold_, [&g](graph::VertexId v) { return g.degree(v); },
        [&](int t, graph::VertexId v) {
          counters.label_read();
          push_label_along(t, load_label(labels[v]), g.neighbors(v));
        },
        [&](int t, graph::VertexId v, graph::EdgeOffset begin,
            graph::EdgeOffset end) {
          counters.label_read();
          push_label_along(t, load_label(labels[v]),
                           g.neighbors(v).subspan(begin, end - begin));
        });
    return advance_frontier();
  }

  /// Union-find finish (terminal, exact) over labels planted at a single
  /// site.  The forest lives in label space, because a planted label is
  /// not a vertex id: label L >= 1 is the node of vertex L - 1, whose
  /// slot holds the node's parent, and label 0 is a root.  Labels only
  /// ever decreased from v + 1, so the slots already form a forest of
  /// same-component nodes; hooking every edge and compressing lands each
  /// vertex on its component's smallest label.  Vertices labelled 0 are
  /// skipped: their node hangs off root 0, and each of their edges is
  /// hooked from its other endpoint unless that one is labelled 0 too.
  void hook_finish() {
    drop_frontier();
    LabelArray& labels = labels_;
    const graph::VertexId n = g_.num_vertices();
    const auto parent = [&labels](graph::Label l) {
      return l == 0 ? graph::Label{0} : load_label(labels[l - 1]);
    };
    // The GAP `Link` with on-the-fly compression, over label nodes.
    const auto link = [&](graph::Label p1, graph::Label p2) {
      while (p1 != p2) {
        const graph::Label high = std::max(p1, p2);
        const graph::Label low = std::min(p1, p2);
        const graph::Label p_high = parent(high);
        if (p_high == low) break;
        if (p_high == high) {
          std::atomic_ref<graph::Label> ref(labels[high - 1]);
          graph::Label expected = high;
          if (ref.compare_exchange_strong(expected, low,
                                          std::memory_order_relaxed)) {
            break;
          }
        }
        p1 = parent(parent(high));
        p2 = parent(low);
      }
    };
    support::parallel_for_dynamic<graph::VertexId>(n, [&](graph::VertexId v) {
      if (load_label(labels[v]) == 0) return;
      for (const graph::VertexId u : g_.neighbors(v)) {
        link(load_label(labels[v]), load_label(labels[u]));
      }
    });
    // Compress; a slot already on its root is not rewritten, so a
    // mostly-converged array costs a read-only pass.
#pragma omp parallel for schedule(static)
    for (graph::VertexId v = 0; v < n; ++v) {
      const graph::Label l = load_label(labels[v]);
      graph::Label c = l;
      while (c != parent(c)) c = parent(c);
      if (c != l) store_label(labels[v], c);
    }
  }

  /// Forgets the frontier (a plain pull, or a terminal step that
  /// rewrites labels behind the kernels' back).
  void drop_frontier() {
    current_.clear();
    next_.clear();
    have_frontier_ = false;
  }

 private:
  /// The frontier built into next_ becomes current_.
  Mass advance_frontier() {
    const Mass mass = next_.mass();
    current_.clear();
    current_.swap(next_);
    have_frontier_ = true;
    return mass;
  }

  const graph::CsrGraph& g_;
  LabelArray& labels_;
  Counters& counters_;
  const support::SimdLevel simd_level_;
  frontier::LocalWorklists current_;
  frontier::LocalWorklists next_;
  partition::PartitionScheduler scheduler_;
  const graph::EdgeOffset hub_threshold_;
  bool have_frontier_ = false;
  bool full_pull_done_ = false;
};

}  // namespace thrifty::core

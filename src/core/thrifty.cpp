#include "core/thrifty.hpp"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/lp_internal.hpp"
#include "core/lp_kernels.hpp"
#include "frontier/density.hpp"
#include "instrument/counters.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace thrifty::core {

using graph::CsrGraph;
using graph::EdgeOffset;
using graph::Label;
using graph::VertexId;
using instrument::Direction;
using instrument::IterationRecord;

namespace {

/// The k vertices receiving the smallest labels (0..k-1, in order).
std::vector<VertexId> select_plant_sites(const CsrGraph& g, PlantSite site,
                                         int count, std::uint64_t seed) {
  const VertexId n = g.num_vertices();
  const auto k = static_cast<VertexId>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(count), n));
  std::vector<VertexId> sites;
  sites.reserve(k);
  switch (site) {
    case PlantSite::kMaxDegree: {
      // Top-k by degree, ties by smaller id.  Each thread keeps the
      // top-k of its static vertex range (a sorted candidate buffer with
      // a reject-early check, so the common case is one comparison per
      // vertex); the per-thread winners are then merged under the same
      // total order.  Deterministic for every thread count, and O(n)
      // instead of the sequential partial_sort's O(n log k).
      const auto better = [&g](VertexId a, VertexId b) {
        const auto da = g.degree(a);
        const auto db = g.degree(b);
        return da != db ? da > db : a < b;
      };
      const int threads = support::num_threads();
      std::vector<std::vector<VertexId>> local(
          static_cast<std::size_t>(threads));
#pragma omp parallel num_threads(threads)
      {
        auto& mine =
            local[static_cast<std::size_t>(support::thread_id())];
#pragma omp for schedule(static) nowait
        for (VertexId v = 0; v < n; ++v) {
          if (mine.size() == k && !better(v, mine.back())) continue;
          mine.insert(
              std::upper_bound(mine.begin(), mine.end(), v, better), v);
          if (mine.size() > k) mine.pop_back();
        }
      }
      std::vector<VertexId> merged;
      for (const auto& candidates : local) {
        merged.insert(merged.end(), candidates.begin(), candidates.end());
      }
      std::sort(merged.begin(), merged.end(), better);
      merged.resize(std::min<std::size_t>(merged.size(), k));
      sites = std::move(merged);
      break;
    }
    case PlantSite::kRandom: {
      // O(k) hashed membership — the previous linear scan over the sites
      // vector made k-site selection quadratic in k.
      std::unordered_set<VertexId> chosen;
      chosen.reserve(k);
      std::uint64_t salt = 0xC0FFEE;
      while (sites.size() < k) {
        const auto v = static_cast<VertexId>(
            support::hash_mix(seed, salt++) % n);
        if (chosen.insert(v).second) sites.push_back(v);
      }
      break;
    }
    case PlantSite::kFirstVertex: {
      for (VertexId v = 0; v < k; ++v) sites.push_back(v);
      break;
    }
  }
  return sites;
}

using Mass = frontier::LocalWorklists::Mass;

/// Thrifty's direction loop (Lines 14-37) over the kernels' label array,
/// from frontier mass `active`, numbering iterations from `iteration`.
/// Sparse frontiers push once a full pull has run; otherwise pull,
/// materialising the detailed frontier (Pull-Frontier, §IV-E) just
/// before the switch to push.  Returns the iteration count.
template <typename Counters, bool kZeroConv>
int direction_loop(const CsrGraph& g, const CcOptions& options,
                   LpKernels<Counters, kZeroConv>& kernels,
                   detail::IterationLog<Counters>& log, Mass active,
                   int iteration) {
  const EdgeOffset m = g.num_directed_edges();
  while (active.vertices > 0) {
    IterationRecord rec;
    rec.index = iteration;
    rec.active_vertices = active.vertices;
    rec.density =
        frontier::frontier_density(active.vertices, active.edges, m);
    log.start();
    const bool sparse =
        frontier::is_sparse(rec.density, options.density_threshold);
    if (sparse && kernels.push_ready()) {
      rec.direction = Direction::kPush;
      active = kernels.push();
    } else {
      rec.direction = sparse ? Direction::kPullFrontier : Direction::kPull;
      active = kernels.pull(/*build_frontier=*/sparse);
    }
    rec.label_changes = active.vertices;
    log.bank(rec);
    ++iteration;
  }
  return iteration;
}

/// Algorithm 2 as a policy over the kernel layer (core/lp_kernels.hpp),
/// templated on the counter policy and (for the hot loops) on whether
/// Zero Convergence is compiled in.  The plant site and the Initial Push
/// toggle are runtime parameters: they only affect start-up.
template <typename Counters, bool kZeroConv>
CcResult thrifty_impl(const CsrGraph& g, const CcOptions& options,
                      const ThriftyVariant& variant,
                      std::span<const Label> final_labels) {
  const VertexId n = g.num_vertices();
  const EdgeOffset m = g.num_directed_edges();
  THRIFTY_EXPECTS(variant.plant_count >= 1);
  const auto plant_count = static_cast<VertexId>(variant.plant_count);
  // Labels are v + plant_count; guard the shift against wrap-around.
  THRIFTY_EXPECTS(n < static_cast<VertexId>(-1) - plant_count);

  CcResult result;
  result.stats.algorithm = variant.describe();
  result.stats.instrumented = Counters::kEnabled;
  result.labels = make_label_array(n);
  if (n == 0) return result;

  Counters counters;
  support::Timer total_timer;
  LpKernels<Counters, kZeroConv> kernels(
      g, result.labels, options.partitions_per_thread, counters);
  detail::IterationLog<Counters> log(result, counters, final_labels);

  // --- Zero Planting: the k smallest labels go to the plant sites — the
  // maximum-degree vertices in real Thrifty (k = 1 in the paper), almost
  // surely hubs of the giant component.
  const std::vector<VertexId> seeds = select_plant_sites(
      g, variant.plant_site, variant.plant_count, options.seed);
  kernels.plant(seeds);

  // Ablation: without Initial Push, a DO-LP-style eager bootstrap —
  // everything active.
  Mass active{n, m};
  int iteration = 0;
  if (variant.initial_push) {
    // --- Initial Push: the zero label travels from the hub to its
    // neighbours only.
    IterationRecord rec;
    rec.index = 0;
    rec.direction = Direction::kInitialPush;
    rec.active_vertices = seeds.size();
    EdgeOffset seed_degree_sum = 0;
    for (const VertexId s : seeds) seed_degree_sum += g.degree(s);
    rec.density =
        frontier::frontier_density(seeds.size(), seed_degree_sum, m);
    log.start();
    active = kernels.initial_push(seeds);
    rec.label_changes = active.vertices;
    log.bank(rec);
    iteration = 1;
  }

  result.stats.num_iterations =  // Initial Push counted (§V-C)
      direction_loop(g, options, kernels, log, active, iteration);
  result.stats.total_ms = total_timer.elapsed_ms();
  result.stats.events = counters.total();
  return result;
}

template <typename Counters>
CcResult dispatch_zero_conv(const CsrGraph& g, const CcOptions& options,
                            const ThriftyVariant& variant,
                            std::span<const Label> final_labels) {
  if (variant.zero_convergence) {
    return thrifty_impl<Counters, true>(g, options, variant, final_labels);
  }
  return thrifty_impl<Counters, false>(g, options, variant, final_labels);
}

}  // namespace

template <typename Counters>
void thrifty_finish(const CsrGraph& graph, const CcOptions& options,
                    CcResult& result) {
  const VertexId n = graph.num_vertices();
  THRIFTY_EXPECTS(result.labels.size() == n);
  result.stats.instrumented = Counters::kEnabled;
  if (n == 0) return;
  Counters counters;
  LpKernels<Counters, /*kZeroConv=*/true> kernels(
      graph, result.labels, options.partitions_per_thread, counters);
  detail::IterationLog<Counters> log(result, counters, {});
  result.stats.num_iterations = direction_loop(
      graph, options, kernels, log, Mass{n, graph.num_directed_edges()}, 0);
  result.stats.events = counters.total();
}

template void thrifty_finish<instrument::NullCounters>(const CsrGraph&,
                                                       const CcOptions&,
                                                       CcResult&);
template void thrifty_finish<instrument::ActiveCounters>(const CsrGraph&,
                                                         const CcOptions&,
                                                         CcResult&);

std::string ThriftyVariant::describe() const {
  std::string name = "thrifty";
  switch (plant_site) {
    case PlantSite::kMaxDegree:
      break;
    case PlantSite::kRandom:
      name += "-randplant";
      break;
    case PlantSite::kFirstVertex:
      name += "-v0plant";
      break;
  }
  if (!initial_push) name += "-noinitpush";
  if (!zero_convergence) name += "-nozeroconv";
  if (plant_count > 1) name += "-plant" + std::to_string(plant_count);
  return name;
}

CcResult thrifty_cc_variant(const CsrGraph& graph, const CcOptions& options,
                            const ThriftyVariant& variant) {
  return detail::run_with_reference(
      options, [&](auto counters, const CcOptions& run_options,
                   std::span<const Label> final_labels) {
        using Counters = typename decltype(counters)::type;
        return dispatch_zero_conv<Counters>(graph, run_options, variant,
                                            final_labels);
      });
}

CcResult thrifty_cc(const CsrGraph& graph, const CcOptions& options) {
  return thrifty_cc_variant(graph, options, ThriftyVariant{});
}

}  // namespace thrifty::core

// Setup: builds every input from the seed through the gen/ functions with
// explicit parameters (never spec strings), persists it the way a user
// would (CSR snapshot, .shards set), and stores the union-find reference
// and fingerprint next to it.
#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "io/binary_io.hpp"
#include "shard/manifest.hpp"
#include "shard/shard.hpp"
#include "driver.hpp"

namespace perfbench {

namespace tg = thrifty::graph;

Family parse_workload(const std::string& name) {
  if (name == "skewed_rmat") return Family::kSkewed;
  if (name == "road_grid") return Family::kRoad;
  throw BenchError("unknown workload '" + name + "'");
}

namespace {

/// Derived seed for the `stream`-th generator call of a setup.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return splitmix(splitmix(seed) ^ stream);
}

/// Wall time of each setup layer, summed over every input built.
struct Phases {
  double gen_ms = 0;
  double build_ms = 0;
  double write_ms = 0;
  double partition_ms = 0;
  double shard_write_ms = 0;
  double reference_ms = 0;
};

template <typename F>
auto timed(double& total_ms, F&& call) {
  const std::int64_t start = now_ns();
  auto result = call();
  total_ms += ms_between(start, now_ns());
  return result;
}

EdgeList rmat(int scale, int edge_factor, std::uint64_t seed,
              Phases& phases) {
  thrifty::gen::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  params.seed = seed;
  return timed(phases.gen_ms, [&] { return thrifty::gen::rmat_edges(params); });
}

/// Full grids: the road family's shape does not depend on the seed, which
/// still orders the serve graph's split and ingest stream.
EdgeList grid(VertexId width, VertexId height, Phases& phases) {
  thrifty::gen::GridParams params;
  params.width = width;
  params.height = height;
  return timed(phases.gen_ms, [&] { return thrifty::gen::grid_edges(params); });
}

/// Builds the compacted CSR the way graph_convert does, plus the
/// reference computed from the raw edge list (not from the CSR, so a
/// builder that drops or invents edges is caught).
struct Built {
  CsrGraph graph;
  std::vector<Label> reference;
};

Built build(const EdgeList& edges, Phases& phases) {
  tg::BuildResult result =
      timed(phases.build_ms, [&] { return tg::build_csr(edges); });
  const VertexId n = result.graph.num_vertices();
  std::vector<Label> reference = timed(phases.reference_ms, [&] {
    return reference_labels(edges, n, result.old_to_new);
  });
  return {std::move(result.graph), std::move(reference)};
}

void write_fingerprint(Json& json, const char* name, const Fingerprint& f) {
  json.key(name).open_object();
  json.field("vertices", f.vertices);
  json.field("directed_edges", f.directed_edges);
  json.field("components", f.components);
  json.field("csr_hash", std::to_string(f.csr_hash));
  json.close_object();
}

/// The whole-graph snapshot and its K-way .shards set.
void setup_main(Family family, std::uint64_t seed, const Layout& layout,
                Phases& phases, Json& json) {
  const EdgeList edges = family == Family::kSkewed
                             ? rmat(20, 16, derive(seed, 0), phases)
                             : grid(1024, 512, phases);
  const Built built = build(edges, phases);
  timed(phases.write_ms, [&] {
    thrifty::io::write_csr_file(layout.main_bin(), built.graph);
    return 0;
  });
  const thrifty::shard::ShardedGraph sharded = timed(
      phases.partition_ms,
      [&] { return thrifty::shard::partition_shards(built.graph, kShards); });
  timed(phases.shard_write_ms, [&] {
    thrifty::shard::write_sharded_snapshot(layout.main_shards(), sharded);
    return 0;
  });
  write_words(layout.main_ref(), built.reference);
  write_fingerprint(json, "main", fingerprint(built.graph, built.reference));
  json.field("main_csr_bytes", csr_bytes(built.graph));
  json.field("main_cut_pairs", sharded.total_cut_pairs());
}

/// The serving input: a base snapshot holding 60% of the edges and the
/// other 40% as an ingest stream in 4096-edge batches.  Vertex ids are
/// kept (no compaction), so every ingested edge is valid.
void setup_serve(Family family, std::uint64_t seed, const Layout& layout,
                 Phases& phases, Json& json) {
  const EdgeList raw = family == Family::kSkewed
                           ? rmat(18, 8, derive(seed, 1), phases)
                           : grid(512, 512, phases);
  const Built full = build(raw, phases);
  EdgeList edges;
  edges.reserve(full.graph.num_directed_edges() / 2);
  for (VertexId v = 0; v < full.graph.num_vertices(); ++v) {
    for (const VertexId u : full.graph.neighbors(v)) {
      if (v < u) edges.push_back({v, u});
    }
  }
  std::uint64_t state = derive(seed, 2);
  for (std::size_t i = edges.size(); i > 1; --i) {
    state = splitmix(state);
    std::swap(edges[i - 1], edges[state % i]);
  }
  const auto base_count = static_cast<std::size_t>(
      static_cast<double>(edges.size()) * kServeBaseFraction);
  const VertexId n = full.graph.num_vertices();
  const std::span<const Edge> all(edges);
  const std::span<const Edge> base_edges = all.first(base_count);
  const std::span<const Edge> ingest = all.subspan(base_count);

  tg::BuildOptions keep_ids;
  keep_ids.remove_zero_degree_vertices = false;
  const CsrGraph base = timed(phases.build_ms, [&] {
    return tg::build_csr(EdgeList(base_edges.begin(), base_edges.end()), n,
                         keep_ids)
        .graph;
  });
  const std::vector<Label> base_ref = timed(
      phases.reference_ms, [&] { return reference_labels(base_edges, n); });
  timed(phases.write_ms, [&] {
    thrifty::io::write_csr_file(layout.serve_base(), base);
    return 0;
  });
  std::vector<std::uint32_t> ingest_words;
  for (const Edge& e : ingest) ingest_words.insert(ingest_words.end(), {e.u, e.v});
  write_words(layout.serve_ingest(), ingest_words);
  write_words(layout.serve_base_ref(), base_ref);
  write_words(layout.serve_final_ref(), full.reference);
  write_fingerprint(json, "serve_base", fingerprint(base, base_ref));
  write_fingerprint(json, "serve_final",
                    fingerprint(full.graph, full.reference));
  json.field("serve_ingest_edges", static_cast<std::uint64_t>(ingest.size()));
}

/// The i-th small graph.  Six size classes, RMAT scales 9..14 or
/// 32-row grids of width 32..1024; each class has half as many graphs
/// as the one below it (32, 16, 8, 4, 2, 1 in every run of 63), so every
/// class holds about the same number of edges and the sizes interleave.
EdgeList small_graph(Family family, int index, std::uint64_t seed,
                     Phases& phases) {
  const int position = index % 63;
  // Class k + 1 starts at position 64 - 2^(5-k): 32, 48, 56, 60, 62.
  int size_class = 0;
  while (size_class < 5 && position >= 64 - (32 >> size_class)) ++size_class;
  return family == Family::kSkewed
             ? rmat(9 + size_class, 4, seed, phases)
             : grid(VertexId{32} << size_class, 32, phases);
}

void setup_small(Family family, std::uint64_t seed, const Layout& layout,
                 Phases& phases, Json& json) {
  Fingerprint total;
  std::vector<Label> refs;
  for (int i = 0; i < kSmallGraphs; ++i) {
    const EdgeList edges = small_graph(
        family, i, derive(seed, 100 + static_cast<std::uint64_t>(i)), phases);
    const Built built = build(edges, phases);
    timed(phases.write_ms, [&] {
      thrifty::io::write_csr_file(layout.small_graph(i), built.graph);
      return 0;
    });
    const Fingerprint f = fingerprint(built.graph, built.reference);
    total.vertices += f.vertices;
    total.directed_edges += f.directed_edges;
    total.components += f.components;
    total.csr_hash = splitmix(total.csr_hash ^ f.csr_hash);
    refs.insert(refs.end(), built.reference.begin(), built.reference.end());
  }
  write_words(layout.small_ref(), refs);
  write_fingerprint(json, "small", total);
}

}  // namespace

void run_setup(const std::string& workload, std::uint64_t seed,
               const std::string& dir) {
  const Family family = parse_workload(workload);
  std::filesystem::create_directories(dir);
  const Layout layout{dir};
  Phases phases;
  Json json;
  json.open_object();
  json.field("workload", workload);
  json.field("seed", seed);
  json.key("inputs").open_object();
  setup_main(family, seed, layout, phases, json);
  setup_serve(family, seed, layout, phases, json);
  setup_small(family, seed, layout, phases, json);
  json.close_object();
  json.key("phases_ms").open_object();
  json.field("gen.edges_ms", phases.gen_ms);
  json.field("graph.build_ms", phases.build_ms);
  json.field("io.write_ms", phases.write_ms);
  json.field("shard.partition_ms", phases.partition_ms);
  json.field("shard.write_ms", phases.shard_write_ms);
  json.field("reference_ms", phases.reference_ms);
  json.close_object();
  json.close_object();
  json.save(layout.setup_json());
}

}  // namespace perfbench

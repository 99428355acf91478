// The driver's two halves: setup, which builds the inputs of a workload
// and the files it puts them in, and measure, which times the pipelines
// on them.  perfbench/README.md says why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Family {
  /// RMAT snapshots: the paper's skewed-degree target class.
  kSkewed,
  /// Grid snapshots: high diameter, uniform low degree (road-like).
  kRoad,
};

/// Parses a workload name ("skewed_rmat" | "road_grid").  Throws
/// BenchError for anything else.
[[nodiscard]] Family parse_workload(const std::string& name);

/// Shards in the persisted .shards set.
inline constexpr int kShards = 4;
/// Edges per serve ingest batch.
inline constexpr std::size_t kIngestBatch = 4096;
/// Share of the serve graph's edges present before ingestion starts.
inline constexpr double kServeBaseFraction = 0.6;
/// Graphs in the many-small-graphs set.
inline constexpr int kSmallGraphs = 512;

/// File layout of one setup directory.
struct Layout {
  std::string dir;

  [[nodiscard]] std::string path(const char* name) const {
    return dir + "/" + name;
  }
  [[nodiscard]] std::string main_bin() const { return path("main.bin"); }
  [[nodiscard]] std::string main_shards() const {
    return path("main.shards");
  }
  [[nodiscard]] std::string main_ref() const { return path("main.ref"); }
  [[nodiscard]] std::string serve_base() const {
    return path("serve_base.bin");
  }
  [[nodiscard]] std::string serve_ingest() const {
    return path("serve_ingest.edges");
  }
  [[nodiscard]] std::string serve_base_ref() const {
    return path("serve_base.ref");
  }
  [[nodiscard]] std::string serve_final_ref() const {
    return path("serve_final.ref");
  }
  [[nodiscard]] std::string small_graph(int index) const {
    return dir + "/small_" + std::to_string(index) + ".bin";
  }
  [[nodiscard]] std::string small_ref() const { return path("small.ref"); }
  [[nodiscard]] std::string setup_json() const { return path("setup.json"); }
};

/// Setup: generates every input of `workload` from `seed`, persists it
/// under `dir` with its union-find reference, and writes setup.json
/// (fingerprints and per-phase times).
void run_setup(const std::string& workload, std::uint64_t seed,
               const std::string& dir);

struct MeasureOptions {
  std::string dir;
  /// Time budget of the whole pass; each pipeline gets a fixed share.
  double seconds = 10.0;
  /// Record one span per public call and write them to `spans_path`.
  bool traced = false;
  /// Subset of labels, planned, sharded, small, serve, in that order.
  std::vector<std::string> pipelines;
  /// Minimum samples, whatever the budget: labels (100 gives a p90 with
  /// ten samples beyond it), planned and sharded, single small solves,
  /// serve samples.
  int min_labels = 100;
  int min_heavy = 3;
  int min_small = 6144;
  int min_serve = 3;
  /// Corrupt the first labels sample's result before it is checked, to
  /// prove the check catches a wrong partition.
  bool inject_fault = false;
  std::string out_path;
  std::string spans_path;
};

/// Measure: runs the selected pipelines on the inputs under `dir` and
/// writes every sample, every failure and the process's peak RSS to
/// `out_path`.
void run_measure(const MeasureOptions& options);

}  // namespace perfbench

// perfbench_driver — the compiled half of the benchmark; perfbench/run.py
// drives it.
//
//   perfbench_driver setup --workload W --seed S --dir D
//   perfbench_driver measure --dir D --seconds T --pipelines a,b,...
//                    [--traced --spans FILE] [--min-labels N]
//                    [--min-heavy N] [--min-small N] [--min-serve N]
//                    [--inject-fault]
//                    --out FILE
//   perfbench_driver info
//   perfbench_driver selftest
#include <omp.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"
#include "core/cc_common.hpp"
#include "core/thrifty.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "support/simd.hpp"
#include "driver.hpp"

namespace perfbench {
namespace {

/// --key value pairs plus bare --flags.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string word = argv[i];
      if (word.rfind("--", 0) != 0) throw BenchError("unexpected " + word);
      word = word.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[word] = argv[++i];
      } else {
        values_[word] = "";
      }
    }
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }
  [[nodiscard]] std::string get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) {
      throw BenchError("missing --" + key);
    }
    return it->second;
  }
  [[nodiscard]] int get_int(const std::string& key, int fallback) const {
    return has(key) ? std::stoi(get(key)) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> split(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream in(text);
  for (std::string part; std::getline(in, part, ',');) parts.push_back(part);
  return parts;
}

void info() {
  Json json;
  json.open_object();
  json.field("simd", thrifty::support::to_string(
                         thrifty::support::simd::effective_level()));
  json.field("omp_max_threads", omp_get_max_threads());
  json.field("omp_num_procs", omp_get_num_procs());
  // Bit 0x0040000 of the personality is ADDR_NO_RANDOMIZE.
  std::ifstream persona_file("/proc/self/personality");
  unsigned long persona = 0;
  persona_file >> std::hex >> persona;
  json.field("address_randomisation",
             !persona_file ? "unknown" : (persona & 0x0040000) ? "off" : "on");
  json.close_object();
  std::printf("%s\n", json.str().c_str());
}

/// The checks the benchmark relies on, shown to catch what they exist
/// to catch.  Exits non-zero on the first check that lets a fault pass.
int selftest() {
  int failures = 0;
  const auto expect = [&failures](bool condition, const char* what) {
    std::printf("%s: %s\n", condition ? "ok  " : "FAIL", what);
    if (!condition) ++failures;
  };

  thrifty::gen::RmatParams rmat;
  rmat.scale = 12;
  rmat.edge_factor = 4;
  const EdgeList edges = thrifty::gen::rmat_edges(rmat);
  const thrifty::graph::BuildResult built = thrifty::graph::build_csr(edges);
  const VertexId n = built.graph.num_vertices();
  const std::vector<Label> reference =
      reference_labels(edges, n, built.old_to_new);
  const std::vector<Label> canonical = thrifty::core::canonical_labels(
      thrifty::core::thrifty_cc(built.graph).label_span());
  expect(labels_match(canonical, reference),
         "thrifty_cc + canonical_labels equals the union-find reference");
  expect(count_canonical_components(reference) > 1,
         "the test graph has several components");

  // Find a vertex outside vertex 0's component and one inside a
  // component of at least two vertices, for the corruptions below.
  VertexId outsider = 0;
  VertexId member = 0;
  for (VertexId v = 1; v < n; ++v) {
    if (outsider == 0 && reference[v] != reference[0]) outsider = v;
    if (member == 0 && reference[v] != v) member = v;
  }
  std::vector<Label> moved = canonical;
  moved[outsider] = reference[0];
  expect(!labels_match(moved, reference),
         "a vertex moved into another component is caught");
  std::vector<Label> split_off = canonical;
  split_off[member] = member;
  expect(!labels_match(split_off, reference),
         "a vertex split off its component is caught");
  std::vector<Label> merged = canonical;
  for (Label& label : merged) {
    if (label == reference[outsider]) label = reference[0];
  }
  expect(!labels_match(merged, reference), "two merged components are caught");
  std::vector<Label> renamed = canonical;
  for (Label& label : renamed) label += 1;
  expect(!labels_match(renamed, reference),
         "a non-canonical labelling is caught");
  expect(same_partition_as(renamed, reference),
         "the same partition under other names is accepted");
  expect(!same_partition_as(moved, reference),
         "a partition with a moved vertex is rejected");

  // Serve answers: 0-1-2 connected at the end, only 0-1 at the start.
  const QueryOracle oracle({0, 0, 2, 3}, {0, 0, 0, 3});
  expect(oracle.same_ok(0, 1, "OK 1") && oracle.same_ok(0, 2, "OK 0") &&
             oracle.same_ok(0, 2, "OK 1") && oracle.size_ok(2, "OK 1") &&
             oracle.size_ok(2, "OK 3"),
         "answers between the start and the end state are accepted");
  expect(!oracle.same_ok(0, 1, "OK 0"),
         "a split pair from the start is caught");
  expect(!oracle.same_ok(0, 3, "OK 1"), "a pair joined too far is caught");
  expect(!oracle.size_ok(0, "OK 1") && !oracle.size_ok(0, "OK 4") &&
             !oracle.size_ok(0, "OK 2x") && !oracle.same_ok(0, 1, "ERR x") &&
             !oracle.size_ok(0, "1"),
         "a size outside the bounds, a malformed line or ERR is caught");
  return failures == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_driver setup|measure|info|selftest\n");
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (command == "setup") {
    run_setup(args.get("workload"), std::stoull(args.get("seed")),
              args.get("dir"));
    return 0;
  }
  if (command == "measure") {
    MeasureOptions options;
    options.dir = args.get("dir");
    options.seconds = std::stod(args.get("seconds"));
    options.pipelines = split(args.get("pipelines"));
    options.traced = args.has("traced");
    if (options.traced) options.spans_path = args.get("spans");
    options.min_labels = args.get_int("min-labels", options.min_labels);
    options.min_heavy = args.get_int("min-heavy", options.min_heavy);
    options.min_small = args.get_int("min-small", options.min_small);
    options.min_serve = args.get_int("min-serve", options.min_serve);
    options.inject_fault = args.has("inject-fault");
    options.out_path = args.get("out");
    run_measure(options);
    return 0;
  }
  if (command == "info") {
    info();
    return 0;
  }
  if (command == "selftest") return selftest();
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}

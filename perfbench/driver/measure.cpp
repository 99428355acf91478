// Measure: times every call into the library's public functions from
// outside, on the inputs one setup persisted, and checks each result
// against the union-find reference outside the timed region.
//
// Pipelines (each is what a user runs):
//   labels   read_csr_file_auto(path, false) -> thrifty_cc -> canonical_labels
//   planned  the same load -> solve_with_plan(auto) -> canonical_labels
//   sharded  read_shard_manifest -> sharded_cc(manifest), budget = CSR / 2
//   small    thrifty_cc -> canonical_labels on each preloaded small graph
//   serve    one writer ingest_batch()es the stream while two readers send
//            same/size lines through handle_command
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common.hpp"
#include "core/cc_common.hpp"
#include "core/thrifty.hpp"
#include "io/binary_io.hpp"
#include "io/mmap_io.hpp"
#include "plan/solve.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "shard/manifest.hpp"
#include "shard/solver.hpp"
#include "driver.hpp"

namespace perfbench {

namespace {

namespace core = thrifty::core;
namespace io = thrifty::io;
namespace plan = thrifty::plan;
namespace serve = thrifty::serve;
namespace shard = thrifty::shard;
using thrifty::instrument::Direction;

constexpr int kReaders = 2;
constexpr std::int64_t kBucketNs = 10;
constexpr std::size_t kBuckets = 100000;

/// One timed sample: its pipeline, wall time and the counters the
/// library's own result structs reported for it.
struct Sample {
  std::int64_t id = 0;
  const char* pipeline = "";
  double total_ms = 0.0;
  std::vector<std::pair<const char*, double>> stats;
};

/// Query latencies: 10 ns buckets up to 1 ms, exact values beyond.
struct LatencyHistogram {
  std::vector<std::uint64_t> buckets = std::vector<std::uint64_t>(kBuckets);
  std::vector<std::int64_t> overflow_ns;

  void record(std::int64_t ns) {
    const auto bucket = static_cast<std::size_t>(ns / kBucketNs);
    if (bucket < kBuckets) {
      ++buckets[bucket];
    } else {
      overflow_ns.push_back(ns);
    }
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
    overflow_ns.insert(overflow_ns.end(), other.overflow_ns.begin(),
                       other.overflow_ns.end());
  }
  /// (ns, count) pairs: buckets by their midpoint, then each overflow.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint64_t>> counts()
      const {
    std::vector<std::pair<std::int64_t, std::uint64_t>> out;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets[b] != 0) {
        out.emplace_back(static_cast<std::int64_t>(b) * kBucketNs +
                             kBucketNs / 2,
                         buckets[b]);
      }
    }
    for (const std::int64_t ns : overflow_ns) out.emplace_back(ns, 1);
    return out;
  }
};

/// What one serve sample reports besides its per-batch samples.
struct ServeSummary {
  std::uint64_t ingested_edges = 0;
  double ingest_ms = 0.0;
  std::uint64_t recompactions = 0;
  std::uint64_t queries = 0;
  std::uint64_t err_responses = 0;
  /// (ns, count) pairs: buckets by their midpoint, then each overflow.
  std::vector<std::pair<std::int64_t, std::uint64_t>> latencies;
};

struct Ctx {
  const MeasureOptions& options;
  Layout layout;
  SpanRecorder spans;
  std::vector<Sample> samples{};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors{};
  std::int64_t next_sample = 0;
  bool fault_pending = false;
  std::vector<ServeSummary> serve{};
  int writer_threads = 0;
  std::optional<double> edges_processed_frac{};

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// One timed pipeline: its share of the pass budget, the samples it
/// needs whatever the budget, and one sample (for `small`, one pass over
/// every small graph).
struct Pipeline {
  const char* name = "";
  double share = 0.0;
  int min_samples = 1;
  std::function<void(std::int64_t id)> sample;
  double spent_ns = 0.0;
  int count = 0;
};

/// Interleaves the pipelines for the pass budget: the next sample goes to
/// the pipeline furthest behind its share, so slow drifts of the host
/// reach every pipeline alike.  Once the budget is spent only pipelines
/// short of their minimum run.  A sample that throws counts as failed.
void run_interleaved(Ctx& ctx, std::vector<Pipeline>& pipelines) {
  const std::int64_t start = now_ns();
  const double budget_ns = ctx.options.seconds * 1e9;
  for (;;) {
    const bool in_budget = static_cast<double>(now_ns() - start) < budget_ns;
    Pipeline* next = nullptr;
    for (Pipeline& p : pipelines) {
      if (!in_budget && p.count >= p.min_samples) continue;
      if (next == nullptr ||
          p.spent_ns / p.share < next->spent_ns / next->share) {
        next = &p;
      }
    }
    if (next == nullptr) return;
    const std::int64_t t0 = now_ns();
    try {
      next->sample(ctx.next_sample++);
    } catch (const std::exception& e) {
      ctx.fail(std::string(next->name) + ": " + e.what());
    }
    next->spent_ns += static_cast<double>(now_ns() - t0);
    ++next->count;
  }
}

void check(Ctx& ctx, const char* pipeline, std::int64_t id,
           std::span<const Label> got, std::span<const Label> reference) {
  if (!labels_match(got, reference)) {
    ctx.fail(std::string(pipeline) + ": sample " + std::to_string(id) +
             " is not the reference partition");
  }
}

/// Changes one vertex's label when a fault is pending.
void maybe_corrupt(Ctx& ctx, std::vector<Label>& canonical) {
  if (!ctx.fault_pending || canonical.size() < 2) return;
  ctx.fault_pending = false;
  Label& last = canonical.back();
  last = last == 0 ? 1 : 0;
}

std::vector<Label> load_reference(const std::string& path) {
  std::vector<std::uint32_t> words = read_words(path);
  return {words.begin(), words.end()};
}

Pipeline labels_pipeline(Ctx& ctx, bool planned,
                         std::shared_ptr<const std::vector<Label>> reference) {
  const char* pipeline = planned ? "planned" : "labels";
  const std::string path = ctx.layout.main_bin();
  const plan::PlanSpec spec = plan::parse_plan_spec("auto");
  return {
      pipeline, planned ? 0.15 : 0.30,
      planned ? ctx.options.min_heavy : ctx.options.min_labels,
      [&ctx, pipeline, planned, path, spec, reference](std::int64_t id) {
        SpanRecorder& spans = ctx.spans;
        ++ctx.attempted;
        Sample sample{id, pipeline, 0.0, {}};
        const std::int64_t start = now_ns();
        const int root = spans.open(pipeline, pipeline, id, -1);
        int span = spans.open(pipeline, "io.load", id, root);
        const CsrGraph graph = io::read_csr_file_auto(path, false);
        spans.close(span);
        std::vector<Label> canonical;
        if (planned) {
          span = spans.open(pipeline, "plan.solve", id, root);
          const plan::PlanResult result =
              plan::solve_with_plan(graph, core::CcOptions{}, spec);
          spans.close(span);
          span = spans.open(pipeline, "core.canonical", id, root);
          canonical = core::canonical_labels(result.result.label_span());
          spans.close(span);
          spans.close(root);
          sample.total_ms = ms_between(start, now_ns());
          double pull = 0;
          double async = 0;
          for (const plan::TraceStep& step : result.trace.steps) {
            const plan::StepKind kind = step.step.kind;
            pull += kind == plan::StepKind::kPull ||
                    kind == plan::StepKind::kPullFrontier;
            async += kind == plan::StepKind::kAsync;
          }
          sample.stats = {
              {"plan.steps", static_cast<double>(result.trace.steps.size())},
              {"plan.pull_steps", pull},
              {"plan.async_steps", async}};
        } else {
          span = spans.open(pipeline, "core.solve", id, root);
          const core::CcResult result = core::thrifty_cc(graph);
          spans.close(span);
          span = spans.open(pipeline, "core.canonical", id, root);
          canonical = core::canonical_labels(result.label_span());
          spans.close(span);
          spans.close(root);
          sample.total_ms = ms_between(start, now_ns());
          double push = 0;
          double changes = 0;
          for (const auto& it : result.stats.iterations) {
            push += it.direction == Direction::kPush ||
                    it.direction == Direction::kInitialPush;
            changes += static_cast<double>(it.label_changes);
          }
          sample.stats = {
              {"core.iterations",
               static_cast<double>(result.stats.num_iterations)},
              {"core.push_iterations", push},
              {"core.label_changes", changes}};
          maybe_corrupt(ctx, canonical);
        }
        check(ctx, pipeline, id, canonical, *reference);
        ctx.samples.push_back(std::move(sample));
      }};
}

Pipeline sharded_pipeline(
    Ctx& ctx, std::shared_ptr<const std::vector<Label>> reference) {
  const std::string path = ctx.layout.main_shards();
  shard::ShardedCcOptions options;
  // Half the whole-graph CSR footprint: the streaming path's reason to
  // exist is solving a graph that does not fit.
  options.memory_budget_bytes =
      std::filesystem::file_size(ctx.layout.main_bin()) / 2;
  return {"sharded", 0.20, ctx.options.min_heavy,
          [&ctx, path, options, reference](std::int64_t id) {
    SpanRecorder& spans = ctx.spans;
    ++ctx.attempted;
    Sample sample{id, "sharded", 0.0, {}};
    const std::int64_t start = now_ns();
    const int root = spans.open("sharded", "sharded", id, -1);
    int span = spans.open("sharded", "shard.manifest", id, root);
    const shard::ShardManifest manifest = shard::read_shard_manifest(path);
    spans.close(span);
    span = spans.open("sharded", "shard.solve", id, root);
    const shard::ShardedCcResult result = shard::sharded_cc(manifest, options);
    spans.close(span);
    spans.close(root);
    sample.total_ms = ms_between(start, now_ns());
    const shard::ShardedCcStats& s = result.stats;
    sample.stats = {
        {"shard.sweep_ms", s.sweep_ms},
        {"shard.exchange_ms", s.exchange_ms},
        {"shard.rounds", static_cast<double>(s.rounds)},
        {"shard.loads", static_cast<double>(s.shard_loads)},
        {"shard.evictions", static_cast<double>(s.evictions)},
        {"shard.boundary_updates", static_cast<double>(s.boundary_updates)},
        {"shard.peak_window_mib",
         static_cast<double>(s.peak_window_bytes) / (1 << 20)}};
    check(ctx, "sharded", id, result.label_span(), *reference);
    ctx.samples.push_back(std::move(sample));
  }};
}

/// The small graphs and their references, loaded before the first
/// solve: loading is setup for this pipeline, as it would be for a caller
/// solving many graphs it already holds.
struct SmallSet {
  std::vector<CsrGraph> graphs;
  std::vector<std::size_t> first;
  std::vector<Label> references;
};

Pipeline small_pipeline(Ctx& ctx) {
  auto set = std::make_shared<SmallSet>();
  std::size_t vertices = 0;
  for (int i = 0; i < kSmallGraphs; ++i) {
    set->graphs.push_back(io::read_csr_file(ctx.layout.small_graph(i)));
    set->first.push_back(vertices);
    vertices += set->graphs.back().num_vertices();
  }
  set->references = load_reference(ctx.layout.small_ref());
  if (set->references.size() != vertices) {
    throw BenchError("small graph references do not match the graphs");
  }
  // One sample of this pipeline is a whole pass, so every graph weighs
  // the same in the figures; each solve is timed on its own.
  const int passes = (ctx.options.min_small + kSmallGraphs - 1) / kSmallGraphs;
  return {"small", 0.15, passes, [&ctx, set](std::int64_t) {
            SpanRecorder& spans = ctx.spans;
            for (std::size_t i = 0; i < set->graphs.size(); ++i) {
              const std::int64_t id = ctx.next_sample++;
              ++ctx.attempted;
              try {
                const std::int64_t t0 = now_ns();
                const int root = spans.open("small", "small", id, -1);
                int span = spans.open("small", "core.solve", id, root);
                const core::CcResult result =
                    core::thrifty_cc(set->graphs[i]);
                spans.close(span);
                span = spans.open("small", "core.canonical", id, root);
                const std::vector<Label> canonical =
                    core::canonical_labels(result.label_span());
                spans.close(span);
                spans.close(root);
                ctx.samples.push_back(
                    {id, "small", ms_between(t0, now_ns()), {}});
                check(ctx, "small", id, canonical,
                      std::span(set->references)
                          .subspan(set->first[i],
                                   set->graphs[i].num_vertices()));
              } catch (const std::exception& e) {
                ctx.fail(std::string("small: ") + e.what());
              }
            }
          }};
}

/// Per-reader record of one serve sample.
struct ReaderTally {
  LatencyHistogram latency;
  std::uint64_t queries = 0;
  std::uint64_t err_responses = 0;
  std::uint64_t wrong_answers = 0;
  std::string first_problem;
};

/// Closed-loop reader: next query only after the previous answer.
/// Alternates same/size over uniformly drawn vertices.  A throwing call
/// ends the reader and is recorded as an ERR response.
void reader_loop(serve::ConnectivityService& service,
                 const QueryOracle& oracle, std::uint64_t seed,
                 const std::atomic<bool>& stop, ReaderTally& tally) try {
  const auto n = static_cast<std::uint64_t>(service.num_vertices());
  std::istringstream no_body;
  std::uint64_t state = seed;
  while (!stop.load(std::memory_order_relaxed)) {
    state = splitmix(state);
    const auto u = static_cast<VertexId>(state % n);
    const auto v = static_cast<VertexId>((state >> 32) % n);
    const bool same = (tally.queries & 1) == 0;
    const std::string line = same ? "same " + std::to_string(u) + " " +
                                        std::to_string(v)
                                  : "size " + std::to_string(u);
    const std::int64_t t0 = now_ns();
    const serve::Response response =
        serve::handle_command(service, line, no_body);
    tally.latency.record(now_ns() - t0);
    ++tally.queries;
    const bool ok = response.ok && (same ? oracle.same_ok(u, v, response.text)
                                         : oracle.size_ok(u, response.text));
    if (ok) continue;
    ++(response.ok ? tally.wrong_answers : tally.err_responses);
    if (tally.first_problem.empty()) {
      tally.first_problem = line + " -> " + response.text;
    }
  }
} catch (const std::exception& e) {
  ++tally.err_responses;
  tally.first_problem = std::string("threw: ") + e.what();
}

struct ServeInputs {
  QueryOracle oracle;
  EdgeList stream;
};

/// One serve sample: open a service on the base snapshot, ingest the
/// whole stream while the readers query it, verify the end state.
void serve_sample(Ctx& ctx, const ServeInputs& inputs, std::int64_t open_id) {
  SpanRecorder& spans = ctx.spans;
  ServeSummary summary;
  const int open_span = spans.open("serve", "serve.open", open_id, -1);
  serve::ConnectivityService service(
      io::read_csr_file(ctx.layout.serve_base()));
  spans.close(open_span);

  // The readers plus the writer's OpenMP team stay within the thread
  // count the pass was given.
  const int threads = omp_get_max_threads();
  const int writer_team = std::max(1, threads - kReaders);
  std::vector<ReaderTally> tallies(kReaders);
  std::atomic<bool> stop{false};
  {
    std::vector<std::jthread> readers;
    // Destroyed before `readers`, so the readers stop before they are
    // joined, on every exit path.
    struct StopReaders {
      std::atomic<bool>& flag;
      ~StopReaders() { flag.store(true); }
    } stop_readers{stop};
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        reader_loop(service, inputs.oracle,
                    splitmix(static_cast<std::uint64_t>(open_id * kReaders + r)),
                    stop, tallies[static_cast<std::size_t>(r)]);
      });
    }

    omp_set_num_threads(writer_team);
    try {
      const std::span<const Edge> stream(inputs.stream);
      for (std::size_t begin = 0; begin < stream.size();
           begin += kIngestBatch) {
        const std::size_t count =
            std::min(kIngestBatch, stream.size() - begin);
        const std::int64_t id = ctx.next_sample++;
        ++ctx.attempted;
        const int root = spans.open("serve", "serve", id, -1);
        const int span = spans.open("serve", "serve.ingest", id, root);
        const std::int64_t t0 = now_ns();
        const serve::IngestReport report =
            service.ingest_batch(stream.subspan(begin, count));
        const double ms = ms_between(t0, now_ns());
        spans.close(span, report.recompacted ? "serve.recompact"
                                             : "serve.ingest");
        spans.close(root);
        summary.ingest_ms += ms;
        summary.ingested_edges += report.accepted;
        ctx.samples.push_back({id, "serve", ms, {}});
        if (report.accepted + report.self_loops != count) {
          ctx.fail("serve: batch " + std::to_string(id) + " rejected edges");
        }
        if (report.recompacted) {
          ++summary.recompactions;
          if (!service.verify_against_reference()) {
            ctx.fail("serve: verify failed after a recompaction");
          }
        }
      }
    } catch (const std::exception& e) {
      ctx.fail(std::string("serve: ") + e.what());
    }
    omp_set_num_threads(threads);
  }

  ++ctx.attempted;
  if (!service.verify_against_reference() ||
      !same_partition_as(service.snapshot()->labels(),
                         inputs.oracle.final_labels())) {
    ctx.fail("serve: final state is not the reference partition");
  }
  ctx.writer_threads = writer_team;
  LatencyHistogram latency;
  for (const ReaderTally& t : tallies) {
    latency.merge(t.latency);
    summary.queries += t.queries;
    summary.err_responses += t.err_responses;
    ctx.attempted += t.queries;
    ctx.failed += t.err_responses + t.wrong_answers;
    if (!t.first_problem.empty() && ctx.errors.size() < 20) {
      ctx.errors.push_back("serve query: " + t.first_problem);
    }
  }
  summary.latencies = latency.counts();
  ctx.serve.push_back(std::move(summary));
}

Pipeline serve_pipeline(Ctx& ctx) {
  const std::vector<std::uint32_t> words =
      read_words(ctx.layout.serve_ingest());
  EdgeList stream;
  for (std::size_t i = 0; i + 1 < words.size(); i += 2) {
    stream.push_back({words[i], words[i + 1]});
  }
  auto inputs = std::make_shared<const ServeInputs>(ServeInputs{
      QueryOracle(load_reference(ctx.layout.serve_base_ref()),
                  load_reference(ctx.layout.serve_final_ref())),
      std::move(stream)});
  return {"serve", 0.20, ctx.options.min_serve, [&ctx, inputs](std::int64_t id) {
            serve_sample(ctx, *inputs, id);
          }};
}

/// Traced runs only: one instrumented solve for the work counters that
/// plain runs do not collect.
void instrumented_pass(Ctx& ctx, const std::vector<Label>& reference) {
  const CsrGraph graph = io::read_csr_file_auto(ctx.layout.main_bin(), false);
  core::CcOptions options;
  options.instrument = true;
  const core::CcResult result = core::thrifty_cc(graph, options);
  ++ctx.attempted;
  check(ctx, "instrumented", -1,
        core::canonical_labels(result.label_span()), reference);
  ctx.edges_processed_frac =
      result.stats.edges_processed_fraction(graph.num_directed_edges());
}

void write_results(const Ctx& ctx) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Json json;
  json.open_object();
  json.field("attempted", ctx.attempted);
  json.field("failed", ctx.failed);
  json.field("errors", ctx.errors);
  json.field("threads", omp_get_max_threads());
  json.field("peak_rss_kib", static_cast<std::int64_t>(usage.ru_maxrss));
  json.field("main_file_bytes",
             static_cast<std::uint64_t>(
                 std::filesystem::file_size(ctx.layout.main_bin())));
  json.key("samples").open_array();
  for (const Sample& s : ctx.samples) {
    json.open_object();
    json.field("id", s.id);
    json.field("pipeline", s.pipeline);
    json.field("total_ms", s.total_ms);
    for (const auto& [name, value] : s.stats) json.field(name, value);
    json.close_object();
  }
  json.close_array();
  json.field("readers", kReaders);
  json.field("writer_threads", ctx.writer_threads);
  json.key("serve").open_array();
  for (const ServeSummary& serve : ctx.serve) {
    json.open_object();
    json.field("ingested_edges", serve.ingested_edges);
    json.field("ingest_ms", serve.ingest_ms);
    json.field("recompactions", serve.recompactions);
    json.field("queries", serve.queries);
    json.field("err_responses", serve.err_responses);
    json.key("latency_ns_counts").open_array();
    for (const auto& [ns, count] : serve.latencies) {
      json.open_array().value(ns).value(count).close_array();
    }
    json.close_array();
    json.close_object();
  }
  json.close_array();
  if (ctx.edges_processed_frac) {
    json.field("core.edges_processed_frac", *ctx.edges_processed_frac);
  }
  json.close_object();
  json.save(ctx.options.out_path);
}

}  // namespace

void run_measure(const MeasureOptions& options) {
  Ctx ctx{options, Layout{options.dir}, SpanRecorder(options.traced)};
  ctx.fault_pending = options.inject_fault;
  const auto wants = [&](const char* name) {
    return std::find(options.pipelines.begin(), options.pipelines.end(),
                     name) != options.pipelines.end();
  };
  const auto reference = std::make_shared<const std::vector<Label>>(
      load_reference(ctx.layout.main_ref()));
  std::vector<Pipeline> pipelines;
  if (wants("labels")) pipelines.push_back(labels_pipeline(ctx, false, reference));
  if (wants("planned")) pipelines.push_back(labels_pipeline(ctx, true, reference));
  if (wants("sharded")) pipelines.push_back(sharded_pipeline(ctx, reference));
  if (wants("small")) pipelines.push_back(small_pipeline(ctx));
  if (wants("serve")) pipelines.push_back(serve_pipeline(ctx));
  run_interleaved(ctx, pipelines);
  if (options.traced) {
    instrumented_pass(ctx, *reference);
    ctx.spans.write_jsonl(options.spans_path);
  }
  write_results(ctx);
}

}  // namespace perfbench

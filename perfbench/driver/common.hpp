// Shared pieces of the benchmark driver: clocks, the union-find
// reference, input fingerprints, raw array files, the in-memory span
// recorder and a minimal JSON writer.
//
// Everything here lives outside the library on purpose: the driver only
// calls the library's public functions and checks their results against
// code of its own.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace perfbench {

using thrifty::graph::CsrGraph;
using thrifty::graph::Edge;
using thrifty::graph::EdgeList;
using thrifty::graph::Label;
using thrifty::graph::VertexId;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] inline double ms_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) / 1e6;
}

/// Serial union-find over `edges` on vertices [0, n).  Each endpoint is
/// first renamed through `rename` when it is non-empty; an edge with an
/// endpoint renamed to kDroppedVertex (a removed isolated vertex) is
/// skipped.  Returns the canonical labelling: every vertex gets the
/// smallest vertex id of its component.
[[nodiscard]] std::vector<Label> reference_labels(
    std::span<const Edge> edges, VertexId n,
    std::span<const VertexId> rename = {});

/// True when `got` is exactly the canonical labelling `reference`.
/// Every result the driver checks is canonical (canonical_labels output
/// or the sharded solver's), so equality is the whole check.
[[nodiscard]] bool labels_match(std::span<const Label> got,
                                std::span<const Label> reference);

/// True when `got` (any labelling) induces the partition whose canonical
/// form is `reference`.
[[nodiscard]] bool same_partition_as(std::span<const Label> got,
                                     std::span<const Label> reference);

/// Judges serve response lines ("OK <answer>").  Components only merge
/// while edges are ingested, so an answer given at any moment must lie
/// between the base graph's partition and the final one.
class QueryOracle {
 public:
  QueryOracle(std::vector<Label> base, std::vector<Label> final_labels);
  [[nodiscard]] bool same_ok(VertexId u, VertexId v,
                             const std::string& response) const;
  [[nodiscard]] bool size_ok(VertexId v, const std::string& response) const;
  [[nodiscard]] const std::vector<Label>& final_labels() const {
    return final_;
  }

 private:
  std::vector<Label> base_;
  std::vector<Label> final_;
  std::vector<std::uint32_t> base_size_;
  std::vector<std::uint32_t> final_size_;
};

/// Number of components of a canonical labelling.
[[nodiscard]] std::uint64_t count_canonical_components(
    std::span<const Label> canonical);

/// Identity of one generated input: sizes, component count and a hash of
/// the CSR arrays.  Two setups of the same seed must agree on all four.
struct Fingerprint {
  std::uint64_t vertices = 0;
  std::uint64_t directed_edges = 0;
  std::uint64_t components = 0;
  std::uint64_t csr_hash = 0;
};

[[nodiscard]] std::uint64_t csr_hash(const CsrGraph& graph);
[[nodiscard]] Fingerprint fingerprint(const CsrGraph& graph,
                                      std::span<const Label> reference);

/// Bytes of the CSR arrays (offsets + neighbours), computed from the
/// sizes rather than measured.
[[nodiscard]] std::uint64_t csr_bytes(const CsrGraph& graph);

/// Raw little-endian arrays of 32-bit words with a count header: the
/// driver's own format for reference labels and ingest edge streams.
void write_words(const std::string& path, std::span<const std::uint32_t> words);
[[nodiscard]] std::vector<std::uint32_t> read_words(const std::string& path);

/// One timed public call (or a whole sample, when `parent` is -1).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t sample = 0;
  const char* pipeline = "";
};

/// Keeps spans in memory and writes them out at the end of the run.
/// Disabled recorders keep nothing, so the untraced run pays no more
/// than its own sample clock.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id (-1 when disabled).  Storage for a
  /// whole sample is made (and its pages touched) when the sample's root
  /// opens, before its clock starts, so growing the store never lands in
  /// a gap between the spans of a sample.
  int open(const char* pipeline, const char* name, std::int64_t sample,
           int parent) {
    if (!enabled_) return -1;
    if (parent < 0 && spans_.size() - count_ < kSampleRoom) {
      spans_.resize(std::max<std::size_t>(2 * spans_.size(), 1 << 16));
    }
    spans_[count_] = {name, now_ns(), 0, parent, sample, pipeline};
    return static_cast<int>(count_++);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  /// Closes a span under a name chosen after the call returned.
  void close(int id, const char* name) {
    if (id < 0) return;
    close(id);
    spans_[static_cast<std::size_t>(id)].name = name;
  }

  void write_jsonl(const std::string& path) const;

 private:
  static constexpr std::size_t kSampleRoom = 64;
  bool enabled_;
  std::vector<Span> spans_;
  std::size_t count_ = 0;
};

/// Minimal streaming JSON writer for the driver's result files.
class Json {
 public:
  Json& open_object();
  Json& close_object();
  Json& open_array();
  Json& close_array();
  Json& key(const std::string& name);
  Json& value(double number);
  Json& value(std::int64_t number);
  Json& value(std::uint64_t number);
  Json& value(int number) { return value(static_cast<std::int64_t>(number)); }
  Json& value(bool flag);
  Json& value(const std::string& text);
  Json& value(const char* text) { return value(std::string(text)); }
  template <typename T>
  Json& array(const std::vector<T>& values) {
    open_array();
    for (const T& v : values) value(v);
    return close_array();
  }
  template <typename T>
  Json& field(const std::string& name, const T& v) {
    key(name);
    if constexpr (requires { v.begin(); } &&
                  !std::is_convertible_v<T, std::string>) {
      return array(v);
    } else {
      return value(v);
    }
  }
  [[nodiscard]] const std::string& str() const { return out_; }
  void save(const std::string& path) const;

 private:
  void separate();
  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// Thrown for setup and input problems the driver cannot measure past.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace perfbench

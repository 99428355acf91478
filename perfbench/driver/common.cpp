#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "graph/builder.hpp"

namespace perfbench {

namespace {

VertexId find_root(std::vector<VertexId>& parent, VertexId v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

}  // namespace

std::vector<Label> reference_labels(std::span<const Edge> edges, VertexId n,
                                    std::span<const VertexId> rename) {
  constexpr VertexId kDropped = thrifty::graph::BuildResult::kDroppedVertex;
  std::vector<VertexId> parent(n);
  std::iota(parent.begin(), parent.end(), VertexId{0});
  for (Edge e : edges) {
    if (!rename.empty()) {
      e = {rename[e.u], rename[e.v]};
      if (e.u == kDropped || e.v == kDropped) continue;
    }
    if (e.u >= n || e.v >= n) {
      throw BenchError("reference: edge endpoint out of range");
    }
    // Linking the larger root under the smaller keeps every root at its
    // component's minimum, so find() is already the canonical label.
    const VertexId a = find_root(parent, e.u);
    const VertexId b = find_root(parent, e.v);
    if (a < b) parent[b] = a;
    if (b < a) parent[a] = b;
  }
  std::vector<Label> labels(n);
  for (VertexId v = 0; v < n; ++v) labels[v] = find_root(parent, v);
  return labels;
}

bool labels_match(std::span<const Label> got,
                  std::span<const Label> reference) {
  return std::equal(got.begin(), got.end(), reference.begin(),
                    reference.end());
}

bool same_partition_as(std::span<const Label> got,
                       std::span<const Label> reference) {
  if (got.size() != reference.size()) return false;
  // Canonicalise `got` by first occurrence; the two partitions agree iff
  // that canonical form equals the reference.
  std::unordered_map<Label, Label> first;
  first.reserve(got.size() / 4 + 16);
  for (std::size_t v = 0; v < got.size(); ++v) {
    const auto it = first.try_emplace(got[v], static_cast<Label>(v)).first;
    if (it->second != reference[v]) return false;
  }
  return true;
}

namespace {

std::vector<std::uint32_t> class_sizes(const std::vector<Label>& canonical) {
  std::vector<std::uint32_t> sizes(canonical.size(), 0);
  for (const Label label : canonical) ++sizes[label];
  return sizes;
}

/// The payload of an "OK <payload>" response line; nullopt for anything
/// else (ERR lines included).
std::optional<std::string_view> ok_payload(const std::string& response) {
  constexpr std::string_view kOk = "OK ";
  if (response.rfind(kOk, 0) != 0) return std::nullopt;
  return std::string_view(response).substr(kOk.size());
}

std::optional<std::uint64_t> parse_count(std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

QueryOracle::QueryOracle(std::vector<Label> base,
                         std::vector<Label> final_labels)
    : base_(std::move(base)),
      final_(std::move(final_labels)),
      base_size_(class_sizes(base_)),
      final_size_(class_sizes(final_)) {
  if (base_.size() != final_.size()) {
    throw BenchError("serve references disagree on the vertex count");
  }
}

bool QueryOracle::same_ok(VertexId u, VertexId v,
                          const std::string& response) const {
  const auto answer = ok_payload(response);
  if (answer == "1") return final_[u] == final_[v];
  if (answer == "0") return base_[u] != base_[v];
  return false;
}

bool QueryOracle::size_ok(VertexId v, const std::string& response) const {
  const auto answer = ok_payload(response);
  const auto size = answer ? parse_count(*answer) : std::nullopt;
  return size && *size >= base_size_[base_[v]] &&
         *size <= final_size_[final_[v]];
}

std::uint64_t count_canonical_components(std::span<const Label> canonical) {
  std::uint64_t count = 0;
  for (std::size_t v = 0; v < canonical.size(); ++v) {
    if (canonical[v] == v) ++count;
  }
  return count;
}

std::uint64_t csr_hash(const CsrGraph& graph) {
  // FNV-1a over 64-bit words: order-sensitive and cheap enough to run
  // over every input in every setup.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ULL;
  };
  for (const auto offset : graph.offsets()) mix(offset);
  for (const auto neighbor : graph.neighbor_array()) mix(neighbor);
  return h;
}

Fingerprint fingerprint(const CsrGraph& graph,
                        std::span<const Label> reference) {
  return {graph.num_vertices(), graph.num_directed_edges(),
          count_canonical_components(reference), csr_hash(graph)};
}

std::uint64_t csr_bytes(const CsrGraph& graph) {
  return graph.offsets().size_bytes() + graph.neighbor_array().size_bytes();
}

void write_words(const std::string& path,
                 std::span<const std::uint32_t> words) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::uint64_t count = words.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(words.size_bytes()));
  if (!out) throw BenchError("cannot write " + path);
}

std::vector<std::uint32_t> read_words(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || count > (std::uint64_t{1} << 34)) {
    throw BenchError("cannot read " + path);
  }
  std::vector<std::uint32_t> words(count);
  in.read(reinterpret_cast<char*>(words.data()),
          static_cast<std::streamsize>(count * sizeof(std::uint32_t)));
  if (!in) throw BenchError("truncated " + path);
  return words;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw BenchError("cannot write " + path);
  for (std::size_t i = 0; i < count_; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"pipeline\":\"%s\",\"name\":\"%s\",\"sample\":%lld,"
                 "\"parent\":%d,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.pipeline, s.name, static_cast<long long>(s.sample),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(out) != 0) throw BenchError("cannot write " + path);
}

void Json::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

Json& Json::open_object() {
  separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::close_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::open_array() {
  separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::close_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

Json& Json::key(const std::string& name) {
  value(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

Json& Json::value(double number) {
  separate();
  if (!std::isfinite(number)) {
    out_ += "null";
    return *this;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", number);
  out_ += buffer;
  return *this;
}

Json& Json::value(std::int64_t number) {
  separate();
  out_ += std::to_string(number);
  return *this;
}

Json& Json::value(std::uint64_t number) {
  separate();
  out_ += std::to_string(number);
  return *this;
}

Json& Json::value(bool flag) {
  separate();
  out_ += flag ? "true" : "false";
  return *this;
}

Json& Json::value(const std::string& text) {
  separate();
  out_ += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += ' ';
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

void Json::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << out_ << '\n';
  if (!out) throw BenchError("cannot write " + path);
}

}  // namespace perfbench

#include "tools/tool_common.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "bench_common/datasets.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "io/binary_io.hpp"
#include "io/edge_list_io.hpp"
#include "io/mmap_io.hpp"
#include "io/matrix_market_io.hpp"

namespace thrifty::tools {

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_.emplace_back(arg.substr(2), "");
      } else {
        flags_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool ArgParser::has_flag(const std::string& name) const {
  return std::any_of(flags_.begin(), flags_.end(),
                     [&](const auto& f) { return f.first == name; });
}

std::optional<std::string> ArgParser::flag(const std::string& name) const {
  for (const auto& [key, value] : flags_) {
    if (key == name) return value;
  }
  return std::nullopt;
}

std::int64_t ArgParser::flag_int(const std::string& name,
                                 std::int64_t fallback) const {
  const auto value = flag(name);
  if (!value || value->empty()) return fallback;
  return std::strtoll(value->c_str(), nullptr, 10);
}

double ArgParser::flag_double(const std::string& name,
                              double fallback) const {
  const auto value = flag(name);
  if (!value || value->empty()) return fallback;
  return std::strtod(value->c_str(), nullptr);
}

std::vector<std::string> ArgParser::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : flags_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      unknown.push_back(key);
    }
  }
  return unknown;
}

namespace {

std::map<std::string, std::string> parse_kv(const std::string& spec) {
  std::map<std::string, std::string> kv;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("generator spec: expected key=value, got '" +
                               item + "'");
    }
    kv[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return kv;
}

/// Rejects a key the generator does not take, so a misspelt key fails
/// instead of silently leaving its parameter at the default.
void check_keys(const std::map<std::string, std::string>& kv,
                const std::string& kind,
                std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : kv) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::runtime_error("generator spec: unknown key '" + key +
                               "' for " + kind);
    }
  }
}

/// The whole value must be a base-10 integer: "14:ef=8" is an error,
/// not 14.
std::int64_t kv_int(const std::map<std::string, std::string>& kv,
                    const std::string& key, std::int64_t fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    throw std::runtime_error("generator spec: bad integer for '" + key +
                             "': '" + text + "'");
  }
  return value;
}

graph::CsrGraph build_from_generator(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string kind =
      colon == std::string::npos ? spec : spec.substr(0, colon);
  const std::string rest =
      colon == std::string::npos ? "" : spec.substr(colon + 1);

  if (kind == "dataset") {
    const auto* ds = bench::find_dataset(rest);
    if (ds == nullptr) {
      throw std::runtime_error("unknown dataset '" + rest +
                               "' (see bench_common/datasets.hpp)");
    }
    return bench::build_dataset(*ds);
  }
  const auto kv = parse_kv(rest);
  if (kind == "rmat") {
    check_keys(kv, kind, {"scale", "ef", "seed"});
    gen::RmatParams params;
    params.scale = static_cast<int>(kv_int(kv, "scale", 14));
    params.edge_factor = static_cast<int>(kv_int(kv, "ef", 16));
    params.seed = static_cast<std::uint64_t>(kv_int(kv, "seed", 1));
    return graph::build_csr(gen::rmat_edges(params)).graph;
  }
  if (kind == "ba") {
    check_keys(kv, kind, {"n", "m", "seed"});
    gen::BarabasiAlbertParams params;
    params.num_vertices =
        static_cast<graph::VertexId>(kv_int(kv, "n", 1 << 14));
    params.edges_per_vertex = static_cast<int>(kv_int(kv, "m", 8));
    params.seed = static_cast<std::uint64_t>(kv_int(kv, "seed", 1));
    return graph::build_csr(gen::barabasi_albert_edges(params)).graph;
  }
  if (kind == "grid") {
    check_keys(kv, kind, {"w", "h", "seed"});
    gen::GridParams params;
    params.width = static_cast<graph::VertexId>(kv_int(kv, "w", 256));
    params.height = static_cast<graph::VertexId>(kv_int(kv, "h", 256));
    params.seed = static_cast<std::uint64_t>(kv_int(kv, "seed", 1));
    return graph::build_csr(gen::grid_edges(params),
                            params.width * params.height)
        .graph;
  }
  if (kind == "er") {
    check_keys(kv, kind, {"n", "m", "seed"});
    gen::ErdosRenyiParams params;
    params.num_vertices =
        static_cast<graph::VertexId>(kv_int(kv, "n", 1 << 14));
    params.num_edges =
        static_cast<std::uint64_t>(kv_int(kv, "m", 1 << 18));
    params.seed = static_cast<std::uint64_t>(kv_int(kv, "seed", 1));
    return graph::build_csr(gen::erdos_renyi_edges(params),
                            params.num_vertices)
        .graph;
  }
  throw std::runtime_error(
      "unknown generator '" + kind +
      "' (expected rmat | ba | grid | er | dataset)");
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(),
                      suffix) == 0;
}

}  // namespace

graph::CsrGraph load_graph(const std::string& source,
                           const LoadOptions& options) {
  if (source.rfind("gen:", 0) == 0) {
    return build_from_generator(source.substr(4));
  }
  if (ends_with(source, ".bin")) {
    return io::read_csr_file_auto(source, options.use_mmap);
  }
  if (ends_with(source, ".mtx")) {
    const auto mm = io::read_matrix_market_file(source);
    return graph::build_csr(mm.edges, mm.num_vertices).graph;
  }
  // Default: whitespace edge list.
  return graph::build_csr(io::read_edge_list_file(source)).graph;
}

std::string summarize(const graph::CsrGraph& graph) {
  std::ostringstream out;
  out << graph.num_vertices() << " vertices, "
      << graph.num_undirected_edges() << " undirected edges ("
      << graph.num_directed_edges() << " directed)";
  return out.str();
}

}  // namespace thrifty::tools

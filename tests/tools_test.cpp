// Tests for the CLI substrate (tools/tool_common): flag parsing, graph
// loading by extension and by generator spec, and error paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "io/binary_io.hpp"
#include "io/edge_list_io.hpp"
#include "io/matrix_market_io.hpp"
#include "tools/tool_common.hpp"

namespace thrifty::tools {
namespace {

ArgParser make_parser(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParserTest, SplitsPositionalAndFlags) {
  const ArgParser args =
      make_parser({"input.el", "--verify", "--algo=thrifty", "out.txt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.el");
  EXPECT_EQ(args.positional()[1], "out.txt");
  EXPECT_TRUE(args.has_flag("verify"));
  EXPECT_FALSE(args.has_flag("stats"));
  EXPECT_EQ(args.flag("algo").value(), "thrifty");
  EXPECT_FALSE(args.flag("missing").has_value());
}

TEST(ArgParserTest, NumericFlagsParseWithFallback) {
  const ArgParser args =
      make_parser({"--trials=5", "--threshold=0.02", "--broken="});
  EXPECT_EQ(args.flag_int("trials", 1), 5);
  EXPECT_EQ(args.flag_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(args.flag_double("threshold", 0.0), 0.02);
  EXPECT_EQ(args.flag_int("broken", 3), 3);  // empty value -> fallback
}

TEST(ArgParserTest, UnknownFlagDetection) {
  const ArgParser args = make_parser({"--algo=x", "--oops"});
  const auto unknown = args.unknown_flags({"algo"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "oops");
}

TEST(LoadGraph, GeneratorSpecs) {
  // R-MAT drops zero-degree vertices, so <= 2^8 remain.
  const auto rmat = load_graph("gen:rmat:scale=8,ef=4");
  EXPECT_GT(rmat.num_vertices(), 0u);
  EXPECT_LE(rmat.num_vertices(), 256u);
  EXPECT_EQ(load_graph("gen:grid:w=10,h=10").num_vertices(), 100u);
  EXPECT_GT(load_graph("gen:ba:n=500,m=3").num_directed_edges(), 0u);
  EXPECT_GT(load_graph("gen:er:n=100,m=300").num_vertices(), 0u);
  EXPECT_GT(load_graph("gen:dataset:pokec").num_vertices(), 0u);
}

TEST(LoadGraph, RejectsBadSpecs) {
  EXPECT_THROW((void)load_graph("gen:unknown:x=1"), std::runtime_error);
  EXPECT_THROW((void)load_graph("gen:rmat:notkv"), std::runtime_error);
  // Colon-separated keys: "14:ef=8" is not an integer, so this must not
  // quietly build scale=14 with the default ef.
  EXPECT_THROW((void)load_graph("gen:rmat:scale=8:ef=4"),
               std::runtime_error);
  EXPECT_THROW((void)load_graph("gen:grid:w=4,hh=4"), std::runtime_error);
  EXPECT_THROW((void)load_graph("gen:dataset:bogus"), std::runtime_error);
  EXPECT_THROW((void)load_graph("/nonexistent/file.el"),
               std::runtime_error);
}

TEST(LoadGraph, LoadsByExtension) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("thrifty_tools_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const graph::EdgeList edges{{0, 1}, {1, 2}};

  const auto el = (dir / "g.el").string();
  io::write_edge_list_file(el, edges);
  EXPECT_EQ(load_graph(el).num_vertices(), 3u);

  const auto bin = (dir / "g.bin").string();
  io::write_csr_file(bin, graph::build_csr(edges).graph);
  EXPECT_EQ(load_graph(bin).num_vertices(), 3u);

  const auto mtx = (dir / "g.mtx").string();
  io::write_matrix_market_file(mtx, edges, 3);
  EXPECT_EQ(load_graph(mtx).num_vertices(), 3u);

  std::filesystem::remove_all(dir);
}

TEST(Summarize, MentionsCounts) {
  const auto g = load_graph("gen:grid:w=4,h=4");
  const std::string s = summarize(g);
  EXPECT_NE(s.find("16 vertices"), std::string::npos);
  EXPECT_NE(s.find("24 undirected"), std::string::npos);
}

}  // namespace
}  // namespace thrifty::tools

// Tests for GraphBuilder (graph/builder.hpp): dedup, sorting, growth.
#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "thread_counts.hpp"
#include "util/rng.hpp"

namespace srsr::graph {
namespace {

TEST(GraphBuilder, EmptyBuild) {
  GraphBuilder b(5);
  const Graph g = b.build();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, SortsNeighbors) {
  GraphBuilder b(4);
  b.add_edge(0, 3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  const Graph g = b.build();
  const auto nbrs = g.out_neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.out_degree(0), 2u);
}

TEST(GraphBuilder, KeepsSelfLoops) {
  GraphBuilder b(2);
  b.add_edge(1, 1);
  const Graph g = b.build();
  EXPECT_TRUE(g.has_edge(1, 1));
}

TEST(GraphBuilder, RejectsOutOfRangeIds) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), Error);
  EXPECT_THROW(b.add_edge(2, 0), Error);
}

TEST(GraphBuilder, GrowExtendsIdSpace) {
  GraphBuilder b(2);
  b.grow(5);
  b.add_edge(4, 0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_TRUE(g.has_edge(4, 0));
}

TEST(GraphBuilder, GrowNeverShrinks) {
  GraphBuilder b(5);
  b.grow(2);
  EXPECT_EQ(b.num_nodes(), 5u);
}

TEST(GraphBuilder, AddNodeReturnsFreshIds) {
  GraphBuilder b(1);
  EXPECT_EQ(b.add_node(), 1u);
  EXPECT_EQ(b.add_node(), 2u);
  b.add_edge(2, 0);
  EXPECT_EQ(b.build().num_nodes(), 3u);
}

TEST(GraphBuilder, FromExistingGraphRoundTrips) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(3, 0);
  const Graph g = b.build();
  GraphBuilder b2(g);
  EXPECT_EQ(b2.build(), g);
}

TEST(GraphBuilder, IncrementalEditPreservesOriginalEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  GraphBuilder b2(g);
  b2.add_edge(1, 2);
  const Graph g2 = b2.build();
  EXPECT_TRUE(g2.has_edge(0, 1));
  EXPECT_TRUE(g2.has_edge(1, 2));
  EXPECT_EQ(g2.num_edges(), 2u);
}

// Property: building from a random multiset of edges yields exactly the
// distinct-edge set, sorted.
class BuilderRandomized : public ::testing::TestWithParam<u64> {};

TEST_P(BuilderRandomized, MatchesReferenceSet) {
  Pcg32 rng(GetParam());
  const NodeId n = 50;
  GraphBuilder b(n);
  std::vector<std::pair<NodeId, NodeId>> reference;
  for (int i = 0; i < 2000; ++i) {
    const NodeId u = rng.next_below(n);
    const NodeId v = rng.next_below(n);
    b.add_edge(u, v);
    reference.emplace_back(u, v);
  }
  std::sort(reference.begin(), reference.end());
  reference.erase(std::unique(reference.begin(), reference.end()),
                  reference.end());
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), reference.size());
  for (const auto& [u, v] : reference) EXPECT_TRUE(g.has_edge(u, v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderRandomized,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// --- assemble_csr: the result depends only on the multiset of edges,
// never on their order, their split into parts or the thread count.

/// `m` random edges over `n` nodes, with repeats, in no order.
std::vector<Edge> random_edges(u64 m, NodeId n, u64 seed) {
  Pcg32 rng(seed);
  std::vector<Edge> edges(m);
  for (Edge& e : edges) e = {rng.next_below(n), rng.next_below(n)};
  return edges;
}

/// The CSR and multiplicities of `edges` from one sort of the whole
/// list: the obvious construction the counting sort must reproduce.
CsrAssembly reference_csr(NodeId n, std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end());
  std::vector<u64> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> targets;
  std::vector<u32> multiplicity;
  for (std::size_t i = 0; i < edges.size();) {
    std::size_t j = i;
    while (j < edges.size() && edges[j] == edges[i]) ++j;
    targets.push_back(edges[i].second);
    multiplicity.push_back(static_cast<u32>(j - i));
    ++offsets[edges[i].first + 1];
    i = j;
  }
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  return {Graph(std::move(offsets), std::move(targets)),
          std::move(multiplicity)};
}

/// `edges` cut into `parts` pieces of uneven size, the second one empty.
std::vector<std::vector<Edge>> split_parts(const std::vector<Edge>& edges,
                                           std::size_t parts) {
  std::vector<std::vector<Edge>> out(parts);
  std::size_t begin = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t end =
        p + 1 == parts ? edges.size()
        : p == 1       ? begin
                       : begin + (edges.size() - begin) / 3;
    out[p].assign(edges.begin() + static_cast<std::ptrdiff_t>(begin),
                  edges.begin() + static_cast<std::ptrdiff_t>(end));
    begin = end;
  }
  return out;
}

TEST(AssembleCsr, EqualAtEveryThreadCountAndPartition) {
  const NodeId n = 20000;
  const std::vector<Edge> edges = random_edges(400000, n, 5);
  ASSERT_GT(edges.size(), kCsrParallelCutoff);
  const CsrAssembly want = reference_csr(n, edges);
  ASSERT_LT(want.graph.num_edges(), edges.size());  // repeats were folded
  at_thread_counts([&] {
    GraphBuilder b(n);
    for (const auto& [u, v] : edges) b.add_edge(u, v);
    EXPECT_EQ(b.build(), want.graph);
    for (const std::size_t parts : {1, 3, 7}) {
      const CsrAssembly got = assemble_csr(n, split_parts(edges, parts), true);
      EXPECT_EQ(got.graph, want.graph) << parts << " parts";
      EXPECT_EQ(got.multiplicity, want.multiplicity) << parts << " parts";
    }
  });
}

TEST(AssembleCsr, GroupedEdgesComeBackAsGiven) {
  // Rows already sorted and distinct, as a written edge list holds them:
  // no row is sorted or compacted, and nothing changes.
  const NodeId n = 30000;
  std::vector<Edge> edges = random_edges(300000, n, 8);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  ASSERT_GT(edges.size(), kCsrParallelCutoff);
  const CsrAssembly want = reference_csr(n, edges);
  at_thread_counts([&] {
    const CsrAssembly got = assemble_csr(n, split_parts(edges, 4), true);
    EXPECT_EQ(got.graph, want.graph);
    EXPECT_EQ(got.multiplicity, std::vector<u32>(edges.size(), 1));
  });
}

TEST(AssembleCsr, CountsMultiplicityBelowTheCutoff) {
  const CsrAssembly csr = assemble_csr(
      3, {{{0, 2}, {0, 2}, {2, 0}}, {}, {{0, 1}, {0, 2}}}, true);
  EXPECT_EQ(csr.graph.offsets(), (std::vector<u64>{0, 2, 2, 3}));
  EXPECT_EQ(csr.graph.targets(), (std::vector<NodeId>{1, 2, 0}));
  EXPECT_EQ(csr.multiplicity, (std::vector<u32>{1, 3, 1}));
  EXPECT_TRUE(assemble_csr(3, {}).multiplicity.empty());
  EXPECT_EQ(assemble_csr(3, {}).graph.num_nodes(), 3u);
}

TEST(AssembleCsr, OutOfRangeEdgeIsAnErrorAtEveryThreadCount) {
  // The bad edge sits in the second half, a worker's run at 2 and 4
  // threads: the error must reach the caller, not end the process.
  std::vector<Edge> edges = random_edges(200000, 1000, 9);
  for (const Edge& bad :
       {Edge{1000, 3}, Edge{3, 1000}, Edge{kInvalidNode, 0}}) {
    edges[150000] = bad;
    at_thread_counts([&] {
      EXPECT_THROW(assemble_csr(1000, split_parts(edges, 2)), Error);
    });
  }
}

}  // namespace
}  // namespace srsr::graph

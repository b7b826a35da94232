// Tests for SourceGraph: source-level topology and the consensus
// edge weighting of Sec. 3.2.
#include "core/source_graph.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/webgen.hpp"
#include "thread_counts.hpp"

namespace srsr::core {
namespace {

// Fixture: 2 sources; source 0 = pages {0,1,2}, source 1 = pages {3,4}.
struct TwoSources {
  TwoSources() : map({0, 0, 0, 1, 1}) {}
  SourceMap map;
};

TEST(SourceGraph, TopologyFromPageEdges) {
  TwoSources fix;
  graph::GraphBuilder b(5);
  b.add_edge(0, 1);  // intra source 0 -> self edge
  b.add_edge(1, 3);  // source 0 -> source 1
  const SourceGraph sg(b.build(), fix.map);
  EXPECT_EQ(sg.num_sources(), 2u);
  EXPECT_TRUE(sg.topology().has_edge(0, 0));
  EXPECT_TRUE(sg.topology().has_edge(0, 1));
  EXPECT_FALSE(sg.topology().has_edge(1, 0));
}

TEST(SourceGraph, ConsensusCountsUniquePages) {
  TwoSources fix;
  graph::GraphBuilder b(5);
  // Pages 0 and 1 both link into source 1; page 0 links to BOTH pages
  // of source 1 but must count once (the indicator-OR).
  b.add_edge(0, 3);
  b.add_edge(0, 4);
  b.add_edge(1, 3);
  const SourceGraph sg(b.build(), fix.map);
  EXPECT_EQ(sg.consensus(0, 1), 2u);  // two unique pages
  EXPECT_EQ(sg.consensus(0, 0), 0u);  // no intra links
  EXPECT_EQ(sg.consensus(1, 0), 0u);
}

TEST(SourceGraph, ConsensusSelfEdgeFromIntraLinks) {
  TwoSources fix;
  graph::GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  const SourceGraph sg(b.build(), fix.map);
  EXPECT_EQ(sg.consensus(0, 0), 3u);  // three unique intra-linking pages
}

TEST(SourceGraph, PageSelfLoopCountsForSourceSelfEdge) {
  TwoSources fix;
  graph::GraphBuilder b(5);
  b.add_edge(3, 3);
  const SourceGraph sg(b.build(), fix.map);
  EXPECT_EQ(sg.consensus(1, 1), 1u);
}

TEST(SourceGraph, UniformMatrixSplitsEvenly) {
  TwoSources fix;
  graph::GraphBuilder b(5);
  b.add_edge(0, 1);  // self edge
  b.add_edge(0, 3);  // to source 1
  const SourceGraph sg(b.build(), fix.map);
  const auto t = sg.uniform_matrix(/*with_self_edges=*/false);
  EXPECT_DOUBLE_EQ(t.weight(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(t.weight(0, 1), 0.5);
}

TEST(SourceGraph, ConsensusMatrixWeightsByUniquePages) {
  TwoSources fix;
  graph::GraphBuilder b(5);
  // 3 pages link intra (self consensus 3); 1 page links to source 1.
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  const SourceGraph sg(b.build(), fix.map);
  const auto t = sg.consensus_matrix(/*with_self_edges=*/false);
  EXPECT_DOUBLE_EQ(t.weight(0, 0), 0.75);
  EXPECT_DOUBLE_EQ(t.weight(0, 1), 0.25);
}

TEST(SourceGraph, SelfEdgeAugmentationAddsZeroWeightSelf) {
  TwoSources fix;
  graph::GraphBuilder b(5);
  b.add_edge(0, 3);  // only an inter-source edge
  const SourceGraph sg(b.build(), fix.map);
  const auto t = sg.consensus_matrix(/*with_self_edges=*/true);
  // Self edge exists in the pattern with weight 0.
  bool found_self = false;
  const auto cs = t.row_cols(0);
  for (const NodeId c : cs) found_self |= (c == 0);
  EXPECT_TRUE(found_self);
  EXPECT_DOUBLE_EQ(t.weight(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.weight(0, 1), 1.0);
}

TEST(SourceGraph, AugmentationTurnsEmptySourceIntoSelfLoop) {
  TwoSources fix;
  graph::GraphBuilder b(5);
  b.add_edge(0, 3);  // source 1 has no out-links at all
  const SourceGraph sg(b.build(), fix.map);
  const auto t = sg.consensus_matrix(/*with_self_edges=*/true);
  EXPECT_DOUBLE_EQ(t.weight(1, 1), 1.0);
  EXPECT_TRUE(t.dangling_rows().empty());
  // Without augmentation the row dangles.
  const auto bare = sg.consensus_matrix(/*with_self_edges=*/false);
  EXPECT_TRUE(bare.is_dangling_row(1));
}

TEST(SourceGraph, HijackResistanceOfConsensusWeights) {
  // The Sec. 3.2 property: capturing ONE page of a big source moves the
  // consensus weight far less than it moves a uniform page-level share.
  const u32 kPages = 20;
  std::vector<NodeId> assign(kPages + 1, 0);
  assign[kPages] = 1;  // one page in the spam source
  const SourceMap map(assign);
  graph::GraphBuilder b(kPages + 1);
  // All 20 legit pages interlink (self edge consensus 20)...
  for (NodeId p = 0; p < kPages; ++p) b.add_edge(p, (p + 1) % kPages);
  // ...and ONE hijacked page links to the spam source.
  b.add_edge(0, kPages);
  const SourceGraph sg(b.build(), map);
  const auto t = sg.consensus_matrix(true);
  EXPECT_DOUBLE_EQ(t.weight(0, 1), 1.0 / 21.0);  // 1 of 21 page-votes
  EXPECT_GT(t.weight(0, 0), 0.95 * (20.0 / 21.0));
}

TEST(SourceGraph, PageGraphSizeMismatchThrows) {
  const SourceMap map({0, 0});
  graph::GraphBuilder b(3);
  EXPECT_THROW(SourceGraph(b.build(), map), Error);
}

TEST(SourceGraph, IdentityMapGivesPageTopology) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 0);
  const auto pages = b.build();
  const SourceMap map = SourceMap::identity(4);
  const SourceGraph sg(pages, map);
  EXPECT_EQ(sg.topology(), pages);
  for (const u32 c : sg.consensus_counts()) EXPECT_EQ(c, 1u);
}

TEST(SourceGraph, ConsensusOutOfRangeThrows) {
  TwoSources fix;
  graph::GraphBuilder b(5);
  const SourceGraph sg(b.build(), fix.map);
  EXPECT_THROW(sg.consensus(2, 0), Error);
}

TEST(SourceGraph, WebCorpusConsensusRowsAreStochastic) {
  graph::WebGenConfig cfg;
  cfg.num_sources = 120;
  cfg.num_spam_sources = 6;
  cfg.seed = 99;
  const auto corpus = graph::generate_web_corpus(cfg);
  const SourceMap map = SourceMap::from_corpus(corpus);
  const SourceGraph sg(corpus.pages, map);
  for (const bool with_self : {false, true}) {
    for (const bool consensus : {false, true}) {
      const auto m = consensus ? sg.consensus_matrix(with_self)
                               : sg.uniform_matrix(with_self);
      for (NodeId r = 0; r < m.num_rows(); ++r) {
        if (m.is_dangling_row(r)) continue;
        EXPECT_NEAR(m.row_sum(r), 1.0, 1e-9);
      }
      if (with_self) EXPECT_TRUE(m.dangling_rows().empty());
    }
  }
}

TEST(SourceGraph, EqualAtEveryThreadCountToANaiveCount) {
  // Above the CSR cutoff, so page runs are derived on several threads.
  graph::WebGenConfig cfg;
  cfg.num_sources = 1500;
  cfg.num_spam_sources = 30;
  cfg.seed = 5;
  const auto corpus = graph::generate_web_corpus(cfg);
  ASSERT_GT(corpus.pages.num_edges(), graph::kCsrParallelCutoff);
  const SourceMap map = SourceMap::from_corpus(corpus);

  // w(s_i, s_j) = pages of s_i linking to some page of s_j, by brute force.
  std::map<std::pair<NodeId, NodeId>, u32> weight;
  for (NodeId p = 0; p < corpus.num_pages(); ++p) {
    std::set<NodeId> targets;
    for (const NodeId q : corpus.pages.out_neighbors(p))
      targets.insert(map.source_of(q));
    for (const NodeId t : targets) ++weight[{map.source_of(p), t}];
  }
  std::vector<u64> offsets(map.num_sources() + 1, 0);
  std::vector<NodeId> targets;
  std::vector<u32> counts;
  for (const auto& [edge, w] : weight) {
    ++offsets[edge.first + 1];
    targets.push_back(edge.second);
    counts.push_back(w);
  }
  for (std::size_t s = 0; s < map.num_sources(); ++s)
    offsets[s + 1] += offsets[s];
  const graph::Graph topology(std::move(offsets), std::move(targets));

  at_thread_counts([&] {
    const SourceGraph sg(corpus.pages, map);
    EXPECT_EQ(sg.topology(), topology);
    EXPECT_EQ(sg.consensus_counts(), counts);
  });
}

}  // namespace
}  // namespace srsr::core

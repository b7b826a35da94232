#include "rank/pagerank.hpp"

#include "util/check.hpp"

namespace srsr::rank {

PageRank::PageRank(const graph::Graph& g, GraphOperator::Walk walk)
    : graph_(&g), walk_(g, walk) {}

RankResult PageRank::solve(const PageRankConfig& config) const {
  // The walk was derived from *graph_ at construction; a graph object
  // reassigned since then would be ranked by its old edges.
  SRSR_CHECK(graph_->num_nodes() == walk_.num_rows() &&
                 graph_->num_edges() == walk_.num_entries(),
             "PageRank: the graph changed after the solver was built");
  return iterate(walk_, config, /*complete_deficits=*/true,
                 "rank.pagerank.solve", "pagerank");
}

RankResult pagerank(const graph::Graph& g, const PageRankConfig& config) {
  return PageRank(g).solve(config);
}

}  // namespace srsr::rank

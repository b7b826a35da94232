// PageRank over an unweighted page graph (Page et al., 1998).
//
// This is the baseline the paper attacks: pi = alpha * M^T pi + (1-alpha) e
// (Eq. 1), solved by the power method (rank::iterate) on the uniform walk
// of the graph (GraphOperator), whose reverse graph is built once per
// solver and reused across re-runs — the attack harness re-ranks many
// variants. Dangling pages' mass is redistributed by the teleport vector
// every iteration (strong-preference completion). A non-uniform teleport
// gives personalized PageRank: TrustRank, and the paper's spam-proximity
// walk against the source graph's edges.
#pragma once

#include "graph/graph.hpp"
#include "rank/operator.hpp"
#include "rank/result.hpp"
#include "rank/solvers.hpp"

namespace srsr::rank {

/// alpha, convergence, optional teleport and warm start: exactly the
/// power solver's configuration.
using PageRankConfig = SolverConfig;

/// Reusable PageRank solver bound to one graph topology. The walk runs
/// along g's edges, or against them for the spam-proximity walk over
/// the inverted graph (GraphOperator::Walk).
class PageRank {
 public:
  explicit PageRank(const graph::Graph& g,
                    GraphOperator::Walk walk = GraphOperator::Walk::kAlong);

  /// Runs the power method from the uniform start vector (or the warm
  /// start in `config.initial`).
  RankResult solve(const PageRankConfig& config) const;

  const graph::Graph& graph() const { return *graph_; }

 private:
  const graph::Graph* graph_;  // non-owning; must outlive the solver
  GraphOperator walk_;
};

/// One-shot convenience wrapper.
RankResult pagerank(const graph::Graph& g, const PageRankConfig& config = {});

}  // namespace srsr::rank

// The source graph G_S = <S, L_S> and its transition matrices.
//
// Derived from a page graph plus a SourceMap (Sec. 3.1-3.2):
//
//   - topology: source s_i has an edge to s_j iff some page of s_i
//     links to some page of s_j. Intra-source page links induce the
//     natural self-edge (s_i, s_i).
//   - consensus counts: w(s_i, s_j) = number of *unique pages* of s_i
//     that link to (any page of) s_j — the paper's source-consensus
//     edge weighting. A hijacker must capture many pages of s_i to move
//     this weight, which is the second line of defense.
//
// Three matrices come off this structure:
//
//   uniform_matrix()    T   — 1/o(s_i) per out-edge (Sec. 3.1), the
//                             naive SourceRank baseline.
//   consensus_matrix()  T'  — row-normalized consensus weights
//                             (Sec. 3.2).
//   (throttle.hpp)      T'' — influence-throttled transform of T'
//                             (Sec. 3.3).
//
// Both matrix builders take with_self_edges: when true, the Sec. 3.3
// augmentation is applied — every source gets a self-edge (weight-0 in
// the raw counts if it has no intra links; the throttle transform or a
// mandated minimum then gives it mass). A source with no out-edges at
// all becomes a pure self-loop (weight 1), so augmented matrices have
// no dangling rows and the eigenvector and linear solvers agree.
#pragma once

#include <vector>

#include "core/source_map.hpp"
#include "graph/graph.hpp"
#include "rank/stochastic.hpp"
#include "util/common.hpp"

namespace srsr::core {

class SourceGraph {
 public:
  /// Builds topology + consensus counts in O(pages + page-edges) plus
  /// per-page target dedup: runs of pages derive their (source, target
  /// source) pairs in parallel, and graph::assemble_csr folds them into
  /// the topology with each entry's multiplicity as its consensus count.
  /// The result does not depend on the thread count.
  SourceGraph(const graph::Graph& pages, const SourceMap& map);

  u32 num_sources() const { return map_->num_sources(); }
  u64 num_edges() const { return topology_.num_edges(); }

  /// Source-level topology (sorted CSR; includes natural self-edges).
  const graph::Graph& topology() const { return topology_; }

  /// Unique-page consensus count for each edge, aligned with
  /// topology().targets().
  const std::vector<u32>& consensus_counts() const { return consensus_; }

  /// Consensus count for (s_i, s_j); 0 when no edge.
  u32 consensus(NodeId si, NodeId sj) const;

  /// T: uniform transition matrix over source edges (Sec. 3.1).
  rank::StochasticMatrix uniform_matrix(bool with_self_edges) const;

  /// T': source-consensus matrix (Sec. 3.2). Rows are normalized
  /// consensus counts. With self-edge augmentation, sources whose raw
  /// row is all-zero become pure self-loops.
  rank::StochasticMatrix consensus_matrix(bool with_self_edges) const;

  const SourceMap& map() const { return *map_; }

 private:
  rank::StochasticMatrix build_matrix(bool consensus_weights,
                                      bool with_self_edges) const;

  const SourceMap* map_;  // non-owning; must outlive the SourceGraph
  graph::Graph topology_;
  std::vector<u32> consensus_;
};

}  // namespace srsr::core

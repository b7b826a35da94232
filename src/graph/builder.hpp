// CSR assembly: the one routine that turns edge lists into a Graph, and
// the mutable edge accumulator built on it.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/common.hpp"

namespace srsr::graph {

/// A directed edge (source, target).
using Edge = std::pair<NodeId, NodeId>;

/// Edge count below which assemble_csr runs every pass serially, with no
/// OpenMP region: under it a team's fork and join cost more than the
/// parallel passes save (bench/micro_kernels BM_AssembleCsr, DESIGN.md
/// §16).
inline constexpr u64 kCsrParallelCutoff = u64{1} << 16;

/// A CSR and, when asked for, how many input edges each entry stands for.
struct CsrAssembly {
  Graph graph;
  std::vector<u32> multiplicity;  // aligned with graph.targets(), or empty
};

/// Assembles the CSR of every edge in `parts` over the id space
/// [0, num_nodes): a degree count, a prefix sum, a scatter and a per-row
/// sort + dedup, each pass split over the OpenMP team from
/// kCsrParallelCutoff edges up. Rows come out sorted and without
/// duplicates, so the result depends only on the multiset of edges — not
/// on their order, on how they are split into parts, or on the thread
/// count. With `count_multiplicity` each entry also records how many
/// input edges collapsed into it. The parts are consumed: their memory is
/// freed once they are scattered. An edge naming an id >= num_nodes is a
/// contract violation.
CsrAssembly assemble_csr(NodeId num_nodes, std::vector<std::vector<Edge>> parts,
                         bool count_multiplicity = false);

/// Collects (source, target) pairs in any order, then builds a Graph
/// with sorted, deduplicated neighbor lists through assemble_csr —
/// O(V + E), no comparison sort of the full edge list.
class GraphBuilder {
 public:
  /// num_nodes fixes the id space [0, num_nodes); edges to/from larger
  /// ids are a contract violation.
  explicit GraphBuilder(NodeId num_nodes);

  /// Starts from an existing graph's edges (for incremental attack
  /// injection: copy, add spam edges, rebuild).
  explicit GraphBuilder(const Graph& g);

  NodeId num_nodes() const { return num_nodes_; }

  /// Grows the id space to at least `n` nodes (new nodes have no edges).
  void grow(NodeId n);

  /// Adds a new node, returning its id.
  NodeId add_node();

  void reserve_edges(std::size_t n) { edges_.reserve(n); }

  /// Records a directed edge u -> v. Duplicates are allowed here and
  /// collapsed at build time (the Web graph has duplicate hyperlinks;
  /// CSR stores the distinct link). Self-loops are kept: the source
  /// graph model requires them.
  void add_edge(NodeId u, NodeId v);

  std::size_t pending_edges() const { return edges_.size(); }

  /// Finalizes into a Graph; the builder is left empty.
  Graph build();

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

}  // namespace srsr::graph

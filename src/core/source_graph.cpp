#include "core/source_graph.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace srsr::core {

graph::CsrAssembly derive_source_topology(
    std::span<const NodeId> source, u32 num_sources,
    std::span<const u64> link_offsets,
    const std::function<std::span<const NodeId>(NodeId)>& links_of) {
  SRSR_CHECK(link_offsets.size() == source.size() + 1,
             "derive_source_topology: ", link_offsets.size(),
             " link offsets for ", source.size(), " pages");
  const auto pages = static_cast<NodeId>(source.size());
  const u64 links = link_offsets[pages];
  const std::size_t tasks = task_count(links, graph::kCsrParallelCutoff);
  const auto first_page = [&](std::size_t t) -> NodeId {
    if (t == tasks) return pages;
    return static_cast<NodeId>(
        std::lower_bound(link_offsets.begin(), link_offsets.end() - 1,
                         split_point(links, tasks, t)) -
        link_offsets.begin());
  };
  // A page adds at most one pair per link, so each task's buffer is
  // reserved for its links here, on the calling thread: the tasks never
  // grow it, and the untouched tail is address space, not memory.
  std::vector<std::vector<graph::Edge>> parts(tasks);
  for (std::size_t t = 0; t < tasks; ++t)
    parts[t].reserve(link_offsets[first_page(t + 1)] -
                     link_offsets[first_page(t)]);
  parallel_for(0, tasks, [&](std::size_t t) {
    const NodeId lo = first_page(t), hi = first_page(t + 1);
    // A local handle, so the tasks' appends share no cache line.
    std::vector<graph::Edge> pairs = std::move(parts[t]);
    std::vector<NodeId> targets;
    for (NodeId p = lo; p < hi; ++p) {
      targets.clear();
      for (const NodeId q : links_of(p)) targets.push_back(source[q]);
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      for (const NodeId sq : targets) pairs.emplace_back(source[p], sq);
    }
    parts[t] = std::move(pairs);
  });
  return graph::assemble_csr(num_sources, std::move(parts),
                             /*count_multiplicity=*/true);
}

SourceGraph::SourceGraph(const graph::Graph& pages, const SourceMap& map)
    : map_(&map) {
  SRSR_CHECK(pages.num_nodes() == map.num_pages(),
             "SourceGraph: page graph and source map disagree on page count");
  // Ids are in range by construction (Graph targets < num_nodes, checked
  // equal to the map's page count above), so the derivation reads the
  // map directly instead of through the checked source_of.
  graph::CsrAssembly csr = derive_source_topology(
      map.page_source(), map.num_sources(), pages.offsets(),
      [&](NodeId p) { return pages.out_neighbors(p); });
  topology_ = std::move(csr.graph);
  consensus_ = std::move(csr.multiplicity);
}

u32 SourceGraph::consensus(NodeId si, NodeId sj) const {
  SRSR_CHECK(si < num_sources() && sj < num_sources(),
             "SourceGraph::consensus: id out of range");
  const auto nbrs = topology_.out_neighbors(si);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), sj);
  if (it == nbrs.end() || *it != sj) return 0;
  const u64 idx = topology_.offsets()[si] +
                  static_cast<u64>(it - nbrs.begin());
  return consensus_[idx];
}

rank::StochasticMatrix SourceGraph::build_matrix(bool consensus_weights,
                                                 bool with_self_edges) const {
  const u32 ns = num_sources();
  std::vector<u64> offsets(static_cast<std::size_t>(ns) + 1, 0);
  std::vector<NodeId> cols;
  std::vector<f64> weights;
  cols.reserve(topology_.num_edges() + (with_self_edges ? ns : 0));
  weights.reserve(cols.capacity());

  for (u32 s = 0; s < ns; ++s) {
    const auto nbrs = topology_.out_neighbors(s);
    const u64 base = topology_.offsets()[s];
    // Raw row weights.
    f64 total = 0.0;
    bool has_self = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const f64 w =
          consensus_weights ? static_cast<f64>(consensus_[base + i]) : 1.0;
      total += w;
      has_self |= (nbrs[i] == s);
    }

    if (total <= 0.0) {
      // No out-edges: with augmentation the source becomes a pure
      // self-loop; without it the row stays dangling.
      if (with_self_edges) {
        cols.push_back(s);
        weights.push_back(1.0);
      }
      offsets[s + 1] = cols.size();
      continue;
    }

    bool self_inserted = has_self || !with_self_edges;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      // Keep columns sorted while splicing in a weight-0 self-edge.
      if (!self_inserted && nbrs[i] > s) {
        cols.push_back(s);
        weights.push_back(0.0);
        self_inserted = true;
      }
      const f64 w =
          consensus_weights ? static_cast<f64>(consensus_[base + i]) : 1.0;
      cols.push_back(nbrs[i]);
      weights.push_back(w / total);
    }
    if (!self_inserted) {
      cols.push_back(s);
      weights.push_back(0.0);
    }
    offsets[s + 1] = cols.size();
  }
  return rank::StochasticMatrix(std::move(offsets), std::move(cols),
                                std::move(weights));
}

rank::StochasticMatrix SourceGraph::uniform_matrix(bool with_self_edges) const {
  return build_matrix(/*consensus_weights=*/false, with_self_edges);
}

rank::StochasticMatrix SourceGraph::consensus_matrix(
    bool with_self_edges) const {
  return build_matrix(/*consensus_weights=*/true, with_self_edges);
}

}  // namespace srsr::core

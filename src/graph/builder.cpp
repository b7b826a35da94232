#include "graph/builder.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace srsr::graph {

namespace {

/// The edges of `parts` as one sequence [0, size()), so the passes can
/// cut it into equal runs however the input was split.
class EdgeRuns {
 public:
  explicit EdgeRuns(const std::vector<std::vector<Edge>>& parts)
      : parts_(parts), begin_(parts.size() + 1, 0) {
    for (std::size_t p = 0; p < parts.size(); ++p)
      begin_[p + 1] = begin_[p] + parts[p].size();
  }

  u64 size() const { return begin_.back(); }

  /// Calls fn(edge) for the edges at [lo, hi), in order.
  template <typename Fn>
  void for_each(u64 lo, u64 hi, Fn&& fn) const {
    auto p = static_cast<std::size_t>(
        std::upper_bound(begin_.begin(), begin_.end(), lo) - begin_.begin());
    --p;  // the part holding edge `lo`
    for (u64 i = lo; i < hi; ++p) {
      const std::vector<Edge>& part = parts_[p];
      const u64 from = i - begin_[p];
      const u64 to = std::min<u64>(part.size(), from + (hi - i));
      for (u64 k = from; k < to; ++k) fn(part[k]);
      i += to - from;
    }
  }

 private:
  const std::vector<std::vector<Edge>>& parts_;
  std::vector<u64> begin_;  // begin_[p] = index of parts_[p]'s first edge
};

}  // namespace

CsrAssembly assemble_csr(NodeId num_nodes, std::vector<std::vector<Edge>> parts,
                         bool count_multiplicity) {
  const std::size_t n = num_nodes;
  const EdgeRuns runs(parts);
  const u64 m = runs.size();
  const std::size_t tasks = task_count(m, kCsrParallelCutoff);
  const auto edge_lo = [&](std::size_t t) { return split_point(m, tasks, t); };
  const auto row_lo = [&](std::size_t t) { return split_point(n, tasks, t); };

  // 1. The rows each task's run of edges touches, [first[t], last[t]).
  //    Edges grouped by source, as in a written edge list or a
  //    page-ordered derivation, give each task a narrow range. One task
  //    takes every row without looking.
  std::vector<u64> first(tasks, 0), last(tasks, n);
  if (tasks > 1) {
    parallel_for(0, tasks, [&](std::size_t t) {
      u64 lo = n, hi = 0;
      // srsr:hot csr-range — one min/max per edge.
      runs.for_each(edge_lo(t), edge_lo(t + 1), [&](const Edge& e) {
        if (e.first >= num_nodes) return;  // rejected by the count below
        lo = std::min<u64>(lo, e.first);
        hi = std::max<u64>(hi, e.first + u64{1});
      });
      // srsr:endhot
      first[t] = lo < hi ? lo : 0;
      last[t] = lo < hi ? hi : 0;
    });
  }

  // 2. Degree count: task t counts into its own slice of `cursor`, which
  //    covers its row range only (no atomics, no shared counter). For
  //    grouped edges the slices add up to about one row array, not
  //    `tasks` of them.
  std::vector<u64> slice(tasks + 1, 0);
  for (std::size_t t = 0; t < tasks; ++t)
    slice[t + 1] = slice[t] + (last[t] - first[t]);
  std::vector<u64> cursor(slice[tasks], 0);
  const auto at = [&](std::size_t t, u64 u) -> u64& {
    return cursor[slice[t] + (u - first[t])];
  };
  std::vector<u8> out_of_range(tasks, 0);
  parallel_for(0, tasks, [&](std::size_t t) {
    bool bad = false;
    // srsr:hot csr-count — one increment per edge.
    runs.for_each(edge_lo(t), edge_lo(t + 1), [&](const Edge& e) {
      if (e.first >= num_nodes || e.second >= num_nodes) [[unlikely]] {
        bad = true;
        return;
      }
      ++at(t, e.first);
    });
    // srsr:endhot
    out_of_range[t] = bad;
  });
  SRSR_CHECK(std::count(out_of_range.begin(), out_of_range.end(), 1) == 0,
             "assemble_csr: an edge names a node outside [0, ", num_nodes,
             ")");

  // 3. Row offsets (prefix sum of the degrees), then each task's first
  //    slot in every row it touches: rows are filled task by task.
  std::vector<u64> offsets(n + 1, 0);
  const auto touches = [&](std::size_t t, u64 u) {
    return u >= first[t] && u < last[t];
  };
  parallel_for(0, tasks, [&](std::size_t t) {
    for (u64 u = row_lo(t); u < row_lo(t + 1); ++u) {
      u64 degree = 0;
      for (std::size_t s = 0; s < tasks; ++s)
        if (touches(s, u)) degree += at(s, u);
      offsets[u + 1] = degree;
    }
  });
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  parallel_for(0, tasks, [&](std::size_t t) {
    for (u64 u = row_lo(t); u < row_lo(t + 1); ++u) {
      u64 slot = offsets[u];
      for (std::size_t s = 0; s < tasks; ++s) {
        if (!touches(s, u)) continue;
        const u64 count = at(s, u);
        at(s, u) = slot;
        slot += count;
      }
    }
  });

  // 4. Scatter: each task writes its edges' targets at its own slots.
  std::vector<NodeId> targets(m);
  parallel_for(0, tasks, [&](std::size_t t) {
    // srsr:hot csr-scatter — one store per edge.
    runs.for_each(edge_lo(t), edge_lo(t + 1),
                  [&](const Edge& e) { targets[at(t, e.first)++] = e.second; });
    // srsr:endhot
  });
  std::vector<u64>().swap(cursor);
  std::vector<std::vector<Edge>>().swap(parts);

  // 5. Sort and dedup each row in place (rows already sorted, as in a
  //    written edge list, skip the sort). kept[u + 1] = distinct entries
  //    of row u; rows are cut into runs of about m / tasks entries.
  std::vector<u32> multiplicity(count_multiplicity ? m : 0);
  std::vector<u64> kept(n + 1, 0);
  const auto row_of_edge = [&](std::size_t t) -> u64 {
    if (t == tasks) return n;
    return static_cast<u64>(
        std::lower_bound(offsets.begin(), offsets.end() - 1, edge_lo(t)) -
        offsets.begin());
  };
  parallel_for(0, tasks, [&](std::size_t t) {
    // srsr:hot csr-rows — per-row sort + dedup, no allocation.
    for (u64 u = row_of_edge(t); u < row_of_edge(t + 1); ++u) {
      NodeId* const row = targets.data() + offsets[u];
      const u64 len = offsets[u + 1] - offsets[u];
      if (!std::is_sorted(row, row + len)) std::sort(row, row + len);
      u64 distinct = 0;
      for (u64 i = 0; i < len;) {
        u64 j = i + 1;
        while (j < len && row[j] == row[i]) ++j;
        row[distinct] = row[i];
        if (count_multiplicity)
          multiplicity[offsets[u] + distinct] = static_cast<u32>(j - i);
        ++distinct;
        i = j;
      }
      kept[u + 1] = distinct;
    }
    // srsr:endhot
  });
  for (std::size_t u = 0; u < n; ++u) kept[u + 1] += kept[u];

  // 6. Compact the deduplicated rows, unless nothing was dropped.
  CsrAssembly out;
  if (kept[n] == m) {
    out.graph = Graph(std::move(offsets), std::move(targets));
    out.multiplicity = std::move(multiplicity);
    return out;
  }
  std::vector<NodeId> compact(kept[n]);
  std::vector<u32> compact_multiplicity(count_multiplicity ? kept[n] : 0);
  parallel_for(0, tasks, [&](std::size_t t) {
    for (u64 u = row_of_edge(t); u < row_of_edge(t + 1); ++u) {
      const u64 len = kept[u + 1] - kept[u];
      const auto from = static_cast<std::ptrdiff_t>(offsets[u]);
      const auto to = static_cast<std::ptrdiff_t>(kept[u]);
      std::copy_n(targets.begin() + from, len, compact.begin() + to);
      if (count_multiplicity)
        std::copy_n(multiplicity.begin() + from, len,
                    compact_multiplicity.begin() + to);
    }
  });
  out.graph = Graph(std::move(kept), std::move(compact));
  out.multiplicity = std::move(compact_multiplicity);
  return out;
}

GraphBuilder::GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

GraphBuilder::GraphBuilder(const Graph& g) : num_nodes_(g.num_nodes()) {
  edges_.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const NodeId v : g.out_neighbors(u)) edges_.emplace_back(u, v);
}

void GraphBuilder::grow(NodeId n) {
  if (n > num_nodes_) num_nodes_ = n;
}

NodeId GraphBuilder::add_node() {
  SRSR_CHECK(num_nodes_ != kInvalidNode, "GraphBuilder: node id space exhausted");
  return num_nodes_++;
}

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  SRSR_CHECK(u < num_nodes_ && v < num_nodes_,
        "GraphBuilder::add_edge: node id out of range");
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() {
  std::vector<std::vector<Edge>> parts(1);
  parts[0].swap(edges_);
  return assemble_csr(num_nodes_, std::move(parts)).graph;
}

}  // namespace srsr::graph

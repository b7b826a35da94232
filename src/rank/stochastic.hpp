// Row-(sub)stochastic sparse matrices in CSR form.
//
// PageRank works on the uniform transition matrix M of a page graph;
// Spam-Resilient SourceRank works on weighted source matrices T, T' and
// T''. This class is the shared representation: CSR rows of (column,
// weight) pairs with every row summing to AT MOST 1. A row sum below 1
// is a *deficit* row: the missing probability mass is surrendered to
// the teleport distribution by the power solver (dangling rows, sum 0,
// are the extreme case; the teleport-discard throttling mode produces
// intermediate deficits). The solvers iterate the *transpose* (pull
// form) so that rows can be processed in parallel without atomics —
// build the matrix once, transpose once, iterate many times.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/common.hpp"

namespace srsr::rank {

class StochasticMatrix {
 public:
  StochasticMatrix() : offsets_(1, 0) {}

  /// CSR construction; weights must be non-negative, each row sum must
  /// be <= 1 (tolerance 1e-9). Rows below 1 carry a deficit (see class
  /// comment); rows of exactly 0 entries are dangling.
  StochasticMatrix(std::vector<u64> offsets, std::vector<NodeId> cols,
                   std::vector<f64> weights);

  /// The PageRank matrix M of a graph: row u has weight 1/out_degree(u)
  /// on each successor; dangling rows are all-zero.
  static StochasticMatrix uniform_from_graph(const graph::Graph& g);

  /// Builds from raw per-row entries, normalizing each row to sum 1
  /// (rows with zero total stay dangling). Entries within a row must
  /// have distinct columns; column order is preserved.
  static StochasticMatrix from_rows(
      NodeId n, const std::vector<std::vector<std::pair<NodeId, f64>>>& rows);

  NodeId num_rows() const { return static_cast<NodeId>(offsets_.size() - 1); }
  u64 num_entries() const { return offsets_.back(); }

  std::span<const NodeId> row_cols(NodeId r) const {
    return {cols_.data() + offsets_[r], cols_.data() + offsets_[r + 1]};
  }
  std::span<const f64> row_weights(NodeId r) const {
    return {weights_.data() + offsets_[r], weights_.data() + offsets_[r + 1]};
  }

  /// Weight of entry (r, c), or 0 when absent. When every row has its
  /// columns in ascending order (detected once at construction — true
  /// for matrices built from Graph CSR, transpose(), and the throttle
  /// transform) the lookup binary-searches in O(log row length);
  /// otherwise it falls back to a linear scan. Rows with duplicate
  /// columns return the first match on the sorted path and the sum is
  /// NOT taken on either path — rows are expected to have distinct
  /// columns (the from_rows contract).
  f64 weight(NodeId r, NodeId c) const;

  /// True when every row's columns are strictly ascending (the sorted
  /// contract weight() fast-paths on).
  bool rows_sorted() const { return rows_sorted_; }

  f64 row_sum(NodeId r) const;
  bool is_dangling_row(NodeId r) const { return offsets_[r] == offsets_[r + 1]; }
  std::vector<NodeId> dangling_rows() const;

  /// Per-row probability deficit: max(0, 1 - row_sum(r)). 1 for
  /// dangling rows, 0 for fully stochastic rows.
  std::vector<f64> row_deficits() const;

  /// y = x^T * A  (i.e. y_c = sum_r x_r * A_{r,c}); serial scatter form.
  void left_multiply(std::span<const f64> x, std::span<f64> y) const;

  /// Transposed copy (entries (r,c,w) -> (c,r,w)), used by pull solvers.
  /// Large matrices transpose in parallel (per-chunk column counting +
  /// prefix sum + chunk-cursor scatter); the output is identical to the
  /// serial path — each transposed row's entries are ordered by source
  /// row, so results stay deterministic and rows come out sorted.
  StochasticMatrix transpose() const;

  u64 memory_bytes() const {
    return offsets_.size() * sizeof(u64) + cols_.size() * sizeof(NodeId) +
           weights_.size() * sizeof(f64);
  }

 private:
  StochasticMatrix(std::vector<u64> offsets, std::vector<NodeId> cols,
                   std::vector<f64> weights, bool skip_validation);

  std::vector<u64> offsets_;
  std::vector<NodeId> cols_;
  std::vector<f64> weights_;
  bool rows_sorted_ = true;
};

/// A solver's teleport or starting distribution over `n` nodes: uniform
/// when `v` is empty, otherwise `v` validated (size n, finite,
/// non-negative, positive mass) and divided by its sum. `what` prefixes
/// the error messages (e.g. "solver: teleport").
std::vector<f64> normalized_distribution(
    const std::optional<std::vector<f64>>& v, NodeId n, const char* what);

}  // namespace srsr::rank

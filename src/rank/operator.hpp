// TransitionOperator: the abstraction the iterative solvers consume.
//
// The solvers never needed a concrete matrix — they need four access
// patterns over one:
//
//   pull_rows(x, y, b, e)    y_v = (A^T x)_v for v in [b, e), the hot
//                            kernel of the power and Jacobi routes;
//   pull_off_diagonal(v, x)  the Gauss-Seidel inner step;
//   diagonal(v)              A_vv, for the implicit Gauss-Seidel solve;
//   row(u, ...)              forward row access, for residual push.
//
// Operators are serial: rank::iterate owns the only parallel region of
// an iteration and hands each task a fixed chunk of rows.
//
// Three implementations:
//
//   MatrixOperator  — wraps a materialized StochasticMatrix; transposes
//                     it once at construction. This is exactly the old
//                     per-solve behavior, factored out.
//   ThrottledView   — the lazy throttle operator. Holds the transposed
//                     base matrix T' (built ONCE by the caller) plus a
//                     RowAffinePlan of three O(V) vectors; entries of
//                     T'' = throttle(T', kappa) are computed on the fly
//                     as off_scale[r] * T'_rc with the diagonal
//                     overridden. Sweeping kappa configurations then
//                     costs an O(V) plan build per configuration
//                     instead of two O(E) copies (materialize +
//                     transpose).
//   GraphOperator   — the uniform walk of a graph, along its edges
//                     (PageRank) or against them (spam proximity).
//
// A ThrottledView is immutable after construction and safe to share
// across threads for concurrent pull()/row() calls (lock-free reads of
// const CSR arrays; the tsan suite pins this).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "rank/stochastic.hpp"
#include "util/common.hpp"

namespace srsr::rank {

/// Per-row affine reweighting of a base matrix B:
///
///   A_rc = off_scale[r] * B_rc   (c != r)
///   A_rr = diagonal[r]           (regardless of whether B_rr exists)
///
/// `deficit[r]` caches max(0, 1 - row sum of A) so the power solver
/// needs no O(E) pass. Produced for the throttle transform by
/// core::make_throttle_plan; any per-row affine reweighting fits.
struct RowAffinePlan {
  std::vector<f64> off_scale;
  std::vector<f64> diagonal;
  std::vector<f64> deficit;
};

/// One forward row of an operator. Spans either alias the operator's
/// own storage or the scratch buffers passed to row(); they are valid
/// until the next call that reuses those buffers.
struct OperatorRow {
  std::span<const NodeId> cols;
  std::span<const f64> weights;
};

class TransitionOperator {
 public:
  virtual ~TransitionOperator() = default;

  virtual NodeId num_rows() const = 0;
  /// Entries in the underlying sparsity pattern (reporting only).
  virtual u64 num_entries() const = 0;

  /// Per-row probability deficits max(0, 1 - row_sum): the mass the
  /// power solver re-routes to the teleport distribution.
  virtual const std::vector<f64>& deficits() const = 0;

  /// y_v = sum_u x_u * A_uv for every v in [begin, end) (pull form),
  /// serially; y outside the range is untouched. x and y must both have
  /// num_rows() entries and must not alias.
  virtual void pull_rows(std::span<const f64> x, std::span<f64> y,
                         NodeId begin, NodeId end) const = 0;

  /// pull_rows over every row, after checking the sizes.
  void pull(std::span<const f64> x, std::span<f64> y) const;

  /// sum_{u != v} x_u * A_uv — the Gauss-Seidel off-diagonal pull for
  /// one destination row.
  virtual f64 pull_off_diagonal(NodeId v, std::span<const f64> x) const = 0;

  /// A_vv.
  virtual f64 diagonal(NodeId v) const = 0;

  /// Forward row u of A. Implementations may fill the scratch buffers
  /// (the view computes weights on the fly) or return spans straight
  /// into their own storage (the matrix wrapper copies nothing).
  virtual OperatorRow row(NodeId u, std::vector<NodeId>& cols_scratch,
                          std::vector<f64>& weights_scratch) const = 0;

  virtual u64 memory_bytes() const = 0;
};

/// Today's behavior, factored out: wraps a materialized matrix and
/// transposes it once at construction. The wrapped matrix must outlive
/// the operator.
class MatrixOperator final : public TransitionOperator {
 public:
  explicit MatrixOperator(const StochasticMatrix& matrix);

  NodeId num_rows() const override { return matrix_->num_rows(); }
  u64 num_entries() const override { return matrix_->num_entries(); }
  const std::vector<f64>& deficits() const override { return deficits_; }
  void pull_rows(std::span<const f64> x, std::span<f64> y, NodeId begin,
                 NodeId end) const override;
  f64 pull_off_diagonal(NodeId v, std::span<const f64> x) const override;
  f64 diagonal(NodeId v) const override;
  OperatorRow row(NodeId u, std::vector<NodeId>& cols_scratch,
                  std::vector<f64>& weights_scratch) const override;
  u64 memory_bytes() const override {
    return pull_.memory_bytes() + deficits_.size() * sizeof(f64);
  }

 private:
  const StochasticMatrix* matrix_;
  StochasticMatrix pull_;  // transpose of *matrix_
  std::vector<f64> deficits_;
  // Diagonal extracted lazily — only the Gauss-Seidel route needs it.
  // Not synchronized: first use must come from a single thread (every
  // solver driver runs its setup single-threaded).
  mutable std::vector<f64> diag_;
  mutable bool diag_built_ = false;
};

/// The lazy throttle operator: T'' entries computed on read from the
/// transposed T' plus the per-row plan. Both matrices must outlive the
/// view; `transpose` must be `base.transpose()`.
class ThrottledView final : public TransitionOperator {
 public:
  ThrottledView(const StochasticMatrix& base,
                const StochasticMatrix& transpose, RowAffinePlan plan);

  /// Swaps in the next kappa configuration's plan — O(1) beyond the
  /// O(V) plan the caller already built.
  void reset_plan(RowAffinePlan plan);

  const RowAffinePlan& plan() const { return plan_; }

  NodeId num_rows() const override { return base_->num_rows(); }
  u64 num_entries() const override { return base_->num_entries(); }
  const std::vector<f64>& deficits() const override { return plan_.deficit; }
  void pull_rows(std::span<const f64> x, std::span<f64> y, NodeId begin,
                 NodeId end) const override;
  f64 pull_off_diagonal(NodeId v, std::span<const f64> x) const override;
  f64 diagonal(NodeId v) const override { return plan_.diagonal[v]; }
  /// Off-diagonal entries scaled by off_scale[u], the diagonal
  /// overridden (spliced into the sorted column list when the base
  /// pattern has no self entry).
  OperatorRow row(NodeId u, std::vector<NodeId>& cols_scratch,
                  std::vector<f64>& weights_scratch) const override;
  /// Only the plan is owned; the CSR arrays belong to the caller.
  u64 memory_bytes() const override {
    return (plan_.off_scale.size() + plan_.diagonal.size() +
            plan_.deficit.size()) *
           sizeof(f64);
  }

 private:
  const StochasticMatrix* base_;
  const StochasticMatrix* pull_;  // transpose of *base_
  RowAffinePlan plan_;
};

/// The uniform random walk of a graph: A_uv = 1/d(u) per walk edge
/// u -> v, d(u) the walk's out-degree of u; deficit 1 on dangling rows
/// (d = 0), 0 elsewhere.
class GraphOperator final : public TransitionOperator {
 public:
  enum class Walk {
    kAlong,    // g's edges; pulls over reverse(g), built once here
    kAgainst,  // the inverted graph's; pulls over g's own rows (no
               // transpose), so g must outlive the operator
  };

  GraphOperator(const graph::Graph& g, Walk walk);

  NodeId num_rows() const override { return rows().num_nodes(); }
  u64 num_entries() const override { return rows().num_edges(); }
  const std::vector<f64>& deficits() const override { return deficits_; }
  void pull_rows(std::span<const f64> x, std::span<f64> y, NodeId begin,
                 NodeId end) const override;
  f64 pull_off_diagonal(NodeId v, std::span<const f64> x) const override;
  f64 diagonal(NodeId v) const override;
  /// Column scan of the pull rows, O(E) per call: no solver pushes over
  /// a graph walk; this satisfies the interface, it is not fast.
  OperatorRow row(NodeId u, std::vector<NodeId>& cols_scratch,
                  std::vector<f64>& weights_scratch) const override;
  u64 memory_bytes() const override {
    return owned_.memory_bytes() +
           (scale_.size() + deficits_.size()) * sizeof(f64);
  }

 private:
  /// Row v lists every u with a walk edge u -> v.
  const graph::Graph& rows() const { return borrowed_ ? *borrowed_ : owned_; }

  graph::Graph owned_;                      // reverse(g) for kAlong
  const graph::Graph* borrowed_ = nullptr;  // g for kAgainst
  std::vector<f64> scale_;                  // 1/d(u), 0 when dangling
  std::vector<f64> deficits_;
};

}  // namespace srsr::rank

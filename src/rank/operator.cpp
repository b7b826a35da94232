#include "rank/operator.hpp"

#include <algorithm>

#include "graph/transforms.hpp"
#include "util/check.hpp"

namespace srsr::rank {

void TransitionOperator::pull(std::span<const f64> x, std::span<f64> y) const {
  const NodeId n = num_rows();
  SRSR_CHECK(x.size() == n && y.size() == n,
             "TransitionOperator::pull: size mismatch");
  pull_rows(x, y, 0, n);
}

MatrixOperator::MatrixOperator(const StochasticMatrix& matrix)
    : matrix_(&matrix),
      pull_(matrix.transpose()),
      deficits_(matrix.row_deficits()) {}

void MatrixOperator::pull_rows(std::span<const f64> x, std::span<f64> y,
                               NodeId begin, NodeId end) const {
  SRSR_DCHECK(begin <= end && end <= num_rows() && x.size() == num_rows() &&
                  y.size() == num_rows(),
              "MatrixOperator::pull_rows: rows or sizes out of range");
  // srsr:hot matrix-pull
  for (NodeId v = begin; v < end; ++v) {
    const auto cs = pull_.row_cols(v);
    const auto ws = pull_.row_weights(v);
    f64 acc = 0.0;
    for (std::size_t i = 0; i < cs.size(); ++i) acc += x[cs[i]] * ws[i];
    y[v] = acc;
  }
  // srsr:endhot
}

f64 MatrixOperator::pull_off_diagonal(NodeId v, std::span<const f64> x) const {
  const auto cs = pull_.row_cols(v);
  const auto ws = pull_.row_weights(v);
  f64 acc = 0.0;
  for (std::size_t i = 0; i < cs.size(); ++i)
    if (cs[i] != v) acc += x[cs[i]] * ws[i];
  return acc;
}

f64 MatrixOperator::diagonal(NodeId v) const {
  if (!diag_built_) {
    diag_.assign(num_rows(), 0.0);
    for (NodeId r = 0; r < num_rows(); ++r) {
      const auto cs = pull_.row_cols(r);
      const auto ws = pull_.row_weights(r);
      for (std::size_t i = 0; i < cs.size(); ++i)
        if (cs[i] == r) diag_[r] += ws[i];
    }
    diag_built_ = true;
  }
  return diag_[v];
}

OperatorRow MatrixOperator::row(NodeId u, std::vector<NodeId>&,
                                std::vector<f64>&) const {
  return {matrix_->row_cols(u), matrix_->row_weights(u)};
}

ThrottledView::ThrottledView(const StochasticMatrix& base,
                             const StochasticMatrix& transpose,
                             RowAffinePlan plan)
    : base_(&base), pull_(&transpose) {
  SRSR_CHECK(transpose.num_rows() == base.num_rows() &&
                 transpose.num_entries() == base.num_entries(),
             "ThrottledView: transpose does not match the base matrix");
  reset_plan(std::move(plan));
}

void ThrottledView::reset_plan(RowAffinePlan plan) {
  // O(V) per kappa configuration, same order as building the plan: a
  // NaN or out-of-range entry here would silently corrupt every pull of
  // the sweep, so the full contract is always on (not just a DCHECK).
  validate_plan(plan, base_->num_rows(), 1e-9, "ThrottledView::reset_plan");
  plan_ = std::move(plan);
}

void ThrottledView::pull_rows(std::span<const f64> x, std::span<f64> y,
                              NodeId begin, NodeId end) const {
  SRSR_DCHECK(begin <= end && end <= num_rows() && x.size() == num_rows() &&
                  y.size() == num_rows(),
              "ThrottledView::pull_rows: rows or sizes out of range");
  const f64* const scale = plan_.off_scale.data();
  const f64* const diag = plan_.diagonal.data();
  // srsr:hot throttled-pull
  for (NodeId v = begin; v < end; ++v) {
    const auto cs = pull_->row_cols(v);
    const auto ws = pull_->row_weights(v);
    f64 acc = 0.0;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const NodeId u = cs[i];
      // Off-diagonal entries of origin row u are rescaled by scale[u];
      // the diagonal is overridden wholesale below (it may exist even
      // where the base pattern has no self entry).
      if (u != v) acc += x[u] * scale[u] * ws[i];
    }
    y[v] = acc + x[v] * diag[v];
  }
  // srsr:endhot
}

f64 ThrottledView::pull_off_diagonal(NodeId v, std::span<const f64> x) const {
  const auto cs = pull_->row_cols(v);
  const auto ws = pull_->row_weights(v);
  const f64* const scale = plan_.off_scale.data();
  f64 acc = 0.0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const NodeId u = cs[i];
    if (u != v) acc += x[u] * scale[u] * ws[i];
  }
  return acc;
}

OperatorRow ThrottledView::row(NodeId u, std::vector<NodeId>& cols_scratch,
                               std::vector<f64>& weights_scratch) const {
  // srsr:hot throttled-row — per-sweep row synthesis for the
  // Gauss-Seidel and push solvers. The scratch vectors are caller-owned
  // and reused across every row of a solve, so the growth calls below
  // are amortized-zero after the first sweep.
  const auto cs = base_->row_cols(u);
  const auto ws = base_->row_weights(u);
  const f64 scale = plan_.off_scale[u];
  const f64 diag = plan_.diagonal[u];

  bool has_self = false;
  for (const NodeId c : cs)
    if (c == u) {
      has_self = true;
      break;
    }

  weights_scratch.clear();
  if (has_self || diag == 0.0) {
    // The base pattern already covers the diagonal (or there is none):
    // reuse the base column span and compute weights in place.
    weights_scratch.reserve(cs.size());  // srsr-analyze: allow(hotloop): reused scratch, amortized-zero
    for (std::size_t i = 0; i < cs.size(); ++i)
      weights_scratch.push_back(cs[i] == u ? diag : ws[i] * scale);  // srsr-analyze: allow(hotloop): within reserved capacity
    return {cs, weights_scratch};
  }

  // Diagonal override on a row with no self entry (absorb-mode splice):
  // build the column list too, keeping sorted rows sorted.
  cols_scratch.clear();
  cols_scratch.reserve(cs.size() + 1);  // srsr-analyze: allow(hotloop): reused scratch, amortized-zero
  weights_scratch.reserve(cs.size() + 1);  // srsr-analyze: allow(hotloop): reused scratch, amortized-zero
  bool self_written = false;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (!self_written && cs[i] > u) {
      cols_scratch.push_back(u);  // srsr-analyze: allow(hotloop): within reserved capacity
      weights_scratch.push_back(diag);  // srsr-analyze: allow(hotloop): within reserved capacity
      self_written = true;
    }
    cols_scratch.push_back(cs[i]);  // srsr-analyze: allow(hotloop): within reserved capacity
    weights_scratch.push_back(ws[i] * scale);  // srsr-analyze: allow(hotloop): within reserved capacity
  }
  if (!self_written) {
    cols_scratch.push_back(u);  // srsr-analyze: allow(hotloop): within reserved capacity
    weights_scratch.push_back(diag);  // srsr-analyze: allow(hotloop): within reserved capacity
  }
  return {cols_scratch, weights_scratch};
  // srsr:endhot
}

GraphOperator::GraphOperator(const graph::Graph& g, Walk walk) {
  if (walk == Walk::kAlong)
    owned_ = graph::reverse(g);
  else
    borrowed_ = &g;
  // A walk edge u -> v puts u in pull row v, so d(u) is u's in-degree
  // in the pull rows.
  const std::vector<u64> degree = rows().in_degrees();
  scale_.assign(degree.size(), 0.0);
  deficits_.assign(degree.size(), 1.0);
  for (std::size_t u = 0; u < degree.size(); ++u)
    if (degree[u] != 0) {
      scale_[u] = 1.0 / static_cast<f64>(degree[u]);
      deficits_[u] = 0.0;
    }
}

void GraphOperator::pull_rows(std::span<const f64> x, std::span<f64> y,
                              NodeId begin, NodeId end) const {
  SRSR_DCHECK(begin <= end && end <= num_rows() && x.size() == num_rows() &&
                  y.size() == num_rows(),
              "GraphOperator::pull_rows: rows or sizes out of range");
  const graph::Graph& g = rows();
  const f64* const scale = scale_.data();
  // srsr:hot graph-pull
  for (NodeId v = begin; v < end; ++v) {
    f64 acc = 0.0;
    for (const NodeId u : g.out_neighbors(v)) acc += x[u] * scale[u];
    y[v] = acc;
  }
  // srsr:endhot
}

f64 GraphOperator::pull_off_diagonal(NodeId v, std::span<const f64> x) const {
  f64 acc = 0.0;
  for (const NodeId u : rows().out_neighbors(v))
    if (u != v) acc += x[u] * scale_[u];
  return acc;
}

f64 GraphOperator::diagonal(NodeId v) const {
  const auto us = rows().out_neighbors(v);
  return static_cast<f64>(std::count(us.begin(), us.end(), v)) * scale_[v];
}

OperatorRow GraphOperator::row(NodeId u, std::vector<NodeId>& cols_scratch,
                               std::vector<f64>& weights_scratch) const {
  cols_scratch.clear();
  for (NodeId v = 0; v < num_rows(); ++v) {
    const auto us = rows().out_neighbors(v);
    cols_scratch.insert(cols_scratch.end(),
                        std::count(us.begin(), us.end(), u), v);
  }
  weights_scratch.assign(cols_scratch.size(), scale_[u]);
  return {cols_scratch, weights_scratch};
}

}  // namespace srsr::rank

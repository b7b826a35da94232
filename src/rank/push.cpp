#include "rank/push.hpp"

#include <cmath>
#include <deque>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/check.hpp"

namespace srsr::rank {

namespace {

/// Core loop: pushes residual mass until every |r_u| < epsilon.
/// `row_of(u)` serves forward row u as an OperatorRow — direct CSR
/// spans for a matrix, on-the-fly weights for a view.
template <typename RowFn>
PushResult run_push(NodeId n, const PushConfig& config, std::vector<f64> p,
                    std::vector<f64> r, RowFn&& row_of,
                    std::vector<f64>* residual_out = nullptr) {
  SRSR_CHECK(std::isfinite(config.alpha) && config.alpha >= 0.0 &&
                 config.alpha < 1.0,
             "push: alpha = ", config.alpha, ", must be in [0, 1)");
  SRSR_CHECK(std::isfinite(config.epsilon) && config.epsilon > 0.0,
             "push: epsilon must be positive and finite");
  const f64 alpha = config.alpha;
  PushResult result;
  obs::Scope scope("rank.push.solve");

  std::deque<NodeId> queue;
  std::vector<bool> in_queue(n, false);
  std::vector<bool> ever_pushed(n, false);
  for (NodeId u = 0; u < n; ++u) {
    if (std::abs(r[u]) >= config.epsilon) {
      queue.push_back(u);
      in_queue[u] = true;
    }
  }

  obs::IterationTrace* const trace = config.trace;
  u32 sweeps = 0;

  // srsr:hot push-loop — the work-queue core of local push. The deque
  // frontier is inherently dynamic; its growth is the algorithm's data
  // structure, not an accident, so those lines carry explicit waivers.
  while (!queue.empty()) {
    if (config.max_pushes != 0 && result.pushes >= config.max_pushes) break;
    const NodeId u = queue.front();
    queue.pop_front();
    in_queue[u] = false;
    const f64 ru = r[u];
    if (std::abs(ru) < config.epsilon) continue;
    ++result.pushes;
    if (trace && result.pushes % n == 0)
      trace->on_iteration({++sweeps, std::abs(ru), std::abs(ru),
                           scope.elapsed()});
    if (!ever_pushed[u]) {
      ever_pushed[u] = true;
      ++result.touched;
    }
    p[u] += (1.0 - alpha) * ru;
    r[u] = 0.0;
    const OperatorRow row = row_of(u);
    const auto cs = row.cols;
    const auto ws = row.weights;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const NodeId v = cs[i];
      r[v] += alpha * ws[i] * ru;
      if (!in_queue[v] && std::abs(r[v]) >= config.epsilon) {
        queue.push_back(v);  // srsr-analyze: allow(hotloop): frontier deque is the push algorithm's state
        in_queue[v] = true;
      }
    }
  }
  // srsr:endhot

  result.converged = true;
  for (const f64 v : r) {
    result.max_residual = std::max(result.max_residual, std::abs(v));
    if (std::abs(v) >= config.epsilon) result.converged = false;
  }
  if (trace)
    trace->on_iteration({sweeps + 1, result.max_residual, result.max_residual,
                         scope.elapsed()});

  if (residual_out) *residual_out = std::move(r);

  if (config.normalize) {
    // Tiny negative leftovers can survive signed pushes (bounded by the
    // residual tolerance); clamp before normalizing to a distribution.
    f64 sum = 0.0;
    for (f64& v : p) {
      if (v < 0.0) v = 0.0;
      sum += v;
    }
    if (sum > 0.0)
      for (f64& v : p) v /= sum;
  }
  result.scores = std::move(p);
  if (config.normalize)
    SRSR_DEBUG_VALIDATE(
        validate_probability_vector(result.scores, 1e-6, "push output"));
  result.seconds = scope.finish();
  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("srsr.rank.push.solves").add();
    reg.counter("srsr.rank.push.pushes").add(result.pushes);
  }
  return result;
}

/// Operator analogue of StochasticMatrix::left_multiply (same serial
/// scatter order, same skip of zero entries) over row() access.
void operator_left_multiply(const TransitionOperator& op,
                            std::span<const f64> x, std::span<f64> y) {
  const NodeId n = op.num_rows();
  SRSR_CHECK(x.size() == n && y.size() == n,
             "push: operator left_multiply size mismatch");
  for (f64& v : y) v = 0.0;
  std::vector<NodeId> cols_scratch;
  std::vector<f64> weights_scratch;
  for (NodeId r = 0; r < n; ++r) {
    const f64 xr = x[r];
    if (xr == 0.0) continue;
    const OperatorRow row = op.row(r, cols_scratch, weights_scratch);
    for (std::size_t i = 0; i < row.cols.size(); ++i)
      y[row.cols[i]] += xr * row.weights[i];
  }
}

std::vector<f64> defect_residual(std::span<const f64> pulled,
                                 std::span<const f64> teleport,
                                 std::span<const f64> p, f64 alpha) {
  // Signed defect residual: r = (alpha*A^T x + (1-alpha)c - x)/(1-alpha).
  std::vector<f64> r(p.size());
  for (std::size_t u = 0; u < p.size(); ++u) {
    r[u] = (alpha * pulled[u] + (1.0 - alpha) * teleport[u] - p[u]) /
           (1.0 - alpha);
  }
  return r;
}

}  // namespace

PushResult push_solve(const StochasticMatrix& matrix,
                      const PushConfig& config) {
  const NodeId n = matrix.num_rows();
  std::vector<f64> p(n, 0.0);
  std::vector<f64> r =
      normalized_distribution(config.teleport, n, "push: teleport");
  return run_push(n, config, std::move(p), std::move(r), [&](NodeId u) {
    return OperatorRow{matrix.row_cols(u), matrix.row_weights(u)};
  });
}

PushResult push_update(const StochasticMatrix& matrix,
                       const PushConfig& config,
                       std::span<const f64> old_scores) {
  const NodeId n = matrix.num_rows();
  SRSR_CHECK(old_scores.size() == n,
             "push_update: old solution size mismatch");
  const std::vector<f64> teleport =
      normalized_distribution(config.teleport, n, "push: teleport");

  std::vector<f64> p(old_scores.begin(), old_scores.end());
  std::vector<f64> pulled(n, 0.0);
  matrix.left_multiply(p, pulled);
  std::vector<f64> r = defect_residual(pulled, teleport, p, config.alpha);
  return run_push(n, config, std::move(p), std::move(r), [&](NodeId u) {
    return OperatorRow{matrix.row_cols(u), matrix.row_weights(u)};
  });
}

PushResult push_solve(const TransitionOperator& op, const PushConfig& config) {
  const NodeId n = op.num_rows();
  std::vector<f64> p(n, 0.0);
  std::vector<f64> r =
      normalized_distribution(config.teleport, n, "push: teleport");
  std::vector<NodeId> cols_scratch;
  std::vector<f64> weights_scratch;
  return run_push(n, config, std::move(p), std::move(r), [&](NodeId u) {
    return op.row(u, cols_scratch, weights_scratch);
  });
}

PushResult push_update(const TransitionOperator& op, const PushConfig& config,
                       std::span<const f64> old_scores) {
  const NodeId n = op.num_rows();
  SRSR_CHECK(old_scores.size() == n,
             "push_update: old solution size mismatch");
  const std::vector<f64> teleport =
      normalized_distribution(config.teleport, n, "push: teleport");

  std::vector<f64> p(old_scores.begin(), old_scores.end());
  std::vector<f64> pulled(n, 0.0);
  operator_left_multiply(op, p, pulled);
  std::vector<f64> r = defect_residual(pulled, teleport, p, config.alpha);
  std::vector<NodeId> cols_scratch;
  std::vector<f64> weights_scratch;
  return run_push(n, config, std::move(p), std::move(r), [&](NodeId u) {
    return op.row(u, cols_scratch, weights_scratch);
  });
}

PushResult push_continue(const TransitionOperator& op,
                         const PushConfig& config, std::vector<f64> estimate,
                         std::vector<f64> residual,
                         std::vector<f64>* residual_out) {
  const NodeId n = op.num_rows();
  SRSR_CHECK(estimate.size() == n && residual.size() == n,
             "push_continue: state size mismatch (", estimate.size(), " / ",
             residual.size(), " entries, ", n, " rows)");
  std::vector<NodeId> cols_scratch;
  std::vector<f64> weights_scratch;
  return run_push(
      n, config, std::move(estimate), std::move(residual),
      [&](NodeId u) { return op.row(u, cols_scratch, weights_scratch); },
      residual_out);
}

}  // namespace srsr::rank

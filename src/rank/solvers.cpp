#include "rank/solvers.hpp"

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace srsr::rank {

namespace {

/// Shared pull-iteration driver over an abstract operator.
/// `complete_deficits` selects the Markov completion (power method:
/// per-row probability deficits — dangling rows and throttle-discarded
/// mass — are re-routed to the teleport distribution) vs the raw linear
/// form (Jacobi: deficit mass simply evaporates and the final
/// normalization absorbs it).
RankResult iterate(const TransitionOperator& op, const SolverConfig& config,
                   bool complete_deficits, const char* solver_name) {
  SRSR_CHECK(std::isfinite(config.alpha) && config.alpha >= 0.0 &&
                 config.alpha < 1.0,
             "solver: alpha = ", config.alpha, ", must be in [0, 1)");
  const NodeId n = op.num_rows();
  // Scope names must be literals (the ring stores the pointer), so pick
  // between the two fixed solver names rather than composing one.
  obs::Scope scope(solver_name[0] == 'p' ? "rank.power.solve"
                                         : "rank.jacobi.solve");
  RankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  const std::vector<f64> teleport =
      normalized_distribution(config.teleport, n, "solver: teleport");
  const std::vector<f64>& deficits = op.deficits();
  const f64 alpha = config.alpha;

  std::vector<f64> cur =
      normalized_distribution(config.initial, n, "solver: initial");
  std::vector<f64> next(n, 0.0);
  obs::IterationTrace* const trace = config.convergence.trace;
  f64 first_residual = 0.0;

  // srsr:hot pull-iteration — the steady-state loop of every solve;
  // all buffers (cur/next/teleport) are sized once above.
  for (u32 iter = 0; iter < config.convergence.max_iterations; ++iter) {
    f64 deficit_mass = 0.0;
    if (complete_deficits) {
      // Deterministic variant: the deficit mass feeds every score (and
      // through them the residual trace), so its rounding must not
      // depend on the thread count — solver traces replay bit-identically
      // on any machine.
      deficit_mass = parallel_sum_deterministic(
          0, n, [&](std::size_t r) { return cur[r] * deficits[r]; });
    }

    op.pull(cur, next);
    parallel_for(0, n, [&](std::size_t v) {
      next[v] = alpha * (next[v] + deficit_mass * teleport[v]) +
                (1.0 - alpha) * teleport[v];
    });

    result.iterations = iter + 1;
    result.residual = config.convergence.distance(cur, next);
    if (iter == 0) first_residual = result.residual;
    if (trace)
      trace->on_iteration({iter + 1, result.residual,
                           linf_distance(cur, next), scope.elapsed()});
    cur.swap(next);
    if (result.residual < config.convergence.tolerance) {
      result.converged = true;
      break;
    }
  }
  // srsr:endhot

  // Normalize to a distribution: exact for the power route, and the
  // paper's sigma/||sigma|| step for the linear route.
  f64 sum = 0.0;
  for (const f64 v : cur) sum += v;
  if (sum > 0.0)
    for (f64& v : cur) v /= sum;

  result.scores = std::move(cur);
  // The output contract of Eq. 2/3: a finite probability distribution.
  // O(V); live in debug/sanitizer builds only.
  SRSR_DEBUG_VALIDATE(
      validate_probability_vector(result.scores, 1e-6, "solver output"));
  result.seconds = scope.finish();
  result.trace = obs::make_trace_summary(result.iterations, first_residual,
                                         result.residual);
  if (obs::metrics_enabled()) {
    const std::string prefix = std::string("srsr.rank.") + solver_name;
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter(prefix + ".solves").add();
    reg.counter(prefix + ".iterations").add(result.iterations);
  }
  return result;
}

}  // namespace

RankResult power_solve(const StochasticMatrix& matrix,
                       const SolverConfig& config) {
  const MatrixOperator op(matrix);
  return iterate(op, config, /*complete_deficits=*/true, "power");
}

RankResult jacobi_solve(const StochasticMatrix& matrix,
                        const SolverConfig& config) {
  const MatrixOperator op(matrix);
  return iterate(op, config, /*complete_deficits=*/false, "jacobi");
}

RankResult power_solve(const TransitionOperator& op,
                       const SolverConfig& config) {
  return iterate(op, config, /*complete_deficits=*/true, "power");
}

RankResult jacobi_solve(const TransitionOperator& op,
                        const SolverConfig& config) {
  return iterate(op, config, /*complete_deficits=*/false, "jacobi");
}

}  // namespace srsr::rank

#include "rank/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace srsr::rank {

namespace {

/// One chunk's share of an iteration's reductions over its rows.
struct ChunkPartial {
  f64 l1 = 0.0;       // sum |x_k - x_{k+1}|
  f64 l2 = 0.0;       // sum (x_k - x_{k+1})^2
  f64 linf = 0.0;     // max |x_k - x_{k+1}|
  f64 deficit = 0.0;  // sum x_{k+1} * deficit: the next step's re-routed mass
};

}  // namespace

RankResult iterate(const TransitionOperator& op, const SolverConfig& config,
                   bool complete_deficits, const char* scope_name,
                   const char* metric_name) {
  SRSR_CHECK(std::isfinite(config.alpha) && config.alpha >= 0.0 &&
                 config.alpha < 1.0,
             metric_name, ": alpha = ", config.alpha, ", must be in [0, 1)");
  const NodeId n = op.num_rows();
  obs::Scope scope(scope_name);
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

  // Rows [c*W, (c+1)*W) are task c of every iteration. The grid is
  // parallel_sum_deterministic's, so the deficit mass each iteration
  // carries to the next is the deterministic sum of x * deficit, and
  // one chunk (n <= W) is the serial loop, run without an OpenMP region.
  constexpr std::size_t kW = kDeterministicSumChunk;
  const std::size_t chunks = (n + kW - 1) / kW;
  std::vector<ChunkPartial> partial(chunks);
  f64 deficit_mass =
      complete_deficits
          ? parallel_sum_deterministic(
                0, n, [&](std::size_t r) { return cur[r] * deficits[r]; })
          : 0.0;

  for (u32 iter = 0; iter < config.convergence.max_iterations; ++iter) {
    parallel_for(0, chunks, [&](std::size_t c) {
      const auto lo = static_cast<NodeId>(c * kW);
      const auto hi = static_cast<NodeId>(std::min<std::size_t>(n, lo + kW));
      // srsr:hot iterate-chunk — pull, teleport/deficit update and the
      // chunk's residual and deficit partials; every buffer is sized
      // once above.
      op.pull_rows(cur, next, lo, hi);
      ChunkPartial p;
      for (NodeId v = lo; v < hi; ++v) {
        next[v] = alpha * (next[v] + deficit_mass * teleport[v]) +
                  (1.0 - alpha) * teleport[v];
        const f64 diff = cur[v] - next[v];
        p.l1 += std::abs(diff);
        p.l2 += diff * diff;
        p.linf = std::max(p.linf, std::abs(diff));
        if (complete_deficits) p.deficit += next[v] * deficits[v];
      }
      partial[c] = p;
      // srsr:endhot
    });
    const ChunkPartial total = combine_pairwise(
        partial, [](const ChunkPartial& a, const ChunkPartial& b) {
          return ChunkPartial{a.l1 + b.l1, a.l2 + b.l2,
                              std::max(a.linf, b.linf),
                              a.deficit + b.deficit};
        });
    // Power method: deficit mass (dangling rows and throttle-discarded
    // mass) is re-routed to the teleport distribution. Jacobi: it simply
    // evaporates and the final normalization absorbs it.
    deficit_mass = total.deficit;

    result.iterations = iter + 1;
    const Norm norm = config.convergence.norm;
    result.residual = norm == Norm::kL1     ? total.l1
                      : norm == Norm::kLinf ? total.linf
                                            : std::sqrt(total.l2);
    if (iter == 0) first_residual = result.residual;
    if (trace)
      trace->on_iteration(
          {iter + 1, result.residual, total.linf, scope.elapsed()});
    cur.swap(next);
    if (result.residual < config.convergence.tolerance) {
      result.converged = true;
      break;
    }
  }

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
    const std::string prefix = std::string("srsr.rank.") + metric_name;
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter(prefix + ".solves").add();
    reg.counter(prefix + ".iterations").add(result.iterations);
  }
  return result;
}

RankResult power_solve(const StochasticMatrix& matrix,
                       const SolverConfig& config) {
  return power_solve(MatrixOperator(matrix), config);
}

RankResult jacobi_solve(const StochasticMatrix& matrix,
                        const SolverConfig& config) {
  return jacobi_solve(MatrixOperator(matrix), config);
}

RankResult power_solve(const TransitionOperator& op,
                       const SolverConfig& config) {
  return iterate(op, config, /*complete_deficits=*/true, "rank.power.solve",
                 "power");
}

RankResult jacobi_solve(const TransitionOperator& op,
                        const SolverConfig& config) {
  return iterate(op, config, /*complete_deficits=*/false, "rank.jacobi.solve",
                 "jacobi");
}

}  // namespace srsr::rank

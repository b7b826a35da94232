// Stationary solvers over weighted stochastic matrices.
//
// Two routes to the Spam-Resilient SourceRank vector, mirroring the
// paper's Sec. 3.4:
//
//   power_solve  — the eigenvector route: power method on the Markov
//                  chain T_hat = alpha*A + (1-alpha)*1*c^T (Eq. 2), with
//                  dangling rows completed by the teleport vector.
//   jacobi_solve — the linear-system route (Eq. 3): Jacobi iterations on
//                  x = alpha*A^T x + (1-alpha)*c, the formulation of
//                  Gleich/Zhukov/Berkhin and Bianchini et al. that the
//                  paper cites, followed by the x/||x||_1 normalization
//                  the paper applies.
//
// On a matrix with no dangling rows the two produce the same vector (a
// property test pins this); with dangling rows they differ exactly by
// the dangling-mass completion, which is also the documented behaviour
// of the original algorithms.
#pragma once

#include <optional>
#include <vector>

#include "rank/convergence.hpp"
#include "rank/operator.hpp"
#include "rank/result.hpp"
#include "rank/stochastic.hpp"
#include "util/common.hpp"

namespace srsr::rank {

/// Configuration of every power/Jacobi-style solve (PageRankConfig too).
struct SolverConfig {
  /// Mixing parameter alpha (the paper uses 0.85 throughout).
  f64 alpha = 0.85;
  Convergence convergence;
  /// Teleport / static-score distribution c (size n, non-negative, sum
  /// ~1); uniform when absent.
  std::optional<std::vector<f64>> teleport;
  /// Optional warm start (size n, non-negative, positive mass; it is
  /// normalized before use). Re-ranking a slightly changed graph or the
  /// next kappa from the previous solution cuts iterations severalfold;
  /// the fixed point is unchanged.
  std::optional<std::vector<f64>> initial;
};

/// The one power/Jacobi-style loop, under power_solve, jacobi_solve and
/// PageRank. Each iteration is one parallel_for over chunks of
/// kDeterministicSumChunk rows (pull, teleport update, residual and
/// deficit partials), combined by a fixed pairwise tree: the result is
/// bitwise independent of the thread count, and a solve of one chunk
/// opens no OpenMP region. `complete_deficits` re-routes row deficits to
/// the teleport vector (power) instead of dropping them (Jacobi).
/// `scope_name` is the span (a literal); `metric_name` names the
/// srsr.rank.<metric_name>.* counters.
RankResult iterate(const TransitionOperator& op, const SolverConfig& config,
                   bool complete_deficits, const char* scope_name,
                   const char* metric_name);

/// Power method on the teleportation-completed chain of `matrix`
/// (rows = origin, as the paper writes T). Returns a distribution.
RankResult power_solve(const StochasticMatrix& matrix,
                       const SolverConfig& config);

/// Jacobi iteration on the linear form, then L1 normalization.
RankResult jacobi_solve(const StochasticMatrix& matrix,
                        const SolverConfig& config);

/// Operator forms: iterate an abstract TransitionOperator (e.g. a
/// ThrottledView) instead of transposing a materialized matrix per
/// solve. The matrix overloads above are thin wrappers over these.
RankResult power_solve(const TransitionOperator& op,
                       const SolverConfig& config);
RankResult jacobi_solve(const TransitionOperator& op,
                        const SolverConfig& config);

}  // namespace srsr::rank

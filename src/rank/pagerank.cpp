#include "rank/pagerank.hpp"

#include <cmath>

#include "graph/transforms.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "rank/stochastic.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace srsr::rank {

PageRank::PageRank(const graph::Graph& g)
    : graph_(&g), reverse_(graph::reverse(g)) {
  const NodeId n = g.num_nodes();
  inv_out_degree_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    const u64 d = g.out_degree(u);
    inv_out_degree_[u] = d == 0 ? 0.0 : 1.0 / static_cast<f64>(d);
    if (d == 0) dangling_.push_back(u);
  }
}

RankResult PageRank::solve(const PageRankConfig& config) const {
  SRSR_CHECK(std::isfinite(config.alpha) && config.alpha >= 0.0 &&
                 config.alpha < 1.0,
             "PageRank: alpha = ", config.alpha, ", must be in [0, 1)");
  const NodeId n = graph_->num_nodes();
  RankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }
  obs::Scope scope("rank.pagerank.solve");

  const std::vector<f64> teleport =
      normalized_distribution(config.teleport, n, "PageRank: teleport");
  std::vector<f64> cur =
      normalized_distribution(config.initial, n, "PageRank: initial");
  std::vector<f64> next(n, 0.0);
  const f64 alpha = config.alpha;
  obs::IterationTrace* const trace = config.convergence.trace;
  f64 first_residual = 0.0;

  for (u32 iter = 0; iter < config.convergence.max_iterations; ++iter) {
    // Mass parked on dangling pages teleports.
    f64 dangling_mass = 0.0;
    for (const NodeId u : dangling_) dangling_mass += cur[u];

    parallel_for(0, n, [&](std::size_t v) {
      f64 acc = 0.0;
      for (const NodeId u : reverse_.out_neighbors(static_cast<NodeId>(v)))
        acc += cur[u] * inv_out_degree_[u];
      next[v] = alpha * (acc + dangling_mass * teleport[v]) +
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

  // Guard against drift: renormalize to an exact distribution.
  f64 sum = 0.0;
  for (const f64 v : cur) sum += v;
  if (sum > 0.0)
    for (f64& v : cur) v /= sum;

  result.scores = std::move(cur);
  SRSR_DEBUG_VALIDATE(
      validate_probability_vector(result.scores, 1e-6, "PageRank output"));
  result.seconds = scope.finish();
  result.trace =
      obs::make_trace_summary(result.iterations, first_residual,
                              result.residual);
  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("srsr.rank.pagerank.solves").add();
    reg.counter("srsr.rank.pagerank.iterations").add(result.iterations);
  }
  return result;
}

RankResult pagerank(const graph::Graph& g, const PageRankConfig& config) {
  return PageRank(g).solve(config);
}

}  // namespace srsr::rank

// Tests for the weighted power / Jacobi solvers (rank/solvers.hpp).
#include "rank/solvers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "core/spam_proximity.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/transforms.hpp"
#include "obs/trace.hpp"
#include "rank/pagerank.hpp"
#include "thread_counts.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace srsr::rank {
namespace {

SolverConfig tight() {
  SolverConfig cfg;
  cfg.convergence.tolerance = 1e-12;
  cfg.convergence.max_iterations = 5000;
  return cfg;
}

void expect_distribution(const std::vector<f64>& scores) {
  f64 sum = 0.0;
  for (const f64 v : scores) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PowerSolve, MatchesUnweightedPageRank) {
  Pcg32 rng(51);
  const auto g = graph::erdos_renyi(120, 0.05, rng);
  const auto m = StochasticMatrix::uniform_from_graph(g);
  const auto weighted = power_solve(m, tight());
  PageRankConfig pr;
  pr.convergence.tolerance = 1e-12;
  pr.convergence.max_iterations = 5000;
  const auto unweighted = pagerank(g, pr);
  ASSERT_EQ(weighted.scores.size(), unweighted.scores.size());
  for (std::size_t i = 0; i < weighted.scores.size(); ++i)
    EXPECT_NEAR(weighted.scores[i], unweighted.scores[i], 1e-10);
}

TEST(PowerSolve, EmptyMatrix) {
  const auto r = power_solve(StochasticMatrix(), tight());
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.scores.empty());
}

TEST(PowerSolve, WeightedTwoNodeClosedForm) {
  // Row 0: all mass to 1. Row 1: 0.6 self, 0.4 to 0. alpha = 0.85.
  // pi_0 = a*0.4*pi_1 + t; pi_1 = a*pi_0 + a*0.6*pi_1 + t  (t = 0.075)
  const StochasticMatrix m({0, 1, 3}, {1, 0, 1}, {1.0, 0.4, 0.6});
  const auto r = power_solve(m, tight());
  // Solve: pi_1 = (a*pi_0 + t)/(1 - 0.6a); pi_0 = 0.4a*pi_1 + t
  // => pi_0 = (0.4a*t + t(1-0.6a)) / (1 - 0.6a - 0.4a^2)
  const f64 a = 0.85, t = 0.075;
  const f64 pi0 = (0.4 * a * t + t * (1 - 0.6 * a)) / (1 - 0.6 * a - 0.4 * a * a);
  const f64 pi1 = (a * pi0 + t) / (1 - 0.6 * a);
  EXPECT_NEAR(r.scores[0], pi0 / (pi0 + pi1), 1e-9);
  EXPECT_NEAR(r.scores[1], pi1 / (pi0 + pi1), 1e-9);
}

TEST(PowerAndJacobi, AgreeWithoutDanglingRows) {
  Pcg32 rng(52);
  // Self-loops on every node guarantee no dangling rows.
  const auto g = graph::add_self_loops(graph::erdos_renyi(80, 0.05, rng));
  const auto m = StochasticMatrix::uniform_from_graph(g);
  ASSERT_TRUE(m.dangling_rows().empty());
  const auto p = power_solve(m, tight());
  const auto j = jacobi_solve(m, tight());
  for (std::size_t i = 0; i < p.scores.size(); ++i)
    EXPECT_NEAR(p.scores[i], j.scores[i], 1e-9);
}

TEST(PowerAndJacobi, ProportionalEvenOnDanglingRows) {
  // A classical identity: when deficit mass is re-routed to the SAME
  // teleport distribution the linear form uses, the completed (power)
  // and evaporating (Jacobi) solutions are scalar multiples of each
  // other — so after L1 normalization they coincide, dangling rows or
  // not. (Del Corso/Gulli/Romani-style equivalence.)
  const auto m = StochasticMatrix::uniform_from_graph(graph::path(5));
  const auto p = power_solve(m, tight());
  const auto j = jacobi_solve(m, tight());
  expect_distribution(p.scores);
  expect_distribution(j.scores);
  for (std::size_t i = 0; i < p.scores.size(); ++i)
    EXPECT_NEAR(p.scores[i], j.scores[i], 1e-9);
}

TEST(PowerSolve, SubstochasticRowDeficitGoesToTeleport) {
  // Row 0 keeps only 0.3 probability (0.7 deficit); the deficit mass
  // must reappear via teleport, keeping the iterate a distribution.
  const StochasticMatrix m({0, 1, 2}, {1, 0}, {0.3, 1.0});
  const auto deficits = m.row_deficits();
  EXPECT_NEAR(deficits[0], 0.7, 1e-12);
  EXPECT_NEAR(deficits[1], 0.0, 1e-12);
  const auto r = power_solve(m, tight());
  expect_distribution(r.scores);
  // Node 0 receives all of row 1 plus teleport; node 1 only 0.3 of
  // row 0 plus teleport: node 0 must dominate.
  EXPECT_GT(r.scores[0], r.scores[1]);
}

TEST(JacobiSolve, LinearFormClosedForm) {
  // Isolated self-loop source amid pure self-loops: the Sec. 4.1 model.
  // sigma_t = t / (1 - alpha*w) before normalization; ratios against a
  // pure self-loop reference (sigma = t/(1-alpha)) survive normalization.
  const f64 w = 0.6;
  const u32 n = 8;
  std::vector<std::vector<std::pair<NodeId, f64>>> rows(n);
  rows[0] = {{0, w}, {1, 1.0 - w}};  // target: self w, rest to node 1
  for (u32 r = 1; r < n; ++r) rows[r] = {{r, 1.0}};
  const auto m = StochasticMatrix::from_rows(n, rows);
  const auto res = jacobi_solve(m, tight());
  const f64 a = 0.85;
  // Reference node 7 receives nothing: sigma_7 = t/(1-a).
  const f64 expected_ratio = (1.0 - a) / (1.0 - a * w);
  EXPECT_NEAR(res.scores[0] / res.scores[7], expected_ratio, 1e-9);
}

TEST(Solvers, AlphaZeroGivesTeleport) {
  SolverConfig cfg = tight();
  cfg.alpha = 0.0;
  const auto m = StochasticMatrix::uniform_from_graph(graph::cycle(4));
  for (const f64 v : power_solve(m, cfg).scores) EXPECT_NEAR(v, 0.25, 1e-12);
  for (const f64 v : jacobi_solve(m, cfg).scores) EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(Solvers, CustomTeleportBias) {
  SolverConfig cfg = tight();
  cfg.teleport = std::vector<f64>{1.0, 0.0, 0.0, 0.0};
  const auto m = StochasticMatrix::uniform_from_graph(graph::cycle(4));
  const auto r = power_solve(m, cfg);
  EXPECT_GT(r.scores[0], r.scores[2]);
}

TEST(Solvers, RejectBadConfig) {
  const auto m = StochasticMatrix::uniform_from_graph(graph::cycle(3));
  SolverConfig cfg;
  cfg.alpha = 1.0;
  EXPECT_THROW(power_solve(m, cfg), Error);
  cfg.alpha = 0.85;
  cfg.teleport = std::vector<f64>{1.0};  // wrong size
  EXPECT_THROW(power_solve(m, cfg), Error);
}

// Property: power and Jacobi agree on *any* self-loop-augmented random
// web corpus matrix (no dangling rows by construction).
class SolverAgreement : public ::testing::TestWithParam<u64> {};

TEST_P(SolverAgreement, PowerEqualsJacobiOnAugmentedMatrices) {
  Pcg32 rng(GetParam());
  const auto g = graph::add_self_loops(graph::erdos_renyi(60, 0.06, rng));
  const auto m = StochasticMatrix::uniform_from_graph(g);
  const auto p = power_solve(m, tight());
  const auto j = jacobi_solve(m, tight());
  for (std::size_t i = 0; i < p.scores.size(); ++i)
    EXPECT_NEAR(p.scores[i], j.scores[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement,
                         ::testing::Values(3u, 5u, 8u, 13u, 21u));

// ---- rank::iterate: the one loop, its chunk grid and its region ----

/// A sparse random graph several iterate chunks wide, with a few
/// dangling nodes (out-degree 0 at this density) so the deficit mass is
/// exercised.
graph::Graph wide_graph() {
  constexpr NodeId n = 3 * kDeterministicSumChunk + 123;
  Pcg32 rng(404);
  return graph::erdos_renyi(n, 6.0 / n, rng);
}

/// Runs `solve` (given a fresh trace to attach) at 1, 2 and 4 threads
/// and requires bitwise-identical scores, iteration counts and trace
/// records (wall time aside).
void expect_thread_count_invariant(
    const std::function<RankResult(obs::IterationTrace*)>& solve) {
  std::optional<RankResult> first;
  std::vector<obs::IterationRecord> first_trace;
  at_thread_counts([&] {
    obs::IterationTrace trace;
    RankResult r = solve(&trace);
    ASSERT_TRUE(r.converged);
    if (!first) {
      first = std::move(r);
      first_trace = trace.records();
      return;
    }
    EXPECT_EQ(r.iterations, first->iterations);
    EXPECT_EQ(r.residual, first->residual);
    ASSERT_EQ(r.scores.size(), first->scores.size());
    for (std::size_t i = 0; i < r.scores.size(); ++i)
      ASSERT_EQ(r.scores[i], first->scores[i]) << "row " << i;
    ASSERT_EQ(trace.records().size(), first_trace.size());
    for (std::size_t k = 0; k < first_trace.size(); ++k) {
      EXPECT_EQ(trace.records()[k].iteration, first_trace[k].iteration);
      EXPECT_EQ(trace.records()[k].residual, first_trace[k].residual);
      EXPECT_EQ(trace.records()[k].delta, first_trace[k].delta);
    }
  });
}

TEST(Iterate, PowerAndJacobiAreBitwiseThreadCountInvariant) {
  const auto g = wide_graph();
  ASSERT_GT(g.num_dangling(), 0u);
  const auto m = StochasticMatrix::uniform_from_graph(g);
  for (const Norm norm : {Norm::kL1, Norm::kL2, Norm::kLinf}) {
    SCOPED_TRACE(static_cast<int>(norm));
    expect_thread_count_invariant([&](obs::IterationTrace* trace) {
      SolverConfig cfg = tight();
      cfg.convergence.norm = norm;
      cfg.convergence.trace = trace;
      return power_solve(m, cfg);
    });
    expect_thread_count_invariant([&](obs::IterationTrace* trace) {
      SolverConfig cfg = tight();
      cfg.convergence.norm = norm;
      cfg.convergence.trace = trace;
      return jacobi_solve(m, cfg);
    });
  }
}

TEST(Iterate, PageRankAndSpamProximityAreBitwiseThreadCountInvariant) {
  const auto g = wide_graph();
  expect_thread_count_invariant([&](obs::IterationTrace* trace) {
    PageRankConfig cfg = tight();
    cfg.convergence.trace = trace;
    return pagerank(g, cfg);
  });
  expect_thread_count_invariant([&](obs::IterationTrace* trace) {
    core::SpamProximityConfig cfg;
    cfg.convergence.tolerance = 1e-12;
    cfg.convergence.trace = trace;
    const NodeId n = g.num_nodes();
    return core::spam_proximity(g, {3, n / 2, n - 1}, cfg);
  });
}

/// Delegates to a MatrixOperator and records, per pull_rows call,
/// whether it ran inside an active OpenMP parallel region.
class RegionProbe final : public TransitionOperator {
 public:
  explicit RegionProbe(const StochasticMatrix& m) : inner_(m) {}

  NodeId num_rows() const override { return inner_.num_rows(); }
  u64 num_entries() const override { return inner_.num_entries(); }
  const std::vector<f64>& deficits() const override {
    return inner_.deficits();
  }
  void pull_rows(std::span<const f64> x, std::span<f64> y, NodeId begin,
                 NodeId end) const override {
    calls.fetch_add(1);
#if defined(SRSR_HAVE_OPENMP)
    if (omp_in_parallel()) parallel_calls.fetch_add(1);
#endif
    inner_.pull_rows(x, y, begin, end);
  }
  f64 pull_off_diagonal(NodeId v, std::span<const f64> x) const override {
    return inner_.pull_off_diagonal(v, x);
  }
  f64 diagonal(NodeId v) const override { return inner_.diagonal(v); }
  OperatorRow row(NodeId u, std::vector<NodeId>& cols,
                  std::vector<f64>& weights) const override {
    return inner_.row(u, cols, weights);
  }
  u64 memory_bytes() const override { return inner_.memory_bytes(); }

  mutable std::atomic<u32> calls{0};
  mutable std::atomic<u32> parallel_calls{0};

 private:
  MatrixOperator inner_;
};

TEST(Iterate, SolveOfOneChunkOpensNoParallelRegion) {
  Pcg32 rng(77);
  const auto g = graph::erdos_renyi(kDeterministicSumChunk, 0.01, rng);
  const auto m = StochasticMatrix::uniform_from_graph(g);
  at_thread_counts([&] {
    const RegionProbe probe(m);
    const auto r = power_solve(probe, tight());
    EXPECT_TRUE(r.converged);
    // One chunk per iteration, pulled on the calling thread.
    EXPECT_EQ(probe.calls.load(), r.iterations);
    EXPECT_EQ(probe.parallel_calls.load(), 0u);
  });
}

#if defined(SRSR_HAVE_OPENMP)
TEST(Iterate, WideSolvePullsItsChunksInOneRegion) {
  // The probe's other side: with several chunks and a team, the pulls
  // do run inside the iteration's region.
  const auto m = StochasticMatrix::uniform_from_graph(wide_graph());
  const int saved = omp_get_max_threads();
  omp_set_num_threads(2);
  const RegionProbe probe(m);
  const auto r = power_solve(probe, tight());
  omp_set_num_threads(saved);
  const u32 chunks = (m.num_rows() + kDeterministicSumChunk - 1) /
                     kDeterministicSumChunk;
  EXPECT_EQ(probe.calls.load(), chunks * r.iterations);
  EXPECT_EQ(probe.parallel_calls.load(), probe.calls.load());
}
#endif

}  // namespace
}  // namespace srsr::rank

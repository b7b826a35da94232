// Tests for the OpenMP parallel-for layer (util/parallel.hpp).
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace srsr {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(0, kN, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, RespectsRangeBounds) {
  std::vector<std::atomic<int>> visits(100);
  parallel_for(10, 20, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(visits[i].load(), (i >= 10 && i < 20) ? 1 : 0);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  std::atomic<int> calls{0};
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, [&](std::size_t) { ++calls; });  // inverted: empty
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelSumDeterministic, MatchesSerialSum) {
  constexpr std::size_t kN = 3 * kDeterministicSumChunk + 129;
  const f64 det = parallel_sum_deterministic(0, kN, [](std::size_t i) {
    return 1.0 / static_cast<f64>(i + 1);
  });
  f64 serial = 0.0;
  for (std::size_t i = 0; i < kN; ++i) serial += 1.0 / static_cast<f64>(i + 1);
  EXPECT_NEAR(det, serial, 1e-9);
}

TEST(ParallelSumDeterministic, EmptyAndSubChunkRanges) {
  EXPECT_DOUBLE_EQ(
      parallel_sum_deterministic(4, 4, [](std::size_t) { return 1.0; }), 0.0);
  EXPECT_DOUBLE_EQ(
      parallel_sum_deterministic(9, 2, [](std::size_t) { return 1.0; }), 0.0);
  // Below one chunk the sum is a plain serial loop.
  const f64 small =
      parallel_sum_deterministic(0, 100, [](std::size_t i) {
        return static_cast<f64>(i);
      });
  EXPECT_DOUBLE_EQ(small, 4950.0);
}

TEST(ParallelSumDeterministic, BitIdenticalAcrossThreadCounts) {
  // The whole point of the variant: the chunk width and the pairwise
  // combine tree are fixed independently of how many threads run, so
  // the result is bit-identical no matter the parallelism — unlike an
  // OpenMP reduction, whose grouping follows the thread count.
  constexpr std::size_t kN = 10 * kDeterministicSumChunk + 777;
  auto run = [&] {
    return parallel_sum_deterministic(0, kN, [](std::size_t i) {
      // A summand mix that makes reassociation visible at the ulp level.
      return 1.0 / static_cast<f64>(i + 1) +
             1e-12 * static_cast<f64>(i % 97);
    });
  };
  const f64 reference = run();
  EXPECT_EQ(run(), reference);  // run-to-run, same thread count
#if defined(SRSR_HAVE_OPENMP)
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 2, 3, 4}) {
    omp_set_num_threads(threads);
    EXPECT_EQ(run(), reference) << "thread count " << threads;
  }
  omp_set_num_threads(saved);
#endif
}

TEST(NumThreads, ReportsAtLeastOne) { EXPECT_GE(num_threads(), 1); }

}  // namespace
}  // namespace srsr

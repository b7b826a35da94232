// Test helper: run a check at several OpenMP thread counts.
#pragma once

#include <gtest/gtest.h>

#include <string>

#if defined(SRSR_HAVE_OPENMP)
#include <omp.h>
#endif

namespace srsr {

/// Calls f() with the OpenMP team set to 1, 2 and 4 threads, then
/// restores the caller's count; without OpenMP (the tsan build) once.
template <typename F>
void at_thread_counts(F&& f) {
#if defined(SRSR_HAVE_OPENMP)
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    SCOPED_TRACE("threads = " + std::to_string(threads));
    f();
  }
  omp_set_num_threads(saved);
#else
  f();
#endif
}

}  // namespace srsr

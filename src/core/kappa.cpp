#include "core/kappa.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/scope.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace srsr::core {

std::vector<f64> kappa_top_k(std::span<const f64> proximity, u32 k) {
  obs::Scope stage("core.kappa_top_k");
  const u32 n = static_cast<u32>(proximity.size());
  SRSR_CHECK(k <= n, "kappa_top_k: k = ", k, " exceeds source count ", n);
  // NaN scores would make the comparator below non-strict-weak and the
  // sort UB; reject them at the boundary.
  for (std::size_t i = 0; i < proximity.size(); ++i)
    SRSR_CHECK(!std::isnan(proximity[i]), "kappa_top_k: proximity[", i,
               "] is NaN");
  std::vector<u32> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Descending by score, ascending by id on ties: deterministic.
  std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    if (proximity[a] != proximity[b]) return proximity[a] > proximity[b];
    return a < b;
  });
  std::vector<f64> kappa(n, 0.0);
  for (u32 i = 0; i < k; ++i) kappa[order[i]] = 1.0;
  return kappa;
}

std::vector<f64> kappa_threshold(std::span<const f64> proximity,
                                 f64 threshold) {
  SRSR_CHECK(!std::isnan(threshold), "kappa_threshold: threshold is NaN");
  std::vector<f64> kappa(proximity.size(), 0.0);
  for (std::size_t i = 0; i < proximity.size(); ++i)
    if (proximity[i] >= threshold) kappa[i] = 1.0;
  return kappa;
}

std::vector<f64> kappa_proportional(std::span<const f64> proximity, f64 q) {
  SRSR_CHECK(std::isfinite(q) && q > 0.0 && q <= 1.0,
             "kappa_proportional: q = ", q, ", must be in (0,1]");
  SRSR_CHECK(!proximity.empty(), "kappa_proportional: empty proximity vector");
  const f64 pivot = quantile(proximity, q);
  std::vector<f64> kappa(proximity.size(), 0.0);
  if (pivot <= 0.0) return kappa;
  for (std::size_t i = 0; i < proximity.size(); ++i)
    kappa[i] = std::min(1.0, std::max(0.0, proximity[i] / pivot));
  SRSR_DEBUG_VALIDATE(validate_kappa(kappa, "kappa_proportional output"));
  return kappa;
}

std::vector<f64> kappa_uniform(u32 n, f64 value) {
  SRSR_CHECK(std::isfinite(value) && value >= 0.0 && value <= 1.0,
             "kappa_uniform: value = ", value, ", must be in [0,1]");
  return std::vector<f64>(n, value);
}

}  // namespace srsr::core

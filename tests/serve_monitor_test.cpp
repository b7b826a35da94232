// Tests for the serve-layer watchdogs (serve/monitor.hpp).
//
// SloMonitor: latency quantiles vs objectives, breach accounting,
// staleness tracking across publishes, thin-window fallback.
// DriftMonitor: quiet on no-op republishes, L1/churn/outlier detection
// on synthetic score vectors, baseline reset on topology change, and
// the end-to-end contract — a cross-source link-farm publish against a
// real model trips the watchdog while an identical republish does not.
#include "serve/monitor.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/srsr.hpp"
#include "graph/webgen.hpp"
#include "serve/snapshot.hpp"
#include "spam/attacks.hpp"
#include "util/check.hpp"

namespace srsr::serve {
namespace {

// --- SloMonitor ------------------------------------------------------

TEST(SloMonitor, FastQueriesAgainstDefaultObjectivesAreHealthy) {
  SloMonitor slo;
  slo.on_publish();
  for (u32 i = 0; i < 200; ++i) slo.record_query(2e-6);
  const SloStatus s = slo.evaluate();
  EXPECT_EQ(s.total_queries, 200u);
  EXPECT_EQ(s.window_queries, 200u);
  EXPECT_TRUE(s.healthy);
  EXPECT_EQ(s.p50_breaches, 0u);
  EXPECT_EQ(s.p99_breaches, 0u);
  EXPECT_EQ(s.staleness_breaches, 0u);
  // The estimate lands in the right decade (log buckets, 5/decade).
  EXPECT_GT(s.p50, 1e-7);
  EXPECT_LT(s.p50, 1e-4);
}

TEST(SloMonitor, LatencyObjectiveBreachesAreCounted) {
  SloConfig cfg;
  cfg.p50_objective = 1e-6;
  cfg.p99_objective = 1e-6;
  cfg.min_window_queries = 1;
  SloMonitor slo(cfg);
  slo.on_publish();
  for (u32 i = 0; i < 100; ++i) slo.record_query(1e-3);  // 1000x over
  const SloStatus s = slo.evaluate();
  EXPECT_FALSE(s.healthy);
  EXPECT_EQ(s.p50_breaches, 1u);
  EXPECT_EQ(s.p99_breaches, 1u);
  EXPECT_GT(s.p50, cfg.p50_objective);

  // A second breached evaluation accumulates.
  for (u32 i = 0; i < 100; ++i) slo.record_query(1e-3);
  const SloStatus s2 = slo.evaluate();
  EXPECT_EQ(s2.p50_breaches, 2u);
  EXPECT_EQ(s2.evaluations, 2u);
}

TEST(SloMonitor, StalenessBreachesWithoutPublishes) {
  SloConfig cfg;
  cfg.staleness_objective = 1e-9;  // effectively "always stale"
  SloMonitor slo(cfg);
  const SloStatus s = slo.evaluate();
  EXPECT_EQ(s.staleness_breaches, 1u);
  EXPECT_FALSE(s.healthy);

  // A publish resets the staleness clock; with a sane objective the
  // next evaluation is fresh.
  SloMonitor fresh;  // default 300s objective
  fresh.on_publish();
  const SloStatus f = fresh.evaluate();
  EXPECT_EQ(f.staleness_breaches, 0u);
  EXPECT_LT(f.staleness_seconds, 10.0);
}

TEST(SloMonitor, ThinWindowFallsBackToAllTimeDistribution) {
  SloConfig cfg;
  cfg.min_window_queries = 64;
  SloMonitor slo(cfg);
  slo.on_publish();
  for (u32 i = 0; i < 100; ++i) slo.record_query(1e-5);
  (void)slo.evaluate();  // consumes the window
  // Only 3 new queries: far below min_window_queries, so the quantiles
  // must come from the all-time distribution, not 3 samples.
  for (u32 i = 0; i < 3; ++i) slo.record_query(1e-5);
  const SloStatus s = slo.evaluate();
  EXPECT_EQ(s.window_queries, 3u);
  EXPECT_EQ(s.total_queries, 103u);
  EXPECT_GT(s.p50, 0.0);  // estimated from 103 samples, not zero
}

TEST(SloMonitor, StatusReportsWithoutEvaluating) {
  SloMonitor slo;
  slo.record_query(1e-5);
  const SloStatus s = slo.status();
  EXPECT_EQ(s.total_queries, 1u);
  EXPECT_EQ(s.evaluations, 0u);  // status() never runs an evaluation
}

TEST(SloMonitor, RejectsNonPositiveObjectives) {
  SloConfig cfg;
  cfg.p99_objective = 0.0;
  EXPECT_THROW(SloMonitor{cfg}, Error);
}

TEST(SloMonitor, RejectsNegativeAndNanLatencies) {
  // Either would fall into the fastest bucket and mask a breach.
  SloMonitor slo;
  EXPECT_THROW(slo.record_query(-1e-6), ContractViolation);
  EXPECT_THROW(slo.record_query(std::numeric_limits<f64>::quiet_NaN()),
               ContractViolation);
  slo.record_query(0.0);
  EXPECT_EQ(slo.status().total_queries, 1u);
}

// --- DriftMonitor (synthetic score vectors) --------------------------

RankSnapshot make_snap(std::vector<f64> scores, u64 epoch) {
  SnapshotMeta meta;
  meta.epoch = epoch;
  return RankSnapshot(std::move(scores), {}, meta);
}

TEST(DriftMonitor, FirstPublishEstablishesBaselineSilently) {
  DriftMonitor drift;
  const DriftReport r = drift.on_publish(make_snap({0.5, 0.3, 0.2}, 1));
  EXPECT_FALSE(r.anomalous);
  EXPECT_EQ(r.from_epoch, r.to_epoch);
  EXPECT_EQ(drift.compared(), 0u);
  EXPECT_EQ(drift.anomalies(), 0u);
}

TEST(DriftMonitor, NoOpRepublishStaysQuiet) {
  DriftMonitor drift;
  (void)drift.on_publish(make_snap({0.5, 0.3, 0.2}, 1));
  const DriftReport r = drift.on_publish(make_snap({0.5, 0.3, 0.2}, 2));
  EXPECT_FALSE(r.anomalous);
  EXPECT_EQ(r.l1_delta, 0.0);
  EXPECT_EQ(r.topk_churn, 0.0);
  EXPECT_EQ(r.outliers, 0u);
  EXPECT_EQ(r.from_epoch, 1u);
  EXPECT_EQ(r.to_epoch, 2u);
  EXPECT_EQ(drift.compared(), 1u);
  EXPECT_EQ(drift.anomalies(), 0u);
}

TEST(DriftMonitor, LargeL1ShiftIsFlagged) {
  DriftMonitor drift;  // default l1_alert = 0.05
  (void)drift.on_publish(make_snap({0.5, 0.3, 0.2}, 1));
  // 0.1 of mass moves from source 0 to source 2: L1 delta 0.2.
  const DriftReport r = drift.on_publish(make_snap({0.4, 0.3, 0.3}, 2));
  EXPECT_TRUE(r.anomalous);
  EXPECT_NEAR(r.l1_delta, 0.2, 1e-12);
  EXPECT_NE(r.reason.find("l1"), std::string::npos);
  EXPECT_EQ(drift.anomalies(), 1u);
  EXPECT_EQ(r.max_shift_source, 0u);  // biggest single move: -0.1 at 0
  EXPECT_NEAR(r.max_shift, -0.1, 1e-12);
}

TEST(DriftMonitor, TopKChurnIsFlaggedIndependentlyOfL1) {
  DriftConfig cfg;
  cfg.l1_alert = 10.0;  // unreachable: isolate the churn rule
  cfg.churn_alert = 0.5;
  cfg.top_k = 2;
  DriftMonitor drift(cfg);
  (void)drift.on_publish(make_snap({0.4, 0.3, 0.2, 0.1}, 1));
  // Former top-2 {0, 1} evicted by {2, 3}: churn 1.0.
  const DriftReport r = drift.on_publish(make_snap({0.2, 0.1, 0.4, 0.3}, 2));
  EXPECT_TRUE(r.anomalous);
  EXPECT_DOUBLE_EQ(r.topk_churn, 1.0);
  EXPECT_NE(r.reason.find("churn"), std::string::npos);
}

TEST(DriftMonitor, ConcentratedShiftCountsOutliers) {
  DriftConfig cfg;
  cfg.l1_alert = 10.0;
  cfg.churn_alert = 2.0;  // quiet: only measuring outliers here
  cfg.outlier_z = 3.0;
  DriftMonitor drift(cfg);
  // 64 sources; one takes a concentrated hit, the rest barely move.
  std::vector<f64> before(64, 1.0 / 64.0);
  std::vector<f64> after(before);
  after[7] -= 0.01;
  after[8] += 0.012;  // strictly largest |shift|, so it wins max_shift
  (void)drift.on_publish(make_snap(before, 1));
  const DriftReport r = drift.on_publish(make_snap(after, 2));
  EXPECT_FALSE(r.anomalous);
  EXPECT_GE(r.outliers, 2u);
  EXPECT_EQ(r.max_shift_source, 8u);
}

TEST(DriftMonitor, SourceCountChangeResetsBaseline) {
  DriftMonitor drift;
  (void)drift.on_publish(make_snap({0.5, 0.5}, 1));
  // Different cardinality: a topology change, not drift — re-baseline.
  const DriftReport r = drift.on_publish(make_snap({0.4, 0.3, 0.3}, 2));
  EXPECT_FALSE(r.anomalous);
  EXPECT_EQ(r.from_epoch, r.to_epoch);
  EXPECT_EQ(drift.compared(), 0u);
}

// --- DriftMonitor (end to end against a real model) ------------------

TEST(DriftMonitor, FlagsCrossSourceFarmButNotIdenticalRepublish) {
  graph::WebGenConfig gen;
  gen.num_sources = 50;
  gen.num_spam_sources = 0;
  gen.seed = 7;
  const auto corpus = graph::generate_web_corpus(gen);
  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  const core::SpamResilientSourceRank model(corpus.pages, map);
  const std::vector<f64> zeros(model.num_sources(), 0.0);

  DriftMonitor drift;  // default thresholds
  RankSnapshot clean = make_snapshot(model, zeros, corpus.source_hosts);
  (void)drift.on_publish(clean);

  // No-op republish: the same solve again must stay quiet.
  const DriftReport quiet =
      drift.on_publish(make_snapshot(model, zeros, corpus.source_hosts));
  EXPECT_FALSE(quiet.anomalous) << quiet.reason;
  EXPECT_LT(quiet.l1_delta, 1e-9);

  // Inject cross-source link farms from several colluders, each many
  // times the corpus size, and re-solve: throttling damps the boost
  // (single-farm L1 stays ~0.01, under the 0.05 default alert), but a
  // coordinated campaign still shifts enough mass to trip the watchdog.
  const NodeId target_source = 3;
  const NodeId target_page = corpus.source_first_page[target_source];
  auto attacked = corpus;
  for (const NodeId colluder : {NodeId{17}, NodeId{23}, NodeId{31},
                                NodeId{41}, NodeId{47}})
    attacked = spam::add_cross_source_farm(attacked, target_page, colluder,
                                           4 * corpus.num_pages());
  const core::SourceMap attacked_map =
      core::SourceMap::from_corpus(attacked);
  const core::SpamResilientSourceRank attacked_model(attacked.pages,
                                                     attacked_map);
  ASSERT_EQ(attacked_model.num_sources(), model.num_sources());
  const DriftReport alarm = drift.on_publish(
      make_snapshot(attacked_model, zeros, attacked.source_hosts));
  EXPECT_TRUE(alarm.anomalous)
      << "l1=" << alarm.l1_delta << " churn=" << alarm.topk_churn;
  EXPECT_EQ(drift.anomalies(), 1u);
}

}  // namespace
}  // namespace srsr::serve

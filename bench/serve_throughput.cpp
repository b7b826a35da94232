// Serve-layer load generator (DESIGN.md Sec. 11): N reader threads
// hammer the QueryEngine with a mixed score/top_k/rank_of/compare
// workload while the RecomputePipeline publishes a sweep of throttle
// policies mid-run. Reports sustained qps and p50/p99 query latency per
// reader count, and proves the RCU publication contract end to end:
// every snapshot a reader sees is checksum-verified once and checked for
// epoch order, and a single torn read fails the bench.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "obs/expfmt.hpp"
#include "obs/metrics.hpp"
#include "serve/monitor.hpp"
#include "serve/query.hpp"
#include "serve/recompute.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace srsr::bench {
namespace {

struct ReaderResult {
  std::vector<f64> latencies;  // seconds, one per query
  u64 torn = 0;
  u64 epochs_seen = 0;  // distinct epochs observed (monotonic, so count)
};

/// One reader: queries cycling through all four shapes until the
/// writer's sweep completes, timing each, checking epoch order on every
/// acquired snapshot and verifying each newly seen epoch's checksum.
/// Running for the whole sweep guarantees the publishes land
/// mid-workload, not before or after it.
ReaderResult reader_loop(const serve::QueryEngine& engine,
                         const std::atomic<bool>& stop, u64 seed,
                         NodeId num_sources) {
  ReaderResult out;
  out.latencies.reserve(1 << 16);
  Pcg32 rng(seed);
  u64 last_epoch = 0;
  u64 last_verified = 0;
  WallTimer timer;
  for (u32 q = 0; !stop.load(std::memory_order_acquire); ++q) {
    const NodeId s = rng.next_below(num_sources);
    timer.reset();
    switch (q % 4) {
      case 0: (void)engine.score(s); break;
      case 1: (void)engine.top_k(10); break;
      case 2: (void)engine.rank_of(s); break;
      default: (void)engine.compare(s); break;
    }
    out.latencies.push_back(timer.seconds());
    // Contract check, off the timed path: the snapshot this reader
    // holds is internally consistent whatever the writer is doing.
    // Snapshots are immutable once published, so the O(V) checksum
    // runs once per epoch; a per-query verify would make the QPS
    // column measure checksumming.
    const serve::SnapshotPtr snap = engine.snapshot();
    const u64 epoch = snap->meta().epoch;
    if (epoch > last_verified) {
      if (!snap->verify_checksum()) ++out.torn;
      last_verified = epoch;
    }
    if (epoch < last_epoch) ++out.torn;  // monotonicity breach
    if (epoch != last_epoch) ++out.epochs_seen;
    last_epoch = epoch;
  }
  return out;
}

void run() {
  // Metrics feed the Prometheus snapshot embedded in the run report;
  // the recording overhead (relaxed add per query) is part of what the
  // serve layer ships, so the bench measures it too.
  obs::set_metrics_enabled(true);
  const auto corpus = make_dataset(graph::ScaledDataset::kUK2002S);
  const core::SourceMap map = core::SourceMap::from_corpus(corpus);
  const core::SpamResilientSourceRank model(corpus.pages, map,
                                            paper_srsr_config());
  const std::vector<NodeId> spam = corpus.spam_sources();

  TextTable t({"Readers", "Queries", "Publishes", "QPS", "p50 (us)",
               "p99 (us)", "Torn"});
  u64 total_torn = 0;
  obs::RunReport report("serve_throughput");

  for (const u32 readers : {1u, 2u, 4u, 8u}) {
    serve::SnapshotStore store;
    // The SLO watchdog rides along: every query feeds it, every publish
    // stamps it. The end-of-run assertion below turns the bench into a
    // regression gate on serve-layer tail latency.
    serve::SloMonitor slo;
    serve::RecomputeConfig recompute_cfg;
    recompute_cfg.slo = &slo;
    serve::RecomputePipeline pipeline(model, corpus.source_hosts, store,
                                      recompute_cfg);

    // Baseline epoch up first so readers always have a snapshot; it
    // also serves as the compare() reference.
    std::vector<f64> zeros(model.num_sources(), 0.0);
    serve::SnapshotBuild base_build;
    base_build.policy = "baseline";
    auto baseline = std::make_shared<const serve::RankSnapshot>(
        serve::make_snapshot(model, zeros, corpus.source_hosts, base_build));
    store.publish(serve::RankSnapshot(*baseline));
    slo.on_publish();
    const serve::QueryEngine engine(store, baseline, &slo);

    WallTimer wall;
    std::atomic<bool> stop{false};
    std::vector<ReaderResult> results(readers);
    std::vector<std::thread> pool;
    pool.reserve(readers);
    for (u32 r = 0; r < readers; ++r)
      pool.emplace_back([&, r] {
        results[r] =
            reader_loop(engine, stop, 1000 + r, model.num_sources());
      });

    // Writer, on this thread: a kappa sweep over the spam ring — four
    // publishes land while the readers are querying.
    for (const f64 strength : {0.25, 0.5, 0.75, 1.0}) {
      std::vector<f64> kappa(model.num_sources(), 0.0);
      for (const NodeId s : spam) kappa[s] = strength;
      pipeline.submit(std::move(kappa),
                      "ring_" + TextTable::fixed(strength, 2));
      pipeline.drain();  // one epoch per strength: no coalescing
    }
    stop.store(true, std::memory_order_release);

    for (auto& th : pool) th.join();
    const f64 elapsed = wall.seconds();
    pipeline.stop();

    const auto stats = pipeline.stats();
    SRSR_CHECK(stats.published == 4 && stats.failed == 0,
               "serve_throughput: expected 4 publishes, got ",
               stats.published, " (", stats.failed, " failed)");

    std::vector<f64> all;
    u64 torn = 0;
    for (const auto& r : results) {
      all.insert(all.end(), r.latencies.begin(), r.latencies.end());
      torn += r.torn;
    }
    total_torn += torn;
    const u64 queries = all.size();
    t.add_row({
        TextTable::num(readers),
        TextTable::num(queries),
        TextTable::num(stats.published),
        TextTable::num(static_cast<u64>(static_cast<f64>(queries) / elapsed)),
        TextTable::fixed(quantile(all, 0.50) * 1e6, 2),
        TextTable::fixed(quantile(all, 0.99) * 1e6, 2),
        TextTable::num(torn),
    });

    // SLO gate: p99 within 50ms (generous — real runs sit in the low
    // microseconds, so only a gross serve-layer regression trips it)
    // and the snapshot never went stale against the default 300s
    // objective during the sweep.
    const serve::SloStatus slo_status = slo.evaluate();
    SRSR_CHECK(slo_status.p99 < 0.05,
               "serve_throughput: p99 SLO breach with ", readers,
               " readers: ", slo_status.p99, "s");
    SRSR_CHECK(slo_status.staleness_breaches == 0,
               "serve_throughput: ", slo_status.staleness_breaches,
               " staleness breaches with ", readers, " readers");
    const std::string prefix = "slo.r" + std::to_string(readers);
    report.set_meta(prefix + ".p50_seconds", slo_status.p50);
    report.set_meta(prefix + ".p99_seconds", slo_status.p99);
    report.set_meta(prefix + ".queries", slo_status.total_queries);
  }

  emit("Serve throughput: concurrent queries under live recomputes (UK2002S)",
       "serve_throughput", t);
  SRSR_CHECK(total_torn == 0,
             "serve_throughput: ", total_torn, " torn snapshot reads");
  log_info("zero torn reads across all reader counts");
  log_info("SLO gate passed: p99 < 50ms, zero staleness breaches");

  report.set_meta("prometheus", obs::prometheus_text());
  report.capture_metrics();
  maybe_write_report("serve_throughput", report);
}

}  // namespace
}  // namespace srsr::bench

int main() {
  srsr::bench::run();
  return 0;
}

// RecomputePipeline — the background write path of the serving layer.
//
// Watches a queue of ranking updates and publishes every result
// atomically through the SnapshotStore. The query path never blocks:
// readers keep serving the previous epoch for the whole solve.
//
// One worker loop serves both modes. It takes the whole queue as one
// run, turns the run into a RankSnapshot (the only mode-specific step,
// build_snapshot()), and publishes it through one tail: store publish,
// Stats, SLO stamp, drift check, metrics. A run that throws or whose
// solve did not converge publishes nothing — the old snapshot stays
// live and the failure is counted, kept as last_error, and surfaced
// through report_into() / the metrics registry (graceful degradation).
// Every update folded into another's publish, or dropped by stop(), is
// counted as coalesced, so `published + failed + coalesced ==
// submitted` after drain() in both modes.
//
// STATIC MODE (the first constructor): updates are a new kappa vector,
// or a new set of spam labels to derive one from. Only the newest
// update of a run is solved — these are idempotent full recomputes, so
// intermediate states carry no information. The solve runs through the
// model's lazy ThrottledView, warm-started from the live snapshot's
// sigma when one exists.
//
// DYNAMIC MODE (the second constructor): the pipeline owns write
// access to a stream::IncrementalRanker, and submit_update() also
// accepts committed stream::UpdateBatch topology deltas. Every update
// of a run is applied through the ranker in submit order — topology
// batches are NOT last-wins coalescible (each moves the graph); kappa
// changes route through set_kappa, label updates walk the ranker's
// current topology — and the run folds into ONE publish (the fold is
// also counted in coalesced_batches). The ranker carries its push
// state across batches, so a single-host edit republishes after a
// localized push instead of a full solve.
//
// One worker thread, started in the constructor, joined in stop() /
// the destructor. This and util/parallel.hpp are the only places in
// the library allowed to spawn threads (tools/lint/srsr_lint.py
// enforces it).
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/report.hpp"
#include "obs/span.hpp"
#include "serve/monitor.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "util/common.hpp"

namespace srsr::serve {

struct RecomputeConfig {
  /// Optional watchdogs (must outlive the pipeline). `slo` is stamped
  /// on every publish; `drift` sees every published snapshot and
  /// judges it against its predecessor.
  SloMonitor* slo = nullptr;
  DriftMonitor* drift = nullptr;
};

class RecomputePipeline {
 public:
  /// `model` and `store` must outlive the pipeline. `hosts` (copied
  /// into every snapshot) must be empty or one entry per source.
  RecomputePipeline(const core::SpamResilientSourceRank& model,
                    std::vector<std::string> hosts, SnapshotStore& store,
                    RecomputeConfig config = {});

  /// Dynamic mode: the pipeline becomes the single writer of `ranker`
  /// (and its DynamicSourceGraph). Both must outlive the pipeline;
  /// hosts are read from the ranker's graph at every publish (the host
  /// set can grow).
  RecomputePipeline(stream::IncrementalRanker& ranker, SnapshotStore& store,
                    RecomputeConfig config = {});
  ~RecomputePipeline();

  RecomputePipeline(const RecomputePipeline&) = delete;
  RecomputePipeline& operator=(const RecomputePipeline&) = delete;

  /// Enqueues a throttle-vector update (one kappa entry per source).
  void submit(std::vector<f64> kappa, std::string policy = "custom");

  /// Enqueues a label update: the worker runs the spam-proximity walk
  /// from `source_seeds` over the current source topology and fully
  /// throttles the top_k most proximate sources (the paper's Sec. 6.2
  /// policy).
  void submit_spam_labels(std::vector<NodeId> source_seeds, u32 top_k);

  /// Dynamic mode only: enqueues a committed topology batch. Batches
  /// are applied strictly in submit order; runs drained together fold
  /// into one publish.
  void submit_update(stream::UpdateBatch batch);

  /// Blocks until the queue is empty and no solve is in flight.
  void drain();

  /// Stops the worker after the run it is currently solving (the rest
  /// of the queue is dropped and counted as coalesced). Idempotent;
  /// also called by the destructor.
  void stop();

  struct Stats {
    u64 submitted = 0;
    u64 published = 0;
    u64 failed = 0;
    u64 coalesced = 0;
    u64 last_epoch = 0;        // 0 = nothing published yet
    std::string last_error;    // empty = no failure so far
    /// Updates waiting in the queue right now (sampled by stats()).
    u64 queue_depth = 0;
    /// Dynamic mode: the part of `coalesced` folded into a shared
    /// publish (the drained run minus the one publish it produced).
    u64 coalesced_batches = 0;
    /// Dynamic mode: page mutations that changed graph state, total.
    u64 mutations_applied = 0;
    /// Dynamic mode: the last publish's solve footprint.
    u64 last_pushes = 0;
    u64 last_dirty_rows = 0;
    std::string last_path;  // "delta" | "full" | "fallback"; empty = static
  };
  Stats stats() const;

  /// Writes the pipeline outcome into a run report ("serve.published",
  /// "serve.failed", "serve.coalesced", "serve.last_epoch", and
  /// "serve.last_error" when a solve has failed).
  void report_into(obs::RunReport& report) const;

  /// True when constructed over an IncrementalRanker.
  bool dynamic() const { return ranker_ != nullptr; }

 private:
  using Kappa = std::vector<f64>;
  struct Labels {
    std::vector<NodeId> seeds;
    u32 top_k = 0;
  };
  using Change = std::variant<Kappa, Labels, stream::UpdateBatch>;
  struct Update {
    Change change;
    std::string policy;
    /// Submitter's span context, captured at submit() time — the
    /// explicit hand-off that parents the worker's span to the request
    /// that triggered it (obs/span.hpp rule 2).
    obs::SpanContext ctx;
  };

  /// Queues an update unless the pipeline is stopping.
  void enqueue(Change change, std::string policy);
  void worker_loop();
  /// Builds and publishes one drained run, or counts it as failed.
  void publish_run(std::vector<Update>& run);
  /// The one mode branch: solves the run's newest update (static) or
  /// applies every update in order through the ranker (dynamic).
  /// `total` receives the dynamic run's summed ranker footprint.
  RankSnapshot build_snapshot(std::vector<Update>& run,
                              stream::UpdateOutcome& total);
  void fail(const std::string& why);

  const core::SpamResilientSourceRank* model_;  // null in dynamic mode
  stream::IncrementalRanker* ranker_ = nullptr;  // null in static mode
  std::vector<std::string> hosts_;
  SnapshotStore* store_;
  RecomputeConfig config_;
  /// Worker only: policy label of the last kappa-bearing update,
  /// stamped into every publish's meta.
  std::string applied_policy_ = "uniform_zero";

  mutable std::mutex mutex_;
  std::condition_variable wake_;   // worker: queue non-empty or stopping
  std::condition_variable idle_;   // drain(): queue empty and not busy
  std::deque<Update> queue_;
  bool busy_ = false;
  bool stop_ = false;
  Stats stats_;

  std::thread worker_;  // started at the end of the constructor body
};

}  // namespace srsr::serve

#include "serve/recompute.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <span>
#include <utility>

#include "core/kappa.hpp"
#include "core/spam_proximity.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace srsr::serve {

namespace {

/// Validates before the worker thread exists — a throw from the
/// constructor body after std::thread started would std::terminate.
std::vector<std::string> validated_hosts(std::vector<std::string> hosts,
                                         NodeId num_sources) {
  SRSR_CHECK(hosts.empty() || hosts.size() == num_sources,
             "RecomputePipeline: ", hosts.size(), " hosts for ",
             num_sources, " sources");
  return hosts;
}

/// The paper's Sec. 6.2 label policy: spam-proximity walk from the
/// labelled seeds over `topology`, top_k most proximate sources fully
/// throttled.
std::vector<f64> label_kappa(const std::vector<NodeId>& seeds, u32 top_k,
                             const graph::Graph& topology) {
  const auto prox = core::spam_proximity(topology, seeds);
  return core::kappa_top_k(prox.scores, top_k);
}

}  // namespace

RecomputePipeline::RecomputePipeline(
    const core::SpamResilientSourceRank& model,
    std::vector<std::string> hosts, SnapshotStore& store,
    RecomputeConfig config)
    : model_(&model),
      hosts_(validated_hosts(std::move(hosts), model.num_sources())),
      store_(&store), config_(config) {
  // Started last, once every member the loop reads is in place.
  worker_ = std::thread([this] { worker_loop(); });
}

RecomputePipeline::RecomputePipeline(stream::IncrementalRanker& ranker,
                                     SnapshotStore& store,
                                     RecomputeConfig config)
    : model_(nullptr), ranker_(&ranker), store_(&store), config_(config) {
  SRSR_CHECK(ranker.num_sources() > 0,
             "RecomputePipeline: dynamic ranker has no sources");
  worker_ = std::thread([this] { worker_loop(); });
}

RecomputePipeline::~RecomputePipeline() { stop(); }

void RecomputePipeline::submit(std::vector<f64> kappa, std::string policy) {
  enqueue(std::move(kappa), std::move(policy));
}

void RecomputePipeline::submit_spam_labels(std::vector<NodeId> source_seeds,
                                           u32 top_k) {
  enqueue(Labels{std::move(source_seeds), top_k},
          "top_" + std::to_string(top_k) + "_proximity");
}

void RecomputePipeline::submit_update(stream::UpdateBatch batch) {
  SRSR_CHECK(dynamic(),
             "RecomputePipeline::submit_update: pipeline is static — "
             "construct over an IncrementalRanker for topology updates");
  enqueue(std::move(batch), "stream_update");
}

void RecomputePipeline::enqueue(Change change, std::string policy) {
  Update update{std::move(change), std::move(policy),
                obs::current_span_context()};
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    queue_.push_back(std::move(update));
    ++stats_.submitted;
    depth = queue_.size();
  }
  if (dynamic() && obs::metrics_enabled())
    obs::MetricsRegistry::instance()
        .gauge("srsr.serve.update.queue_depth")
        .set(static_cast<f64>(depth));
  wake_.notify_one();
}

void RecomputePipeline::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

void RecomputePipeline::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      // Second stop (e.g. explicit stop() then the destructor): the
      // worker is already gone or going; just make sure it is joined.
    } else {
      stop_ = true;
      stats_.coalesced += queue_.size();
      queue_.clear();
    }
  }
  wake_.notify_all();
  idle_.notify_all();
  if (worker_.joinable()) worker_.join();
}

RecomputePipeline::Stats RecomputePipeline::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.queue_depth = queue_.size();
  return out;
}

void RecomputePipeline::report_into(obs::RunReport& report) const {
  const Stats s = stats();
  report.set_meta("serve.published", s.published);
  report.set_meta("serve.failed", s.failed);
  report.set_meta("serve.coalesced", s.coalesced);
  report.set_meta("serve.last_epoch", s.last_epoch);
  if (!s.last_error.empty()) report.set_meta("serve.last_error", s.last_error);
  if (dynamic()) {
    report.set_meta("serve.update.coalesced_batches", s.coalesced_batches);
    report.set_meta("serve.update.mutations", s.mutations_applied);
    report.set_meta("serve.update.last_pushes", s.last_pushes);
    report.set_meta("serve.update.last_dirty_rows", s.last_dirty_rows);
    if (!s.last_path.empty())
      report.set_meta("serve.update.last_path", s.last_path);
  }
}

void RecomputePipeline::worker_loop() {
  for (;;) {
    std::vector<Update> run;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop_ set and nothing left to solve
      run.assign(std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(queue_.end()));
      queue_.clear();
      busy_ = true;
      // The whole run becomes one publish; the rest is coalesced.
      const u64 folded = run.size() - 1;
      stats_.coalesced += folded;
      if (dynamic()) stats_.coalesced_batches += folded;
      if (folded > 0 && obs::metrics_enabled()) {
        auto& reg = obs::MetricsRegistry::instance();
        reg.counter("srsr.serve.recompute.coalesced").add(folded);
        if (dynamic())
          reg.counter("srsr.serve.update.coalesced_batches").add(folded);
      }
    }
    publish_run(run);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      busy_ = false;
    }
    idle_.notify_all();
  }
}

void RecomputePipeline::publish_run(std::vector<Update>& run) {
  // Cross-thread hand-off: this span runs on the worker but descends
  // from the request that triggered the run (the first update's
  // submitter; later ones folded into the same publish are its
  // coalesced siblings), or roots a fresh trace when the update came
  // from untraced code. Stage spans opened further down this call
  // chain nest under it through the thread cursor.
  obs::Scope stage(dynamic() ? "serve.update" : "serve.recompute",
                   run.front().ctx);
  try {
    stream::UpdateOutcome total;
    RankSnapshot snapshot = build_snapshot(run, total);
    const SnapshotMeta& built = snapshot.meta();
    if (!built.converged) {
      fail("solve did not converge after " +
           std::to_string(built.iterations) +
           (dynamic() ? " pushes" : " iterations"));
      return;
    }

    obs::Scope tail("serve.store_publish");
    const u64 epoch = store_->publish(std::move(snapshot));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.published;
      stats_.last_epoch = epoch;
      stats_.last_error.clear();
      if (dynamic()) {
        stats_.mutations_applied += total.mutations;
        stats_.last_pushes = total.pushes;
        stats_.last_dirty_rows = total.dirty_rows;
        stats_.last_path = stream::to_string(total.path);
      }
    }
    if (config_.slo) config_.slo->on_publish();
    if (config_.drift) {
      const DriftReport drift = config_.drift->on_publish(*store_->current());
      if (drift.anomalous)
        log_warn("serve: anomalous ranking drift publishing epoch ",
                 drift.to_epoch, " (", drift.reason, ")");
    }
    if (obs::metrics_enabled()) {
      auto& reg = obs::MetricsRegistry::instance();
      reg.counter("srsr.serve.recompute.published").add();
      reg.gauge("srsr.serve.snapshot.epoch").set(static_cast<f64>(epoch));
      if (dynamic()) {
        const auto batches = std::count_if(
            run.begin(), run.end(), [](const Update& u) {
              return std::holds_alternative<stream::UpdateBatch>(u.change);
            });
        reg.counter("srsr.serve.update.batches").add(static_cast<u64>(batches));
        reg.counter("srsr.serve.update.mutations").add(total.mutations);
        reg.gauge("srsr.serve.update.last_pushes")
            .set(static_cast<f64>(total.pushes));
        reg.gauge("srsr.serve.update.queue_depth").set(0.0);
      }
    }
  } catch (const std::exception& e) {
    // Bad kappa vectors, malformed batches and contract violations
    // surface here. A throwing ranker re-solves itself against whatever
    // the graph holds before rethrowing, so (graph, sigma) stay
    // consistent; the rest of the run is dropped and the old snapshot
    // stays live.
    fail(e.what());
  }
}

RankSnapshot RecomputePipeline::build_snapshot(std::vector<Update>& run,
                                               stream::UpdateOutcome& total) {
  if (!dynamic()) {
    // Only the newest update matters: a kappa or label update is a
    // full idempotent re-solve, not an incremental delta.
    Update& newest = run.back();
    applied_policy_ = newest.policy;
    const auto* labels = std::get_if<Labels>(&newest.change);
    std::vector<f64> kappa =
        labels ? label_kappa(labels->seeds, labels->top_k,
                             model_->source_graph().topology())
               : std::move(std::get<Kappa>(newest.change));
    // Warm start from the live sigma: the next fixed point is close
    // when the policy moved a little, so iterations drop sharply (the
    // ablation_warmstart bench quantifies it). The handle also keeps
    // the old epoch alive until the solve is done.
    const SnapshotPtr live = store_->current();
    return make_snapshot(*model_, kappa, hosts_,
                         {applied_policy_, live ? live->scores()
                                                : std::span<const f64>()});
  }

  // Strictly in submit order: a kappa vector submitted before a growth
  // batch is sized for the pre-growth id space, and label updates walk
  // the topology as of their position in the stream.
  total.converged = true;
  for (const Update& u : run) {
    stream::UpdateOutcome outcome;
    if (const auto* batch = std::get_if<stream::UpdateBatch>(&u.change)) {
      outcome = ranker_->apply(*batch);
    } else {
      const auto* labels = std::get_if<Labels>(&u.change);
      outcome = labels ? ranker_->set_kappa(label_kappa(
                             labels->seeds, labels->top_k,
                             ranker_->graph().topology()))
                       : ranker_->set_kappa(std::get<Kappa>(u.change));
      applied_policy_ = u.policy;
    }
    total.pushes += outcome.pushes;
    total.dirty_rows += outcome.dirty_rows;
    total.mutations += outcome.mutations;
    total.seconds += outcome.seconds;
    total.converged = total.converged && outcome.converged;
  }
  const stream::UpdateOutcome& last = ranker_->last_outcome();
  total.path = last.path;

  obs::Scope stage("serve.snapshot_build");
  SnapshotMeta meta;
  meta.kappa_policy = applied_policy_;
  meta.solver = "push";
  meta.iterations = static_cast<u32>(
      std::min<u64>(total.pushes, std::numeric_limits<u32>::max()));
  meta.residual = last.max_residual;
  meta.converged = total.converged;
  meta.solve_seconds = total.seconds;
  f64 kappa_mass = 0.0;
  for (const f64 k : ranker_->kappa()) kappa_mass += k;
  meta.kappa_mass = kappa_mass;
  // Warm = the push state survived the whole run (no cold re-seed).
  meta.warm_started = last.path == stream::UpdatePath::kDelta;
  return RankSnapshot(ranker_->sigma(), ranker_->graph().hosts(),
                      std::move(meta));
}

void RecomputePipeline::fail(const std::string& why) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.failed;
    stats_.last_error = why;
  }
  if (obs::metrics_enabled())
    obs::MetricsRegistry::instance()
        .counter("srsr.serve.recompute.failed")
        .add();
  log_warn("serve: ", dynamic() ? "update run" : "recompute",
           " failed, keeping epoch ", store_->epoch(), " live: ", why);
}

}  // namespace srsr::serve

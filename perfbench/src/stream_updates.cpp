// stream_updates: the serve write path over the stream layer. A
// closed-loop writer stages small EdgeStream batches (the same shape
// sequence for every seed: mostly 1-4-host link edits, some page and
// host additions, some kappa swaps), commits each, and pushes it
// through RecomputePipeline::submit_update + drain — what `serve
// --dynamic`'s `update commit` does — while readers query. This runs
// DynamicSourceGraph's dirty-row re-derivation and IncrementalRanker's
// push path instead of the power solve.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "core/kappa.hpp"
#include "core/spam_proximity.hpp"
#include "graph/builder.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "serve/recompute.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace srsr;

namespace {

/// Incremental sigma (push to 1e-12 per entry) against a cold static
/// power solve (1e-9 L2 step) of the final graph: the two truncations
/// sit orders of magnitude below this; drifted incremental state does
/// not.
constexpr f64 kParityBound = 1e-6;
/// The edit sequence is seeded by this constant, not by --seed: every
/// crawl sees the same shape of batches.
constexpr u64 kEditSeed = 0x5eedba7cULL;

struct StreamState {
  Crawl crawl;
  std::unique_ptr<core::SourceMap> map;
  std::unique_ptr<stream::DynamicSourceGraph> graph;
  std::unique_ptr<stream::IncrementalRanker> ranker;
  std::vector<f64> kappa_labels, kappa_wide;  // set-up proximity policies
  f64 graph_build_s = 0.0, ranker_build_s = 0.0, proximity_s = 0.0;
  u32 proximity_iterations = 0;
  std::unique_ptr<serve::SnapshotStore> store;
  std::unique_ptr<serve::RecomputePipeline> pipeline;  // destroyed first
};

stream::IncrementalConfig stream_config() {
  stream::IncrementalConfig cfg;
  cfg.alpha = 0.85;
  cfg.mode = core::ThrottleMode::kTeleportDiscard;
  return cfg;
}

void set_up(StreamState& st, const std::string& dir) {
  st.crawl = load_crawl(dir);
  const graph::WebCorpus& corpus = st.crawl.corpus;
  st.map = std::make_unique<core::SourceMap>(corpus.page_source);
  {
    LayerSpan span("stream.graph_build");
    st.graph = std::make_unique<stream::DynamicSourceGraph>(
        corpus.pages, *st.map, corpus.source_hosts);
    st.graph_build_s = span.finish();
  }
  {
    LayerSpan span("stream.ranker_build");
    st.ranker =
        std::make_unique<stream::IncrementalRanker>(*st.graph, stream_config());
    st.ranker_build_s = span.finish();
  }
  rank::RankResult proximity;
  {
    LayerSpan span("core.spam_proximity");
    proximity = core::spam_proximity(st.graph->topology(), st.crawl.seeds);
    st.proximity_s = span.finish();
    st.proximity_iterations = proximity.iterations;
  }
  const auto labels = static_cast<u32>(st.crawl.seeds.size());
  st.kappa_labels = core::kappa_top_k(proximity.scores, 2 * labels);
  st.kappa_wide = core::kappa_top_k(proximity.scores, 4 * labels);
  st.store = std::make_unique<serve::SnapshotStore>();
  st.pipeline = std::make_unique<serve::RecomputePipeline>(*st.ranker,
                                                           *st.store);
  st.pipeline->submit(st.kappa_labels, "top_2x_labels");
  st.pipeline->drain();
  check(st.store->epoch() == 1, "stream_updates: first publish failed");
}

std::vector<f64> padded(const std::vector<f64>& kappa, u32 sources) {
  std::vector<f64> out = kappa;
  out.resize(sources, 0.0);
  return out;
}

/// Step i of the fixed sequence: of every 16 steps, 14 link edits, 1
/// page addition (to an existing host and to a new host in turn) and 1
/// kappa swap (nothing staged; the kappa is submitted directly).
enum class StepKind { kLinks, kGrowth, kKappa };
StepKind step_kind(u64 i) {
  if (i % 16 == 15) return StepKind::kKappa;
  if (i % 16 == 7) return StepKind::kGrowth;
  return StepKind::kLinks;
}

class EditSource {
 public:
  EditSource(const graph::WebCorpus& corpus, stream::EdgeStream& es)
      : corpus_(corpus), es_(es), rng_(kEditSeed) {}

  /// 1-4 hosts, each with 1-3 link inserts or erases from one page.
  void links() {
    const u32 hosts = 1 + rng_.next_below(4);
    for (u32 h = 0; h < hosts; ++h) {
      const NodeId u = rng_.next_below(corpus_.num_pages());
      const u32 edits = 1 + rng_.next_below(3);
      for (u32 e = 0; e < edits; ++e) {
        const auto out = corpus_.pages.out_neighbors(u);
        if (rng_.next_below(2) == 0 || out.empty())
          es_.insert_link(u, rng_.next_below(es_.num_pages()));
        else
          es_.erase_link(u, out[rng_.next_below(static_cast<u32>(out.size()))]);
      }
    }
  }

  /// A page of an existing host, or of a new host (alternating), with
  /// three out-links and one in-link. Returns true for a new host.
  bool growth() {
    const bool new_host = (growths_++ % 2) == 1;
    const std::string host =
        new_host ? "www.stream-new-" + std::to_string(growths_) + ".example"
                 : corpus_.source_hosts[corpus_.page_source[rng_.next_below(
                       corpus_.num_pages())]];
    const NodeId page = es_.add_page(host);
    for (int k = 0; k < 3; ++k)
      es_.insert_link(page, rng_.next_below(corpus_.num_pages()));
    es_.insert_link(rng_.next_below(corpus_.num_pages()), page);
    return new_host;
  }

 private:
  const graph::WebCorpus& corpus_;
  stream::EdgeStream& es_;
  Pcg32 rng_;
  u64 growths_ = 0;
};

/// The gate's cold path: replays every committed batch onto the set-up
/// page graph, rebuilds the static model and solves the final kappa.
struct ColdRebuild {
  rank::RankResult sigma;
  f64 build_s = 0.0, bundle_s = 0.0;
  std::unique_ptr<core::SourceMap> map;
  std::unique_ptr<graph::Graph> pages;
  std::unique_ptr<core::SpamResilientSourceRank> model;
};

ColdRebuild cold_rebuild(const graph::WebCorpus& corpus,
                         const std::vector<stream::UpdateBatch>& batches,
                         std::span<const f64> kappa) {
  std::vector<std::vector<NodeId>> out(corpus.num_pages());
  for (NodeId p = 0; p < corpus.num_pages(); ++p) {
    const auto n = corpus.pages.out_neighbors(p);
    out[p].assign(n.begin(), n.end());
  }
  std::vector<NodeId> page_source = corpus.page_source;
  std::vector<std::string> hosts = corpus.source_hosts;
  std::unordered_map<std::string, NodeId> host_ids;
  for (NodeId s = 0; s < hosts.size(); ++s) host_ids[hosts[s]] = s;
  for (const auto& batch : batches) {
    for (const auto& m : batch.mutations) {
      if (m.kind == stream::MutationKind::kAddPage) {
        auto [it, fresh] =
            host_ids.emplace(m.host, static_cast<NodeId>(hosts.size()));
        if (fresh) hosts.push_back(m.host);
        page_source.push_back(it->second);
        out.emplace_back();
        continue;
      }
      auto& row = out[m.u];
      const auto it = std::lower_bound(row.begin(), row.end(), m.v);
      const bool present = it != row.end() && *it == m.v;
      if (m.kind == stream::MutationKind::kInsertLink && !present)
        row.insert(it, m.v);
      else if (m.kind == stream::MutationKind::kEraseLink && present)
        row.erase(it);
    }
  }
  ColdRebuild cold;
  graph::GraphBuilder builder(static_cast<NodeId>(out.size()));
  for (NodeId p = 0; p < out.size(); ++p)
    for (const NodeId q : out[p]) builder.add_edge(p, q);
  cold.pages = std::make_unique<graph::Graph>(builder.build());
  {
    LayerSpan span("core.model_build");
    cold.map = std::make_unique<core::SourceMap>(std::move(page_source));
    cold.model = std::make_unique<core::SpamResilientSourceRank>(
        *cold.pages, *cold.map, rank_config());
    cold.build_s = span.finish();
  }
  LayerSpan span("serve.snapshot_build");
  serve::RankSnapshot snap =
      serve::make_snapshot(*cold.model, kappa, std::move(hosts));
  const f64 seconds = span.finish();
  cold.sigma.scores.assign(snap.scores().begin(), snap.scores().end());
  cold.sigma.iterations = snap.meta().iterations;
  cold.sigma.converged = snap.meta().converged;
  cold.sigma.seconds = snap.meta().solve_seconds;
  cold.bundle_s = seconds - cold.sigma.seconds;
  return cold;
}

}  // namespace

int run_stream_updates(const Options& o) {
  Result result(o);
  auto st = std::make_unique<StreamState>();
  std::vector<f64> setup_s;
  for (u32 i = 0; i < kServeSetups; ++i) {
    st = std::make_unique<StreamState>();  // tears the previous one down
    const f64 t0 = now_s();
    set_up(*st, o.crawl_dir);
    setup_s.push_back(now_s() - t0);
  }
  const graph::WebCorpus& corpus = st->crawl.corpus;
  const NodeId initial_sources = st->graph->num_sources();
  // compare() needs a baseline over the same source set; the host set
  // grows here, so the mix is score / top_k / rank_of.
  serve::QueryEngine engine(*st->store);
  ReaderPool readers(engine, initial_sources, {kScore, kRankOf, kScore, kTopK},
                     o.seed);
  readers.wait_started();

  struct Window {
    std::vector<f64> publish_s, queue_wait_s, stage_s;
    std::vector<f64> apply_s, dirty_rows, pushes, seed_mass;
    u64 delta = 0, full = 0, fallback = 0;
    ReaderTotals queries;
    f64 start = 0.0, end = 0.0;
  };
  serve::RecomputePipeline& pipeline = *st->pipeline;
  serve::SnapshotStore& store = *st->store;
  stream::EdgeStream es(st->graph->num_pages());
  EditSource edits(corpus, es);
  std::vector<stream::UpdateBatch> log;
  u32 sources = initial_sources;
  u64 step = 0, expected_failed = 0, label_swaps = 0;
  obs::Histogram& update_hist =
      obs::MetricsRegistry::instance().histogram("srsr.serve.update.seconds");

  auto timed = [&](f64 seconds, Window& w) {
    w.start = now_s();
    do {
      const StepKind kind = step_kind(step++);
      const u64 epoch = store.epoch();
      const f64 update_before = update_hist.sum();
      LayerSpan span("serve.publish");
      f64 t0 = 0.0;
      if (kind == StepKind::kKappa) {
        t0 = now_s();
        if (label_swaps++ % 2 == 0)
          pipeline.submit(padded(st->kappa_wide, sources), "top_4x_labels");
        else
          pipeline.submit_spam_labels(
              st->crawl.seeds, static_cast<u32>(2 * st->crawl.seeds.size()));
      } else {
        const f64 s0 = now_s();
        {
          LayerSpan stage("stream.stage_commit");
          if (kind == StepKind::kGrowth) {
            if (edits.growth()) ++sources;
          } else {
            edits.links();
          }
          log.push_back(es.commit());
        }
        t0 = now_s();
        w.stage_s.push_back(t0 - s0);
        pipeline.submit_update(log.back());
      }
      pipeline.drain();
      const f64 latency = now_s() - t0;
      span.finish();
      const auto stats = pipeline.stats();
      result.op(store.epoch() == epoch + 1 && stats.failed == expected_failed);
      expected_failed = stats.failed;
      w.publish_s.push_back(latency);
      w.queue_wait_s.push_back(latency - (update_hist.sum() - update_before));
      if (kind != StepKind::kKappa) {
        // The worker is idle after drain(): the ranker's last outcome is
        // this batch's.
        const stream::UpdateOutcome& out = st->ranker->last_outcome();
        w.apply_s.push_back(out.seconds);
        w.dirty_rows.push_back(static_cast<f64>(out.dirty_rows));
        w.pushes.push_back(static_cast<f64>(out.pushes));
        w.seed_mass.push_back(out.seed_mass);
        if (out.path == stream::UpdatePath::kDelta) ++w.delta;
        else if (out.path == stream::UpdatePath::kFull) ++w.full;
        else ++w.fallback;
      }
    } while (now_s() - w.start < seconds);
    w.end = now_s();
  };

  Window plain, traced;
  StageWindow stages;
  timed(o.trace ? o.seconds / 2 : o.seconds, plain);
  plain.queries = readers.roll_window();
  std::vector<SpanRecord> spans;
  if (o.trace) {
    obs::set_metrics_enabled(true);
    set_layer_tracing(true);
    clear_layer_spans();
    stages.open();
    timed(o.seconds / 2, traced);
    set_layer_tracing(false);
    spans = collect_layer_spans();
  }
  traced.queries = readers.stop();
  const Window& main = o.trace ? traced : plain;
  const ReaderTotals& reads = o.trace ? traced.queries : plain.queries;
  const f64 rss = peak_rss_mb();

  // ---- correctness gates (off the clock)
  reader_gates(result, o, store.current(), plain.queries, traced.queries);

  // Final publish of the set-up policy, so the quality figure does not
  // depend on which kappa the timed sequence stopped on.
  pipeline.submit(padded(st->kappa_labels, sources), "top_2x_labels");
  pipeline.drain();
  const auto stats = pipeline.stats();
  result.op(stats.failed == 0 && store.current()->num_sources() == sources);
  const std::vector<NodeId> spam = load_spam_truth(o.crawl_dir, corpus);
  std::vector<f64> sigma(store.current()->scores().begin(),
                         store.current()->scores().end());
  if (o.corrupt == "sigma") sigma = corrupted_sigma(sigma, spam);

  const std::vector<f64> final_kappa = st->ranker->kappa();
  const ColdRebuild cold = cold_rebuild(corpus, log, final_kappa);
  const f64 err = linf(sigma, cold.sigma.scores);
  char evidence[200];
  std::snprintf(evidence, sizeof evidence,
                "linf %.3g <= %.1g vs a cold static rebuild after %zu batches "
                "(%u sources)",
                err, kParityBound, log.size(), sources);
  result.gate("incremental_vs_cold_rebuild",
              cold.sigma.converged && err <= kParityBound, evidence);

  RunMeta meta;
  meta.workload = "stream_updates";
  meta.seed = o.seed;
  meta.spec = crawl_spec(o.size, o.seed);
  meta.pages = corpus.num_pages();
  meta.links = corpus.pages.num_edges();
  meta.hosts = initial_sources;
  meta.input_bytes = st->crawl.input_bytes;

  report_end_to_end(result, {median(setup_s), main.publish_s, &reads,
                             main.end - main.start, rss,
                             spam_mean_rank_pct(sigma, spam)});

  if (o.trace) {
    LayerInputs in;
    in.read_s = {st->crawl.read_s};
    in.match_s = {st->crawl.match_s};
    in.model_build_s = {cold.build_s};
    in.proximity_s = {stages.count("core.spam_proximity") > 0
                          ? stages.mean_s("core.spam_proximity")
                          : st->proximity_s};
    in.proximity_iterations = {static_cast<f64>(st->proximity_iterations)};
    in.solve_s = {cold.sigma.seconds};
    in.solve_iterations = {static_cast<f64>(cold.sigma.iterations)};
    in.snapshot_build_s = {cold.bundle_s};
    in.input_bytes = st->crawl.input_bytes;
    in.nnz = st->graph->row_entries();
    in.rows = st->graph->num_sources();
    in.speedup = parallel_speedup(*cold.model, final_kappa);
    in.queries = &traced.queries;
    in.overhead_pct =
        100.0 * (median(traced.publish_s) / median(plain.publish_s) - 1.0);
    in.coverage = summarize_spans(spans, traced.start, traced.end).coverage;
    report_common_layers(result, meta, in);
    const auto batches = static_cast<f64>(traced.apply_s.size());
    result.detail("stream.commit_s", median(traced.apply_s), "s");
    result.detail("stream.stage_commit_us", 1e6 * median(traced.stage_s),
                  "us");
    result.detail("stream.dirty_rows", median(traced.dirty_rows), "count");
    result.detail("stream.pushes", median(traced.pushes), "count");
    result.detail("stream.seed_mass", median(traced.seed_mass), "mass");
    result.detail("stream.path_delta_share",
                  static_cast<f64>(traced.delta) / batches, "share");
    result.detail("stream.path_full_share",
                  static_cast<f64>(traced.full) / batches, "share");
    result.detail("stream.path_fallback_share",
                  static_cast<f64>(traced.fallback) / batches, "share");
    result.detail("stream.graph_build_s", st->graph_build_s, "s");
    result.detail("stream.ranker_build_s", st->ranker_build_s, "s");
    result.detail("serve.recompute_s", stages.mean_s("serve.update"), "s");
    result.detail("serve.queue_wait_ms", 1e3 * median(traced.queue_wait_s),
                  "ms");
    result.detail("serve.coalesced", static_cast<f64>(stats.coalesced_batches),
                  "count");
    result.detail("serve.failed", static_cast<f64>(stats.failed), "count");
    result.detail("serve.publishes", static_cast<f64>(traced.publish_s.size()),
                  "count");
    result.detail("obs.trace_query_overhead_pct",
                  100.0 * (traced.queries.all.quantile_us(0.5) /
                               plain.queries.all.quantile_us(0.5) -
                           1.0),
                  "%");
  }
  result.finish(meta);
  return 0;
}

}  // namespace perfbench

// crawl_rank: repeated batch passes over the text crawl — `srsr_cli
// rank`'s path without printing. Each pass reads the crawl, builds the
// model (source graph, T', transpose), runs the spam-proximity walk,
// sets kappa by top-k and solves Eq. 3; the sigma is bundled into a
// snapshot and published. Two readers query the live snapshot all the
// while, as a search front-end would during a re-crawl.
#include <cstdio>
#include <memory>

#include "core/kappa.hpp"
#include "core/spam_proximity.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace srsr;

namespace {

/// Jacobi reference at a far tighter tolerance than the power solve's
/// 1e-9 (L2 step): both converge to Eq. 3's fixed point, so sigma must
/// agree with it to within the power solve's truncation.
constexpr f64 kReferenceBound = 1e-7;

struct Pass {
  Crawl crawl;
  std::unique_ptr<core::SourceMap> map;
  std::unique_ptr<core::SpamResilientSourceRank> model;
  std::vector<f64> kappa;
  f64 seconds = 0.0, build_s = 0.0, proximity_s = 0.0, bundle_s = 0.0;
  f64 solve_s = 0.0;
  u32 proximity_iterations = 0, solve_iterations = 0;
  bool converged = false;
};

std::unique_ptr<Pass> run_pass(const std::string& dir,
                               serve::SnapshotStore& store) {
  auto pass = std::make_unique<Pass>();
  const f64 t0 = now_s();
  pass->crawl = load_crawl(dir);
  const graph::WebCorpus& corpus = pass->crawl.corpus;
  {
    LayerSpan span("core.model_build");
    pass->map = std::make_unique<core::SourceMap>(corpus.page_source);
    pass->model = std::make_unique<core::SpamResilientSourceRank>(
        corpus.pages, *pass->map, rank_config());
    pass->build_s = span.finish();
  }
  core::SpamResilientSourceRank& model = *pass->model;
  rank::RankResult proximity;
  {
    LayerSpan span("core.spam_proximity");
    proximity = core::spam_proximity(model.source_graph().topology(),
                                     pass->crawl.seeds);
    pass->proximity_s = span.finish();
    pass->proximity_iterations = proximity.iterations;
  }
  {
    LayerSpan span("core.kappa_policy");
    const auto top_k = static_cast<u32>(2 * pass->crawl.seeds.size());
    pass->kappa = core::kappa_top_k(proximity.scores, top_k);
  }
  std::optional<serve::RankSnapshot> snapshot;
  {
    LayerSpan span("serve.snapshot_build");
    serve::SnapshotBuild build;
    build.policy = "top_2x_labels";
    snapshot.emplace(
        serve::make_snapshot(model, pass->kappa, corpus.source_hosts, build));
    const f64 seconds = span.finish();
    pass->solve_s = snapshot->meta().solve_seconds;
    pass->solve_iterations = snapshot->meta().iterations;
    pass->converged = snapshot->meta().converged;
    pass->bundle_s = seconds - pass->solve_s;
  }
  {
    LayerSpan span("serve.publish");
    store.publish(std::move(*snapshot));
  }
  pass->seconds = now_s() - t0;
  return pass;
}

}  // namespace

int run_crawl_rank(const Options& o) {
  Result result(o);
  serve::SnapshotStore store;

  // Set-up: the cold first pass (OpenMP start-up and the first-solve
  // outlier a one-shot CLI user pays) plus the kappa = 0 baseline the
  // compare query and the spam gate need. One per process: a second
  // pass in the same process is no longer cold.
  const f64 setup_t0 = now_s();
  std::unique_ptr<Pass> pass = run_pass(o.crawl_dir, store);
  result.op(pass->converged);
  std::vector<f64> zeros(pass->model->num_sources(), 0.0);
  serve::SnapshotBuild baseline_build;
  baseline_build.policy = "kappa0";
  const serve::SnapshotPtr baseline = std::make_shared<serve::RankSnapshot>(
      serve::make_snapshot(*pass->model, zeros,
                           pass->crawl.corpus.source_hosts, baseline_build));
  const f64 setup_s = now_s() - setup_t0;
  const NodeId sources = pass->model->num_sources();
  serve::QueryEngine engine(store, baseline);
  ReaderPool readers(engine, sources,
                     {kScore, kRankOf, kScore, kTopK, kCompare}, o.seed);
  readers.wait_started();

  // Timed passes. A traced run spends its first half untraced and its
  // second half traced, so the trace overhead is measured in-process.
  struct Window {
    std::vector<f64> pass_s;
    LayerInputs layers;  // traced window only
    ReaderTotals queries;
    f64 start = 0.0, end = 0.0;
  };
  auto timed = [&](f64 seconds, bool traced, Window& w) {
    w.start = now_s();
    do {
      pass.reset();
      pass = run_pass(o.crawl_dir, store);
      result.op(pass->converged && pass->model->num_sources() == sources);
      w.pass_s.push_back(pass->seconds);
      if (traced) {
        LayerInputs& in = w.layers;
        in.read_s.push_back(pass->crawl.read_s);
        in.match_s.push_back(pass->crawl.match_s);
        in.model_build_s.push_back(pass->build_s);
        in.proximity_s.push_back(pass->proximity_s);
        in.proximity_iterations.push_back(pass->proximity_iterations);
        in.solve_s.push_back(pass->solve_s);
        in.solve_iterations.push_back(pass->solve_iterations);
        in.snapshot_build_s.push_back(pass->bundle_s);
      }
    } while (now_s() - w.start < seconds);
    w.end = now_s();
  };

  Window plain, traced;
  timed(o.trace ? o.seconds / 2 : o.seconds, false, plain);
  plain.queries = readers.roll_window();
  std::vector<SpanRecord> spans;
  if (o.trace) {
    obs::set_metrics_enabled(true);
    set_layer_tracing(true);
    clear_layer_spans();
    timed(o.seconds / 2, true, traced);
    set_layer_tracing(false);
    spans = collect_layer_spans();
  }
  traced.queries = readers.stop();
  const f64 rss = peak_rss_mb();

  // ---- correctness gates (off the clock)
  const Window& main = o.trace ? traced : plain;
  const ReaderTotals& reads = o.trace ? traced.queries : plain.queries;
  const serve::SnapshotPtr live = store.current();
  reader_gates(result, o, live, plain.queries, traced.queries);

  const std::vector<NodeId> spam =
      load_spam_truth(o.crawl_dir, pass->crawl.corpus);
  std::vector<f64> sigma(live->scores().begin(), live->scores().end());
  if (o.corrupt == "sigma") sigma = corrupted_sigma(sigma, spam);

  core::SrsrConfig ref_cfg = rank_config();
  ref_cfg.solver = core::SolverKind::kJacobi;
  ref_cfg.convergence.tolerance = 1e-13;
  ref_cfg.convergence.max_iterations = 10000;
  const core::SpamResilientSourceRank reference(pass->crawl.corpus.pages,
                                                *pass->map, ref_cfg);
  const rank::RankResult ref = reference.rank(pass->kappa);
  const f64 err = linf(sigma, ref.scores);
  char evidence[160];
  std::snprintf(evidence, sizeof evidence,
                "linf %.3g <= %.1g vs Jacobi (tol 1e-13, %u iterations)",
                err, kReferenceBound, ref.iterations);
  result.gate("sigma_vs_jacobi_reference",
              ref.converged && err <= kReferenceBound, evidence);

  const f64 spam_rank = spam_mean_rank_pct(sigma, spam);
  const f64 spam_rank0 = spam_mean_rank_pct(baseline->scores(), spam);
  std::snprintf(evidence, sizeof evidence,
                "mean spam rank percentile %.3f > %.3f at kappa = 0",
                spam_rank, spam_rank0);
  result.gate("spam_demoted_vs_kappa0", spam_rank > spam_rank0, evidence);

  RunMeta meta;
  meta.workload = "crawl_rank";
  meta.seed = o.seed;
  meta.spec = crawl_spec(o.size, o.seed);
  meta.pages = pass->crawl.corpus.num_pages();
  meta.links = pass->crawl.corpus.pages.num_edges();
  meta.hosts = sources;
  meta.input_bytes = pass->crawl.input_bytes;

  report_end_to_end(result, {setup_s, main.pass_s, &reads,
                             main.end - main.start, rss, spam_rank});

  if (o.trace) {
    LayerInputs& in = traced.layers;
    in.input_bytes = pass->crawl.input_bytes;
    in.nnz = pass->model->base_transpose().num_entries();
    in.rows = sources;
    in.speedup = parallel_speedup(*pass->model, pass->kappa);
    in.queries = &traced.queries;
    in.overhead_pct =
        100.0 * (median(traced.pass_s) / median(plain.pass_s) - 1.0);
    const SpanSummary summary =
        summarize_spans(spans, traced.start, traced.end);
    in.coverage = summary.coverage;
    report_common_layers(result, meta, in);
    result.detail("serve.query.compare_p50_us",
                  traced.queries.per_kind[kCompare].quantile_us(0.5), "us");
    result.detail("crawl_rank.passes", static_cast<f64>(traced.pass_s.size()),
                  "count");
    for (const auto& [name, secs] : summary.seconds)
      result.detail("span." + name + "_s", median(secs), "s");
  }
  result.finish(meta);
  return 0;
}

}  // namespace perfbench

// Shared machinery of the SRSR performance benchmark (srsr_perfbench).
//
// The harness drives the library only through its monolithic public
// API: graph ingest, the core model, spam proximity, kappa policies,
// the serve write/read paths and the stream layer. It owns
//
//   - the crawl generator (one text crawl per seed, written before any
//     timing) and the loader that mirrors `srsr_cli rank`'s ingest;
//   - layer spans: wall-time scopes opened by the benchmark around each
//     call into a library layer, named after the library's own stage
//     histograms ("graph.io.read_url_corpus", "core.solve", ...);
//   - closed-loop query readers with an allocation-free latency
//     histogram (query timing never includes checksum verification);
//   - the result: end-to-end metrics, per-layer metrics, correctness
//     gates, run metadata, and the final one-line JSON verdict.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/srsr.hpp"
#include "graph/webgen.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "util/common.hpp"

namespace perfbench {

using srsr::f64;
using srsr::NodeId;
using srsr::u32;
using srsr::u64;

/// Query reader threads. With the writer (the main thread) the load
/// generator stays within a 4-thread machine.
inline constexpr u32 kReaders = 2;
/// Set-ups per run of the serve workloads; setup_s is their median.
inline constexpr u32 kServeSetups = 2;

inline f64 now_s() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::string crawl_dir;
  /// Crawl size preset the crawl was generated with ("full" | "tiny").
  std::string size = "full";
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  /// Smoke-test hook: "sigma" perturbs the sigma every gate sees,
  /// "snapshot" feeds the snapshot gate a torn, out-of-order snapshot.
  std::string corrupt;
  /// Extra "key": value pairs for the meta line (JSON object body).
  std::string meta_json;
};

// -------------------------------------------------------------- the crawl

/// Generator configuration of one benchmark crawl.
struct CrawlSpec {
  u32 sources = 20000;
  u32 spam = 400;
  /// Share of the planted spam hosts written to labels.txt (the paper's
  /// Sec. 6.2 seed regime: a small labelled sample).
  f64 label_share = 0.08;
  /// The workload seed: draws the labelled sample (and, in the
  /// workloads, the readers' ids).
  u64 seed = 1;
  /// Generator seed of the page graph, the same for every workload
  /// seed: crawls from different generator seeds differ by up to 25 %
  /// in warm-solve cost, which would swamp the run-to-run spread.
  u64 graph_seed = 1;
};

/// "full" (the 20k-host crawl) or "tiny" (smoke test).
CrawlSpec crawl_spec(const std::string& size, u64 seed);
std::string crawl_spec_json(const CrawlSpec& spec);

/// Writes pages.txt, edges.txt, labels.txt (sampled spam hosts),
/// spam_truth.txt (every planted spam host) and spec.json into `dir`.
void generate_crawl(const CrawlSpec& spec, const std::string& dir);

struct Crawl {
  srsr::graph::WebCorpus corpus;
  std::vector<NodeId> seeds;  // labels.txt hosts, as source ids
  u64 input_bytes = 0;        // pages.txt + edges.txt
  f64 read_s = 0.0;           // graph.io.read_url_corpus
  f64 match_s = 0.0;          // graph.io.match_hosts
};

/// srsr_cli rank's ingest: read_url_corpus + match_hosts(labels.txt),
/// each inside a layer span.
Crawl load_crawl(const std::string& dir);

/// Every planted spam host of the crawl, as source ids of `corpus`.
std::vector<NodeId> load_spam_truth(const std::string& dir,
                                    const srsr::graph::WebCorpus& corpus);

/// The model configuration `srsr_cli rank` uses (Sec. 6 settings).
srsr::core::SrsrConfig rank_config();

/// Mean rank percentile of the `spam` sources under `sigma`: 0 = all
/// at the top, 100 = all at the bottom (higher = spam demoted further).
f64 spam_mean_rank_pct(std::span<const f64> sigma,
                       const std::vector<NodeId>& spam);

f64 linf(std::span<const f64> a, std::span<const f64> b);

/// Smoke-test hook: lifts every planted spam source to the top of a
/// copy of `sigma` (and renormalizes), the corruption the sigma gates
/// must reject.
std::vector<f64> corrupted_sigma(std::span<const f64> sigma,
                                 const std::vector<NodeId>& spam);

// ------------------------------------------------------------ layer spans

/// Process-wide switch of the benchmark's own spans. Off in untraced
/// runs, where a LayerSpan costs one relaxed load.
void set_layer_tracing(bool on);
bool layer_tracing();

struct SpanRecord {
  const char* name;
  f64 start_s;
  f64 seconds;
  u32 depth;  // 0 = top level on its thread
};

/// Finished spans of the calling thread's traced window (the writer /
/// main thread; readers open no spans).
std::vector<SpanRecord> collect_layer_spans();
void clear_layer_spans();

class LayerSpan {
 public:
  explicit LayerSpan(const char* name);
  ~LayerSpan() { finish(); }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;
  /// Closes the span and returns its seconds (always measured, traced
  /// or not, so callers can use it as their stopwatch).
  f64 finish();

 private:
  const char* name_;
  f64 start_;
  f64 seconds_ = -1.0;
  bool recorded_;
  u32 depth_ = 0;
};

/// Per-call seconds of every span name finished inside [window_start,
/// window_end], and the share of that window depth-0 spans cover.
struct SpanSummary {
  std::map<std::string, std::vector<f64>> seconds;  // name -> per call
  f64 coverage = 0.0;
};
SpanSummary summarize_spans(const std::vector<SpanRecord>& spans,
                            f64 window_start, f64 window_end);

/// Deltas of the library's stage histograms ("srsr.<stage>.seconds")
/// between open() and the query: what the library's own StageTimers
/// recorded on any thread (the recompute worker included).
class StageWindow {
 public:
  void open();
  u64 count(const std::string& stage) const;
  f64 total_s(const std::string& stage) const;
  f64 mean_s(const std::string& stage) const;

 private:
  std::pair<f64, u64> now(const std::string& stage) const;
  std::map<std::string, std::pair<f64, u64>> start_;
};

// ---------------------------------------------------------------- queries

/// Log-linear latency histogram over nanoseconds: exact below 1 us,
/// 512 sub-buckets per power of two above (relative error < 0.2 %).
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record(u64 ns) { ++counts_[bucket(ns)]; ++total_; }
  void merge(const LatencyHistogram& other);
  u64 total() const { return total_; }
  /// q-quantile in microseconds, interpolated inside its bucket.
  f64 quantile_us(f64 q) const;

 private:
  static std::size_t bucket(u64 ns);
  std::vector<u64> counts_;
  u64 total_ = 0;
};

enum QueryKind : u32 { kScore = 0, kTopK, kRankOf, kCompare, kNumKinds };
const char* query_kind_name(u32 kind);

struct ReaderTotals {
  LatencyHistogram all;
  LatencyHistogram per_kind[kNumKinds];
  u64 queries = 0;
  u64 empty_results = 0;     // a valid id answered with nothing
  u64 snapshots_checked = 0;
  u64 torn = 0;              // checksum or epoch-order breaches
  u64 errors = 0;            // queries that threw
};

void merge_totals(ReaderTotals& into, const ReaderTotals& from);

/// Closed-loop query readers over one QueryEngine. `kinds` is the
/// query mix, cycled per reader; ids are drawn from [0, num_ids). The
/// mixes put the cheap point lookups (score, rank_of) at 60-75 % of the
/// queries, so the p50 falls inside one query kind and the p99 inside
/// top_k, never on the boundary between two kinds.
/// Every 256th query the reader re-acquires the live snapshot (off the
/// timed path) and checks that epochs never go backwards; each epoch a
/// reader sees for the first time gets its checksum verified.
class ReaderPool {
 public:
  ReaderPool(const srsr::serve::QueryEngine& engine, NodeId num_ids,
             std::vector<QueryKind> kinds, u64 seed);
  ~ReaderPool();
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;
  /// Blocks until every reader has issued at least one query.
  void wait_started();
  /// Stops and joins the readers; returns their merged totals.
  ReaderTotals stop();
  /// Moves the readers into a new accounting window (e.g. the traced
  /// half of a traced run): totals so far are returned and reset.
  ReaderTotals roll_window();

 private:
  struct Reader;
  void loop(Reader& reader, u64 seed);
  const srsr::serve::QueryEngine& engine_;
  NodeId num_ids_;
  std::vector<QueryKind> kinds_;
  std::vector<std::unique_ptr<Reader>> readers_;
  std::atomic<bool> stop_{false};
  std::atomic<u32> window_{0};
};


// ----------------------------------------------------------------- result

f64 median(std::vector<f64> v);
f64 percentile(std::vector<f64> v, f64 q);

struct RunMeta {
  std::string workload;
  u64 seed = 0;
  CrawlSpec spec;
  u64 pages = 0, links = 0, hosts = 0, input_bytes = 0;
};

class Result {
 public:
  explicit Result(const Options& options) : options_(options) {}

  /// An end-to-end metric (printed in untraced runs).
  void metric(const std::string& name, f64 value, const std::string& unit);
  /// A per-layer metric listed in BENCHMARK.json (printed in traced
  /// runs).
  void layer(const std::string& name, f64 value, const std::string& unit);
  /// A per-layer metric only this workload has: reported on its own
  /// line, kept out of the JSON verdict.
  void detail(const std::string& name, f64 value, const std::string& unit);

  /// Counts one operation; `ok == false` counts it failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(u64 attempted, u64 failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A correctness gate: one operation, logged with its evidence.
  void gate(const std::string& name, bool ok, const std::string& evidence);

  /// Prints meta, metric and gate lines, then the JSON verdict as the
  /// last line of stdout.
  void finish(const RunMeta& meta) const;

 private:
  struct Entry {
    std::string name;
    f64 value;
    std::string unit;
  };
  const Options& options_;
  std::vector<Entry> metrics_, layers_, details_;
  std::vector<std::string> gate_lines_;
  bool gates_ok_ = true;
  u64 attempted_ = 0, failed_ = 0;
};

/// Counts every query of both windows (an empty answer or a throw is a
/// failure) and runs the snapshot gate: no torn or out-of-order
/// snapshot among the readers' samples, and `live` verifies. With
/// --corrupt snapshot the gate is fed a torn, out-of-order sequence.
void reader_gates(Result& result, const Options& options,
                  const srsr::serve::SnapshotPtr& live,
                  const ReaderTotals& plain, const ReaderTotals& traced);

/// The end-to-end metrics, identical on every workload.
struct EndToEnd {
  f64 setup_s = 0.0;
  std::vector<f64> publish_s;
  const ReaderTotals* reads = nullptr;
  f64 window_s = 0.0;  // wall time the reads were counted over
  f64 peak_rss_mb = 0.0;
  f64 spam_rank_pct = 0.0;
};
void report_end_to_end(Result& result, const EndToEnd& e2e);

/// Peak resident set of this process, MB.
f64 peak_rss_mb();

/// rank.parallel_speedup: wall time of a cold `model.rank(kappa)` at one
/// OpenMP thread over the same at `nproc` threads (median of 3 each).
f64 parallel_speedup(const srsr::core::SpamResilientSourceRank& model,
                     std::span<const f64> kappa);

/// Layer metrics every workload reports from its own spans and stage
/// windows (README.md, "Per-layer metrics").
struct LayerInputs {
  std::vector<f64> read_s, match_s, model_build_s, proximity_s, solve_s;
  std::vector<f64> proximity_iterations, solve_iterations;
  std::vector<f64> snapshot_build_s;  // bundling only (solve excluded)
  u64 input_bytes = 0;
  u64 nnz = 0, rows = 0;
  f64 speedup = 0.0;
  ReaderTotals* queries = nullptr;
  f64 overhead_pct = 0.0, coverage = 0.0;
};
void report_common_layers(Result& result, const RunMeta& meta,
                          const LayerInputs& in);

// -------------------------------------------------------------- workloads

int run_crawl_rank(const Options& options);
int run_serve_kappa(const Options& options);
int run_stream_updates(const Options& options);

}  // namespace perfbench

#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#if defined(SRSR_HAVE_OPENMP)
#include <omp.h>
#endif

namespace perfbench {

namespace fs = std::filesystem;
using namespace srsr;

// -------------------------------------------------------------- the crawl

CrawlSpec crawl_spec(const std::string& size, u64 seed) {
  CrawlSpec spec;
  spec.seed = seed;
  if (size == "tiny") {
    spec.sources = 400;
    spec.spam = 40;
  } else {
    check(size == "full", "unknown crawl size '" + size + "'");
  }
  return spec;
}

std::string crawl_spec_json(const CrawlSpec& spec) {
  std::ostringstream out;
  out << "{\"sources\": " << spec.sources << ", \"spam\": " << spec.spam
      << ", \"label_share\": " << spec.label_share
      << ", \"graph_seed\": " << spec.graph_seed
      << ", \"label_seed\": " << spec.seed
      << ", \"generator\": \"graph::generate_web_corpus defaults\"}";
  return out.str();
}

void generate_crawl(const CrawlSpec& spec, const std::string& dir_name) {
  graph::WebGenConfig cfg;
  cfg.num_sources = spec.sources;
  cfg.num_spam_sources = spec.spam;
  cfg.seed = spec.graph_seed;
  const graph::WebCorpus corpus = graph::generate_web_corpus(cfg);

  const fs::path dir = dir_name;
  fs::create_directories(dir);
  {
    std::ofstream pages(dir / "pages.txt");
    for (NodeId p = 0; p < corpus.num_pages(); ++p)
      pages << p << " http://" << corpus.source_hosts[corpus.page_source[p]]
            << "/page" << p << '\n';
    check(pages.good(), "cannot write " + (dir / "pages.txt").string());
  }
  graph::write_edge_list_file((dir / "edges.txt").string(), corpus.pages);

  std::vector<NodeId> spam = corpus.spam_sources();
  {
    std::ofstream truth(dir / "spam_truth.txt");
    for (const NodeId s : spam) truth << corpus.source_hosts[s] << '\n';
  }
  // A seeded sample of the planted spam hosts: partial Fisher-Yates,
  // then id order so the file does not leak the draw order.
  const auto labelled = static_cast<std::size_t>(std::max<f64>(
      1.0, std::floor(spec.label_share * static_cast<f64>(spam.size()))));
  Pcg32 rng(spec.seed ^ 0x5eedf00dULL);
  for (std::size_t i = 0; i < labelled && i < spam.size(); ++i) {
    const std::size_t j =
        i + rng.next_below(static_cast<u32>(spam.size() - i));
    std::swap(spam[i], spam[j]);
  }
  spam.resize(std::min(labelled, spam.size()));
  std::sort(spam.begin(), spam.end());
  {
    std::ofstream labels(dir / "labels.txt");
    for (const NodeId s : spam) labels << corpus.source_hosts[s] << '\n';
  }
  std::ofstream(dir / "spec.json") << crawl_spec_json(spec) << '\n';
  std::printf("generated %u pages / %llu links / %u hosts into %s\n",
              corpus.num_pages(),
              static_cast<unsigned long long>(corpus.pages.num_edges()),
              corpus.num_sources(), dir.string().c_str());
}

Crawl load_crawl(const std::string& dir_name) {
  const fs::path dir = dir_name;
  Crawl out;
  out.input_bytes =
      fs::file_size(dir / "pages.txt") + fs::file_size(dir / "edges.txt");
  {
    LayerSpan span("graph.io.read_url_corpus");
    std::ifstream pages(dir / "pages.txt");
    std::ifstream edges(dir / "edges.txt");
    check(pages.good() && edges.good(), "cannot open the crawl in " + dir_name);
    out.corpus = graph::read_url_corpus(pages, edges);
    out.read_s = span.finish();
  }
  {
    LayerSpan span("graph.io.match_hosts");
    std::ifstream labels(dir / "labels.txt");
    check(labels.good(), "cannot open " + (dir / "labels.txt").string());
    out.seeds = graph::match_hosts(out.corpus, labels);
    out.match_s = span.finish();
  }
  return out;
}

std::vector<NodeId> load_spam_truth(const std::string& dir,
                                    const graph::WebCorpus& corpus) {
  std::ifstream truth(fs::path(dir) / "spam_truth.txt");
  check(truth.good(), "cannot open " + dir + "/spam_truth.txt");
  return graph::match_hosts(corpus, truth);
}

core::SrsrConfig rank_config() {
  core::SrsrConfig cfg;
  cfg.alpha = 0.85;
  cfg.throttle_mode = core::ThrottleMode::kTeleportDiscard;
  return cfg;
}

f64 spam_mean_rank_pct(std::span<const f64> sigma,
                       const std::vector<NodeId>& spam) {
  check(!spam.empty() && !sigma.empty(), "spam_mean_rank_pct: no spam");
  std::vector<NodeId> order(sigma.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  // Descending score, ties by ascending id (metrics/ranking.cpp).
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return sigma[a] != sigma[b] ? sigma[a] > sigma[b] : a < b;
  });
  std::vector<f64> position(sigma.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    position[order[i]] = static_cast<f64>(i);
  f64 sum = 0.0;
  for (const NodeId s : spam) sum += position[s];
  return 100.0 * sum /
         (static_cast<f64>(spam.size()) * static_cast<f64>(sigma.size()));
}

f64 linf(std::span<const f64> a, std::span<const f64> b) {
  if (a.size() != b.size()) return INFINITY;
  f64 worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

std::vector<f64> corrupted_sigma(std::span<const f64> sigma,
                                 const std::vector<NodeId>& spam) {
  std::vector<f64> out(sigma.begin(), sigma.end());
  const f64 top = *std::max_element(out.begin(), out.end());
  for (const NodeId s : spam) out[s] += top;
  const f64 sum = std::accumulate(out.begin(), out.end(), 0.0);
  for (f64& x : out) x /= sum;
  return out;
}

// ------------------------------------------------------------ layer spans

namespace {
std::atomic<bool> g_layer_tracing{false};
thread_local std::vector<SpanRecord> t_spans;
thread_local u32 t_depth = 0;
}  // namespace

void set_layer_tracing(bool on) {
  g_layer_tracing.store(on, std::memory_order_relaxed);
}
bool layer_tracing() {
  return g_layer_tracing.load(std::memory_order_relaxed);
}
std::vector<SpanRecord> collect_layer_spans() { return t_spans; }
void clear_layer_spans() { t_spans.clear(); }

LayerSpan::LayerSpan(const char* name)
    : name_(name), start_(now_s()), recorded_(layer_tracing()) {
  if (recorded_) depth_ = t_depth++;
}

f64 LayerSpan::finish() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = now_s() - start_;
  if (recorded_) {
    --t_depth;
    t_spans.push_back({name_, start_, seconds_, depth_});
  }
  return seconds_;
}

SpanSummary summarize_spans(const std::vector<SpanRecord>& spans,
                            f64 window_start, f64 window_end) {
  SpanSummary out;
  f64 covered = 0.0;
  for (const SpanRecord& s : spans) {
    const f64 end = s.start_s + s.seconds;
    if (s.start_s < window_start || end > window_end) continue;
    out.seconds[s.name].push_back(s.seconds);
    if (s.depth == 0) covered += s.seconds;
  }
  const f64 wall = window_end - window_start;
  out.coverage = wall > 0.0 ? covered / wall : 0.0;
  return out;
}

std::pair<f64, u64> StageWindow::now(const std::string& stage) const {
  const std::string name = "srsr." + stage + ".seconds";
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  for (const auto& [n, h] : snap.histograms)
    if (n == name) return {h.sum, h.count};
  return {0.0, 0};
}

void StageWindow::open() {
  start_.clear();
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  for (const auto& [n, h] : snap.histograms) start_[n] = {h.sum, h.count};
}

u64 StageWindow::count(const std::string& stage) const {
  const auto it = start_.find("srsr." + stage + ".seconds");
  const u64 base = it == start_.end() ? 0 : it->second.second;
  return now(stage).second - base;
}

f64 StageWindow::total_s(const std::string& stage) const {
  const auto it = start_.find("srsr." + stage + ".seconds");
  const f64 base = it == start_.end() ? 0.0 : it->second.first;
  return now(stage).first - base;
}

f64 StageWindow::mean_s(const std::string& stage) const {
  const u64 n = count(stage);
  return n == 0 ? 0.0 : total_s(stage) / static_cast<f64>(n);
}

// ---------------------------------------------------------------- queries

namespace {
constexpr std::size_t kLinear = 1024;  // exact buckets below 1024 ns
constexpr u32 kSubBits = 9;            // 512 sub-buckets per octave
constexpr u32 kMaxExp = 40;            // ~18 minutes
constexpr std::size_t kBuckets =
    kLinear + (kMaxExp - 10 + 1) * (std::size_t{1} << kSubBits);
}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kBuckets, 0) {}

std::size_t LatencyHistogram::bucket(u64 ns) {
  if (ns < kLinear) return static_cast<std::size_t>(ns);
  u32 e = 63 - static_cast<u32>(__builtin_clzll(ns));
  if (e > kMaxExp) {
    e = kMaxExp;
    ns = (u64{2} << kMaxExp) - 1;
  }
  const u64 mant = (ns >> (e - kSubBits)) & ((u64{1} << kSubBits) - 1);
  return kLinear + (e - 10) * (std::size_t{1} << kSubBits) +
         static_cast<std::size_t>(mant);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
}

f64 LatencyHistogram::quantile_us(f64 q) const {
  if (total_ == 0) return 0.0;
  const f64 target = q * static_cast<f64>(total_);
  f64 cum = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    const f64 c = static_cast<f64>(counts_[b]);
    if (cum + c >= target) {
      f64 lo = 0.0, width = 1.0;
      if (b < kLinear) {
        lo = static_cast<f64>(b);
      } else {
        const std::size_t k = b - kLinear;
        const u32 e = static_cast<u32>(k >> kSubBits) + 10;
        const u64 mant = k & ((std::size_t{1} << kSubBits) - 1);
        lo = static_cast<f64>(((u64{1} << kSubBits) + mant) << (e - kSubBits));
        width = static_cast<f64>(u64{1} << (e - kSubBits));
      }
      return (lo + width * (target - cum) / c) / 1e3;
    }
    cum += c;
  }
  return 0.0;
}

const char* query_kind_name(u32 kind) {
  static const char* const kNames[] = {"score", "top_k", "rank_of",
                                       "compare"};
  return kNames[kind];
}

struct ReaderPool::Reader {
  std::thread thread;
  ReaderTotals live;
  ReaderTotals done;
  std::atomic<u32> acked{0};
  std::atomic<bool> started{false};
};

ReaderPool::ReaderPool(const serve::QueryEngine& engine, NodeId num_ids,
                       std::vector<QueryKind> kinds, u64 seed)
    : engine_(engine), num_ids_(num_ids), kinds_(std::move(kinds)) {
  check(num_ids > 0 && !kinds_.empty(), "ReaderPool: empty query space");
  for (u32 i = 0; i < kReaders; ++i)
    readers_.push_back(std::make_unique<Reader>());
  // Readers get the last cores to themselves when the machine has room
  // for them plus the writer and a solver thread; otherwise which pair
  // of cores they share decides their lock hand-off cost run by run.
  const unsigned cores = std::thread::hardware_concurrency();
  for (u32 i = 0; i < kReaders; ++i) {
    Reader& r = *readers_[i];
    r.thread = std::thread([this, &r, seed, i] { loop(r, seed * 7919 + i); });
    if (cores >= kReaders + 2) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cores - 1 - i, &set);
      pthread_setaffinity_np(r.thread.native_handle(), sizeof set, &set);
    }
  }
}

ReaderPool::~ReaderPool() {
  stop_.store(true, std::memory_order_release);
  for (auto& r : readers_)
    if (r->thread.joinable()) r->thread.join();
}

void ReaderPool::loop(Reader& reader, u64 seed) {
  Pcg32 rng(seed);
  u64 q = 0, last_epoch = 0, last_verified = 0;
  u32 window = 0;
  reader.started.store(true, std::memory_order_release);
  while (!stop_.load(std::memory_order_acquire)) {
    const NodeId s = rng.next_below(num_ids_);
    const QueryKind kind = kinds_[q % kinds_.size()];
    bool answered = false;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      switch (kind) {
        case kScore: answered = engine_.score(s).has_value(); break;
        case kTopK: answered = !engine_.top_k(10).empty(); break;
        case kRankOf: answered = engine_.rank_of(s).has_value(); break;
        default: answered = engine_.compare(s).has_value(); break;
      }
    } catch (const std::exception&) {
      ++reader.live.errors;  // counted failed; the thread must not die
    }
    const auto t1 = std::chrono::steady_clock::now();
    const auto ns = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    ReaderTotals& t = reader.live;
    t.all.record(ns);
    t.per_kind[kind].record(ns);
    ++t.queries;
    if (!answered) ++t.empty_results;
    if ((++q & 255) != 0) continue;
    // Off the timed path: epoch order on every sample, the checksum of
    // each epoch this reader sees for the first time.
    const serve::SnapshotPtr snap = engine_.snapshot();
    const u64 epoch = snap ? snap->meta().epoch : 0;
    ++t.snapshots_checked;
    if (epoch < last_epoch) ++t.torn;
    last_epoch = epoch;
    if (snap && epoch > last_verified) {
      if (!snap->verify_checksum()) ++t.torn;
      last_verified = epoch;
    }
    const u32 want = window_.load(std::memory_order_acquire);
    if (want != window) {
      reader.done = std::move(reader.live);
      reader.live = ReaderTotals();
      window = want;
      reader.acked.store(want, std::memory_order_release);
    }
  }
}

void ReaderPool::wait_started() {
  for (auto& r : readers_)
    while (!r->started.load(std::memory_order_acquire))
      std::this_thread::yield();
}

void merge_totals(ReaderTotals& into, const ReaderTotals& from) {
  into.all.merge(from.all);
  for (u32 k = 0; k < kNumKinds; ++k) into.per_kind[k].merge(from.per_kind[k]);
  into.queries += from.queries;
  into.empty_results += from.empty_results;
  into.snapshots_checked += from.snapshots_checked;
  into.torn += from.torn;
  into.errors += from.errors;
}

ReaderTotals ReaderPool::roll_window() {
  const u32 want = window_.fetch_add(1, std::memory_order_acq_rel) + 1;
  ReaderTotals out;
  for (auto& r : readers_) {
    while (r->acked.load(std::memory_order_acquire) != want)
      std::this_thread::yield();
    merge_totals(out, r->done);
  }
  return out;
}

ReaderTotals ReaderPool::stop() {
  stop_.store(true, std::memory_order_release);
  ReaderTotals out;
  for (auto& r : readers_) {
    if (r->thread.joinable()) r->thread.join();
    merge_totals(out, r->live);
  }
  return out;
}

// ----------------------------------------------------------------- result

f64 median(std::vector<f64> v) { return percentile(std::move(v), 0.5); }

f64 percentile(std::vector<f64> v, f64 q) {
  check(!v.empty(), "percentile of no samples");
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const f64 pos = q * static_cast<f64>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<f64>(lo));
}

void Result::metric(const std::string& name, f64 value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}
void Result::layer(const std::string& name, f64 value,
                   const std::string& unit) {
  layers_.push_back({name, value, unit});
}
void Result::detail(const std::string& name, f64 value,
                    const std::string& unit) {
  details_.push_back({name, value, unit});
}

void Result::gate(const std::string& name, bool ok,
                  const std::string& evidence) {
  op(ok);
  if (!ok) gates_ok_ = false;
  gate_lines_.push_back("gate " + name + (ok ? " ok " : " FAIL ") + evidence);
}

namespace {
std::string num(f64 v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

void Result::finish(const RunMeta& meta) const {
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
      "\"omp_max_threads\": %d, \"readers\": %u, "
      "\"generator\": %s, \"pages\": %llu, \"links\": %llu, "
      "\"hosts\": %llu, \"crawl_bytes\": %llu%s%s}\n",
      meta.workload.c_str(), static_cast<unsigned long long>(meta.seed),
      options_.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      std::thread::hardware_concurrency(), num_threads(), kReaders,
      crawl_spec_json(meta.spec).c_str(),
      static_cast<unsigned long long>(meta.pages),
      static_cast<unsigned long long>(meta.links),
      static_cast<unsigned long long>(meta.hosts),
      static_cast<unsigned long long>(meta.input_bytes),
      options_.meta_json.empty() ? "" : ", ", options_.meta_json.c_str());
  for (const auto& e : metrics_)
    std::printf("metric %s %s %s\n", e.name.c_str(), num(e.value).c_str(),
                e.unit.c_str());
  for (const auto& e : layers_)
    std::printf("layer %s %s %s\n", e.name.c_str(), num(e.value).c_str(),
                e.unit.c_str());
  for (const auto& e : details_)
    std::printf("detail %s %s %s\n", e.name.c_str(), num(e.value).c_str(),
                e.unit.c_str());
  for (const auto& g : gate_lines_) std::printf("%s\n", g.c_str());
  std::printf("error_rate %s (%llu failed / %llu attempted)\n",
              num(attempted_ ? static_cast<f64>(failed_) /
                                   static_cast<f64>(attempted_)
                             : 0.0)
                  .c_str(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));

  const auto& chosen = options_.trace ? layers_ : metrics_;
  bool finite = true;
  std::string body;
  for (const auto& e : chosen) {
    finite = finite && std::isfinite(e.value);
    if (!body.empty()) body += ", ";
    body += "\"" + e.name + "\": {\"value\": " +
            (std::isfinite(e.value) ? num(e.value) : std::string("0")) +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  const bool correct = gates_ok_ && failed_ == 0 && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<u64>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), body.c_str());
  std::fflush(stdout);
}

f64 peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<f64>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

f64 parallel_speedup(const core::SpamResilientSourceRank& model,
                     std::span<const f64> kappa) {
  auto seconds_at = [&](int threads) {
#if defined(SRSR_HAVE_OPENMP)
    const int saved = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    std::vector<f64> seconds;
    for (int r = 0; r < 3; ++r) {
      const f64 t0 = now_s();
      const auto result = model.rank(kappa);
      seconds.push_back(now_s() - t0);
      check(result.converged, "parallel speedup probe did not converge");
    }
#if defined(SRSR_HAVE_OPENMP)
    omp_set_num_threads(saved);
#endif
    return median(seconds);
  };
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return seconds_at(1) / seconds_at(nproc);
}

namespace {

u64 verify_snapshots(const std::vector<serve::SnapshotPtr>& snaps) {
  u64 breaches = 0, last_epoch = 0;
  for (const auto& s : snaps) {
    if (!s->verify_checksum()) ++breaches;
    if (s->meta().epoch < last_epoch) ++breaches;
    last_epoch = s->meta().epoch;
  }
  return breaches;
}

std::vector<serve::SnapshotPtr> torn_sequence(const serve::RankSnapshot& live) {
  serve::SnapshotStore store;
  store.publish(live);
  const serve::SnapshotPtr older = store.current();
  store.publish(live);
  const serve::SnapshotPtr newer = store.current();
  auto torn = std::make_shared<serve::RankSnapshot>(*newer);
  // A non-const copy the harness owns: flip score bytes behind the
  // checksum, as a torn publish would.
  const_cast<f64*>(torn->scores().data())[0] += 0.5;
  return {newer, older, torn};
}

}  // namespace

void reader_gates(Result& result, const Options& options,
                  const serve::SnapshotPtr& live, const ReaderTotals& plain,
                  const ReaderTotals& traced) {
  result.ops(plain.queries + traced.queries,
             plain.empty_results + traced.empty_results + plain.errors +
                 traced.errors);
  std::vector<serve::SnapshotPtr> checked{live};
  if (options.corrupt == "snapshot") checked = torn_sequence(*live);
  const u64 breaches = verify_snapshots(checked) + plain.torn + traced.torn;
  result.gate("snapshot_checksum_and_epoch_order", breaches == 0,
              std::to_string(breaches) + " breaches in " +
                  std::to_string(plain.snapshots_checked +
                                 traced.snapshots_checked) +
                  " reader samples + the live snapshot");
}

void report_end_to_end(Result& result, const EndToEnd& e2e) {
  result.metric("setup_s", e2e.setup_s, "s");
  result.metric("publish_p50_ms", 1e3 * median(e2e.publish_s), "ms");
  result.metric("publish_p90_ms", 1e3 * percentile(e2e.publish_s, 0.9), "ms");
  result.metric("query_p50_us", e2e.reads->all.quantile_us(0.5), "us");
  result.metric("query_p99_us", e2e.reads->all.quantile_us(0.99), "us");
  result.metric("queries_per_s",
                static_cast<f64>(e2e.reads->queries) / e2e.window_s, "1/s");
  result.metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
  result.metric("spam_mean_rank_pct", e2e.spam_rank_pct, "%");
}

namespace {
/// rank.bytes_per_iter, a model of the bytes one power iteration
/// streams. Per non-zero of the transpose: a u32 column id and an f64
/// weight. Per row: a u64 offset, the read and written iterate entries
/// and two throttle-plan scalars.
f64 bytes_per_iteration(u64 nnz, u64 rows) {
  return static_cast<f64>(nnz) * 12.0 + static_cast<f64>(rows) * 40.0;
}
}  // namespace

void report_common_layers(Result& result, const RunMeta& meta,
                          const LayerInputs& in) {
  const f64 read_s = median(in.read_s);
  result.layer("graph.io.read_url_corpus_s", read_s, "s");
  result.layer("graph.io.mb_per_s",
               static_cast<f64>(in.input_bytes) / 1e6 / read_s, "MB/s");
  result.layer("graph.io.match_hosts_s", median(in.match_s), "s");
  result.layer("graph.pages", static_cast<f64>(meta.pages), "count");
  result.layer("graph.links", static_cast<f64>(meta.links), "count");
  result.layer("graph.sources", static_cast<f64>(meta.hosts), "count");
  result.layer("graph.input_bytes", static_cast<f64>(in.input_bytes),
               "bytes");
  result.layer("core.model_build_s", median(in.model_build_s), "s");
  result.layer("core.spam_proximity_s", median(in.proximity_s), "s");
  result.layer("core.spam_proximity_iterations",
               median(in.proximity_iterations), "count");
  const f64 solve_s = median(in.solve_s);
  const f64 iterations = median(in.solve_iterations);
  result.layer("core.solve_s", solve_s, "s");
  result.layer("rank.iterations", iterations, "count");
  result.layer("rank.iter_ms", 1e3 * solve_s / std::max(iterations, 1.0),
               "ms");
  result.layer("rank.bytes_per_iter", bytes_per_iteration(in.nnz, in.rows),
               "bytes");
  result.layer("rank.parallel_speedup", in.speedup, "x");
  result.layer("serve.snapshot_build_s", median(in.snapshot_build_s), "s");
  check(in.queries != nullptr, "report_common_layers: no query totals");
  for (const u32 k : {kScore, kTopK, kRankOf})
    result.layer(std::string("serve.query.") + query_kind_name(k) + "_p50_us",
                 in.queries->per_kind[k].quantile_us(0.5), "us");
  result.layer("obs.trace_overhead_pct", in.overhead_pct, "%");
  result.layer("obs.trace_coverage", in.coverage, "share");
}

}  // namespace perfbench

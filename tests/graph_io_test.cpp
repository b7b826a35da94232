// Tests for graph/corpus (de)serialization (graph/io.hpp).
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unistd.h>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/webgen.hpp"
#include "thread_counts.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace srsr::graph {
namespace {

/// RAII temp file path (removed on destruction).
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("srsr_test_" + name + "_" + std::to_string(::getpid())))
                  .string()) {}
  ~TempPath() { std::filesystem::remove(path_); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

TEST(EdgeListIo, RoundTripsThroughStream) {
  Pcg32 rng(21);
  const Graph g = erdos_renyi(50, 0.1, rng);
  std::stringstream ss;
  write_edge_list(ss, g);
  EXPECT_EQ(read_edge_list(ss, g.num_nodes()), g);
}

TEST(EdgeListIo, InfersNodeCountFromMaxId) {
  std::stringstream ss("0 3\n2 1\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(2, 1));
}

TEST(EdgeListIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# a comment\n\n0 1\n   \n# more\n1 0\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeListIo, RejectsMalformedLines) {
  std::stringstream one_token("0\n");
  EXPECT_THROW(read_edge_list(one_token), Error);
  std::stringstream three_tokens("0 1 2\n");
  EXPECT_THROW(read_edge_list(three_tokens), Error);
  std::stringstream garbage("a b\n");
  EXPECT_THROW(read_edge_list(garbage), Error);
}

TEST(EdgeListIo, EmptyInputIsEmptyGraph) {
  std::stringstream ss("# nothing\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_nodes(), 0u);
}

TEST(EdgeListIo, ExplicitNodeCountAddsIsolatedNodes) {
  std::stringstream ss("0 1\n");
  const Graph g = read_edge_list(ss, 10);
  EXPECT_EQ(g.num_nodes(), 10u);
}

TEST(EdgeListIo, FileRoundTrip) {
  Pcg32 rng(22);
  const Graph g = erdos_renyi(40, 0.1, rng);
  TempPath tmp("edges");
  write_edge_list_file(tmp.str(), g);
  EXPECT_EQ(read_edge_list_file(tmp.str(), g.num_nodes()), g);
}

TEST(EdgeListIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/nowhere.txt"), Error);
}

TEST(BinaryIo, RoundTripsExactly) {
  Pcg32 rng(23);
  const Graph g = erdos_renyi(100, 0.05, rng);
  TempPath tmp("bin");
  write_binary(tmp.str(), g);
  EXPECT_EQ(read_binary(tmp.str()), g);
}

TEST(BinaryIo, RoundTripsEmptyGraph) {
  TempPath tmp("binempty");
  write_binary(tmp.str(), Graph());
  EXPECT_EQ(read_binary(tmp.str()), Graph());
}

TEST(BinaryIo, RejectsBadMagic) {
  TempPath tmp("badmagic");
  {
    std::ofstream out(tmp.str(), std::ios::binary);
    out << "NOTAGRAPH-FILE";
  }
  EXPECT_THROW(read_binary(tmp.str()), Error);
}

TEST(BinaryIo, RejectsTruncatedFile) {
  Pcg32 rng(24);
  const Graph g = erdos_renyi(50, 0.1, rng);
  TempPath tmp("trunc");
  write_binary(tmp.str(), g);
  const auto size = std::filesystem::file_size(tmp.str());
  std::filesystem::resize_file(tmp.str(), size / 2);
  EXPECT_THROW(read_binary(tmp.str()), Error);
}

TEST(BinaryIo, RejectsForgedHeaderBeforeAllocating) {
  // A bare 28-byte header (magic, version, n, m) whose edge count claims
  // far more data than the file holds: rejected as srsr::Error, never
  // attempted as a 2^60-entry allocation (std::bad_alloc).
  const auto write_header = [](const std::string& path, u64 n, u64 m) {
    std::ofstream out(path, std::ios::binary);
    out.write("SRSRGRPH", 8);
    const u32 version = 1;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  };
  TempPath tmp("forged");
  for (const u64 m : {u64{1} << 60, ~u64{0}, u64{1}}) {
    write_header(tmp.str(), 3, m);
    ASSERT_EQ(std::filesystem::file_size(tmp.str()), 28u);
    EXPECT_THROW(read_binary(tmp.str()), Error) << "m = " << m;
  }
}

TEST(UrlCorpus, GroupsPagesByHost) {
  std::stringstream pages(
      "0 http://a.example/home\n"
      "1 http://a.example/about\n"
      "2 http://b.example/\n"
      "3 https://A.EXAMPLE/other\n");
  std::stringstream edges("0 2\n1 0\n3 2\n");
  const WebCorpus c = read_url_corpus(pages, edges);
  EXPECT_EQ(c.num_sources(), 2u);
  EXPECT_EQ(c.page_source[0], c.page_source[1]);
  EXPECT_EQ(c.page_source[0], c.page_source[3]);  // case-insensitive host
  EXPECT_NE(c.page_source[0], c.page_source[2]);
  EXPECT_EQ(c.source_page_count[c.page_source[0]], 3u);
  EXPECT_EQ(c.pages.num_edges(), 3u);
}

TEST(UrlCorpus, SourceIdsInFirstAppearanceOrder) {
  std::stringstream pages(
      "0 http://z.example/\n"
      "1 http://a.example/\n");
  std::stringstream edges("");
  const WebCorpus c = read_url_corpus(pages, edges);
  EXPECT_EQ(c.source_hosts[0], "z.example");
  EXPECT_EQ(c.source_hosts[1], "a.example");
}

TEST(UrlCorpus, RejectsSparseOrDuplicateIds) {
  {
    std::stringstream pages("0 http://a.example/\n5 http://b.example/\n");
    std::stringstream edges("");
    EXPECT_THROW(read_url_corpus(pages, edges), Error);
  }
  {
    std::stringstream pages("0 http://a.example/\n0 http://b.example/\n");
    std::stringstream edges("");
    EXPECT_THROW(read_url_corpus(pages, edges), Error);
  }
}

TEST(UrlCorpus, NoLabelsAssigned) {
  std::stringstream pages("0 http://a.example/\n");
  std::stringstream edges("");
  const WebCorpus c = read_url_corpus(pages, edges);
  for (const u8 flag : c.source_is_spam) EXPECT_EQ(flag, 0);
}

TEST(MatchHosts, FindsKnownHostsIgnoresUnknown) {
  std::stringstream pages(
      "0 http://a.example/\n"
      "1 http://b.example/\n");
  std::stringstream edges("");
  const WebCorpus c = read_url_corpus(pages, edges);
  std::stringstream hosts("B.EXAMPLE\nnot-in-corpus.example\n# comment\n");
  const auto ids = match_hosts(c, hosts);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(c.source_hosts[ids[0]], "b.example");
}

// --- Streaming ingest: differential, block-boundary and mutation tests.

/// The loader the block scanner replaced (std::getline + split + host_of
/// per line, then a buffered edge list), kept as the oracle: on any input
/// both must throw srsr::Error or both return the same corpus.
Graph reference_read_edge_list(std::istream& in, NodeId num_nodes) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId max_id = 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    const auto tokens = split(body);
    if (tokens.size() != 2) throw Error("reference: expected 'u v'");
    const u64 u = parse_u64(tokens[0]);
    const u64 v = parse_u64(tokens[1]);
    if (u >= kInvalidNode || v >= kInvalidNode)
      throw Error("reference: id too large");
    edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
    max_id = std::max({max_id, edges.back().first, edges.back().second});
  }
  const NodeId n =
      num_nodes != 0 ? num_nodes : (edges.empty() ? 0 : max_id + 1);
  GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

WebCorpus reference_read_url_corpus(std::istream& pages, std::istream& edges) {
  WebCorpus corpus;
  std::unordered_map<std::string, NodeId> host_to_source;
  std::vector<std::pair<u64, NodeId>> rows;
  std::string line;
  while (std::getline(pages, line)) {
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    const auto tokens = split(body);
    if (tokens.size() != 2) throw Error("reference: expected '<id> <url>'");
    const u64 id = parse_u64(tokens[0]);
    if (id >= kInvalidNode) throw Error("reference: page id too large");
    const std::string host = host_of(tokens[1]);
    const auto [it, inserted] = host_to_source.emplace(
        host, static_cast<NodeId>(corpus.source_hosts.size()));
    if (inserted) corpus.source_hosts.push_back(host);
    rows.emplace_back(id, it->second);
  }
  if (rows.empty()) throw Error("reference: no pages");
  const auto np = static_cast<NodeId>(rows.size());
  corpus.page_source.assign(np, kInvalidNode);
  for (const auto& [id, src] : rows) {
    if (id >= np || corpus.page_source[id] != kInvalidNode)
      throw Error("reference: bad page id");
    corpus.page_source[id] = src;
  }
  const auto ns = static_cast<u32>(corpus.source_hosts.size());
  corpus.source_is_spam.assign(ns, 0);
  corpus.source_page_count.assign(ns, 0);
  corpus.source_first_page.assign(ns, kInvalidNode);
  for (NodeId p = 0; p < np; ++p) {
    const NodeId s = corpus.page_source[p];
    if (corpus.source_first_page[s] == kInvalidNode)
      corpus.source_first_page[s] = p;
    ++corpus.source_page_count[s];
  }
  corpus.pages = reference_read_edge_list(edges, np);
  return corpus;
}

/// Every field of two corpora, for the differential checks.
void expect_same_corpus(const WebCorpus& a, const WebCorpus& b) {
  EXPECT_EQ(a.pages, b.pages);
  EXPECT_EQ(a.page_source, b.page_source);
  EXPECT_EQ(a.source_hosts, b.source_hosts);
  EXPECT_EQ(a.source_is_spam, b.source_is_spam);
  EXPECT_EQ(a.source_page_count, b.source_page_count);
  EXPECT_EQ(a.source_first_page, b.source_first_page);
  EXPECT_EQ(a.page_terms, b.page_terms);
  EXPECT_EQ(a.source_topic, b.source_topic);
  EXPECT_EQ(a.vocab_size, b.vocab_size);
}

/// The crawl text `srsr_cli generate` writes: "<id> http://<host>/page<id>".
std::string pages_text(const WebCorpus& corpus) {
  std::ostringstream out;
  for (NodeId p = 0; p < corpus.num_pages(); ++p)
    out << p << " http://" << corpus.source_hosts[corpus.page_source[p]]
        << "/page" << p << '\n';
  return out.str();
}

std::string edges_text(const Graph& g) {
  std::ostringstream out;
  write_edge_list(out, g);
  return out.str();
}

/// The what() of the srsr::Error `f` throws, or "" when it returns.
template <typename F>
std::string error_text(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

constexpr std::size_t kBlock = std::size_t{1} << 20;  // the scanner's block

TEST(UrlCorpus, GeneratedCrawlReadsBackExactly) {
  WebGenConfig cfg;
  cfg.num_sources = 1000;
  cfg.num_spam_sources = 20;
  cfg.seed = 11;
  const WebCorpus gen = generate_web_corpus(cfg);
  const std::string pages = pages_text(gen);
  const std::string edges = edges_text(gen.pages);
  ASSERT_GT(pages.size() + edges.size(), 2 * kBlock);  // many blocks

  std::istringstream pages_in(pages), edges_in(edges);
  const WebCorpus c = read_url_corpus(pages_in, edges_in);
  EXPECT_EQ(c.pages, gen.pages);
  EXPECT_EQ(c.page_source, gen.page_source);
  EXPECT_EQ(c.source_hosts, gen.source_hosts);
  EXPECT_EQ(c.source_page_count, gen.source_page_count);
  EXPECT_EQ(c.source_first_page, gen.source_first_page);

  std::istringstream ref_pages(pages), ref_edges(edges);
  expect_same_corpus(c, reference_read_url_corpus(ref_pages, ref_edges));
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// `lines` edge lines of 12 bytes each ("12345 67890\n"-shaped, ids < n).
std::string filler_edges(u64 lines) {
  std::string text;
  text.reserve(lines * 12);
  for (u64 i = 0; i < lines; ++i) text += "00001 00002\n";
  return text;
}

TEST(EdgeListIo, MalformedLinePastFirstBlockReportsItsLineNumber) {
  const u64 lines = (kBlock + kBlock / 2) / 12;
  std::istringstream in(filler_edges(lines) + "7 8 9\n0 1\n");
  const std::string msg = error_text([&] { read_edge_list(in); });
  EXPECT_TRUE(ends_with(msg, "read_edge_list: line " +
                                 std::to_string(lines + 1) +
                                 ": expected 'u v', got '7 8 9'"))
      << msg;

  std::istringstream bad_id(filler_edges(lines) + "0 x1\n");
  const std::string id_msg = error_text([&] { read_edge_list(bad_id); });
  EXPECT_EQ(id_msg, "parse_u64: non-digit in 'x1'");
}

TEST(UrlCorpus, MalformedPagesLinePastFirstBlockReportsItsLineNumber) {
  std::string pages;
  NodeId n = 0;
  while (pages.size() < 2 * kBlock) {
    pages += std::to_string(n) + " http://h" + std::to_string(n % 7) + ".example/\n";
    ++n;
  }
  pages += std::to_string(n) + "\n";
  std::istringstream pages_in(pages), edges_in("");
  const std::string msg =
      error_text([&] { read_url_corpus(pages_in, edges_in); });
  EXPECT_TRUE(ends_with(msg, "read_url_corpus: pages line " +
                                 std::to_string(n + 1) +
                                 ": expected '<id> <url>'"))
      << msg;
}

TEST(EdgeListIo, CrlfTabsAndMissingFinalNewlineAcrossBlocks) {
  // Lines straddle every block boundary; the last line has no '\n'.
  std::string text;
  u64 lines = 0;
  while (text.size() < 3 * kBlock) {
    text += (lines % 3 == 0)   ? "3\t4\r\n"
            : (lines % 3 == 1) ? "  4 \t 5  \r\n"
                               : "5 3\n";
    ++lines;
  }
  text += "2\t1";
  std::istringstream in(text);
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_TRUE(g.has_edge(4, 5));
  EXPECT_TRUE(g.has_edge(5, 3));
  EXPECT_TRUE(g.has_edge(2, 1));

  std::istringstream ref(text);
  EXPECT_EQ(g, reference_read_edge_list(ref, 0));
}

TEST(EdgeListIo, MissingFinalNewlineStillCountsTheLine) {
  std::istringstream in("0 1\n1 2\n2 x");
  EXPECT_EQ(error_text([&] { read_edge_list(in); }),
            "parse_u64: non-digit in 'x'");
  std::istringstream three("0 1\n1 2 3");
  EXPECT_TRUE(ends_with(error_text([&] { read_edge_list(three); }),
                        "line 2: expected 'u v', got '1 2 3'"));
}

TEST(UrlCorpus, LineLongerThanABlock) {
  // One URL of 2.5 blocks, then a comment line of 1.5 blocks.
  const std::string path(kBlock * 5 / 2, 'p');
  const std::string pages = "0 HTTP://Long.Example/" + path + "\r\n# " +
                            std::string(kBlock * 3 / 2, 'c') +
                            "\n1 http://long.example:80/x";
  std::istringstream pages_in(pages), edges_in("1 0\n");
  const WebCorpus c = read_url_corpus(pages_in, edges_in);
  ASSERT_EQ(c.num_sources(), 1u);
  EXPECT_EQ(c.source_hosts[0], "long.example");
  EXPECT_EQ(c.source_page_count[0], 2u);
  EXPECT_TRUE(c.pages.has_edge(1, 0));
}

TEST(EdgeListIo, CommentLinesAtBlockEdges) {
  // A comment line placed to start at each offset around the first block
  // boundary (so it straddles it, ends on it or starts on it), followed
  // by one edge and then a malformed line whose number must be exact.
  for (std::size_t at = kBlock - 6; at <= kBlock + 2; ++at) {
    const std::size_t pad = 100 + (at - 100) % 12;  // "#...\n" of `pad` bytes
    const u64 fill = (at - pad) / 12;
    const std::string text = "#" + std::string(pad - 2, 'x') + "\n" +
                             filler_edges(fill) + "# at the edge\n" +
                             "2 0\n" + "bad\n";
    ASSERT_EQ(text.find("# at"), at);
    std::istringstream in(text);
    const std::string msg = error_text([&] { read_edge_list(in); });
    EXPECT_TRUE(ends_with(msg, "read_edge_list: line " +
                                   std::to_string(fill + 4) +
                                   ": expected 'u v', got 'bad'"))
        << "comment at " << at << ": " << msg;

    std::istringstream good(text.substr(0, text.size() - 4));
    const Graph g = read_edge_list(good);
    EXPECT_EQ(g.num_edges(), 2u) << "comment at " << at;
    EXPECT_TRUE(g.has_edge(2, 0));
  }
}

TEST(ErrorText, ParseU64MessagesArePinned) {
  EXPECT_EQ(error_text([] { parse_u64(""); }), "parse_u64: empty input");
  EXPECT_EQ(error_text([] { parse_u64("12a"); }),
            "parse_u64: non-digit in '12a'");
  EXPECT_EQ(error_text([] { parse_u64("-1"); }),
            "parse_u64: non-digit in '-1'");
  EXPECT_EQ(error_text([] { parse_u64("18446744073709551616"); }),
            "parse_u64: overflow in '18446744073709551616'");
  EXPECT_EQ(parse_u64("18446744073709551615"), ~u64{0});
}

TEST(ErrorText, HostOfMessagesArePinned) {
  EXPECT_EQ(error_text([] { host_of("  \t"); }), "host_of: empty URL");
  EXPECT_EQ(error_text([] { host_of("http:///path"); }),
            "host_of: no host in URL 'http:///path'");
  EXPECT_EQ(error_text([] { host_of(" user@:80/x "); }),
            "host_of: no host in URL ' user@:80/x '");
  EXPECT_EQ(host_view("HTTPS://u:p@Mixed.Example:8080/a?b#c"), "Mixed.Example");
  EXPECT_EQ(host_of("HTTPS://u:p@Mixed.Example:8080/a?b#c"), "mixed.example");
}

TEST(ErrorText, LoaderPassesParserMessagesThrough) {
  std::istringstream pages("0 http://a.example/\n1 http:///nohost\n");
  std::istringstream edges("");
  EXPECT_EQ(error_text([&] { read_url_corpus(pages, edges); }),
            "host_of: no host in URL 'http:///nohost'");
}

TEST(UrlCorpus, HugePageIdIsRejectedWithoutSizingFromIt) {
  // The page table is sized from the row count (2), never from the id.
  std::istringstream pages("0 http://a.example/\n4294967294 http://b.example/\n");
  std::istringstream edges("");
  EXPECT_TRUE(ends_with(
      error_text([&] { read_url_corpus(pages, edges); }),
      "read_url_corpus: page ids must be dense 0..n-1"));
  std::istringstream too_large("4294967295 http://a.example/\n");
  std::istringstream no_edges("");
  EXPECT_TRUE(ends_with(
      error_text([&] { read_url_corpus(too_large, no_edges); }),
      "read_url_corpus: page id too large"));
}

/// One random edit of `text`: flip a byte, truncate, or insert a byte.
/// Replacement and inserted bytes favour the ones the grammar cares about.
void mutate(std::string& text, Pcg32& rng) {
  static constexpr char kBytes[] = "0123456789 \t\r\n#:/@?.xX-\xff";
  const auto pick = [&] {
    return rng.next_bool(0.75)
               ? kBytes[rng.next_below(sizeof(kBytes) - 1)]
               : static_cast<char>(rng.next_below(256));
  };
  const auto pos = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.next_below(static_cast<u32>(size + 1)));
  };
  switch (rng.next_below(3)) {
    case 0:
      if (!text.empty()) text[pos(text.size() - 1)] = pick();
      break;
    case 1:
      text.resize(pos(text.size()));
      break;
    default:
      text.insert(pos(text.size()), 1, pick());
      break;
  }
}

/// Checks the readers' contract on one (possibly mutated) crawl: each
/// returns a value the reference loader agrees with, or throws
/// srsr::Error where the reference does too. bad_alloc, length_error or
/// any other exception type fails the test; a crash fails the run (and
/// ASan/UBSan flag what does not crash outright under the sanitize
/// label).
void expect_contract(const std::string& pages, const std::string& edges,
                     const std::string& hosts, NodeId np, u32 iteration) {
  SCOPED_TRACE("iteration " + std::to_string(iteration));
  const auto outcome = [](auto&& read) -> std::string {
    try {
      read();
      return "ok";
    } catch (const Error&) {
      return "error";
    } catch (const std::exception& e) {
      return std::string("unexpected exception: ") + e.what();
    }
  };

  WebCorpus got, want;
  const std::string got_corpus = outcome([&] {
    std::istringstream p(pages), e(edges);
    got = read_url_corpus(p, e);
  });
  const std::string want_corpus = outcome([&] {
    std::istringstream p(pages), e(edges);
    want = reference_read_url_corpus(p, e);
  });
  ASSERT_EQ(got_corpus, want_corpus);
  if (got_corpus == "ok") {
    expect_same_corpus(got, want);
    std::istringstream h(hosts);
    std::vector<NodeId> ids;
    ASSERT_EQ(outcome([&] { ids = match_hosts(got, h); }), "ok");
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    for (const NodeId s : ids) EXPECT_LT(s, got.num_sources());
  }

  for (const NodeId n : {NodeId{0}, np}) {
    Graph g, ref;
    const std::string got_graph = outcome([&] {
      std::istringstream e(edges);
      g = read_edge_list(e, n);
    });
    const std::string want_graph = outcome([&] {
      std::istringstream e(edges);
      ref = reference_read_edge_list(e, n);
    });
    ASSERT_EQ(got_graph, want_graph) << "num_nodes = " << n;
    if (got_graph == "ok") {
      EXPECT_EQ(g, ref);
    }
  }
}

TEST(IngestMutation, ReadersRejectOrAgreeOnMutatedCrawls) {
  WebGenConfig cfg;
  cfg.num_sources = 12;
  cfg.num_spam_sources = 2;
  cfg.max_pages_per_source = 6;
  cfg.mean_out_degree = 3.0;
  cfg.seed = 5;
  const WebCorpus gen = generate_web_corpus(cfg);
  const std::string pages = pages_text(gen);
  const std::string edges = edges_text(gen.pages);
  std::string hosts;
  for (const NodeId s : gen.spam_sources()) hosts += gen.source_hosts[s] + "\n";
  const NodeId np = gen.num_pages();

  expect_contract(pages, edges, hosts, np, 0);  // the clean crawl reads
  Pcg32 rng(20240613);
  constexpr u32 kIterations = 3000;
  u32 accepted = 0;
  for (u32 it = 1; it <= kIterations; ++it) {
    std::string p = pages, e = edges, h = hosts;
    std::string* const files[] = {&p, &e, &h};
    const u32 edits = 1 + rng.next_below(3);
    for (u32 k = 0; k < edits; ++k) mutate(*files[rng.next_below(3)], rng);
    expect_contract(p, e, h, np, it);
    if (::testing::Test::HasFatalFailure()) return;
    std::istringstream pi(p), ei(e);
    try {
      read_url_corpus(pi, ei);
      ++accepted;
    } catch (const Error&) {
    }
  }
  // Both outcomes must be exercised, or the budget tests nothing.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_LT(accepted, kIterations - kIterations / 20);
}

// --- Parallel ingest: the result and the reported error do not depend on
// the thread count. Inputs are several MiB, so every thread count reads
// them in several windows of several chunks (a window holds one chunk of
// about kIngestChunkBytes per thread).

/// A generated crawl written as text, about 3 MiB of pages and 10 MiB of
/// edges; built once.
struct BigCrawl {
  WebCorpus corpus;
  std::string pages, edges;
};

const BigCrawl& big_crawl() {
  static const BigCrawl crawl = [] {
    WebGenConfig cfg;
    cfg.num_sources = 4000;
    cfg.num_spam_sources = 80;
    cfg.seed = 17;
    BigCrawl c;
    c.corpus = generate_web_corpus(cfg);
    c.pages = pages_text(c.corpus);
    c.edges = edges_text(c.corpus.pages);
    return c;
  }();
  return crawl;
}

TEST(ParallelIngest, CorpusIsBitwiseEqualAtEveryThreadCount) {
  const BigCrawl& crawl = big_crawl();
  ASSERT_GT(crawl.edges.size(), 4 * kIngestChunkBytes);
  ASSERT_GT(crawl.pages.size(), kIngestChunkBytes);
  std::istringstream ref_pages(crawl.pages), ref_edges(crawl.edges);
  const WebCorpus want = reference_read_url_corpus(ref_pages, ref_edges);
  EXPECT_EQ(want.pages, crawl.corpus.pages);
  EXPECT_EQ(want.source_hosts, crawl.corpus.source_hosts);
  at_thread_counts([&] {
    std::istringstream pages(crawl.pages), edges(crawl.edges);
    expect_same_corpus(read_url_corpus(pages, edges), want);
  });
}

TEST(ParallelIngest, ShuffledEdgesWithDuplicatesGiveOneGraph) {
  // Unsorted lines, repeated edges, comments and CRLF spread over every
  // chunk: the CSR assembly sees rows in every order.
  const Graph& g = big_crawl().corpus.pages;
  std::vector<std::string> lines;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const NodeId v : g.out_neighbors(u)) {
      lines.push_back(std::to_string(u) + ' ' + std::to_string(v));
      if ((u + v) % 5 == 0) lines.push_back(std::to_string(u) + "\t" +
                                            std::to_string(v) + "\r");
      if ((u ^ v) % 97 == 0) lines.push_back("# comment " + std::to_string(v));
    }
  Pcg32 rng(3);
  for (std::size_t i = lines.size(); i > 1; --i)
    std::swap(lines[i - 1], lines[rng.next_below(static_cast<u32>(i))]);
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  ASSERT_GT(text.size(), 4 * kIngestChunkBytes);
  at_thread_counts([&] {
    std::istringstream in(text);
    EXPECT_EQ(read_edge_list(in, g.num_nodes()), g);
    std::istringstream inferred(text);
    EXPECT_EQ(read_edge_list(inferred), g);
  });
}

/// `lines` filler edge lines with `bad` replacing the lines at the given
/// 0-based indices.
std::string edges_with(u64 lines,
                       const std::vector<std::pair<u64, std::string>>& bad) {
  std::string text = filler_edges(lines);
  for (const auto& [index, line] : bad) {
    EXPECT_EQ(line.size(), 11u);  // keeps every other line where it was
    text.replace(index * 12, 11, line);
  }
  return text;
}

TEST(ParallelIngest, EarlierOfTwoMalformedLinesIsReported) {
  // Lines at about 1 MiB and 3 MiB: the same window at 2 and 4 threads
  // (chunks of about 2 MiB), so they fail in two chunks of one window.
  const u64 lines = (6 * kIngestChunkBytes) / 12;
  const u64 early = kIngestChunkBytes / 2 / 12, late = 3 * early;
  const std::string shape = edges_with(
      lines, {{early, "1 2 3 4 5 6"}, {late, "x0001 00002"}});
  const std::string parse = edges_with(
      lines, {{early, "x0001 00002"}, {late, "1 2 3 4 5 6"}});
  at_thread_counts([&] {
    std::istringstream a(shape), b(parse);
    const std::string first = error_text([&] { read_edge_list(a); });
    EXPECT_TRUE(ends_with(first, "read_edge_list: line " +
                                     std::to_string(early + 1) +
                                     ": expected 'u v', got '1 2 3 4 5 6'"))
        << first;
    EXPECT_EQ(error_text([&] { read_edge_list(b); }),
              "parse_u64: non-digit in 'x0001'");
  });
}

TEST(ParallelIngest, BadLineInAWindowsLastChunkIsReported) {
  // About 7 MiB in: the last chunk of its window at 1, 2 and 4 threads
  // (windows of 2, 4 and 8 MiB); and a bad last line with no newline.
  const u64 lines = (9 * kIngestChunkBytes / 2) / 12;
  const u64 at = (7 * kIngestChunkBytes / 2) / 12;
  const std::string mid = edges_with(lines, {{at, "00001 0000z"}});
  const std::string tail = filler_edges(lines) + "5 5 5";
  at_thread_counts([&] {
    std::istringstream a(mid), b(tail);
    EXPECT_EQ(error_text([&] { read_edge_list(a); }),
              "parse_u64: non-digit in '0000z'");
    const std::string last = error_text([&] { read_edge_list(b); });
    EXPECT_TRUE(ends_with(last, "read_edge_list: line " +
                                    std::to_string(lines + 1) +
                                    ": expected 'u v', got '5 5 5'"))
        << last;
  });
}

TEST(ParallelIngest, WorkerErrorsReachTheCallerAsSrsrError) {
  // Each error is raised inside a chunk parsed on a worker thread; it
  // must arrive as srsr::Error with the serial reader's text
  // (error_text catches srsr::Error only; anything else fails the test,
  // an escape from the parallel region would abort the process).
  const BigCrawl& crawl = big_crawl();
  const std::size_t cut = crawl.pages.find('\n', crawl.pages.size() * 3 / 4);
  std::string no_host = crawl.pages, huge_id = crawl.pages;
  no_host.insert(cut + 1, "7 http:///nohost\n");
  huge_id.insert(cut + 1, "4294967295 http://x.example/\n");
  const u64 lines = (5 * kIngestChunkBytes / 2) / 12;
  const auto after_filler = [&](const std::string& line) {
    return filler_edges(lines) + line + "\n" + filler_edges(9);
  };
  const std::string overflow = after_filler("1 18446744073709551616");
  const std::string too_large = after_filler("4294967295 1");
  const std::string out_of_range = after_filler("00007 00001");
  at_thread_counts([&] {
    std::istringstream p1(no_host), e1(crawl.edges);
    EXPECT_EQ(error_text([&] { read_url_corpus(p1, e1); }),
              "host_of: no host in URL 'http:///nohost'");
    std::istringstream p2(huge_id), e2(crawl.edges);
    EXPECT_TRUE(ends_with(error_text([&] { read_url_corpus(p2, e2); }),
                          "read_url_corpus: page id too large"));
    std::istringstream e3(overflow);
    EXPECT_EQ(error_text([&] { read_edge_list(e3); }),
              "parse_u64: overflow in '18446744073709551616'");
    std::istringstream e4(too_large);
    EXPECT_TRUE(ends_with(error_text([&] { read_edge_list(e4); }),
                          "read_edge_list: line " +
                              std::to_string(lines + 1) + ": id too large"));
    std::istringstream e5(out_of_range);
    EXPECT_TRUE(ends_with(error_text([&] { read_edge_list(e5, 3); }),
                          "GraphBuilder::add_edge: node id out of range"));
  });
}

}  // namespace
}  // namespace srsr::graph

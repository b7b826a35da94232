#include "graph/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <istream>
#include <ostream>
#include <string_view>
#include <unordered_map>

#include "graph/builder.hpp"
#include "obs/scope.hpp"
#include "util/strings.hpp"
#include "util/check.hpp"

namespace srsr::graph {

namespace {
constexpr char kMagic[8] = {'S', 'R', 'S', 'R', 'G', 'R', 'P', 'H'};
constexpr u32 kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  SRSR_CHECK(in.good(), "read_binary: truncated file");
  return v;
}

/// One data line of a two-column text file. `line` is the raw line, for
/// messages; `first`/`second` are its first two tokens and `two_tokens`
/// says whether it has exactly two.
struct Row {
  std::string_view line, first, second;
  bool two_tokens = false;
};

bool is_separator(char c) { return c == ' ' || c == '\t'; }

/// The line reader behind every text format: reads the stream in fixed
/// 1 MiB blocks and finds newlines with memchr, carrying a partial last
/// line over to the next block (a line longer than a block grows the
/// buffer). Lines are what std::getline would return and are numbered
/// the same way: '\n'-terminated, and a last line without '\n' counts.
class LineScanner {
 public:
  explicit LineScanner(std::istream& in) : in_(in), buf_(kBlock) {}

  /// The next line without its '\n', or false at end of input. The view
  /// stays valid until the next call.
  bool next_line(std::string_view& line);

  /// The next data line, skipping blank and '#' lines. Tokens are runs
  /// of non-separators in the trimmed line.
  bool next_row(Row& row);

  /// 1-based number of the line last returned.
  u64 line_number() const { return lineno_; }

 private:
  static constexpr std::size_t kBlock = std::size_t{1} << 20;

  /// Moves the unread tail to the front and appends the next block.
  void refill() {
    const std::size_t carry = end_ - begin_;
    std::memmove(buf_.data(), buf_.data() + begin_, carry);
    begin_ = 0;
    end_ = carry;
    if (buf_.size() < carry + kBlock) buf_.resize(carry + kBlock);
    in_.read(buf_.data() + carry, static_cast<std::streamsize>(kBlock));
    const auto got = static_cast<std::size_t>(in_.gcount());
    end_ += got;
    eof_ = got < kBlock;
  }

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t begin_ = 0, end_ = 0;  // unread bytes are buf_[begin_, end_)
  bool eof_ = false;
  u64 lineno_ = 0;
};

// srsr:hot ingest-line — the per-line scan and tokenizer of every text
// reader.
bool LineScanner::next_line(std::string_view& line) {
  for (;;) {
    const char* base = buf_.data();
    const auto* nl = static_cast<const char*>(
        std::memchr(base + begin_, '\n', end_ - begin_));
    if (nl != nullptr || (eof_ && begin_ < end_)) {
      const std::size_t stop =
          nl != nullptr ? static_cast<std::size_t>(nl - base) : end_;
      line = std::string_view(base + begin_, stop - begin_);
      begin_ = nl != nullptr ? stop + 1 : stop;
      ++lineno_;
      return true;
    }
    if (eof_) return false;
    refill();
  }
}

bool LineScanner::next_row(Row& row) {
  std::string_view line;
  while (next_line(line)) {
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    // `body` is trimmed, so every separator run is followed by a token.
    std::size_t i = 0;
    while (i < body.size() && !is_separator(body[i])) ++i;
    row.line = line;
    row.first = body.substr(0, i);
    row.second = {};
    row.two_tokens = false;
    if (i < body.size()) {
      while (is_separator(body[i])) ++i;
      const std::size_t begin = i;
      while (i < body.size() && !is_separator(body[i])) ++i;
      row.second = body.substr(begin, i - begin);
      row.two_tokens = i == body.size();
    }
    return true;
  }
  return false;
}
// srsr:endhot

/// Hashes std::string and std::string_view alike, so a host map keyed by
/// std::string is probed with a view and no temporary string.
struct HostHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
}  // namespace

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# srsr edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
      << " edges\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const NodeId v : g.out_neighbors(u)) out << u << ' ' << v << '\n';
}

void write_edge_list_file(const std::string& path, const Graph& g) {
  obs::Scope stage("graph.io.write_edge_list");
  std::ofstream out(path);
  SRSR_CHECK(out.good(), "write_edge_list_file: cannot open " + path);
  write_edge_list(out, g);
  SRSR_CHECK(out.good(), "write_edge_list_file: write failed for " + path);
}

Graph read_edge_list(std::istream& in, NodeId num_nodes) {
  GraphBuilder b(num_nodes);
  LineScanner scan(in);
  Row row;
  // srsr:hot ingest-edge — one edge per line, straight into the builder.
  while (scan.next_row(row)) {
    SRSR_CHECK(row.two_tokens, "read_edge_list: line ", scan.line_number(),
               ": expected 'u v', got '", row.line, "'");
    const u64 u = parse_u64(row.first);
    const u64 v = parse_u64(row.second);
    SRSR_CHECK(u < kInvalidNode && v < kInvalidNode, "read_edge_list: line ",
               scan.line_number(), ": id too large");
    if (num_nodes == 0) b.grow(static_cast<NodeId>(std::max(u, v)) + 1);
    b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  // srsr:endhot
  return b.build();
}

Graph read_edge_list_file(const std::string& path, NodeId num_nodes) {
  obs::Scope stage("graph.io.read_edge_list");
  std::ifstream in(path);
  SRSR_CHECK(in.good(), "read_edge_list_file: cannot open " + path);
  return read_edge_list(in, num_nodes);
}

void write_binary(const std::string& path, const Graph& g) {
  obs::Scope stage("graph.io.write_binary");
  std::ofstream out(path, std::ios::binary);
  SRSR_CHECK(out.good(), "write_binary: cannot open " + path);
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, static_cast<u64>(g.num_nodes()));
  write_pod(out, g.num_edges());
  out.write(reinterpret_cast<const char*>(g.offsets().data()),
            static_cast<std::streamsize>(g.offsets().size() * sizeof(u64)));
  out.write(reinterpret_cast<const char*>(g.targets().data()),
            static_cast<std::streamsize>(g.targets().size() * sizeof(NodeId)));
  SRSR_CHECK(out.good(), "write_binary: write failed for " + path);
}

Graph read_binary(const std::string& path) {
  obs::Scope stage("graph.io.read_binary");
  std::ifstream in(path, std::ios::binary);
  SRSR_CHECK(in.good(), "read_binary: cannot open " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  SRSR_CHECK(in.good() && std::equal(magic, magic + 8, kMagic),
        "read_binary: bad magic in " + path);
  const u32 version = read_pod<u32>(in);
  SRSR_CHECK(version == kVersion, "read_binary: unsupported version");
  const u64 n = read_pod<u64>(in);
  const u64 m = read_pod<u64>(in);
  SRSR_CHECK(n < kInvalidNode, "read_binary: node count too large");
  // Size the arrays from the header only once the file is known to hold
  // them: a forged edge count must not turn into an unbounded allocation.
  const std::streampos body = in.tellg();
  in.seekg(0, std::ios::end);
  const u64 remaining = static_cast<u64>(in.tellg() - body);
  in.seekg(body);
  SRSR_CHECK(m <= remaining / sizeof(NodeId) &&
                 n + 1 <= (remaining - m * sizeof(NodeId)) / sizeof(u64),
             "read_binary: truncated file ", path, " (header claims ", n,
             " nodes and ", m, " edges, body has ", remaining, " bytes)");
  std::vector<u64> offsets(n + 1);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(u64)));
  std::vector<NodeId> targets(m);
  in.read(reinterpret_cast<char*>(targets.data()),
          static_cast<std::streamsize>(targets.size() * sizeof(NodeId)));
  SRSR_CHECK(in.good(), "read_binary: truncated file " + path);
  return Graph(std::move(offsets), std::move(targets));
}

WebCorpus read_url_corpus(std::istream& pages, std::istream& edges) {
  obs::Scope stage("graph.io.read_url_corpus");
  WebCorpus corpus;
  std::unordered_map<std::string, NodeId, HostHash, std::equal_to<>>
      host_to_source;
  std::vector<std::pair<NodeId, NodeId>> page_rows;  // (page id, source id)
  std::string host;  // the current page's host, lower-cased; reused
  LineScanner scan(pages);
  Row row;
  // srsr:hot ingest-page — one page per line; a host already seen costs
  // no allocation.
  while (scan.next_row(row)) {
    SRSR_CHECK(row.two_tokens, "read_url_corpus: pages line ",
               scan.line_number(), ": expected '<id> <url>'");
    const u64 id = parse_u64(row.first);
    SRSR_CHECK(id < kInvalidNode, "read_url_corpus: page id too large");
    to_lower_into(host_view(row.second), host);
    auto it = host_to_source.find(std::string_view(host));
    if (it == host_to_source.end()) {
      const auto source = static_cast<NodeId>(corpus.source_hosts.size());
      // srsr-analyze: allow(hotloop): once per new host, not per line
      it = host_to_source.emplace(host, source).first;
      // srsr-analyze: allow(hotloop): once per new host, not per line
      corpus.source_hosts.push_back(host);
    }
    // srsr-analyze: allow(hotloop): the page table's row buffer, amortised
    page_rows.emplace_back(static_cast<NodeId>(id), it->second);
  }
  // srsr:endhot
  SRSR_CHECK(!page_rows.empty(), "read_url_corpus: no pages");

  const NodeId np = static_cast<NodeId>(page_rows.size());
  corpus.page_source.assign(np, kInvalidNode);
  for (const auto& [id, src] : page_rows) {
    SRSR_CHECK(id < np, "read_url_corpus: page ids must be dense 0..n-1");
    SRSR_CHECK(corpus.page_source[id] == kInvalidNode,
          "read_url_corpus: duplicate page id " + std::to_string(id));
    corpus.page_source[id] = src;
  }

  const u32 ns = static_cast<u32>(corpus.source_hosts.size());
  corpus.source_is_spam.assign(ns, 0);
  corpus.source_page_count.assign(ns, 0);
  corpus.source_first_page.assign(ns, kInvalidNode);
  for (NodeId p = 0; p < np; ++p) {
    const NodeId s = corpus.page_source[p];
    if (corpus.source_first_page[s] == kInvalidNode)
      corpus.source_first_page[s] = p;
    ++corpus.source_page_count[s];
  }
  corpus.pages = read_edge_list(edges, np);
  return corpus;
}

std::vector<NodeId> match_hosts(const WebCorpus& corpus, std::istream& hosts) {
  std::unordered_map<std::string_view, NodeId> index;
  index.reserve(corpus.source_hosts.size());
  for (NodeId s = 0; s < corpus.source_hosts.size(); ++s)
    index.emplace(corpus.source_hosts[s], s);
  std::vector<NodeId> out;
  std::string host;
  LineScanner scan(hosts);
  std::string_view line;
  while (scan.next_line(line)) {
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    to_lower_into(body, host);
    const auto it = index.find(host);
    if (it != index.end()) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace srsr::graph

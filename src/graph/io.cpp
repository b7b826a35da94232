#include "graph/io.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "graph/builder.hpp"
#include "obs/scope.hpp"
#include "util/check.hpp"
#include "util/memory.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

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

/// The bytes `trim` strips (std::isspace in the C locale).
bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// srsr:hot ingest-line — the per-line scan and tokenizer of every text
// reader.

/// The line starting at `p`, without its '\n'; moves `p` to the next
/// line. Lines are what std::getline returns: '\n'-terminated, and a
/// last line without '\n' counts.
std::string_view take_line(const char*& p, const char* end) {
  const auto* nl = static_cast<const char*>(
      std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
  const char* stop = nl != nullptr ? nl : end;
  const std::string_view line(p, static_cast<std::size_t>(stop - p));
  p = nl != nullptr ? nl + 1 : end;
  return line;
}

/// Cuts a line into a Row; false for a blank or '#' line. Tokens are runs
/// of non-separators in the trimmed line.
bool split_row(std::string_view line, Row& row) {
  const std::string_view body = trim(line);
  if (body.empty() || body[0] == '#') return false;
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

/// Reads 1 to 19 digits at `p` into `value` (19 digits cannot overflow a
/// u64). Returns the byte after them, or nullptr for none or more.
const char* scan_digits(const char* p, const char* end, u64& value) {
  const char* const start = p;
  u64 v = 0;
  while (p < end && static_cast<unsigned char>(*p - '0') < 10) {
    v = v * 10 + static_cast<u64>(*p - '0');
    ++p;
  }
  if (p == start || p - start > 19) return nullptr;
  value = v;
  return p;
}

/// Skips trailing ' ', '\t' and '\r' and returns the next line's start,
/// or nullptr when anything else comes before the '\n'.
const char* scan_line_end(const char* p, const char* end) {
  while (p < end && (is_separator(*p) || *p == '\r')) ++p;
  if (p == end) return end;
  return *p == '\n' ? p + 1 : nullptr;
}

/// The common edge line, "<u>[ \t]+<v>[ \t\r]*", read in one pass with
/// no trim and no token views. Returns the next line's start, or nullptr
/// for any other line (blank, comment, other whitespace, malformed or
/// 20-digit numbers); split_row + checked_edge read those, and they
/// accept everything this accepts, with the same values.
const char* scan_edge_line(const char* p, const char* end, u64& u, u64& v) {
  p = scan_digits(p, end, u);
  if (p == nullptr || p == end || !is_separator(*p)) return nullptr;
  while (p < end && is_separator(*p)) ++p;
  p = scan_digits(p, end, v);
  return p == nullptr ? nullptr : scan_line_end(p, end);
}

/// The common page line, "<id>[ \t]+<url>[ \t\r]*" with no whitespace in
/// the URL; the fast path of split_row + checked_page, as for edges.
const char* scan_page_line(const char* p, const char* end, u64& id,
                           std::string_view& url) {
  p = scan_digits(p, end, id);
  if (p == nullptr || p == end || !is_separator(*p)) return nullptr;
  while (p < end && is_separator(*p)) ++p;
  const char* const begin = p;
  while (p < end && !is_space(*p)) ++p;
  if (p == begin) return nullptr;
  url = std::string_view(begin, static_cast<std::size_t>(p - begin));
  return scan_line_end(p, end);
}
// srsr:endhot

/// Checks an edge row as read_edge_list always has and returns its edge.
/// `lineno` numbers the line in the file, for the messages.
Edge checked_edge(const Row& row, u64 lineno, NodeId num_nodes) {
  SRSR_CHECK(row.two_tokens, "read_edge_list: line ", lineno,
             ": expected 'u v', got '", row.line, "'");
  const u64 u = parse_u64(row.first);
  const u64 v = parse_u64(row.second);
  SRSR_CHECK(u < kInvalidNode && v < kInvalidNode, "read_edge_list: line ",
             lineno, ": id too large");
  SRSR_CHECK(num_nodes == 0 || (u < num_nodes && v < num_nodes),
             "GraphBuilder::add_edge: node id out of range");
  return {static_cast<NodeId>(u), static_cast<NodeId>(v)};
}

/// Checks a page row as read_url_corpus always has and returns its id
/// and URL. `lineno` numbers the line in the file, for the messages.
std::pair<u64, std::string_view> checked_page(const Row& row, u64 lineno) {
  SRSR_CHECK(row.two_tokens, "read_url_corpus: pages line ", lineno,
             ": expected '<id> <url>'");
  const u64 id = parse_u64(row.first);
  SRSR_CHECK(id < kInvalidNode, "read_url_corpus: page id too large");
  return {id, row.second};
}

/// Edge blocks of at least this many bytes are handed back to the
/// operating system once assembled (util/memory.hpp).
constexpr u64 kReleaseBytes = u64{16} << 20;

/// Reads a stream in windows of whole lines. A window holds up to
/// `max_chunks` × kIngestChunkBytes of text (more only to finish a line
/// longer than that), ends after a '\n' or at the end of input, and is
/// cut at newlines into up to `max_chunks` chunks of about equal size —
/// one chunk below kIngestParallelCutoff bytes. The partial last line of
/// a window is carried to the next. The buffer starts small and grows to
/// the window size, so a short input costs a short buffer.
class WindowReader {
 public:
  WindowReader(std::istream& in, std::size_t max_chunks)
      : in_(in), max_chunks_(max_chunks) {}

  /// Reads and cuts the next window; false at the end of input.
  bool next();

  /// The current window's chunks: views into the buffer, valid until the
  /// next call.
  const std::vector<std::string_view>& chunks() const { return chunks_; }

 private:
  static constexpr std::size_t kFirstBuffer = std::size_t{64} << 10;

  /// Reads until the buffer holds `want` bytes or the input ends.
  void fill(std::size_t want);

  std::istream& in_;
  std::size_t max_chunks_;
  std::unique_ptr<char[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;  // bytes read into buf_
  std::size_t text_ = 0;  // buf_[0, text_) is the window; the rest is carried
  bool eof_ = false;
  std::vector<std::string_view> chunks_;
};

void WindowReader::fill(std::size_t want) {
  while (!eof_ && size_ < want) {
    if (size_ == capacity_) {
      const std::size_t grown =
          std::min(want, std::max(kFirstBuffer, 2 * capacity_));
      auto bigger = std::make_unique_for_overwrite<char[]>(grown);
      if (size_ > 0) std::memcpy(bigger.get(), buf_.get(), size_);
      buf_ = std::move(bigger);
      capacity_ = grown;
    }
    const std::size_t room = capacity_ - size_;
    in_.read(buf_.get() + size_, static_cast<std::streamsize>(room));
    const auto got = static_cast<std::size_t>(in_.gcount());
    size_ += got;
    eof_ = got < room;
  }
}

bool WindowReader::next() {
  if (text_ > 0 && size_ > text_)
    std::memmove(buf_.get(), buf_.get() + text_, size_ - text_);
  size_ -= text_;
  text_ = 0;
  chunks_.clear();
  for (std::size_t want = max_chunks_ * kIngestChunkBytes;; want = 2 * size_) {
    fill(want);
    if (eof_) {
      text_ = size_;
      break;
    }
    std::size_t end = size_;
    while (end > 0 && buf_[end - 1] != '\n') --end;
    if (end > 0) {
      text_ = end;
      break;
    }
    // One line is longer than the window: read on until it ends.
  }
  if (text_ == 0) return false;
  const char* const base = buf_.get();
  const std::size_t chunks =
      std::min(max_chunks_, task_count(text_, kIngestParallelCutoff));
  std::size_t begin = 0;
  for (std::size_t c = 1; c < chunks; ++c) {
    std::size_t cut = std::max(begin, split_point(text_, chunks, c));
    const auto* nl =
        static_cast<const char*>(std::memchr(base + cut, '\n', text_ - cut));
    cut = nl != nullptr ? static_cast<std::size_t>(nl - base) + 1 : text_;
    chunks_.emplace_back(base + begin, cut - begin);
    begin = cut;
  }
  chunks_.emplace_back(base + begin, text_ - begin);
  return true;
}

/// How a chunk parse ended: the lines it scanned and, when one failed,
/// where that line starts and what it threw.
struct ChunkStatus {
  u64 lines = 0;
  const char* failed = nullptr;
  std::exception_ptr error;
};

/// Calls `parse_line(p, end)` — which reads the line at `p` and returns
/// the next line's start — for every line of `text`. Nothing is thrown
/// out (this runs inside a parallel region): the first exception stops
/// the scan and is recorded in `status` with its line.
template <typename ParseLine>
void scan_chunk(std::string_view text, ChunkStatus& status,
                ParseLine&& parse_line) {
  const char* p = text.data();
  const char* const end = p + text.size();
  const char* line = p;
  u64 lines = 0;
  try {
    while (p < end) {
      line = p;
      ++lines;
      p = parse_line(p, end);
    }
  } catch (...) {  // srsr-lint: allow(catch-all) — parse_windows rethrows it
    status.failed = line;
    status.error = std::current_exception();
  }
  status.lines = lines;
}

/// Parses `in` window by window with a format's `parser`:
///   window(chunks)          on the calling thread, before the window's
///                           tasks (buffers are reserved here);
///   parse(c, text, status)  on one task per chunk, filling `status`
///                           through scan_chunk;
///   merge(c)                on the calling thread, in chunk order, so the
///                           result is the serial reader's whatever the
///                           thread count;
///   reparse(line, lineno)   throws the error the serial reader raised on
///                           `line`, the `lineno`-th line of the file.
/// A failed chunk ends the read. Chunks are in file order and each stops
/// at its first failure, so the earliest failed chunk holds the lowest
/// failing line; its number is the line counts of the chunks before it
/// plus its own. An exception that is not a property of the line
/// (reparse returns) is rethrown as the chunk caught it.
template <typename Parser>
void parse_windows(std::istream& in, std::size_t max_chunks, Parser& parser) {
  WindowReader reader(in, max_chunks);
  std::vector<ChunkStatus> status;
  u64 lines_before = 0;
  while (reader.next()) {
    const std::vector<std::string_view>& chunks = reader.chunks();
    parser.window(chunks);
    status.assign(chunks.size(), ChunkStatus{});
    parallel_for(0, chunks.size(), [&](std::size_t c) {
      parser.parse(c, chunks[c], status[c]);
    });
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      if (status[c].failed != nullptr) {
        const char* at = status[c].failed;
        parser.reparse(take_line(at, chunks[c].data() + chunks[c].size()),
                       lines_before + status[c].lines);
        std::rethrow_exception(status[c].error);
      }
      parser.merge(c);
      lines_before += status[c].lines;
    }
  }
}

/// Hashes std::string and std::string_view alike, so a host map keyed by
/// std::string is probed with a view and no temporary string.
struct HostHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// The edge list for parse_windows. Chunk c of a window appends its edges
/// to a block of its own, reserved on the calling thread for the most
/// edges the chunk's text can hold (a line has at least 4 bytes, "u v\n"):
/// the tasks never grow or allocate a buffer, and the untouched tail of a
/// block is address space, not memory.
class EdgeParser {
 public:
  explicit EdgeParser(NodeId num_nodes)
      : num_nodes_(num_nodes),
        limit_(num_nodes != 0 ? num_nodes : kInvalidNode) {}

  void window(const std::vector<std::string_view>& chunks) {
    first_block_ = blocks_.size();
    for (const std::string_view text : chunks) {
      blocks_.emplace_back();
      blocks_.back().reserve(text.size() / 4 + 1);
    }
    chunk_max_.assign(chunks.size(), 0);
  }

  void parse(std::size_t c, std::string_view text, ChunkStatus& status) {
    // A local handle: the tasks' vectors are neighbours in blocks_, and
    // appending through them would share cache lines.
    std::vector<Edge> out = std::move(blocks_[first_block_ + c]);
    u64 top = 0;
    // srsr:hot ingest-edge — one edge per line, into the chunk's block.
    scan_chunk(text, status, [&](const char* p, const char* end) {
      u64 u = 0, v = 0;
      const char* next = scan_edge_line(p, end, u, v);
      if (next == nullptr || u >= limit_ || v >= limit_) {
        // The general path. Its messages name line 0: a failing line is
        // read again, with its number in the file, by reparse.
        Row row;
        next = p;
        if (!split_row(take_line(next, end), row)) return next;
        const Edge e = checked_edge(row, 0, num_nodes_);
        u = e.first;
        v = e.second;
      }
      // srsr-analyze: allow(hotloop): reserved for the chunk, never grows
      out.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
      top = std::max({top, u, v});
      return next;
    });
    // srsr:endhot
    blocks_[first_block_ + c] = std::move(out);
    chunk_max_[c] = top;
  }

  void merge(std::size_t c) {
    if (!blocks_[first_block_ + c].empty())
      inferred_ = std::max(inferred_, static_cast<NodeId>(chunk_max_[c] + 1));
  }

  void reparse(std::string_view line, u64 lineno) const {
    Row row;
    if (split_row(line, row)) checked_edge(row, lineno, num_nodes_);
  }

  /// The node count: the given one, or the largest id + 1.
  NodeId num_nodes() const { return num_nodes_ != 0 ? num_nodes_ : inferred_; }

  std::vector<std::vector<Edge>> take_blocks() { return std::move(blocks_); }

 private:
  NodeId num_nodes_;
  u64 limit_;  // ids must be below it
  std::vector<std::vector<Edge>> blocks_;
  std::size_t first_block_ = 0;  // the current window's first block
  std::vector<u64> chunk_max_;   // largest id of each chunk of the window
  NodeId inferred_ = 0;
};

/// The pages file for parse_windows. Each chunk interns its hosts in a
/// table of its own, in first-seen order; merging the tables in chunk
/// order assigns the global source ids, so they follow first appearance
/// in the file whatever the chunking.
class PageParser {
 public:
  PageParser(std::size_t max_chunks, std::vector<std::string>& source_hosts)
      : chunks_(max_chunks), source_hosts_(source_hosts) {}

  void window(const std::vector<std::string_view>&) {}

  void parse(std::size_t c, std::string_view text, ChunkStatus& status) {
    Chunk& chunk = chunks_[c];
    chunk.index.clear();
    chunk.hosts.clear();
    chunk.rows.clear();
    // srsr:hot ingest-page — one page per line; a host already seen costs
    // no allocation.
    scan_chunk(text, status, [&](const char* p, const char* end) {
      u64 id = 0;
      std::string_view url;
      const char* next = scan_page_line(p, end, id, url);
      if (next == nullptr || id >= kInvalidNode) {
        Row row;  // the general path, as for edges
        next = p;
        if (!split_row(take_line(next, end), row)) return next;
        std::tie(id, url) = checked_page(row, 0);
      }
      to_lower_into(host_view(url), chunk.host);
      auto it = chunk.index.find(std::string_view(chunk.host));
      if (it == chunk.index.end()) {
        const auto local = static_cast<NodeId>(chunk.hosts.size());
        // srsr-analyze: allow(hotloop): once per new host, not per line
        it = chunk.index.emplace(chunk.host, local).first;
        // srsr-analyze: allow(hotloop): once per new host, not per line
        chunk.hosts.push_back(chunk.host);
      }
      // srsr-analyze: allow(hotloop): the chunk's row buffer, amortised
      chunk.rows.emplace_back(static_cast<NodeId>(id), it->second);
      return next;
    });
    // srsr:endhot
  }

  void merge(std::size_t c) {
    Chunk& chunk = chunks_[c];
    source_of_local_.resize(chunk.hosts.size());
    for (std::size_t local = 0; local < chunk.hosts.size(); ++local) {
      std::string& host = chunk.hosts[local];
      auto it = host_to_source_.find(std::string_view(host));
      if (it == host_to_source_.end()) {
        const auto source = static_cast<NodeId>(source_hosts_.size());
        it = host_to_source_.emplace(host, source).first;
        source_hosts_.push_back(std::move(host));
      }
      source_of_local_[local] = it->second;
    }
    for (const auto& [id, local] : chunk.rows)
      rows.emplace_back(id, source_of_local_[local]);
  }

  void reparse(std::string_view line, u64 lineno) const {
    Row row;
    if (split_row(line, row)) host_view(checked_page(row, lineno).second);
  }

  std::vector<std::pair<NodeId, NodeId>> rows;  // (page id, source id)

 private:
  using HostIndex =
      std::unordered_map<std::string, NodeId, HostHash, std::equal_to<>>;
  // One per task; aligned so the tasks' appends share no cache line.
  struct alignas(64) Chunk {
    HostIndex index;                              // host -> local id
    std::vector<std::string> hosts;               // local id -> host
    std::vector<std::pair<NodeId, NodeId>> rows;  // (page id, local id)
    std::string host;  // the current page's host, lower-cased; reused
  };

  std::vector<Chunk> chunks_;
  std::vector<std::string>& source_hosts_;  // source id -> host
  HostIndex host_to_source_;
  std::vector<NodeId> source_of_local_;
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
  EdgeParser parser(num_nodes);
  {
    obs::Scope stage("graph.io.edges");
    parse_windows(in, static_cast<std::size_t>(num_threads()), parser);
  }
  // A failed read ends the windows like the end of input: tell them apart.
  SRSR_CHECK(!in.bad(), "read_edge_list: the stream failed while reading");
  obs::Scope stage("graph.csr_build");
  std::vector<std::vector<Edge>> blocks = parser.take_blocks();
  u64 bytes = 0;
  for (const std::vector<Edge>& block : blocks)
    bytes += block.size() * sizeof(Edge);
  Graph graph = assemble_csr(parser.num_nodes(), std::move(blocks)).graph;
  // Freed edge blocks (8 bytes per edge, twice the CSR's 4) would stay
  // resident below the graph for the rest of the process; from
  // kReleaseBytes up they are worth the walk that hands them back.
  if (bytes >= kReleaseBytes) release_free_memory();
  return graph;
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
  obs::Scope pages_stage("graph.io.pages");
  PageParser parser(static_cast<std::size_t>(num_threads()),
                    corpus.source_hosts);
  parse_windows(pages, static_cast<std::size_t>(num_threads()), parser);
  const std::vector<std::pair<NodeId, NodeId>>& page_rows = parser.rows;
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
  pages_stage.finish();
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
  WindowReader reader(hosts, 1);
  while (reader.next()) {
    const std::string_view text = reader.chunks().front();
    const char* p = text.data();
    const char* const end = p + text.size();
    while (p < end) {
      const std::string_view body = trim(take_line(p, end));
      if (body.empty() || body[0] == '#') continue;
      to_lower_into(body, host);
      const auto it = index.find(host);
      if (it != index.end()) out.push_back(it->second);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace srsr::graph

// srsr_perfbench — the SRSR benchmark harness.
//
//   srsr_perfbench generate --out DIR [--size full|tiny] [--seed N]
//   srsr_perfbench run --workload crawl_rank|serve_kappa|stream_updates
//                      --crawl DIR [--size full|tiny] [--seed N]
//                      [--seconds S] [--trace 0|1]
//                      [--corrupt sigma|snapshot]
//                      [--meta-json '"key": value, ...']
//
// `run` prints meta / metric / layer / detail / gate lines and, as its
// last line, the JSON verdict. perfbench/run.py is the entry point that
// builds this binary, generates the crawl and calls `run`.
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "harness.hpp"
#include "util/strings.hpp"

namespace {

using namespace perfbench;

std::map<std::string, std::string> parse(int argc, char** argv) {
  std::map<std::string, std::string> out;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    srsr::check(key.rfind("--", 0) == 0 && i + 1 < argc,
                "expected --flag value pairs, got '" + key + "'");
    out[key.substr(2)] = argv[i + 1];
  }
  return out;
}

std::string get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

int run(int argc, char** argv) {
  srsr::check(argc >= 2, "usage: srsr_perfbench generate|run --flag value...");
  const std::string cmd = argv[1];
  const auto args = parse(argc, argv);
  const std::string size = get(args, "size", "full");
  const u64 seed = srsr::parse_u64(get(args, "seed", "1"));
  if (cmd == "generate") {
    generate_crawl(crawl_spec(size, seed), get(args, "out", ""));
    return 0;
  }
  srsr::check(cmd == "run", "unknown command '" + cmd + "'");
  Options o;
  o.workload = get(args, "workload", "");
  o.crawl_dir = get(args, "crawl", "");
  o.size = size;
  o.seed = seed;
  o.seconds = srsr::parse_f64(get(args, "seconds", "10"));
  o.trace = get(args, "trace", "0") == "1";
  o.corrupt = get(args, "corrupt", "");
  o.meta_json = get(args, "meta-json", "");
  srsr::check(!o.crawl_dir.empty(), "run needs --crawl DIR");
  srsr::check(o.corrupt.empty() || o.corrupt == "sigma" ||
                  o.corrupt == "snapshot",
              "--corrupt must be sigma or snapshot");
  if (o.workload == "crawl_rank") return run_crawl_rank(o);
  if (o.workload == "serve_kappa") return run_serve_kappa(o);
  if (o.workload == "stream_updates") return run_stream_updates(o);
  srsr::check(false, "unknown workload '" + o.workload + "'");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "srsr_perfbench: error: %s\n", e.what());
    return 1;
  }
}

#include <string>
#include <string_view>
#include "util/common.hpp"
namespace srsr {
unsigned long sum_digits(std::string_view line) {
  unsigned long acc = 0;
  // srsr:hot fx-ingest
  for (std::size_t i = 0; i + 1 <= line.size(); ++i) {
    const char c = line[i];
    check(i + 1 <= line.size(), "sum_digits: index in range");
    if (c < '0' || c > '9') [[unlikely]]
      throw Error("sum_digits: non-digit in '" + std::string(line) + "'");  // srsr-analyze: allow(hotloop): failure path only
    acc += static_cast<unsigned long>(c - '0');
  }
  // srsr:endhot
  return acc;
}
}  // namespace srsr

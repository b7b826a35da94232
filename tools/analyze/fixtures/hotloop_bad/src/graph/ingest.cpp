#include <string>
#include <string_view>
#include "util/common.hpp"
namespace srsr {
unsigned long sum_digits(std::string_view line) {
  unsigned long acc = 0;
  // srsr:hot fx-ingest
  for (const char c : line) {
    check(c != ' ', "sum_digits: space in '" + std::string(line) + "'");
    check(c >= '0', "sum_digits: bad byte at "
                        + std::to_string(acc));
    acc += static_cast<unsigned long>(c - '0');
  }
  // srsr:endhot
  return acc;
}
}  // namespace srsr

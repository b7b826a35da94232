#include "util/memory.hpp"

#include <cstdlib>  // defines __GLIBC__ on glibc

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace srsr {

void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace srsr

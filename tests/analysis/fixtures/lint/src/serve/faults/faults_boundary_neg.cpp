// Negative fixture for the faults-boundary rule: files inside
// src/serve/faults/ include each other freely.
#include "serve/faults/chaos_support.hpp"
#include "serve/faults/faulty_vfs.hpp"

namespace vnfr::fixture {

inline int answer() { return 42; }

}  // namespace vnfr::fixture

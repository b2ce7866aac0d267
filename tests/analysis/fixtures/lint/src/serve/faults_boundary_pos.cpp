// Positive fixture for the faults-boundary rule: production serve code
// outside src/serve/faults/ including the test-only fault harness.
#include "serve/faults/faulty_vfs.hpp"  // expect: faults-boundary
#include "serve/vfs.hpp"
#   include <serve/faults/wal_scrubber.hpp>  // expect: faults-boundary

namespace vnfr::fixture {

inline int answer() { return 42; }

}  // namespace vnfr::fixture

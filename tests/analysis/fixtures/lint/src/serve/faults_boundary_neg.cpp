// Negative fixture for the faults-boundary rule: production serve code
// includes only production headers. The harness may be named in comments,
// such as this pointer to "serve/faults/faulty_vfs.hpp", and in strings.
#include "serve/vfs.hpp"
// #include "serve/faults/faulty_vfs.hpp"

namespace vnfr::fixture {

inline const char* harness_header() { return "serve/faults/faulty_vfs.hpp"; }

}  // namespace vnfr::fixture

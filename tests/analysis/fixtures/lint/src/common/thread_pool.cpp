// Negative fixture for the env-knob rule: the thread pool is the one src/
// file that reads the environment (VNFR_THREADS).
#include <cstdlib>

namespace vnfr::fixture {

inline const char* threads_setting() { return std::getenv("VNFR_THREADS"); }

}  // namespace vnfr::fixture

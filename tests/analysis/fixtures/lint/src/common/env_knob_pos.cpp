// Positive fixture for the env-knob rule: a src/ file other than
// src/common/thread_pool.cpp reading the environment.
#include <cstdlib>
#include <cstring>

namespace vnfr::fixture {

inline bool abort_on_failure() {
    const char* mode = std::getenv("VNFR_FAILURE_MODE");  // expect: env-knob
    return mode != nullptr && std::strcmp(mode, "abort") == 0;
}

inline bool verbose() { return ::getenv("VNFR_VERBOSE") != nullptr; }  // expect: env-knob

}  // namespace vnfr::fixture

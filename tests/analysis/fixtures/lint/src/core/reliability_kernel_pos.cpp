// Positive fixture for the reliability-kernel rule: code outside src/vnf/
// calling the per-call references of Eq. 3 and Eq. 10's per-site term.
#include <optional>

#include "vnf/reliability.hpp"

namespace vnfr::fixture {

inline std::optional<int> replicas(double rc, double rf, double req) {
    return vnf::min_onsite_replicas(rc, rf, req);  // expect: reliability-kernel
}

inline double log_pair(double rf, double rc) {
    using vnf::offsite_log_failure;  // expect: reliability-kernel
    return offsite_log_failure(rf, rc);  // expect: reliability-kernel
}

}  // namespace vnfr::fixture

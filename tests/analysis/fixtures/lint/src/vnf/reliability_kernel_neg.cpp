// Negative fixture for the reliability-kernel rule: src/vnf/ owns the
// reliability arithmetic and may call its references.
#include <optional>

#include "vnf/reliability.hpp"

namespace vnfr::vnf {

inline bool reference_agrees(const ReplicaRow& row, double rc, double rf, double req) {
    return onsite_replicas(row, rc, req) == min_onsite_replicas(rc, rf, req) &&
           offsite_log_failure(rf, rc) < 0.0;
}

}  // namespace vnfr::vnf

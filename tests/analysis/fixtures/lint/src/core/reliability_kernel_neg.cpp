// Negative fixture for the reliability-kernel rule: outside src/vnf/ the
// tabulated forms are used, and the references appear only in comments
// and strings (vnf::min_onsite_replicas, vnf::offsite_log_failure).
#include <optional>
#include <span>

#include "vnf/catalog.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::fixture {

inline std::optional<int> replicas(const vnf::Catalog& catalog, VnfTypeId f, double rc,
                                   double req) {
    // Same value as vnf::min_onsite_replicas(rc, r_f, req).
    return vnf::onsite_replicas(catalog.replica_row(f), rc, req);
}

inline double log_pair(const vnf::OffsiteLogTable& table, VnfTypeId f, std::size_t j) {
    const char* what = "offsite_log_failure, tabulated";
    (void)what;
    return table.row(f)[j];
}

}  // namespace vnfr::fixture

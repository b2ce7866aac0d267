#include "common/contracts.hpp"

namespace vnfr::common::detail {

void contract_fail(const char* macro, const char* expr, const char* file, int line,
                   const std::string& detail) {
    std::ostringstream os;
    os << macro << " failed: " << expr << " at " << file << ":" << line;
    if (!detail.empty()) os << " — " << detail;
    throw ContractViolation(os.str());
}

double check_prob(double p, const char* expr, const char* file, int line) {
    if (!(std::isfinite(p) && p >= -kProbSlack && p <= 1.0 + kProbSlack)) [[unlikely]] {
        contract_fail("VNFR_CHECK_PROB", expr, file, line,
                      contract_message("value ", p, " outside [0, 1]"));
    }
    return p;
}

double check_finite(double value, const char* expr, const char* file, int line) {
    if (!std::isfinite(value)) [[unlikely]] {
        contract_fail("VNFR_CHECK_FINITE", expr, file, line,
                      contract_message("value ", value, " is not finite"));
    }
    return value;
}

}  // namespace vnfr::common::detail

#include "common/math.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace vnfr::common {

bool almost_equal(double a, double b, double rel_tol, double abs_tol) {
    const double diff = std::fabs(a - b);
    if (diff <= abs_tol) return true;
    return diff <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

double log1m(double x) {
    if (x < 0.0 || x >= 1.0) throw std::domain_error("log1m: x outside [0, 1)");
    return std::log1p(-x);
}

double one_minus_exp(double s) {
    if (s > 0.0) throw std::domain_error("one_minus_exp: s > 0");
    return -std::expm1(s);
}

double at_least_one(double p, int k) {
    if (p < 0.0 || p > 1.0) throw std::domain_error("at_least_one: p outside [0, 1]");
    if (k < 0) throw std::domain_error("at_least_one: negative k");
    if (k == 0) return 0.0;
    if (p >= 1.0) return 1.0;
    // 1 - (1-p)^k = -expm1(k * log1p(-p))
    return -std::expm1(static_cast<double>(k) * std::log1p(-p));
}

double require_open_unit(double p, const char* name) {
    if (!(p > 0.0) || !(p < 1.0)) {
        throw std::invalid_argument(std::string(name) + " must lie strictly in (0, 1), got " +
                                    std::to_string(p));
    }
    return p;
}

}  // namespace vnfr::common

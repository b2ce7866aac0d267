// Numeric helpers for reliability arithmetic.
//
// Reliabilities in this system sit very close to 1 (e.g. 0.9999), so naive
// products like (1 - r_f * r_c)^k underflow or lose precision. Everything
// here works in log space via log1p/expm1.
#pragma once

namespace vnfr::common {

/// Relative-tolerance floating point comparison with an absolute floor for
/// values near zero.
bool almost_equal(double a, double b, double rel_tol = 1e-9, double abs_tol = 1e-12);

/// log(1 - x) for x in [0, 1). Throws std::domain_error for x outside [0, 1).
double log1m(double x);

/// 1 - exp(s) for s <= 0, i.e. maps a log-survival value back to a failure
/// probability complement without cancellation.
double one_minus_exp(double s);

/// Probability that at least one of `k` independent components with success
/// probability `p` each survives: 1 - (1-p)^k, computed stably.
double at_least_one(double p, int k);

/// Validate that `p` is a probability strictly inside (0, 1); returns p or
/// throws std::invalid_argument with `name` in the message.
double require_open_unit(double p, const char* name);

}  // namespace vnfr::common

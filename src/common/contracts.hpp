// Contract macros guarding the numeric invariants of the schedulers.
//
// The primal-dual arithmetic fails silently, not loudly: a negative dual
// price, a probability drifting outside [0, 1] or a NaN reaching Eq. (34)
// produces plausible-but-wrong revenue curves instead of a crash. These
// macros make such states machine-checked at the point where the invariant
// is supposed to hold.
//
//   VNFR_CHECK(cond, msg...)   always-on invariant; msg... streamed into
//                              the failure report.
//   VNFR_DCHECK(cond, msg...)  same, but compiled out in NDEBUG builds
//                              unless VNFR_ENABLE_DCHECKS is defined
//                              (the sanitizer presets define it).
//   VNFR_CHECK_PROB(p)         p must be finite and in [0, 1] (tiny
//                              rounding slack); evaluates to p.
//   VNFR_CHECK_FINITE(x)       x must be finite; evaluates to x.
//
// A failed check always throws ContractViolation, which tests can assert
// on and the CLI reports cleanly.
#pragma once

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace vnfr::common {

/// Exception raised by every failed contract.
class ContractViolation : public std::logic_error {
  public:
    explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

/// Throws ContractViolation describing one violation.
[[noreturn]] void contract_fail(const char* macro, const char* expr, const char* file, int line,
                   const std::string& detail);

inline std::string contract_message() { return {}; }

template <typename... Args>
std::string contract_message(Args&&... args) {
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/// Slack for probabilities assembled from long products: values such as
/// 1 + 4e-16 are rounding, not bugs.
inline constexpr double kProbSlack = 1e-9;

double check_prob(double p, const char* expr, const char* file, int line);
double check_finite(double value, const char* expr, const char* file, int line);

}  // namespace detail

}  // namespace vnfr::common

/// Always-on invariant check. Extra arguments are streamed into the report:
///   VNFR_CHECK(lambda >= 0.0, "cloudlet ", j, " slot ", t);
#define VNFR_CHECK(cond, ...)                                                      \
    do {                                                                           \
        if (!(cond)) [[unlikely]] {                                                \
            ::vnfr::common::detail::contract_fail(                                 \
                "VNFR_CHECK", #cond, __FILE__, __LINE__,                           \
                ::vnfr::common::detail::contract_message(__VA_ARGS__));            \
        }                                                                          \
    } while (false)

/// Debug-only invariant: active when NDEBUG is unset (Debug builds) or when
/// VNFR_ENABLE_DCHECKS is defined (sanitizer presets). Compiled out
/// otherwise — the condition is not evaluated.
#if !defined(NDEBUG) || defined(VNFR_ENABLE_DCHECKS)
#define VNFR_DCHECK(cond, ...) VNFR_CHECK(cond, __VA_ARGS__)
#else
#define VNFR_DCHECK(cond, ...)           \
    do {                                 \
        (void)sizeof(!(cond));           \
    } while (false)
#endif

/// Checks `p` is a finite probability in [0, 1] (with rounding slack) and
/// evaluates to it, so it can wrap an expression in-place:
///   const double avail = VNFR_CHECK_PROB(one_minus_exp(log_fail));
#define VNFR_CHECK_PROB(p) \
    ::vnfr::common::detail::check_prob((p), #p, __FILE__, __LINE__)

/// Checks `x` is finite (no NaN/inf) and evaluates to it.
#define VNFR_CHECK_FINITE(x) \
    ::vnfr::common::detail::check_finite((x), #x, __FILE__, __LINE__)

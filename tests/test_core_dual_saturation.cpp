// Regression test for the Eq. (34)/(67) dual-price saturation ceiling
// (core/dual_limits.hpp): a 10^6-request trace hammering one cloudlet
// with escalating payments must drive lambda to exactly
// kDualPriceCeiling — never to +inf, never through a contract failure —
// and the scheduler must keep functioning at the ceiling (modest
// payments priced out, huge payments still admitted).
#include <gtest/gtest.h>

#include <cmath>

#include "core/dual_limits.hpp"
#include "core/hybrid_primal_dual.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "helpers.hpp"

namespace vnfr::core {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::small_instance;

constexpr std::size_t kRequests = 1'000'000;

/// One cloudlet with capacity large enough that admissions never stop;
/// the dual price is the only thing limiting the recursion.
Instance one_cloudlet_instance() {
    return small_instance({0.98}, 1e9, 2, {});
}

/// Payment of the i-th request: exponential ramp from 1e3 to 1e75, so
/// the additive dual term crosses the ceiling mid-run and the second
/// half of the trace exercises the saturated regime.
double ramp_payment(std::size_t i) {
    return std::pow(10.0, 3.0 + 72.0 * static_cast<double>(i) /
                              static_cast<double>(kRequests));
}

workload::Request hammer_request(std::size_t i, double payment) {
    return make_request(static_cast<std::int64_t>(i), 0, 0.90, 0, 1, payment);
}

TEST(DualSaturation, OnsiteMillionRequestSingleCloudletStaysFinite) {
    const Instance inst = one_cloudlet_instance();
    OnsitePrimalDual scheduler(inst);
    const CloudletId c0{0};

    std::size_t admitted = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        const Decision d = scheduler.decide(hammer_request(i, ramp_payment(i)));
        admitted += d.admitted ? 1 : 0;
        if (i % 100'000 == 0) {
            const double lam = scheduler.lambda(c0, 0);
            ASSERT_TRUE(std::isfinite(lam)) << "request " << i;
            ASSERT_LE(lam, kDualPriceCeiling) << "request " << i;
        }
    }
    // Payments always dominate the (capped) price, so the whole ramp is
    // admitted and the recursion was driven as hard as possible.
    EXPECT_EQ(admitted, kRequests);
    EXPECT_EQ(scheduler.lambda(c0, 0), kDualPriceCeiling);  // saturated exactly
    for (const double delta : scheduler.deltas()) {
        ASSERT_TRUE(std::isfinite(delta));
    }

    // Still functional at the ceiling: a modest payment is priced out
    // (price == ceiling beats it), an astronomical one is admitted.
    const Decision modest =
        scheduler.decide(hammer_request(kRequests, 1e6));
    EXPECT_FALSE(modest.admitted);
    EXPECT_EQ(modest.reject_reason, RejectReason::kPricedOut);
    const Decision rich =
        scheduler.decide(hammer_request(kRequests + 1, 1e35));
    EXPECT_TRUE(rich.admitted);
}

TEST(DualSaturation, OffsiteMillionRequestSingleCloudletStaysFinite) {
    const Instance inst = one_cloudlet_instance();
    OffsitePrimalDual scheduler(inst);
    const CloudletId c0{0};

    std::size_t admitted = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        const Decision d = scheduler.decide(hammer_request(i, ramp_payment(i)));
        admitted += d.admitted ? 1 : 0;
        if (i % 100'000 == 0) {
            const double lam = scheduler.lambda(c0, 0);
            ASSERT_TRUE(std::isfinite(lam)) << "request " << i;
            ASSERT_LE(lam, kDualPriceCeiling) << "request " << i;
        }
    }
    EXPECT_EQ(admitted, kRequests);
    EXPECT_EQ(scheduler.lambda(c0, 0), kDualPriceCeiling);

    const Decision modest =
        scheduler.decide(hammer_request(kRequests, 1e6));
    EXPECT_FALSE(modest.admitted);
    EXPECT_NE(modest.reject_reason, RejectReason::kNone);
    const Decision rich =
        scheduler.decide(hammer_request(kRequests + 1, 1e35));
    EXPECT_TRUE(rich.admitted);
}

TEST(DualSaturation, HybridMillionRequestSingleCloudletStaysFinite) {
    // The hybrid commits through the on-site and off-site commit steps, so
    // whichever dual table the ramp drives saturates at the same ceiling.
    const Instance inst = one_cloudlet_instance();
    HybridPrimalDual scheduler(inst);

    std::size_t admitted = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        if (scheduler.decide(hammer_request(i, ramp_payment(i))).admitted) ++admitted;
    }
    EXPECT_EQ(admitted, kRequests);

    const Decision modest =
        scheduler.decide(hammer_request(kRequests, 1e6));
    EXPECT_FALSE(modest.admitted);
    EXPECT_EQ(modest.reject_reason, RejectReason::kPricedOut);
    const Decision rich =
        scheduler.decide(hammer_request(kRequests + 1, 1e35));
    EXPECT_TRUE(rich.admitted);
}

}  // namespace
}  // namespace vnfr::core

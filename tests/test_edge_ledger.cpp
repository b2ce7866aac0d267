#include "edge/resource_ledger.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"

namespace vnfr::edge {
namespace {

ResourceLedger make_enforcing() {
    return ResourceLedger({10.0, 20.0}, 5, CapacityPolicy::kEnforce);
}

TEST(ResourceLedger, ConstructionValidation) {
    EXPECT_THROW(ResourceLedger({10.0}, 0), std::invalid_argument);
    EXPECT_THROW(ResourceLedger({0.0}, 5), std::invalid_argument);
    EXPECT_THROW(ResourceLedger({-3.0}, 5), std::invalid_argument);
}

TEST(ResourceLedger, StartsEmpty) {
    const auto ledger = make_enforcing();
    for (TimeSlot t = 0; t < 5; ++t) {
        EXPECT_DOUBLE_EQ(ledger.usage(CloudletId{0}, t), 0.0);
        EXPECT_DOUBLE_EQ(ledger.residual(CloudletId{0}, t), 10.0);
    }
}

TEST(ResourceLedger, ReserveAffectsOnlyRange) {
    auto ledger = make_enforcing();
    ASSERT_TRUE(ledger.reserve(CloudletId{0}, 1, 3, 4.0));
    EXPECT_DOUBLE_EQ(ledger.usage(CloudletId{0}, 0), 0.0);
    EXPECT_DOUBLE_EQ(ledger.usage(CloudletId{0}, 1), 4.0);
    EXPECT_DOUBLE_EQ(ledger.usage(CloudletId{0}, 2), 4.0);
    EXPECT_DOUBLE_EQ(ledger.usage(CloudletId{0}, 3), 0.0);
    EXPECT_DOUBLE_EQ(ledger.usage(CloudletId{1}, 1), 0.0);
}

TEST(ResourceLedger, EnforcedReserveRejectsOverflowAtomically) {
    auto ledger = make_enforcing();
    ASSERT_TRUE(ledger.reserve(CloudletId{0}, 0, 5, 8.0));
    // 8 + 3 > 10 on every slot: must fail and change nothing.
    EXPECT_FALSE(ledger.reserve(CloudletId{0}, 2, 4, 3.0));
    EXPECT_DOUBLE_EQ(ledger.usage(CloudletId{0}, 2), 8.0);
    EXPECT_DOUBLE_EQ(ledger.usage(CloudletId{0}, 3), 8.0);
}

TEST(ResourceLedger, EnforcedReserveRejectsPartialOverlap) {
    auto ledger = make_enforcing();
    ASSERT_TRUE(ledger.reserve(CloudletId{0}, 2, 3, 9.0));
    // Slot 2 can't take 2 more even though slots 0-1 can.
    EXPECT_FALSE(ledger.reserve(CloudletId{0}, 0, 3, 2.0));
    EXPECT_DOUBLE_EQ(ledger.usage(CloudletId{0}, 0), 0.0);
}

TEST(ResourceLedger, ExactFitAccepted) {
    auto ledger = make_enforcing();
    EXPECT_TRUE(ledger.reserve(CloudletId{0}, 0, 5, 10.0));
    EXPECT_FALSE(ledger.fits(CloudletId{0}, 0, 1, 0.5));
    EXPECT_TRUE(ledger.fits(CloudletId{0}, 0, 1, 0.0));
}

TEST(ResourceLedger, RecordingPolicyAllowsOvershoot) {
    ResourceLedger ledger({10.0}, 3, CapacityPolicy::kRecord);
    EXPECT_TRUE(ledger.reserve(CloudletId{0}, 0, 3, 7.0));
    EXPECT_TRUE(ledger.reserve(CloudletId{0}, 1, 2, 8.0));
    EXPECT_DOUBLE_EQ(ledger.usage(CloudletId{0}, 1), 15.0);
    EXPECT_DOUBLE_EQ(ledger.peak_overshoot(CloudletId{0}), 5.0);
    EXPECT_DOUBLE_EQ(ledger.max_overshoot(), 5.0);
}

TEST(ResourceLedger, NoOvershootWhenWithinCapacity) {
    auto ledger = make_enforcing();
    ledger.reserve(CloudletId{0}, 0, 5, 9.0);
    EXPECT_DOUBLE_EQ(ledger.peak_overshoot(CloudletId{0}), 0.0);
    EXPECT_DOUBLE_EQ(ledger.max_overshoot(), 0.0);
}

TEST(ResourceLedger, ReleaseRestoresCapacity) {
    auto ledger = make_enforcing();
    ledger.reserve(CloudletId{0}, 0, 5, 10.0);
    ledger.release(CloudletId{0}, 0, 5, 10.0);
    for (TimeSlot t = 0; t < 5; ++t) {
        EXPECT_DOUBLE_EQ(ledger.usage(CloudletId{0}, t), 0.0);
    }
    EXPECT_TRUE(ledger.reserve(CloudletId{0}, 0, 5, 10.0));
}

TEST(ResourceLedger, ReleaseMoreThanReservedThrows) {
    auto ledger = make_enforcing();
    ledger.reserve(CloudletId{0}, 0, 2, 3.0);
    EXPECT_THROW(ledger.release(CloudletId{0}, 0, 2, 5.0), std::logic_error);
}

TEST(ResourceLedger, RangeValidation) {
    auto ledger = make_enforcing();
    EXPECT_THROW(ledger.reserve(CloudletId{0}, -1, 2, 1.0), std::invalid_argument);
    EXPECT_THROW(ledger.reserve(CloudletId{0}, 0, 6, 1.0), std::invalid_argument);
    EXPECT_THROW(ledger.reserve(CloudletId{0}, 3, 3, 1.0), std::invalid_argument);
    EXPECT_THROW(ledger.reserve(CloudletId{0}, 0, 2, -1.0), std::invalid_argument);
    EXPECT_THROW(ledger.reserve(CloudletId{7}, 0, 2, 1.0), std::invalid_argument);
    EXPECT_THROW(ledger.reserve(CloudletId{}, 0, 2, 1.0), std::invalid_argument);
}

TEST(ResourceLedger, IndependentCloudlets) {
    auto ledger = make_enforcing();
    ledger.reserve(CloudletId{0}, 0, 5, 10.0);
    // Cloudlet 1 has its own capacity (20) untouched.
    EXPECT_TRUE(ledger.reserve(CloudletId{1}, 0, 5, 20.0));
}

// Property: the ledger agrees with a trivially correct map-based reference
// under a random reserve/release workload.
class LedgerReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(LedgerReferenceTest, MatchesReferenceModel) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 31);
    const TimeSlot horizon = 12;
    const std::vector<double> caps{8.0, 14.0, 5.0};
    ResourceLedger ledger(caps, horizon, CapacityPolicy::kEnforce);
    // Reference: (cloudlet, slot) -> usage.
    std::map<std::pair<std::int64_t, TimeSlot>, double> reference;

    struct Reservation {
        CloudletId c;
        TimeSlot begin, end;
        double amount;
    };
    std::vector<Reservation> live;

    for (int op = 0; op < 400; ++op) {
        if (!live.empty() && rng.bernoulli(0.4)) {
            // Release a random live reservation.
            const auto idx = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
            const Reservation r = live[idx];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
            ledger.release(r.c, r.begin, r.end, r.amount);
            for (TimeSlot t = r.begin; t < r.end; ++t) {
                reference[{r.c.value, t}] -= r.amount;
            }
        } else {
            Reservation r;
            r.c = CloudletId{rng.uniform_int(0, 2)};
            r.begin = static_cast<TimeSlot>(rng.uniform_int(0, horizon - 2));
            r.end = static_cast<TimeSlot>(
                rng.uniform_int(r.begin + 1, std::min<TimeSlot>(horizon, r.begin + 5)));
            r.amount = rng.uniform(0.5, 4.0);
            // Reference feasibility check.
            bool fits = true;
            for (TimeSlot t = r.begin; t < r.end && fits; ++t) {
                fits = reference[{r.c.value, t}] + r.amount <= caps[r.c.index()] + 1e-9;
            }
            EXPECT_EQ(ledger.fits(r.c, r.begin, r.end, r.amount), fits);
            const bool reserved = ledger.reserve(r.c, r.begin, r.end, r.amount);
            EXPECT_EQ(reserved, fits);
            if (reserved) {
                live.push_back(r);
                for (TimeSlot t = r.begin; t < r.end; ++t) {
                    reference[{r.c.value, t}] += r.amount;
                }
            }
        }
        // Full state comparison every few operations.
        if (op % 20 == 0) {
            for (std::int64_t c = 0; c < 3; ++c) {
                for (TimeSlot t = 0; t < horizon; ++t) {
                    EXPECT_NEAR(ledger.usage(CloudletId{c}, t), (reference[{c, t}]), 1e-9);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerReferenceTest, ::testing::Range(0, 8));

TEST(ResourceLedger, CapacityAccessor) {
    const auto ledger = make_enforcing();
    EXPECT_DOUBLE_EQ(ledger.capacity(CloudletId{0}), 10.0);
    EXPECT_DOUBLE_EQ(ledger.capacity(CloudletId{1}), 20.0);
    EXPECT_THROW((void)ledger.capacity(CloudletId{9}), std::invalid_argument);
}

}  // namespace
}  // namespace vnfr::edge

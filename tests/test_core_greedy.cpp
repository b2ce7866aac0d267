#include "core/greedy.hpp"

#include <gtest/gtest.h>

#include "core/verify.hpp"
#include "helpers.hpp"

namespace vnfr::core {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::random_instance;
using vnfr::testing::small_instance;

TEST(OnsiteGreedy, PicksMostReliableCloudlet) {
    const Instance inst = small_instance({0.97, 0.999, 0.98}, 100.0, 10,
                                         {make_request(0, 0, 0.9, 0, 2, 5.0)});
    OnsiteGreedy scheduler(inst);
    const Decision d = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.placement.sites[0].cloudlet, CloudletId{1});
}

TEST(OnsiteGreedy, FallsBackWhenBestIsFull) {
    const Instance inst = small_instance({0.98, 0.999}, 3.0, 4,
                                         {make_request(0, 0, 0.9, 0, 4, 5.0),
                                          make_request(1, 0, 0.9, 0, 4, 5.0)});
    OnsiteGreedy scheduler(inst);
    const Decision first = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(first.admitted);
    EXPECT_EQ(first.placement.sites[0].cloudlet, CloudletId{1});
    // Cloudlet 1 is now nearly full (capacity 3, fw needs 2 replicas x 1 unit
    // at 0.999? depends on replica count) - the second must still be served
    // somewhere without violating capacity.
    const Decision second = scheduler.decide(inst.requests[1]);
    if (second.admitted) {
        EXPECT_DOUBLE_EQ(scheduler.ledger().max_overshoot(), 0.0);
    }
}

TEST(OnsiteGreedy, RejectsInfeasibleRequirement) {
    const Instance inst = small_instance({0.95}, 100.0, 10,
                                         {make_request(0, 0, 0.96, 0, 2, 5.0)});
    OnsiteGreedy scheduler(inst);
    EXPECT_FALSE(scheduler.decide(inst.requests[0]).admitted);
}

TEST(OnsiteGreedy, NeverViolatesCapacity) {
    common::Rng rng(53);
    for (int trial = 0; trial < 5; ++trial) {
        const Instance inst = random_instance(rng, 80, 3, 12, 8, 15);
        OnsiteGreedy scheduler(inst);
        const ScheduleResult result = run_online(inst, scheduler);
        EXPECT_DOUBLE_EQ(result.max_overshoot, 0.0);
        EXPECT_LE(result.max_load_factor, 1.0 + 1e-9);
    }
}

TEST(OnsiteGreedy, AdmittedPlacementsMeetRequirement) {
    common::Rng rng(59);
    const Instance inst = random_instance(rng, 60, 3, 12);
    OnsiteGreedy scheduler(inst);
    const ScheduleResult result = run_online(inst, scheduler);
    for (std::size_t i = 0; i < result.decisions.size(); ++i) {
        if (result.decisions[i].admitted) {
            EXPECT_GE(placement_availability(inst, inst.requests[i],
                                             result.decisions[i].placement),
                      inst.requests[i].requirement - 1e-12);
        }
    }
}

TEST(OffsiteGreedy, UsesMostReliableCloudletsFirst) {
    const Instance inst = small_instance({0.95, 0.999, 0.97}, 100.0, 10,
                                         {make_request(0, 0, 0.9, 0, 2, 5.0)});
    OffsiteGreedy scheduler(inst);
    const Decision d = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.placement.sites[0].cloudlet, CloudletId{1});
}

TEST(OffsiteGreedy, AddsSitesUntilRequirementMet) {
    // vnf 1 (lb) has r_f = 0.90. One site: 0.9*0.96 = 0.864 < 0.9;
    // two sites: 1 - (1-0.864)^2 ~ 0.9815 >= 0.9.
    const Instance inst = small_instance({0.96, 0.96, 0.96}, 100.0, 10,
                                         {make_request(0, 1, 0.9, 0, 2, 5.0)});
    OffsiteGreedy scheduler(inst);
    const Decision d = scheduler.decide(inst.requests[0]);
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.placement.sites.size(), 2u);
}

TEST(OffsiteGreedy, RejectsWhenAllSitesCannotMeet) {
    const Instance inst = small_instance({0.91, 0.91}, 100.0, 10,
                                         {make_request(0, 1, 0.995, 0, 2, 5.0)});
    OffsiteGreedy scheduler(inst);
    EXPECT_FALSE(scheduler.decide(inst.requests[0]).admitted);
}

TEST(OffsiteGreedy, NeverViolatesCapacity) {
    common::Rng rng(61);
    for (int trial = 0; trial < 5; ++trial) {
        const Instance inst = random_instance(rng, 80, 4, 12, 8, 15);
        OffsiteGreedy scheduler(inst);
        const ScheduleResult result = run_online(inst, scheduler);
        EXPECT_DOUBLE_EQ(result.max_overshoot, 0.0);
    }
}

TEST(OffsiteGreedy, HotspotPathology) {
    // The failure mode called out in Section VI: greedy piles everything on
    // the most reliable cloudlets, so its most-reliable cloudlet saturates
    // at least as much as under the price-aware Algorithm 2.
    std::vector<workload::Request> requests;
    for (int i = 0; i < 50; ++i) requests.push_back(make_request(i, 0, 0.9, 0, 2, 3.0));
    const Instance inst = small_instance({0.999, 0.98, 0.97}, 30.0, 2, std::move(requests));

    OffsiteGreedy greedy(inst);
    run_online(inst, greedy);
    // Cloudlet 0 (most reliable) must be saturated by the greedy policy.
    EXPECT_GE(greedy.ledger().usage(CloudletId{0}, 0), 29.0);
}

TEST(Greedy, Names) {
    const Instance inst = small_instance({0.99}, 10.0, 5, {});
    EXPECT_EQ(OnsiteGreedy(inst).name(), "onsite-greedy");
    EXPECT_EQ(OffsiteGreedy(inst).name(), "offsite-greedy");
}

}  // namespace
}  // namespace vnfr::core

// Property fuzzing of the two primal-dual schedulers over randomized
// instances (counter-based stream seeds, so every case replays exactly):
//
//   Off-site (Algorithm 2, Theorem 2): capacity constraint (9) holds by
//   construction — zero ledger overshoot, usage <= cap_j in every slot —
//   and each admitted placement is one replica per distinct cloudlet whose
//   reliabilities satisfy Eq. (10) for the request's requirement.
//
//   On-site (Algorithm 1, capacity-checked): admission implies a single
//   site with r(c_j) > R_i and a replica count that matches Eq. (3)
//   exactly, i.e. vnf::min_onsite_replicas.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "core/schedule.hpp"
#include "core/verify.hpp"
#include "helpers.hpp"
#include "vnf/reliability.hpp"

namespace vnfr {
namespace {

constexpr std::uint64_t kPropertyMaster = 0x9209;

core::Instance property_instance(std::uint64_t stream) {
    common::Rng rng = common::stream_rng(kPropertyMaster, stream);
    // Vary the shape with the stream so the sweep covers tight and loose
    // capacity regimes, few and many cloudlets.
    const std::size_t cloudlets = 2 + static_cast<std::size_t>(stream % 7);
    const std::size_t requests = 40 + 20 * static_cast<std::size_t>(stream % 5);
    const TimeSlot horizon = 8 + static_cast<TimeSlot>(stream % 9);
    const double cap_lo = 5.0 + static_cast<double>(stream % 4) * 5.0;
    return vnfr::testing::random_instance(rng, requests, cloudlets, horizon, cap_lo,
                                          cap_lo + 15.0);
}

class SchedulerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerPropertyTest, OffsiteNeverViolatesCapacityByConstruction) {
    const core::Instance inst = property_instance(GetParam());
    core::OffsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);

    // Theorem 2: Algorithm 2 enforces constraint (9) at admission time.
    EXPECT_EQ(result.max_overshoot, 0.0);  // vnfr-lint: allow(float-eq) exact invariant
    const edge::ResourceLedger& ledger = scheduler.ledger();
    EXPECT_EQ(ledger.policy(), edge::CapacityPolicy::kEnforce);
    for (std::size_t j = 0; j < ledger.cloudlet_count(); ++j) {
        const CloudletId c{static_cast<std::int64_t>(j)};
        EXPECT_EQ(ledger.peak_overshoot(c), 0.0);  // vnfr-lint: allow(float-eq)
        for (TimeSlot t = 0; t < ledger.horizon(); ++t) {
            EXPECT_LE(ledger.usage(c, t), ledger.capacity(c));
        }
    }
}

TEST_P(SchedulerPropertyTest, OffsiteAdmissionMeetsEq10WithDistinctSingletonSites) {
    const core::Instance inst = property_instance(GetParam());
    core::OffsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);

    ASSERT_EQ(result.decisions.size(), inst.requests.size());
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < result.decisions.size(); ++i) {
        const core::Decision& d = result.decisions[i];
        if (!d.admitted) continue;
        ++admitted;
        const workload::Request& req = inst.requests[i];
        ASSERT_FALSE(d.placement.sites.empty()) << "request " << i;

        std::vector<CloudletId> used;
        for (const core::Site& s : d.placement.sites) {
            // Off-site scheme: exactly one instance per selected cloudlet.
            EXPECT_EQ(s.replicas, 1) << "request " << i;
            used.push_back(s.cloudlet);
        }
        std::sort(used.begin(), used.end());
        EXPECT_EQ(std::adjacent_find(used.begin(), used.end()), used.end())
            << "request " << i << " reuses a cloudlet";

        // Eq. (10): 1 - prod_j (1 - r(f_i) r(c_j)) >= R_i.
        EXPECT_GE(core::placement_availability(inst, req, d.placement), req.requirement)
            << "request " << i;
    }
    EXPECT_EQ(admitted, result.admitted);
}

TEST_P(SchedulerPropertyTest, OnsiteAdmissionImpliesFeasibleCloudletAndEq3Replicas) {
    const core::Instance inst = property_instance(GetParam());
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);

    ASSERT_EQ(result.decisions.size(), inst.requests.size());
    for (std::size_t i = 0; i < result.decisions.size(); ++i) {
        const core::Decision& d = result.decisions[i];
        if (!d.admitted) continue;
        const workload::Request& req = inst.requests[i];
        // On-site scheme: all N_ij instances in one cloudlet.
        ASSERT_EQ(d.placement.sites.size(), 1u) << "request " << i;
        const core::Site& site = d.placement.sites.front();
        const double cloudlet_rel = inst.network.cloudlet(site.cloudlet).reliability;

        // Feasibility precondition of Eq. (3): r(c_j) > R_i.
        EXPECT_GT(cloudlet_rel, req.requirement) << "request " << i;

        const std::optional<int> want = vnf::min_onsite_replicas(
            cloudlet_rel, inst.catalog.reliability(req.vnf), req.requirement);
        ASSERT_TRUE(want.has_value()) << "request " << i;
        EXPECT_EQ(site.replicas, *want) << "request " << i;

        // And the resulting availability indeed clears the requirement.
        EXPECT_GE(vnf::onsite_availability(cloudlet_rel,
                                           inst.catalog.reliability(req.vnf),
                                           site.replicas),
                  req.requirement)
            << "request " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Streams, SchedulerPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace vnfr

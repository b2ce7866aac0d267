// Monte Carlo check of the analytic availability: a Markov up/down replay
// converges to core::placement_availability.
#include <gtest/gtest.h>

#include "core/verify.hpp"
#include "helpers.hpp"
#include "sim/recovery_engine.hpp"
#include "sim/recovery_faults.hpp"

namespace vnfr::sim {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::small_instance;

class MonteCarloConvergence : public ::testing::TestWithParam<int> {};

TEST_P(MonteCarloConvergence, MatchesAnalyticWithinTolerance) {
    // A Markov up/down replay under kNone delivers the Eq. 2 / Eq. 10
    // availability: one request spanning the horizon, random placement
    // shape per seed, replayed at two repair times.
    common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
    constexpr TimeSlot kHorizon = 200000;
    const auto inst = small_instance({0.97, 0.95, 0.93}, 10.0, kHorizon,
                                     {make_request(0, 1, 0.9, 0, kHorizon, 5.0)});
    core::Placement p{RequestId{0}, {}};
    const int sites = static_cast<int>(rng.uniform_int(1, 3));
    for (int s = 0; s < sites; ++s) {
        p.sites.push_back(core::Site{CloudletId{s}, static_cast<int>(rng.uniform_int(1, 3))});
    }
    core::Decision admitted;
    admitted.admitted = true;
    admitted.placement = p;
    const std::vector<core::Decision> decisions = {admitted};
    const double analytic = core::placement_availability(inst, inst.requests[0], p);
    for (const double mttr : {1.0, 4.0}) {
        const FaultSchedule schedule = generate_markov_schedule(
            inst, decisions, {.cloudlet_mttr_slots = mttr, .instance_mttr_slots = mttr},
            rng());
        const double empirical = run_recovery_study(inst, decisions, schedule).availability();
        // 200k correlated slots: the 99.9% band of the worst shape (one
        // replica on one cloudlet) is about 0.0025 at MTTR 1 and 0.0068 at
        // MTTR 4.
        EXPECT_NEAR(empirical, analytic, 0.01) << "mttr=" << mttr;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonteCarloConvergence, ::testing::Range(0, 6));

}  // namespace
}  // namespace vnfr::sim

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/instance.hpp"
#include "sim/scenarios.hpp"
#include "vnf/catalog.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::vnf {
namespace {

TEST(Catalog, AddAndGet) {
    Catalog cat;
    const VnfTypeId id = cat.add("firewall", 2.0, 0.95);
    EXPECT_EQ(cat.size(), 1u);
    const VnfType& t = cat.get(id);
    EXPECT_EQ(t.name, "firewall");
    EXPECT_DOUBLE_EQ(t.compute_units, 2.0);
    EXPECT_DOUBLE_EQ(t.reliability, 0.95);
    EXPECT_DOUBLE_EQ(cat.compute_units(id), 2.0);
    EXPECT_DOUBLE_EQ(cat.reliability(id), 0.95);
}

TEST(Catalog, RejectsBadEntries) {
    Catalog cat;
    EXPECT_THROW(cat.add("x", 0.0, 0.9), std::invalid_argument);
    EXPECT_THROW(cat.add("x", -1.0, 0.9), std::invalid_argument);
    EXPECT_THROW(cat.add("x", 1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(cat.add("x", 1.0, 1.0), std::invalid_argument);
}

TEST(Catalog, GetUnknownThrows) {
    Catalog cat;
    cat.add("a", 1.0, 0.9);
    EXPECT_THROW((void)cat.get(VnfTypeId{5}), std::out_of_range);
    EXPECT_THROW((void)cat.get(VnfTypeId{}), std::out_of_range);
}

TEST(Catalog, PaperDefaultMatchesSectionVI) {
    common::Rng rng(1);
    const Catalog cat = Catalog::paper_default(rng);
    EXPECT_EQ(cat.size(), 10u);  // "10 types of VNFs"
    for (const VnfType& t : cat.types()) {
        EXPECT_GE(t.reliability, 0.9);
        EXPECT_LE(t.reliability, 0.9999);
        EXPECT_GE(t.compute_units, 1.0);
        EXPECT_LE(t.compute_units, 3.0);
    }
}

TEST(Catalog, PaperDefaultDeterministic) {
    common::Rng a(9);
    common::Rng b(9);
    const Catalog c1 = Catalog::paper_default(a);
    const Catalog c2 = Catalog::paper_default(b);
    for (std::size_t i = 0; i < c1.size(); ++i) {
        const VnfTypeId id{static_cast<std::int64_t>(i)};
        EXPECT_DOUBLE_EQ(c1.reliability(id), c2.reliability(id));
        EXPECT_DOUBLE_EQ(c1.compute_units(id), c2.compute_units(id));
    }
}

// ---- On-site replica math (Eqs. 2 and 3) ----

TEST(OnsiteAvailability, MatchesEquation2) {
    // P = r_c * (1 - (1 - r_f)^N)
    EXPECT_NEAR(onsite_availability(0.99, 0.9, 2), 0.99 * (1.0 - 0.01), 1e-12);
    EXPECT_NEAR(onsite_availability(0.95, 0.5, 3), 0.95 * (1.0 - 0.125), 1e-12);
}

TEST(OnsiteAvailability, ZeroReplicasIsZero) {
    EXPECT_DOUBLE_EQ(onsite_availability(0.99, 0.9, 0), 0.0);
}

TEST(OnsiteAvailability, CappedByCloudletReliability) {
    // Strictly below r(c) at small replica counts; approaches it (equals in
    // double precision) as N grows.
    EXPECT_LT(onsite_availability(0.97, 0.9, 3), 0.97);
    EXPECT_LE(onsite_availability(0.97, 0.9, 50), 0.97);
}

TEST(OnsiteAvailability, RejectsBadInput) {
    EXPECT_THROW(onsite_availability(1.0, 0.9, 1), std::invalid_argument);
    EXPECT_THROW(onsite_availability(0.9, 0.0, 1), std::invalid_argument);
    EXPECT_THROW(onsite_availability(0.9, 0.9, -1), std::invalid_argument);
}

TEST(MinOnsiteReplicas, InfeasibleWhenCloudletTooUnreliable) {
    // r(c_j) <= R_i: no replica count can help (Eq. 3 precondition).
    EXPECT_FALSE(min_onsite_replicas(0.95, 0.99, 0.95).has_value());
    EXPECT_FALSE(min_onsite_replicas(0.90, 0.99, 0.95).has_value());
}

TEST(MinOnsiteReplicas, SingleReplicaWhenVnfStrongEnough) {
    // r_c * r_f = 0.999 * 0.99 = 0.98901 >= 0.95.
    const auto n = min_onsite_replicas(0.999, 0.99, 0.95);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 1);
}

TEST(MinOnsiteReplicas, KnownHandComputedCase) {
    // r_c = 0.99, r_f = 0.9, R = 0.95: need (1-0.9)^N <= 1 - 0.95/0.99
    // = 0.040404 -> N = 2 (0.1^2 = 0.01 <= 0.0404, 0.1^1 = 0.1 > 0.0404).
    const auto n = min_onsite_replicas(0.99, 0.9, 0.95);
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 2);
}

TEST(MinOnsiteReplicas, BoundaryAtFeasibilityMargin) {
    // r(c_j) = R_i ± 1e-12 both sit inside kOnsiteFeasibilityMargin: the
    // Eq. 3 log argument 1 - R/r_c collapses toward 0 and the closed form
    // diverges, so both sides of the knife edge are a defined nullopt
    // instead of a huge (or UB-cast) N_ij.
    const double requirement = 0.95;
    EXPECT_FALSE(min_onsite_replicas(requirement + 1e-12, 0.99, requirement).has_value());
    EXPECT_FALSE(min_onsite_replicas(requirement - 1e-12, 0.99, requirement).has_value());
    // Exactly at the margin is still rejected; just above it is feasible.
    EXPECT_FALSE(
        min_onsite_replicas(requirement + kOnsiteFeasibilityMargin, 0.99, requirement)
            .has_value());
    const auto n = min_onsite_replicas(requirement + 1e-6, 0.99, requirement);
    ASSERT_TRUE(n.has_value());
    EXPECT_GE(onsite_availability(requirement + 1e-6, 0.99, *n), requirement);
}

TEST(MinOnsiteReplicas, RejectsCountsBeyondReplicaCeiling) {
    // A nearly-unreliable VNF (r_f = 1e-9) needs ~2e10 replicas to close a
    // 1e-5 feasibility gap — far past kMaxOnsiteReplicas, so the outcome
    // is a defined nullopt, never an overflowed int.
    EXPECT_FALSE(min_onsite_replicas(0.95 + 1e-5, 1e-9, 0.95).has_value());
    // A feasible case near (but under) the ceiling still resolves.
    const auto n = min_onsite_replicas(0.999, 0.5, 0.99);
    ASSERT_TRUE(n.has_value());
    EXPECT_LE(*n, kMaxOnsiteReplicas);
}

// Property sweep: the returned count achieves R and is minimal.
class ReplicaPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(ReplicaPropertyTest, ExactMinimum) {
    const auto [rc, rf, req] = GetParam();
    const auto n = min_onsite_replicas(rc, rf, req);
    if (rc <= req) {
        EXPECT_FALSE(n.has_value());
        return;
    }
    ASSERT_TRUE(n.has_value());
    EXPECT_GE(*n, 1);
    EXPECT_GE(onsite_availability(rc, rf, *n), req);
    if (*n > 1) {
        EXPECT_LT(onsite_availability(rc, rf, *n - 1), req);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReplicaPropertyTest,
    ::testing::Combine(::testing::Values(0.91, 0.95, 0.99, 0.999, 0.9999),
                       ::testing::Values(0.5, 0.9, 0.99, 0.9999),
                       ::testing::Values(0.90, 0.95, 0.99, 0.998)));

TEST(MinOnsiteReplicas, MonotoneInRequirement) {
    int prev = 0;
    for (const double req : {0.5, 0.7, 0.9, 0.95, 0.98}) {
        const auto n = min_onsite_replicas(0.99, 0.8, req);
        ASSERT_TRUE(n.has_value());
        EXPECT_GE(*n, prev);
        prev = *n;
    }
}

TEST(MinOnsiteReplicas, MonotoneDecreasingInVnfReliability) {
    int prev = 1000;
    for (const double rf : {0.5, 0.7, 0.9, 0.99}) {
        const auto n = min_onsite_replicas(0.999, rf, 0.99);
        ASSERT_TRUE(n.has_value());
        EXPECT_LE(*n, prev);
        prev = *n;
    }
}

// ---- Off-site per-site term (Eq. 10) ----

TEST(OffsiteLogFailure, AlwaysNegative) {
    EXPECT_LT(offsite_log_failure(0.9, 0.99), 0.0);
    EXPECT_LT(offsite_log_failure(0.9999, 0.9999), 0.0);
}

TEST(OffsiteLogFailure, MatchesDirectLog) {
    EXPECT_NEAR(offsite_log_failure(0.9, 0.95), std::log(1.0 - 0.9 * 0.95), 1e-12);
}

// ---- Tabulated constants: ReplicaRow, onsite_replicas, OffsiteLogTable ----

std::string triple(double rc, double rf, double req) {
    std::ostringstream out;
    out.precision(17);
    out << "r_c=" << rc << " r_f=" << rf << " R=" << req;
    return out.str();
}

/// The kernel must return exactly the reference's std::optional<int>.
void expect_kernel_matches(double rc, double rf, double req) {
    const ReplicaRow row(rf);
    EXPECT_EQ(onsite_replicas(row, rc, req), min_onsite_replicas(rc, rf, req))
        << triple(rc, rf, req);
}

TEST(ReplicaRow, TabulatesTheReferenceExpressionsUntilSaturation) {
    for (const double rf : {0.9, 0.93, 0.97, 0.99, 0.999, 0.9999}) {
        const ReplicaRow row(rf);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(row.log1m()),
                  std::bit_cast<std::uint64_t>(common::log1m(rf)));
        // The paper's r(f_i) saturate at exactly 1.0 within 17 entries.
        ASSERT_GE(row.size(), 1u);
        EXPECT_LE(row.size(), 17u) << "r_f=" << rf;
        EXPECT_EQ(row.at_least_one(static_cast<int>(row.size())), 1.0);
        for (int n = 0; n <= static_cast<int>(row.size()) + 5; ++n) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(row.at_least_one(n)),
                      std::bit_cast<std::uint64_t>(common::at_least_one(rf, n)))
                << "r_f=" << rf << " n=" << n;
        }
    }
    // A weak VNF hits the cap and reads the expression past it.
    const ReplicaRow weak(0.01);
    EXPECT_EQ(weak.size(), static_cast<std::size_t>(kReplicaRowCap));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(weak.at_least_one(500)),
              std::bit_cast<std::uint64_t>(common::at_least_one(0.01, 500)));
}

TEST(ReplicaRow, ValidatesTheVnfReliabilityOnce) {
    EXPECT_THROW(ReplicaRow(0.0), std::invalid_argument);
    EXPECT_THROW(ReplicaRow(1.0), std::invalid_argument);
    EXPECT_THROW(ReplicaRow(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
    const ReplicaRow row(0.9);
    // The kernel still checks its per-call inputs.
    EXPECT_THROW((void)onsite_replicas(row, 1.0, 0.9), std::invalid_argument);
    EXPECT_THROW((void)onsite_replicas(row, 0.99, 0.0), std::invalid_argument);
    EXPECT_THROW((void)onsite_replicas(row, 0.99, std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
}

TEST(ReplicaRow, CatalogBuildsOneRowPerType) {
    Catalog cat;
    const VnfTypeId a = cat.add("a", 1.0, 0.9);
    const VnfTypeId b = cat.add("b", 2.0, 0.999);
    EXPECT_EQ(cat.replica_row(a).vnf_rel(), 0.9);
    EXPECT_EQ(cat.replica_row(b).vnf_rel(), 0.999);
    EXPECT_THROW((void)cat.replica_row(VnfTypeId{2}), std::out_of_range);
    EXPECT_THROW((void)cat.replica_row(VnfTypeId{}), std::out_of_range);
}

TEST(OnsiteReplicasKernel, EqualsReferenceOnPaperAndGoldenInstances) {
    // Every (request, cloudlet) pair of the paper and golden environments,
    // n in {200, 800, 2000}, seeds 1-20; plus every pair-table entry
    // against offsite_log_failure, bit for bit.
    std::size_t pairs = 0;
    std::size_t feasible = 0;
    std::size_t mismatches = 0;
    std::size_t table_entries = 0;
    for (const bool paper : {true, false}) {
        for (const std::size_t n : {std::size_t{200}, std::size_t{800}, std::size_t{2000}}) {
            const core::InstanceConfig config =
                paper ? sim::paper_environment(n) : sim::golden_environment(n);
            for (std::uint64_t seed = 1; seed <= 20; ++seed) {
                common::Rng rng(seed);
                const core::Instance inst = core::make_instance(config, rng);
                for (const workload::Request& r : inst.requests) {
                    const ReplicaRow& row = inst.catalog.replica_row(r.vnf);
                    for (const edge::Cloudlet& c : inst.network.cloudlets()) {
                        const std::optional<int> kernel =
                            onsite_replicas(row, c.reliability, r.requirement);
                        const std::optional<int> reference = min_onsite_replicas(
                            c.reliability, inst.catalog.reliability(r.vnf), r.requirement);
                        ++pairs;
                        if (reference) ++feasible;
                        if (kernel != reference && mismatches++ == 0) {
                            ADD_FAILURE() << triple(c.reliability,
                                                    inst.catalog.reliability(r.vnf),
                                                    r.requirement);
                        }
                    }
                }
                const OffsiteLogTable table(inst.catalog, inst.network.reliabilities());
                ASSERT_EQ(table.cloudlet_count(), inst.network.cloudlet_count());
                for (const VnfType& type : inst.catalog.types()) {
                    const std::span<const double> logs = table.row(type.id);
                    ASSERT_EQ(logs.size(), inst.network.cloudlet_count());
                    for (const edge::Cloudlet& c : inst.network.cloudlets()) {
                        ++table_entries;
                        EXPECT_EQ(std::bit_cast<std::uint64_t>(logs[c.id.index()]),
                                  std::bit_cast<std::uint64_t>(
                                      offsite_log_failure(type.reliability, c.reliability)));
                    }
                }
            }
        }
    }
    // 20 seeds x 3,000 requests x (8 + 4) cloudlets.
    EXPECT_EQ(pairs, 720'000u);
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(feasible, pairs / 2);
    EXPECT_GT(table_entries, 0u);
}

TEST(OnsiteReplicasKernel, EqualsReferenceOnRandomTriples) {
    common::Rng rng(2106);
    for (int trial = 0; trial < 200'000; ++trial) {
        const double rc = rng.uniform(0.3, 0.99999);
        // Half uniform, half clustered near 1 (down to 1 - 1e-12).
        const double rf = trial % 2 == 0 ? rng.uniform(0.001, 0.999)
                                         : 1.0 - std::pow(10.0, -rng.uniform(1.0, 12.0));
        const double req = trial % 3 == 0 ? rc * rng.uniform(0.999, 1.0)
                                          : rng.uniform(0.05, 0.99999);
        expect_kernel_matches(rc, rf, req);
    }
}

TEST(OnsiteReplicasKernel, EqualsReferenceAtBoundaries) {
    const double inf = std::numeric_limits<double>::infinity();
    for (const double req : {0.5, 0.9, 0.95, 0.99, 0.999}) {
        const double edge = req + kOnsiteFeasibilityMargin;
        std::vector<double> rcs = {req - 1e-12, req + 1e-12, std::nextafter(edge, 0.0),
                                   edge, std::nextafter(edge, inf), 0.9999};
        for (const double rf : {0.01, 0.3, 0.9, 0.99, 0.9999, 1.0 - 1e-12}) {
            // Cloudlets where the closed form lands on an integer k, where
            // the nudge loops decide: 1 - R/r_c = (1 - r_f)^k.
            for (int k = 1; k <= 20; ++k) {
                const double rc = req / (1.0 - std::pow(1.0 - rf, k));
                if (!(rc < 1.0)) continue;
                for (const double x : {std::nextafter(rc, 0.0), rc, std::nextafter(rc, inf)}) {
                    if (x < 1.0) expect_kernel_matches(x, rf, req);
                }
            }
            for (const double rc : rcs) {
                if (rc > 0.0 && rc < 1.0) expect_kernel_matches(rc, rf, req);
            }
        }
    }
    // Small r(f_i): N passes the row cap, so the kernel's fallback runs.
    for (const double rf : {0.01, 0.3}) {
        const std::optional<int> n = min_onsite_replicas(0.9999, rf, 0.999);
        ASSERT_TRUE(n.has_value());
        if (rf < 0.1) {
            EXPECT_GT(*n, kReplicaRowCap);
        }
        expect_kernel_matches(0.9999, rf, 0.999);
    }
    // n_real on either side of kMaxOnsiteReplicas: r_f* puts the closed
    // form at exactly the ceiling for r_c = 0.9, R = 0.5.
    const double rf_star = -std::expm1(std::log(1.0 - 0.5 / 0.9) / kMaxOnsiteReplicas);
    int feasible = 0;
    int rejected = 0;
    for (int step = -3; step <= 3; ++step) {
        for (const double rf :
             {rf_star * (1.0 + step * 1e-7), std::nextafter(rf_star * (1.0 + step * 1e-7), 1.0)}) {
            expect_kernel_matches(0.9, rf, 0.5);
            (min_onsite_replicas(0.9, rf, 0.5) ? feasible : rejected) += 1;
        }
    }
    EXPECT_GT(feasible, 0);
    EXPECT_GT(rejected, 0);
}

TEST(OffsiteLogTable, RejectsUnknownTypesAndBadReliabilities) {
    Catalog cat;
    const VnfTypeId a = cat.add("a", 1.0, 0.9);
    const std::vector<double> rels{0.95, 0.99};
    const OffsiteLogTable table(cat, rels);
    EXPECT_EQ(table.row(a).size(), 2u);
    EXPECT_THROW((void)table.row(VnfTypeId{1}), std::out_of_range);
    EXPECT_THROW((void)table.row(VnfTypeId{}), std::out_of_range);
    const std::vector<double> bad{0.95, 1.0};
    EXPECT_THROW(OffsiteLogTable(cat, bad), std::invalid_argument);
}

}  // namespace
}  // namespace vnfr::vnf

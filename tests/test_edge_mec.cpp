#include "edge/mec_network.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "net/generators.hpp"
#include "net/topology_zoo.hpp"

namespace vnfr::edge {
namespace {

TEST(MecNetwork, AddCloudletBasics) {
    MecNetwork mec(net::ring(4));
    const CloudletId id = mec.add_cloudlet(NodeId{1}, 100.0, 0.99);
    EXPECT_EQ(mec.cloudlet_count(), 1u);
    const Cloudlet& c = mec.cloudlet(id);
    EXPECT_EQ(c.node, NodeId{1});
    EXPECT_DOUBLE_EQ(c.capacity, 100.0);
    EXPECT_DOUBLE_EQ(c.reliability, 0.99);
}

TEST(MecNetwork, RejectsInvalidCloudlets) {
    MecNetwork mec(net::ring(4));
    EXPECT_THROW(mec.add_cloudlet(NodeId{9}, 10.0, 0.9), std::invalid_argument);
    EXPECT_THROW(mec.add_cloudlet(NodeId{0}, 0.0, 0.9), std::invalid_argument);
    EXPECT_THROW(mec.add_cloudlet(NodeId{0}, 10.0, 1.0), std::invalid_argument);
    mec.add_cloudlet(NodeId{0}, 10.0, 0.9);
    EXPECT_THROW(mec.add_cloudlet(NodeId{0}, 10.0, 0.9), std::invalid_argument);
}

TEST(MecNetwork, AttachRandomCloudlets) {
    common::Rng rng(5);
    MecNetwork mec(net::load_topology("geant"));
    CloudletAttachment spec;
    spec.count = 8;
    spec.capacity_min = 50;
    spec.capacity_max = 60;
    spec.reliability_min = 0.95;
    spec.reliability_max = 0.99;
    mec.attach_random_cloudlets(spec, rng);
    EXPECT_EQ(mec.cloudlet_count(), 8u);
    std::set<std::int64_t> nodes;
    for (const Cloudlet& c : mec.cloudlets()) {
        nodes.insert(c.node.value);
        EXPECT_GE(c.capacity, 50.0);
        EXPECT_LE(c.capacity, 60.0);
        EXPECT_GE(c.reliability, 0.95);
        EXPECT_LE(c.reliability, 0.99);
    }
    EXPECT_EQ(nodes.size(), 8u) << "cloudlets must sit on distinct APs";
}

TEST(MecNetwork, AttachRejectsTooMany) {
    common::Rng rng(5);
    MecNetwork mec(net::ring(4));
    CloudletAttachment spec;
    spec.count = 5;
    EXPECT_THROW(mec.attach_random_cloudlets(spec, rng), std::invalid_argument);
}

TEST(MecNetwork, AttachRejectsBadRanges) {
    common::Rng rng(5);
    MecNetwork mec(net::ring(8));
    CloudletAttachment spec;
    spec.count = 2;
    spec.capacity_min = 10;
    spec.capacity_max = 5;
    EXPECT_THROW(mec.attach_random_cloudlets(spec, rng), std::invalid_argument);
    spec.capacity_max = 20;
    spec.reliability_min = 0.99;
    spec.reliability_max = 0.95;
    EXPECT_THROW(mec.attach_random_cloudlets(spec, rng), std::invalid_argument);
}

/// Expects the range validator's own error (naming `range`), not a later
/// per-cloudlet check tripping over a value drawn from a bad range.
void expect_range_rejected(const CloudletAttachment& spec, const char* range) {
    common::Rng rng(5);
    MecNetwork mec(net::ring(8));
    try {
        mec.attach_random_cloudlets(spec, rng);
        ADD_FAILURE() << "attach_random_cloudlets accepted a bad " << range;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(range), std::string::npos) << e.what();
    }
    EXPECT_EQ(mec.cloudlet_count(), 0u);
}

TEST(MecNetwork, AttachRejectsNanCapacityRange) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    CloudletAttachment spec;
    spec.count = 2;
    spec.capacity_min = nan;
    expect_range_rejected(spec, "capacity range");
    spec.capacity_min = 10;
    spec.capacity_max = nan;
    expect_range_rejected(spec, "capacity range");
}

TEST(MecNetwork, AttachRejectsNanReliabilityRange) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    CloudletAttachment spec;
    spec.count = 2;
    spec.reliability_min = nan;
    expect_range_rejected(spec, "reliability range");
    spec.reliability_min = 0.95;
    spec.reliability_max = nan;
    expect_range_rejected(spec, "reliability range");
}

TEST(MecNetwork, CapacityAndReliabilityVectors) {
    MecNetwork mec(net::ring(4));
    mec.add_cloudlet(NodeId{0}, 10.0, 0.9);
    mec.add_cloudlet(NodeId{2}, 20.0, 0.95);
    const auto caps = mec.capacities();
    const auto rels = mec.reliabilities();
    ASSERT_EQ(caps.size(), 2u);
    EXPECT_DOUBLE_EQ(caps[0], 10.0);
    EXPECT_DOUBLE_EQ(caps[1], 20.0);
    EXPECT_DOUBLE_EQ(rels[0], 0.9);
    EXPECT_DOUBLE_EQ(rels[1], 0.95);
}

TEST(MecNetwork, HopDistanceOnRing) {
    MecNetwork mec(net::ring(6));
    const CloudletId a = mec.add_cloudlet(NodeId{0}, 10.0, 0.9);
    const CloudletId b = mec.add_cloudlet(NodeId{3}, 10.0, 0.9);
    const CloudletId c = mec.add_cloudlet(NodeId{1}, 10.0, 0.9);
    EXPECT_EQ(mec.hop_distance(a, b), 3);
    EXPECT_EQ(mec.hop_distance(a, c), 1);
    EXPECT_EQ(mec.hop_distance(a, a), 0);
    EXPECT_EQ(mec.hop_distance(b, a), 3);
}

TEST(MecNetwork, CloudletLookupValidation) {
    MecNetwork mec(net::ring(4));
    mec.add_cloudlet(NodeId{0}, 10.0, 0.9);
    EXPECT_THROW((void)mec.cloudlet(CloudletId{5}), std::out_of_range);
}

}  // namespace
}  // namespace vnfr::edge

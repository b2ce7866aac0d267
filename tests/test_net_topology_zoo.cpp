#include "net/topology_zoo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/digest.hpp"
#include "net/shortest_path.hpp"

namespace vnfr::net {
namespace {

/// True when no pair of nodes is unreachable (no -1 hop count).
bool connected(const Graph& g) {
    for (const auto& row : all_pairs_hops(g)) {
        if (std::find(row.begin(), row.end(), -1) != row.end()) return false;
    }
    return true;
}

std::size_t degree(const Graph& g, std::size_t v) {
    return g.neighbors(NodeId{static_cast<std::int64_t>(v)}).size();
}

TEST(TopologyZoo, ListsAllNames) {
    const auto names = topology_names();
    ASSERT_EQ(names.size(), 6u);
    for (const auto& name : names) {
        EXPECT_NO_THROW(load_topology(name)) << name;
    }
}

TEST(TopologyZoo, UnknownNameThrows) {
    EXPECT_THROW(load_topology("does-not-exist"), std::invalid_argument);
}

TEST(TopologyZoo, AbileneShape) {
    const Graph g = load_topology("abilene");
    EXPECT_EQ(g.node_count(), 11u);
    EXPECT_EQ(g.edge_count(), 14u);
    EXPECT_TRUE(connected(g));
}

TEST(TopologyZoo, NsfnetShape) {
    const Graph g = load_topology("nsfnet");
    EXPECT_EQ(g.node_count(), 14u);
    EXPECT_EQ(g.edge_count(), 21u);
    EXPECT_TRUE(connected(g));
}

TEST(TopologyZoo, GeantShape) {
    const Graph g = load_topology("geant");
    EXPECT_EQ(g.node_count(), 23u);
    EXPECT_EQ(g.edge_count(), 37u);
    EXPECT_TRUE(connected(g));
}

TEST(TopologyZoo, AttShape) {
    const Graph g = load_topology("att");
    EXPECT_EQ(g.node_count(), 25u);
    EXPECT_EQ(g.edge_count(), 37u);
    EXPECT_TRUE(connected(g));
}

TEST(TopologyZoo, Internet2Shape) {
    const Graph g = load_topology("internet2");
    EXPECT_EQ(g.node_count(), 34u);
    EXPECT_EQ(g.edge_count(), 43u);
    EXPECT_TRUE(connected(g));
}

TEST(TopologyZoo, Cost266Shape) {
    const Graph g = load_topology("cost266");
    EXPECT_EQ(g.node_count(), 36u);
    EXPECT_EQ(g.edge_count(), 60u);
    EXPECT_TRUE(connected(g));
    // The COST 266 reference network is 2-connected by design: every node
    // has degree >= 2.
    for (std::size_t v = 0; v < g.node_count(); ++v) {
        EXPECT_GE(degree(g, v), 2u);
    }
}

// The all-pairs hop matrix is all the model reads of a topology
// (MecNetwork's hop cache), so it is pinned whole: an FNV-1a digest over
// the row-major entries, plus the entry sum and the diameter so a mismatch
// says roughly how far the graph moved.
struct HopPin {
    const char* name;
    std::int64_t hop_sum;
    int diameter;
    std::uint64_t digest;
};

TEST(TopologyZoo, HopMatricesPinned) {
    const HopPin pins[] = {
        {"abilene", 266, 5, 0x24ac308575c8c005ULL},
        {"nsfnet", 392, 4, 0x1053ee31bc258085ULL},
        {"geant", 1388, 6, 0x9b8ff97cb10e0dc5ULL},
        {"att", 1956, 7, 0x64185e12316bd345ULL},
        {"internet2", 4902, 10, 0x7dc5d48e6d384d05ULL},
        {"cost266", 4440, 7, 0x536a047b62563365ULL},
    };
    for (const HopPin& pin : pins) {
        common::Fnv1a digest;
        std::int64_t sum = 0;
        int diameter = 0;
        for (const auto& row : all_pairs_hops(load_topology(pin.name))) {
            for (const int h : row) {
                digest.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(h)));
                sum += h;
                diameter = std::max(diameter, h);
            }
        }
        EXPECT_EQ(sum, pin.hop_sum) << pin.name;
        EXPECT_EQ(diameter, pin.diameter) << pin.name;
        EXPECT_EQ(digest.value(), pin.digest) << pin.name;
    }
}

class ZooTopologyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooTopologyTest, NoIsolatedNodes) {
    const Graph g = load_topology(GetParam());
    for (std::size_t v = 0; v < g.node_count(); ++v) {
        EXPECT_GE(degree(g, v), 1u);
    }
}

TEST_P(ZooTopologyTest, LoadIsDeterministic) {
    const Graph a = load_topology(GetParam());
    const Graph b = load_topology(GetParam());
    ASSERT_EQ(a.node_count(), b.node_count());
    ASSERT_EQ(a.edge_count(), b.edge_count());
    for (std::size_t v = 0; v < a.node_count(); ++v) {
        const NodeId node{static_cast<std::int64_t>(v)};
        const auto na = a.neighbors(node);
        const auto nb = b.neighbors(node);
        EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end())) << "node " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, ZooTopologyTest,
                         ::testing::Values("abilene", "nsfnet", "geant", "att",
                                           "internet2", "cost266"));

}  // namespace
}  // namespace vnfr::net

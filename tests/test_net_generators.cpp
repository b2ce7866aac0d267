#include "net/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/shortest_path.hpp"

namespace vnfr::net {
namespace {

using EdgeSet = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// Every edge once as (lower id, higher id), sorted.
EdgeSet edge_set(const Graph& g) {
    EdgeSet edges;
    for (std::size_t v = 0; v < g.node_count(); ++v) {
        const NodeId node{static_cast<std::int64_t>(v)};
        for (const NodeId w : g.neighbors(node)) {
            if (node < w) edges.emplace_back(node.value, w.value);
        }
    }
    std::sort(edges.begin(), edges.end());
    return edges;
}

/// True when no pair of nodes is unreachable (no -1 hop count).
bool connected(const Graph& g) {
    for (const auto& row : all_pairs_hops(g)) {
        if (std::find(row.begin(), row.end(), -1) != row.end()) return false;
    }
    return true;
}

class GeneratorSeedTest : public ::testing::TestWithParam<int> {
  protected:
    common::Rng rng_{static_cast<std::uint64_t>(GetParam())};
};

TEST_P(GeneratorSeedTest, ErdosRenyiForcedConnected) {
    const Graph g = erdos_renyi(30, 0.05, rng_);
    EXPECT_EQ(g.node_count(), 30u);
    EXPECT_TRUE(connected(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedTest, ::testing::Range(1, 9));

TEST(Generators, ErdosRenyiDeterministic) {
    common::Rng a(7);
    common::Rng b(7);
    const Graph g1 = erdos_renyi(20, 0.3, a);
    const Graph g2 = erdos_renyi(20, 0.3, b);
    ASSERT_EQ(g1.node_count(), g2.node_count());
    for (std::size_t v = 0; v < g1.node_count(); ++v) {
        const NodeId node{static_cast<std::int64_t>(v)};
        const auto n1 = g1.neighbors(node);
        const auto n2 = g2.neighbors(node);
        EXPECT_TRUE(std::equal(n1.begin(), n1.end(), n2.begin(), n2.end())) << "node " << v;
    }
}

TEST(Generators, ErdosRenyiFullProbabilityIsComplete) {
    common::Rng rng(1);
    const Graph g = erdos_renyi(10, 1.0, rng);
    EXPECT_EQ(g.edge_count(), 45u);
}

TEST(Generators, ErdosRenyiZeroProbabilityIsASpanningTree) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{10}}) {
        common::Rng rng(1);
        const Graph g = erdos_renyi(n, 0.0, rng);
        EXPECT_EQ(g.edge_count(), n - 1) << "n = " << n;
        EXPECT_TRUE(connected(g)) << "n = " << n;
    }
}

TEST(Generators, ErdosRenyiRejectsBadProbability) {
    common::Rng rng(1);
    EXPECT_THROW(erdos_renyi(5, -0.1, rng), std::invalid_argument);
    EXPECT_THROW(erdos_renyi(5, 1.1, rng), std::invalid_argument);
}

// Edge sets pinned for fixed seeds, so a change to the generator's draw
// order (spanning tree first, then pairs in lexicographic order) fails
// here instead of silently moving every instance built on it.
TEST(Generators, ErdosRenyiEdgeSetsPinned) {
    {
        // The property-test shape of tests/helpers.hpp: max(m + 2, 6) nodes,
        // p = 0.4.
        common::Rng rng(1);
        const EdgeSet expected{{0, 1}, {0, 2}, {0, 3}, {0, 4},
                               {0, 5}, {1, 5}, {2, 3}, {3, 4}};
        EXPECT_EQ(edge_set(erdos_renyi(6, 0.4, rng)), expected);
    }
    {
        common::Rng rng(2);
        const EdgeSet expected{{0, 1}, {0, 2}, {0, 3}, {0, 6}, {0, 7}, {1, 3}, {1, 4},
                               {1, 7}, {1, 8}, {1, 9}, {2, 3}, {2, 5}, {2, 7}, {3, 4},
                               {3, 5}, {3, 6}, {3, 7}, {4, 5}, {4, 7}, {4, 8}, {4, 9},
                               {5, 6}, {5, 7}, {5, 9}, {6, 7}, {7, 8}};
        EXPECT_EQ(edge_set(erdos_renyi(10, 0.4, rng)), expected);
    }
    {
        // perf_schedulers' bench instance at 5 cloudlets: cloudlets + 5
        // nodes, p = 0.3, drawn from stream_rng(0x9e7f'5c4d, cloudlets).
        common::Rng rng = common::stream_rng(0x9e7f'5c4d, 5);
        const EdgeSet expected{{0, 1}, {0, 2}, {0, 3}, {0, 6}, {1, 2}, {1, 3}, {1, 4},
                               {1, 8}, {1, 9}, {2, 3}, {2, 5}, {3, 4}, {3, 6}, {3, 7},
                               {4, 5}, {4, 7}, {4, 9}, {6, 7}, {6, 9}, {8, 9}};
        EXPECT_EQ(edge_set(erdos_renyi(10, 0.3, rng)), expected);
    }
    {
        common::Rng rng = common::stream_rng(0x9e7f'5c4d, 10);
        const EdgeSet expected{
            {0, 1},   {0, 3},   {0, 5},   {0, 11},  {1, 2},   {1, 4},   {1, 5},
            {1, 13},  {1, 14},  {2, 3},   {2, 8},   {2, 9},   {2, 10},  {2, 11},
            {3, 6},   {3, 7},   {3, 9},   {3, 14},  {4, 7},   {4, 8},   {4, 10},
            {4, 11},  {4, 13},  {5, 6},   {5, 8},   {5, 13},  {5, 14},  {6, 12},
            {7, 8},   {7, 9},   {7, 10},  {10, 13}, {11, 13}, {11, 14}, {12, 14},
            {13, 14}};
        EXPECT_EQ(edge_set(erdos_renyi(15, 0.3, rng)), expected);
    }
}

TEST(Generators, RingStructure) {
    const Graph g = ring(6);
    EXPECT_EQ(g.node_count(), 6u);
    EXPECT_EQ(g.edge_count(), 6u);
    EXPECT_TRUE(connected(g));
    for (std::size_t v = 0; v < 6; ++v) {
        EXPECT_EQ(g.neighbors(NodeId{static_cast<std::int64_t>(v)}).size(), 2u);
    }
    EXPECT_THROW(ring(2), std::invalid_argument);
}

}  // namespace
}  // namespace vnfr::net

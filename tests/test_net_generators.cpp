#include "net/generators.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/algorithms.hpp"

namespace vnfr::net {
namespace {

class GeneratorSeedTest : public ::testing::TestWithParam<int> {
  protected:
    common::Rng rng_{static_cast<std::uint64_t>(GetParam())};
};

TEST_P(GeneratorSeedTest, ErdosRenyiForcedConnected) {
    const Graph g = erdos_renyi(30, 0.05, rng_, true);
    EXPECT_EQ(g.node_count(), 30u);
    EXPECT_TRUE(is_connected(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedTest, ::testing::Range(1, 9));

TEST(Generators, ErdosRenyiDeterministic) {
    common::Rng a(7);
    common::Rng b(7);
    const Graph g1 = erdos_renyi(20, 0.3, a);
    const Graph g2 = erdos_renyi(20, 0.3, b);
    ASSERT_EQ(g1.edge_count(), g2.edge_count());
    for (std::size_t i = 0; i < g1.edge_count(); ++i) {
        EXPECT_EQ(g1.edges()[i].a, g2.edges()[i].a);
        EXPECT_EQ(g1.edges()[i].b, g2.edges()[i].b);
    }
}

TEST(Generators, ErdosRenyiFullProbabilityIsComplete) {
    common::Rng rng(1);
    const Graph g = erdos_renyi(10, 1.0, rng, false);
    EXPECT_EQ(g.edge_count(), 45u);
}

TEST(Generators, ErdosRenyiZeroProbabilityUnforced) {
    common::Rng rng(1);
    const Graph g = erdos_renyi(10, 0.0, rng, false);
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Generators, ErdosRenyiRejectsBadProbability) {
    common::Rng rng(1);
    EXPECT_THROW(erdos_renyi(5, -0.1, rng), std::invalid_argument);
    EXPECT_THROW(erdos_renyi(5, 1.1, rng), std::invalid_argument);
}

TEST(Generators, RingStructure) {
    const Graph g = ring(6);
    EXPECT_EQ(g.node_count(), 6u);
    EXPECT_EQ(g.edge_count(), 6u);
    EXPECT_TRUE(is_connected(g));
    for (std::size_t v = 0; v < 6; ++v) {
        EXPECT_EQ(g.degree(NodeId{static_cast<std::int64_t>(v)}), 2u);
    }
    EXPECT_THROW(ring(2), std::invalid_argument);
}

}  // namespace
}  // namespace vnfr::net

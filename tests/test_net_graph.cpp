#include "net/graph.hpp"

#include <gtest/gtest.h>

#include "net/algorithms.hpp"

namespace vnfr::net {
namespace {

TEST(Graph, StartsEmpty) {
    Graph g;
    EXPECT_EQ(g.node_count(), 0u);
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, BulkConstruction) {
    Graph g(5);
    EXPECT_EQ(g.node_count(), 5u);
    EXPECT_TRUE(g.has_node(NodeId{4}));
    EXPECT_FALSE(g.has_node(NodeId{5}));
}

TEST(Graph, AddNodeAssignsSequentialIds) {
    Graph g;
    EXPECT_EQ(g.add_node("a").value, 0);
    EXPECT_EQ(g.add_node("b").value, 1);
    EXPECT_EQ(g.node_name(NodeId{1}), "b");
}

TEST(Graph, AddEdgeIsSymmetric) {
    Graph g(3);
    g.add_edge(NodeId{0}, NodeId{1}, 2.5);
    EXPECT_TRUE(g.has_edge(NodeId{0}, NodeId{1}));
    EXPECT_TRUE(g.has_edge(NodeId{1}, NodeId{0}));
    EXPECT_DOUBLE_EQ(*g.edge_weight(NodeId{0}, NodeId{1}), 2.5);
    EXPECT_DOUBLE_EQ(*g.edge_weight(NodeId{1}, NodeId{0}), 2.5);
}

TEST(Graph, RejectsSelfLoop) {
    Graph g(2);
    EXPECT_THROW(g.add_edge(NodeId{0}, NodeId{0}), std::invalid_argument);
}

TEST(Graph, RejectsDuplicateEdge) {
    Graph g(2);
    g.add_edge(NodeId{0}, NodeId{1});
    EXPECT_THROW(g.add_edge(NodeId{0}, NodeId{1}), std::invalid_argument);
    EXPECT_THROW(g.add_edge(NodeId{1}, NodeId{0}), std::invalid_argument);
}

TEST(Graph, RejectsNonPositiveWeight) {
    Graph g(2);
    EXPECT_THROW(g.add_edge(NodeId{0}, NodeId{1}, 0.0), std::invalid_argument);
    EXPECT_THROW(g.add_edge(NodeId{0}, NodeId{1}, -1.0), std::invalid_argument);
}

TEST(Graph, RejectsUnknownEndpoints) {
    Graph g(2);
    EXPECT_THROW(g.add_edge(NodeId{0}, NodeId{7}), std::invalid_argument);
    EXPECT_THROW(g.add_edge(NodeId{}, NodeId{1}), std::invalid_argument);
}

TEST(Graph, NeighborsAndDegree) {
    Graph g(4);
    g.add_edge(NodeId{0}, NodeId{1});
    g.add_edge(NodeId{0}, NodeId{2});
    g.add_edge(NodeId{0}, NodeId{3});
    EXPECT_EQ(g.degree(NodeId{0}), 3u);
    EXPECT_EQ(g.degree(NodeId{1}), 1u);
    EXPECT_EQ(g.neighbors(NodeId{0}).size(), 3u);
}

TEST(Graph, EdgeWeightMissingEdge) {
    Graph g(3);
    g.add_edge(NodeId{0}, NodeId{1});
    EXPECT_FALSE(g.edge_weight(NodeId{0}, NodeId{2}).has_value());
}

TEST(Graph, EuclideanDistance) {
    Graph g;
    g.add_node("a", 0.0, 0.0);
    g.add_node("b", 3.0, 4.0);
    EXPECT_DOUBLE_EQ(g.euclidean(NodeId{0}, NodeId{1}), 5.0);
}

TEST(Algorithms, EmptyGraphIsConnected) {
    Graph g;
    EXPECT_TRUE(is_connected(g));
}

TEST(Algorithms, SingleNodeIsConnected) {
    Graph g(1);
    EXPECT_TRUE(is_connected(g));
}

TEST(Algorithms, DisconnectedDetected) {
    Graph g(4);
    g.add_edge(NodeId{0}, NodeId{1});
    g.add_edge(NodeId{2}, NodeId{3});
    EXPECT_FALSE(is_connected(g));
    const Components comps = connected_components(g);
    EXPECT_EQ(comps.count, 2);
    EXPECT_EQ(comps.label[0], comps.label[1]);
    EXPECT_EQ(comps.label[2], comps.label[3]);
    EXPECT_NE(comps.label[0], comps.label[2]);
}

}  // namespace
}  // namespace vnfr::net

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <unordered_set>

#include "common/types.hpp"

namespace vnfr {
namespace {

TEST(StrongId, DefaultIsInvalid) {
    const RequestId id;
    EXPECT_FALSE(id.valid());
    EXPECT_EQ(id.value, -1);
}

TEST(StrongId, ValidityAndIndex) {
    const CloudletId id{3};
    EXPECT_TRUE(id.valid());
    EXPECT_EQ(id.index(), 3u);
    EXPECT_FALSE(CloudletId{-5}.valid());
}

TEST(StrongId, ComparisonAndOrdering) {
    EXPECT_EQ(NodeId{2}, NodeId{2});
    EXPECT_NE(NodeId{2}, NodeId{3});
    EXPECT_LT(NodeId{2}, NodeId{3});
    std::map<VnfTypeId, int> ordered;
    ordered[VnfTypeId{5}] = 1;
    ordered[VnfTypeId{1}] = 2;
    EXPECT_EQ(ordered.begin()->first, VnfTypeId{1});
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
    // Compile-time property: RequestId and CloudletId must not be the same
    // type even though both wrap int64.
    static_assert(!std::is_same_v<RequestId, CloudletId>);
    static_assert(!std::is_same_v<NodeId, VnfTypeId>);
    SUCCEED();
}

TEST(StrongId, Hashable) {
    std::unordered_set<RequestId> set;
    set.insert(RequestId{1});
    set.insert(RequestId{2});
    set.insert(RequestId{1});
    EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, StreamOutput) {
    std::ostringstream os;
    os << CloudletId{42};
    EXPECT_EQ(os.str(), "42");
}

}  // namespace
}  // namespace vnfr

#include "reuse/enumerate.h"

#include <gtest/gtest.h>

#include <set>

#include "util/error.h"
#include "util/math.h"

namespace chiplet::reuse {
namespace {

TEST(Enumerate, TwoTypesTwoSockets) {
    // size 1: {1,0},{0,1}; size 2: {2,0},{1,1},{0,2} -> 5 collocations.
    const auto all = enumerate_collocations(2, 2);
    EXPECT_EQ(all.size(), 5u);
    const std::set<Collocation> unique(all.begin(), all.end());
    EXPECT_EQ(unique.size(), all.size());
    EXPECT_TRUE(unique.count({1, 0}));
    EXPECT_TRUE(unique.count({1, 1}));
    EXPECT_TRUE(unique.count({0, 2}));
}

TEST(Enumerate, CountMatchesFormulaAcrossConfigs) {
    for (unsigned n = 1; n <= 6; ++n) {
        for (unsigned k = 1; k <= 4; ++k) {
            EXPECT_EQ(enumerate_collocations(n, k).size(), fsmc_system_count(n, k))
                << "n=" << n << " k=" << k;
        }
    }
}

TEST(Enumerate, PaperFig10LargestConfig) {
    // k=4 sockets, n=6 chiplets: the formula gives 209 (the paper text
    // says 119; see docs/model.md#assumptions-and-known-deviations).
    EXPECT_EQ(enumerate_collocations(6, 4).size(), 209u);
}

TEST(Enumerate, AllCollocationsWithinSocketBudget) {
    for (const Collocation& c : enumerate_collocations(4, 3)) {
        EXPECT_GE(occupied_sockets(c), 1u);
        EXPECT_LE(occupied_sockets(c), 3u);
        EXPECT_EQ(c.size(), 4u);  // counts vector covers all types
    }
}

TEST(Enumerate, NoDuplicates) {
    const auto all = enumerate_collocations(5, 4);
    const std::set<Collocation> unique(all.begin(), all.end());
    EXPECT_EQ(unique.size(), all.size());
}

TEST(Enumerate, DeterministicOrder) {
    EXPECT_EQ(enumerate_collocations(3, 2), enumerate_collocations(3, 2));
}

TEST(Enumerate, InvalidInputsThrow) {
    EXPECT_THROW((void)enumerate_collocations(0, 2), ParameterError);
    EXPECT_THROW((void)enumerate_collocations(2, 0), ParameterError);
}

TEST(OccupiedSockets, SumsCounts) {
    EXPECT_EQ(occupied_sockets({2, 0, 1}), 3u);
    EXPECT_EQ(occupied_sockets({0, 0, 0}), 0u);
}

TEST(CollocationName, Readable) {
    EXPECT_EQ(collocation_name({2, 0, 1}), "2xT1+1xT3");
    EXPECT_EQ(collocation_name({1, 0}), "1xT1");
    EXPECT_EQ(collocation_name({0, 0}), "empty");
}

}  // namespace
}  // namespace chiplet::reuse

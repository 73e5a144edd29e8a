/** @file Unit tests for the support library. */

#include <gtest/gtest.h>

#include <set>

#include "support/logging.hh"
#include "support/random.hh"
#include "support/table.hh"

namespace vvsp
{
namespace
{

TEST(Format, BasicFormatting)
{
    EXPECT_EQ(format("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(format("%04x", 0xab), "00ab");
    EXPECT_EQ(format("plain"), "plain");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            same++;
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformBounds)
{
    Rng r(7);
    std::set<int> seen;
    for (int i = 0; i < 1000; ++i) {
        int v = r.uniform(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit.
}

TEST(Rng, Uniform01Range)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniform01();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng r(11);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = r.gaussian(2.0);
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.1);
    EXPECT_NEAR(sq / n, 4.0, 0.3);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.header({"a", "bbbb"});
    t.row({"xx", "y"});
    std::string s = t.str();
    EXPECT_NE(s.find("a"), std::string::npos);
    EXPECT_NE(s.find("xx"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTable, CycleFormattingMatchesPaperStyle)
{
    EXPECT_EQ(TextTable::cycles(815.7e6), "815.7M");
    EXPECT_EQ(TextTable::cycles(0.59e6), "0.59M");
    EXPECT_EQ(TextTable::cycles(123), "123");
}

} // namespace
} // namespace vvsp

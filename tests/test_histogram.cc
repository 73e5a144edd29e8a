/**
 * @file
 * Log2Histogram tests: running count/sum/min/max/mean, bucket
 * placement, quantile accuracy against exact percentiles of the raw
 * samples (the factor-of-2 bucket bound), exactness on constant data, the commutative-merge
 * determinism contract (1 thread vs 4 threads, any merge order), and
 * the Distribution/StatsRegistry quantile surface the run ledger
 * consumes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hh"
#include "obs/stats_registry.hh"

namespace vvsp
{
namespace
{

/** Deterministic 64-bit LCG so the test needs no <random> seeding. */
uint64_t
nextLcg(uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
}

/** Exact q-quantile (continuous rank, like the histogram estimates). */
double
exactQuantile(std::vector<uint64_t> sorted, double q)
{
    double rank = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return static_cast<double>(sorted[lo]) +
           frac * static_cast<double>(sorted[hi] - sorted[lo]);
}

TEST(Log2Histogram, AccumulatesCountSumMinMaxMean)
{
    // The running statistics every registry distribution reports.
    obs::Log2Histogram h;
    EXPECT_EQ(h.count(), 0u);
    h.sample(5);
    h.sample(2);
    h.sample(9);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 16u);
    EXPECT_EQ(h.min(), 2u);
    EXPECT_EQ(h.max(), 9u);
    EXPECT_DOUBLE_EQ(h.mean(), 16.0 / 3.0);
}

TEST(Log2Histogram, BucketPlacement)
{
    obs::Log2Histogram h;
    h.sample(0); // bucket 0: the zero bucket.
    h.sample(1); // bucket 1: [1, 1].
    h.sample(2); // bucket 2: [2, 3].
    h.sample(3);
    h.sample(1024); // bucket 11: [1024, 2047].
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(h.bucketCount(11), 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 1030u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1024u);

    EXPECT_EQ(obs::Log2Histogram::bucketLo(2), 2u);
    EXPECT_EQ(obs::Log2Histogram::bucketHi(2), 3u);
    EXPECT_EQ(obs::Log2Histogram::bucketLo(11), 1024u);
    EXPECT_EQ(obs::Log2Histogram::bucketHi(11), 2047u);
}

TEST(Log2Histogram, ExactForConstantData)
{
    obs::Log2Histogram h;
    for (int i = 0; i < 1000; ++i)
        h.sample(777);
    EXPECT_DOUBLE_EQ(h.p50(), 777.0);
    EXPECT_DOUBLE_EQ(h.p90(), 777.0);
    EXPECT_DOUBLE_EQ(h.p99(), 777.0);
}

TEST(Log2Histogram, EmptyIsZero)
{
    obs::Log2Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Log2Histogram, QuantileWithinBucketBoundOfExact)
{
    // The documented contract: an estimated quantile is off from the
    // exact percentile by at most the width of its bucket, i.e. a
    // factor of 2 (plus the [min,max] clamp, which only tightens it).
    uint64_t state = 12345;
    std::vector<uint64_t> samples;
    obs::Log2Histogram h;
    for (int i = 0; i < 20000; ++i) {
        // Skewed latency-like distribution: mostly small, long tail.
        uint64_t v = nextLcg(state) % 100;
        if (v >= 95)
            v = 1000 + nextLcg(state) % 100000;
        samples.push_back(v);
        h.sample(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.50, 0.90, 0.99}) {
        double exact = exactQuantile(samples, q);
        double est = h.quantile(q);
        if (exact == 0.0) {
            EXPECT_LE(est, 1.0) << "q=" << q;
            continue;
        }
        EXPECT_GE(est, exact / 2.0) << "q=" << q;
        EXPECT_LE(est, exact * 2.0) << "q=" << q;
    }
    // Quantiles never leave the observed range and never decrease.
    EXPECT_GE(h.quantile(0.0), static_cast<double>(samples.front()));
    EXPECT_LE(h.quantile(1.0), static_cast<double>(samples.back()));
    EXPECT_LE(h.p50(), h.p90());
    EXPECT_LE(h.p90(), h.p99());
}

TEST(Log2Histogram, MergeMatchesSerialAtAnyThreadCount)
{
    // The determinism contract the run ledger relies on: per-thread
    // histograms over a partition of the samples merge - in any
    // order - to bit-identical state vs one serial histogram.
    constexpr int kThreads = 4;
    constexpr int kPerThread = 5000;
    std::vector<std::vector<uint64_t>> chunks(kThreads);
    uint64_t state = 999;
    obs::Log2Histogram serial;
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPerThread; ++i) {
            uint64_t v = nextLcg(state) % 1000000;
            chunks[t].push_back(v);
            serial.sample(v);
        }
    }

    std::vector<obs::Log2Histogram> parts(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&parts, &chunks, t] {
            for (uint64_t v : chunks[t])
                parts[t].sample(v);
        });
    }
    for (std::thread &w : workers)
        w.join();

    obs::Log2Histogram forward, backward;
    for (int t = 0; t < kThreads; ++t)
        forward.merge(parts[t]);
    for (int t = kThreads - 1; t >= 0; --t)
        backward.merge(parts[t]);

    EXPECT_TRUE(forward == serial);
    EXPECT_TRUE(backward == serial);
    EXPECT_DOUBLE_EQ(forward.p99(), serial.p99());
}

TEST(Log2Histogram, DistributionExposesQuantiles)
{
    // Distribution samples into its histogram, and the
    // registry renders p50/p90/p99 in both text and JSON - the
    // surface --stats=json and the ledger snapshot read.
    obs::StatsRegistry reg;
    obs::Distribution &d = reg.distribution("phase/fake/wall_us");
    for (uint64_t v = 1; v <= 100; ++v)
        d.sample(v);
    EXPECT_EQ(d.histogram().count(), 100u);
    EXPECT_GT(d.histogram().p99(), d.histogram().p50());

    std::string json = reg.json();
    EXPECT_NE(json.find("\"phase/fake/wall_us\""), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p90\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);

    std::string text = reg.str();
    EXPECT_NE(text.find("p50"), std::string::npos);
}

} // anonymous namespace
} // namespace vvsp

/**
 * @file
 * Unit tests for the common utilities: RNG, statistics, tables, units.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace slinfer
{
namespace
{

TEST(Units, GiBRoundTrip)
{
    EXPECT_EQ(fromGiB(1.0), kGiB);
    EXPECT_DOUBLE_EQ(toGiB(2 * kGiB), 2.0);
    EXPECT_DOUBLE_EQ(ms(250.0), 0.25);
    EXPECT_DOUBLE_EQ(toMs(0.25), 250.0);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniform() == b.uniform())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsIndependentOfParentConsumption)
{
    Rng a(7);
    Rng child1 = a.fork(3);
    a.uniform();
    a.uniform();
    Rng b(7);
    Rng child2 = b.fork(3);
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(child1.uniform(), child2.uniform());
}

TEST(Rng, ForkTagsProduceDistinctStreams)
{
    Rng a(7);
    Rng c1 = a.fork(1);
    Rng c2 = a.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (c1.uniform() == c2.uniform())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange)
{
    Rng r(1);
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniform(3.0, 5.0);
        EXPECT_GE(v, 3.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng r(1);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean)
{
    Rng r(3);
    Summary s;
    for (int i = 0; i < 20000; ++i)
        s.add(r.exponential(2.0));
    EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, LogNormalMedian)
{
    Rng r(4);
    CdfBuilder c;
    for (int i = 0; i < 20000; ++i)
        c.add(r.logNormalMedian(100.0, 0.8));
    EXPECT_NEAR(c.percentile(50.0), 100.0, 5.0);
}

TEST(Rng, GammaMean)
{
    Rng r(5);
    Summary s;
    for (int i = 0; i < 20000; ++i)
        s.add(r.gamma(0.5, 2.0));
    EXPECT_NEAR(s.mean(), 1.0, 0.05);
}

TEST(Rng, BoundedParetoStaysInBounds)
{
    Rng r(6);
    for (int i = 0; i < 5000; ++i) {
        double v = r.boundedPareto(1.0, 100.0, 1.1);
        EXPECT_GE(v, 1.0);
        EXPECT_LE(v, 100.0);
    }
}

TEST(Rng, BoundedParetoIsHeavyTailed)
{
    Rng r(7);
    CdfBuilder c;
    for (int i = 0; i < 20000; ++i)
        c.add(r.boundedPareto(1.0, 400.0, 1.0));
    // Median far below mean for a heavy tail.
    EXPECT_LT(c.percentile(50.0), c.mean());
    EXPECT_LT(c.percentile(50.0), 3.0);
}

TEST(Rng, ChanceProbability)
{
    Rng r(8);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

/**
 * The first raw outputs of every sampler at two fixed seeds. Every
 * report byte (and so every golden digest) flows from these; when a
 * toolchain or library change moves them, this test names the sampler
 * that moved before any digest does. Each sampler draws from a fresh
 * Rng, so one moved sampler fails alone.
 */
TEST(Rng, RawOutputsArePinned)
{
    struct Pin
    {
        const char *sampler;
        double (*draw)(Rng &);
        std::uint64_t seed;
        double want[3];
    };
    const Pin pins[] = {
        {"uniform", [](Rng &r) { return r.uniform(); }, 1,
         {0.53246524338255163, 0.89269856320577556, 0.89049588741896235}},
        {"uniform", [](Rng &r) { return r.uniform(); }, 42,
         {0.13967200376411759, 0.9693205787161252, 0.97019593185647635}},
        {"uniformInt",
         [](Rng &r) { return static_cast<double>(r.uniformInt(0, 1000000)); },
         1, {532465, 892699, 890496}},
        {"uniformInt",
         [](Rng &r) { return static_cast<double>(r.uniformInt(0, 1000000)); },
         42, {139672, 969321, 970196}},
        {"exponential", [](Rng &r) { return r.exponential(2.0); }, 1,
         {0.38014079365556425, 1.1160566194975097, 1.1058965863065817}},
        {"exponential", [](Rng &r) { return r.exponential(2.0); }, 42,
         {0.075220785736838561, 1.7420815828188456, 1.7565551899523715}},
        {"normal", [](Rng &r) { return r.normal(); }, 1,
         {0.97271450413705207, 0.13664146052180318, -0.26682120985274072}},
        {"normal", [](Rng &r) { return r.normal(); }, 42,
         {0.93292995073422891, -0.55873942163976853, -2.3199751866631542}},
        {"logNormalMedian",
         [](Rng &r) { return r.logNormalMedian(100.0, 0.5); }, 1,
         {162.6380920385001, 107.07086620824252, 87.510569561912078}},
        {"logNormalMedian",
         [](Rng &r) { return r.logNormalMedian(100.0, 0.5); }, 42,
         {159.43481596453307, 75.62602539250247, 31.349007022583372}},
        {"gamma", [](Rng &r) { return r.gamma(0.7, 2.0); }, 1,
         {2.4585909485162243, 1.2725470653383077, 0.93680263046175849}},
        {"gamma", [](Rng &r) { return r.gamma(0.7, 2.0); }, 42,
         {1.9160715390815226, 0.047545017782905832, 0.16651148566013202}},
        {"boundedPareto",
         [](Rng &r) { return r.boundedPareto(1.0, 1000.0, 1.2); }, 1,
         {1.8838727456134177, 6.4131765172953186, 6.3057409196099714}},
        {"boundedPareto",
         [](Rng &r) { return r.boundedPareto(1.0, 1000.0, 1.2); }, 42,
         {1.1335269807630608, 18.117562901925734, 18.556231869720733}},
    };
    for (const Pin &pin : pins) {
        Rng r(pin.seed);
        for (int i = 0; i < 3; ++i) {
            EXPECT_EQ(pin.draw(r), pin.want[i])
                << pin.sampler << " seed " << pin.seed << " draw " << i;
        }
    }
}

TEST(Mt19937_64, TenThousandthOutputFromDefaultSeed)
{
    // The standard's check value for mt19937_64 ([rand.predef]).
    Mt19937_64 e;
    Mt19937_64::result_type x = 0;
    for (int i = 0; i < 10000; ++i)
        x = e();
    EXPECT_EQ(x, 9981545732273789042ULL);
}

/** The seed Rng(seed) hands its engine. */
std::uint64_t
rngEngineSeed(std::uint64_t seed)
{
    return splitMix64(seed);
}

// The standard fixes mt19937_64's outputs exactly, so this comparison
// holds on every standard library.
TEST(Mt19937_64, MatchesStdMt19937_64)
{
    for (std::uint64_t seed : {std::uint64_t{5489}, std::uint64_t{1},
                               rngEngineSeed(42)}) {
        Mt19937_64 ours(seed);
        std::mt19937_64 ref(seed);
        int mismatches = 0;
        for (int i = 0; i < 1000000; ++i)
            mismatches += ours() != ref();
        EXPECT_EQ(mismatches, 0) << "seed " << seed;
    }
}

TEST(Mt19937_64, NextBlockIsTheNextOutputs)
{
    Mt19937_64 blocked(rngEngineSeed(11));
    Mt19937_64 ref(rngEngineSeed(11));
    ASSERT_TRUE(blocked.atBlockStart());
    Mt19937_64::result_type words[Mt19937_64::kBlockWords];
    int mismatches = 0;
    for (int block = 0; block < 4; ++block) {
        blocked.nextBlock(words);
        EXPECT_TRUE(blocked.atBlockStart());
        for (Mt19937_64::result_type w : words)
            mismatches += w != ref();
    }
    EXPECT_EQ(mismatches, 0);
    // Per-word draws leave the block start until the block is used up.
    blocked();
    EXPECT_FALSE(blocked.atBlockStart());
    for (int i = 1; i < Mt19937_64::kBlockWords; ++i)
        blocked();
    EXPECT_TRUE(blocked.atBlockStart());
}

TEST(Rng, WordToDoubleIsTheRoundedConversion)
{
    const std::uint64_t edges[] = {0,
                                   (1ULL << 32) - 1,
                                   1ULL << 32,
                                   (1ULL << 32) + 1,
                                   1ULL << 53,
                                   (1ULL << 53) + 1,
                                   1ULL << 63,
                                   ~0ULL};
    for (std::uint64_t x : edges)
        EXPECT_EQ(wordToDouble(x), static_cast<double>(x)) << x;
    Mt19937_64 e(7);
    int mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
        const std::uint64_t x = e();
        mismatches += wordToDouble(x) != static_cast<double>(x);
    }
    EXPECT_EQ(mismatches, 0);
    // 2^64 - 1 rounds to 2^64; the unit draw clamps it below 1.
    EXPECT_EQ(wordToUnit(~0ULL), std::nextafter(1.0, 0.0));
    EXPECT_EQ(wordToUnit(0), 0.0);
}

/*
 * The tests below compare against libstdc++'s distributions, whose bits
 * every golden digest pins. The standard leaves the distributions'
 * algorithms to the library, so they run only on libstdc++.
 */
#if defined(__GLIBCXX__)
#define SLINFER_REQUIRE_LIBSTDCXX()
#else
#define SLINFER_REQUIRE_LIBSTDCXX()                                          \
    GTEST_SKIP() << "compares against libstdc++'s <random> algorithms"
#endif

/** A bit generator that returns one fixed word. */
struct FixedWord
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }
    result_type operator()() { return word; }
    result_type word;
};

TEST(Rng, WordToUnitMatchesGenerateCanonical)
{
    SLINFER_REQUIRE_LIBSTDCXX();
    auto canonical = [](std::uint64_t x) {
        FixedWord w{x};
        return std::generate_canonical<double, 53>(w);
    };
    // 2^64 - 1024 is the tie that rounds up to 2^64 and clamps;
    // 2^64 - 1025 rounds down.
    const std::uint64_t edges[] = {0, (1ULL << 53) + 1, ~0ULL, ~0ULL - 1023,
                                   ~0ULL - 1024};
    for (std::uint64_t x : edges)
        EXPECT_EQ(wordToUnit(x), canonical(x)) << x;
    Mt19937_64 e(9);
    int mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
        const std::uint64_t x = e();
        mismatches += wordToUnit(x) != canonical(x);
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Rng, NormalMatchesStdNormalDistribution)
{
    SLINFER_REQUIRE_LIBSTDCXX();
    for (std::uint64_t seed : {1, 42, 0x5eed}) {
        Rng ours(seed);
        std::mt19937_64 eng(rngEngineSeed(seed));
        int mismatches = 0;
        for (int i = 0; i < 1000000; ++i) {
            const double want =
                std::normal_distribution<double>(0.0, 1.0)(eng);
            mismatches += ours.normal() != want;
        }
        EXPECT_EQ(mismatches, 0) << "seed " << seed;
    }
}

/**
 * The token scheduler's noise loop: whole engine blocks while the
 * stream sits on a block start, one exp(sigma * normal()) at a time
 * otherwise.
 */
struct BlockNoise
{
    BlockNoise(Rng r, double s) : rng(r), sigma(s) {}

    double
    next()
    {
        if (nextIdx == end) {
            nextIdx = 0;
            end = rng.logNormalBlock(sigma, block);
            if (end == 0) {
                ++single;
                return std::exp(sigma * rng.normal());
            }
            ++blocks;
        }
        return block[nextIdx++];
    }

    Rng rng;
    double sigma;
    double block[Rng::kBlockPairs] = {};
    int nextIdx = 0;
    int end = 0;
    long blocks = 0;
    long single = 0;
};

TEST(Rng, LogNormalBlockIsTheLognormalOfEachDraw)
{
    // `advance` uniform() calls before the first draw: 0 starts on a
    // block. 2 draws singles until a draw ends on a block's last pair
    // (one block in about 1.3, as the pair is accepted with
    // probability pi / 4). 3 leaves every later draw straddling a
    // twist, so the stream never returns to a block start and every
    // draw is a single one.
    const int kDraws = 1000000;
    for (std::uint64_t seed : {1, 42, 0x5eed}) {
        for (double sigma : {0.03, 0.05, 0.5}) {
            for (int advance : {0, 2, 3}) {
                Rng start(seed);
                for (int i = 0; i < advance; ++i)
                    start.uniform();
                Rng ref = start;
                BlockNoise ours(start, sigma);
                int mismatches = 0;
                for (int i = 0; i < kDraws; ++i)
                    mismatches +=
                        ours.next() != std::exp(sigma * ref.normal());
                EXPECT_EQ(mismatches, 0) << "seed " << seed << " sigma "
                                         << sigma << " advance " << advance;
                if (advance % 2 == 0) {
                    // About 122 draws a block.
                    EXPECT_GT(ours.blocks, kDraws / 130);
                    EXPECT_EQ(ours.single == 0, advance == 0);
                    EXPECT_LT(ours.single, 10 * Rng::kBlockPairs);
                } else {
                    EXPECT_EQ(ours.blocks, 0);
                    EXPECT_EQ(ours.single, kDraws);
                }
            }
        }
    }
}

TEST(Rng, UniformMatchesStdUniformRealDistribution)
{
    SLINFER_REQUIRE_LIBSTDCXX();
    Rng ours(3);
    std::mt19937_64 eng(rngEngineSeed(3));
    int mismatches = 0;
    for (int i = 0; i < 100000; ++i) {
        mismatches += ours.uniform() !=
                      std::uniform_real_distribution<double>(0.0, 1.0)(eng);
        mismatches +=
            ours.uniform(-2.5, 7.0) !=
            std::uniform_real_distribution<double>(-2.5, 7.0)(eng);
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(CdfBuilder, Percentiles)
{
    CdfBuilder c;
    for (int i = 1; i <= 100; ++i)
        c.add(i);
    EXPECT_DOUBLE_EQ(c.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(c.percentile(100.0), 100.0);
    EXPECT_NEAR(c.percentile(50.0), 50.5, 0.01);
    EXPECT_NEAR(c.percentile(95.0), 95.05, 0.01);
}

TEST(CdfBuilder, FractionBelow)
{
    CdfBuilder c;
    for (int i = 1; i <= 10; ++i)
        c.add(i);
    EXPECT_DOUBLE_EQ(c.fractionBelow(0.5), 0.0);
    EXPECT_DOUBLE_EQ(c.fractionBelow(5.0), 0.5);
    EXPECT_DOUBLE_EQ(c.fractionBelow(10.0), 1.0);
}

TEST(CdfBuilder, CdfAtPoints)
{
    CdfBuilder c;
    c.add(1.0);
    c.add(2.0);
    auto pts = c.cdfAt({0.0, 1.5, 3.0});
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_DOUBLE_EQ(pts[0].second, 0.0);
    EXPECT_DOUBLE_EQ(pts[1].second, 0.5);
    EXPECT_DOUBLE_EQ(pts[2].second, 1.0);
}

TEST(CdfBuilder, QueriesInterleaveWithAdds)
{
    CdfBuilder c;
    c.add(5.0);
    EXPECT_DOUBLE_EQ(c.percentile(50.0), 5.0);
    c.add(1.0);
    EXPECT_DOUBLE_EQ(c.percentile(0.0), 1.0);
}

// Bit-for-bit equality on doubles: CountCdf promises CdfBuilder's exact
// bits, which EXPECT_DOUBLE_EQ's 4-ulp tolerance would not check.
void
expectSameCdf(const CountCdf &counts, const CdfBuilder &ref)
{
    ASSERT_EQ(counts.count(), ref.count());
    for (double p : {0.0, 0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0})
        EXPECT_EQ(counts.percentile(p), ref.percentile(p)) << "p=" << p;
    std::vector<double> xs = {-1.0, -0.5};
    for (int x = 0; x <= 602; ++x) {
        xs.push_back(x);
        xs.push_back(x + 0.5);
    }
    xs.push_back(1e9);
    for (double x : xs)
        EXPECT_EQ(counts.fractionBelow(x), ref.fractionBelow(x)) << "x=" << x;
    EXPECT_EQ(counts.mean(), ref.mean());
    EXPECT_EQ(counts.cdfAt(xs), ref.cdfAt(xs));
}

TEST(CountCdf, MatchesCdfBuilderBitForBit)
{
    {
        SCOPED_TRACE("empty");
        expectSameCdf(CountCdf(), CdfBuilder());
    }
    {
        SCOPED_TRACE("single sample");
        CountCdf counts;
        CdfBuilder ref;
        counts.add(7);
        ref.add(7);
        expectSameCdf(counts, ref);
    }
    {
        SCOPED_TRACE("all samples equal");
        CountCdf counts;
        CdfBuilder ref;
        for (int i = 0; i < 1000; ++i) {
            counts.add(42);
            ref.add(42);
        }
        expectSameCdf(counts, ref);
    }
    for (std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE("random draws, seed " + std::to_string(seed));
        Rng rng(seed);
        CountCdf counts;
        CdfBuilder ref;
        for (int i = 0; i < 100000; ++i) {
            auto x = static_cast<int>(rng.uniformInt(1, 600));
            counts.add(x);
            ref.add(x);
        }
        expectSameCdf(counts, ref);
    }
    // Few samples over a wide range: neighbouring ranks hold different
    // values, so percentile() interpolates between distinct samples.
    for (std::uint64_t seed = 10; seed < 60; ++seed) {
        SCOPED_TRACE("sparse draws, seed " + std::to_string(seed));
        Rng rng(seed);
        CountCdf counts;
        CdfBuilder ref;
        for (int i = 0; i < 37; ++i) {
            auto x = static_cast<int>(rng.uniformInt(1, 600));
            counts.add(x);
            ref.add(x);
        }
        expectSameCdf(counts, ref);
    }
}

TEST(Table, FormatsAlignedRows)
{
    Table t({"a", "long-header"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(static_cast<long long>(42)), "42");
    EXPECT_EQ(Table::pct(0.5), "50.0%");
}

} // namespace
} // namespace slinfer

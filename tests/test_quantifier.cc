/**
 * @file
 * Quantifier tests (§VI-B): power-of-two profiling grids, interpolation
 * exactness on grid points, and — the paper's headline accuracy claim —
 * interpolated estimates within a few percent of the (noisy) ground
 * truth across random workloads. The O(1) grid bracket must return a
 * linear-scan bracket's estimate bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "core/quantifier.hh"

namespace slinfer
{
namespace
{

class QuantifierTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        cpu = xeon6462c();
        gpu = a100_80g();
        m7 = llama2_7b();
        m13 = llama2_13b();
        quant.profile(cpu, m7);
        quant.profile(gpu, m7);
        quant.profile(cpu, m13);
    }

    HardwareSpec cpu, gpu;
    ModelSpec m7, m13;
    Quantifier quant;
};

TEST_F(QuantifierTest, ProfiledFlag)
{
    EXPECT_TRUE(quant.profiled(cpu, m7));
    EXPECT_FALSE(quant.profiled(gpu, m13));
}

TEST_F(QuantifierTest, SampleCountIsLogarithmic)
{
    // O(log Lmax * log Bmax): a few hundred points, not thousands
    // (paper: profiling completes within minutes).
    const Quantifier::ProfileTable &t = quant.tableFor(cpu, m7);
    std::size_t n = t.prefill.size() + t.batchGrid.size() * t.lenGrid.size();
    EXPECT_LT(n, 500u);
    EXPECT_GT(n, 50u);
}

TEST_F(QuantifierTest, ExactOnGridPoints)
{
    const Quantifier::ProfileTable &t = quant.tableFor(cpu, m7);
    for (Tokens len : {16, 64, 1024, 4096}) {
        EXPECT_DOUBLE_EQ(Quantifier::prefillEstimate(t, len),
                         PerfModel::prefillTime(cpu, m7, len));
    }
    for (int b : {1, 8, 64}) {
        for (Tokens len : {16, 256, 2048}) {
            EXPECT_DOUBLE_EQ(Quantifier::decodeEstimate(t, b, len),
                             PerfModel::decodeTime(cpu, m7, b, len));
        }
    }
}

TEST_F(QuantifierTest, InterpolationBetweenGridPoints)
{
    // Estimate at 1536 must lie between the 1024 and 2048 samples.
    Seconds lo = PerfModel::prefillTime(cpu, m7, 1024);
    Seconds hi = PerfModel::prefillTime(cpu, m7, 2048);
    Seconds est =
        Quantifier::prefillEstimate(quant.tableFor(cpu, m7), 1536);
    EXPECT_GT(est, lo);
    EXPECT_LT(est, hi);
}

TEST_F(QuantifierTest, ClampsOutsideGrid)
{
    const Quantifier::ProfileTable &t = quant.tableFor(cpu, m7);
    EXPECT_DOUBLE_EQ(Quantifier::prefillEstimate(t, 1),
                     PerfModel::prefillTime(cpu, m7, 16));
    // Batch extrapolation beyond the grid keeps growing.
    EXPECT_GT(Quantifier::decodeEstimate(t, 512, 1024),
              Quantifier::decodeEstimate(t, 256, 1024));
}

TEST_F(QuantifierTest, ReprofileIsIdempotent)
{
    const Quantifier::ProfileTable &t = quant.tableFor(cpu, m7);
    Seconds before = Quantifier::prefillEstimate(t, 777);
    quant.profile(cpu, m7);
    EXPECT_DOUBLE_EQ(Quantifier::prefillEstimate(t, 777), before);
}

TEST_F(QuantifierTest, DistinguishesHardwareByName)
{
    // The same model profiles differently per hardware.
    EXPECT_GT(Quantifier::prefillEstimate(quant.tableFor(cpu, m7), 2048),
              Quantifier::prefillEstimate(quant.tableFor(gpu, m7), 2048) *
                  3.0);
}

/**
 * The paper reports 5.9% / 3.9% average relative deviation between
 * estimated and actual TTFT / TPOT over 100 random workloads. Our
 * ground truth = model x lognormal noise (sigma 3%); assert the same
 * magnitude (mean < 8%).
 */
class QuantifierAccuracy : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(QuantifierAccuracy, PrefillWithinPaperDeviation)
{
    Quantifier quant;
    HardwareSpec cpu = xeon6462c();
    ModelSpec m = llama2_7b();
    quant.profile(cpu, m);
    const Quantifier::ProfileTable &t = quant.tableFor(cpu, m);
    Rng rng(GetParam());
    double total_dev = 0.0;
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        Tokens len = static_cast<Tokens>(rng.uniform(32, 4096));
        double actual = PerfModel::prefillTime(cpu, m, len) *
                        std::exp(0.03 * rng.normal());
        double est = Quantifier::prefillEstimate(t, len);
        total_dev += std::abs(est - actual) / actual;
    }
    EXPECT_LT(total_dev / n, 0.08);
}

TEST_P(QuantifierAccuracy, DecodeWithinPaperDeviation)
{
    Quantifier quant;
    HardwareSpec cpu = xeon6462c();
    ModelSpec m = llama2_13b();
    quant.profile(cpu, m);
    const Quantifier::ProfileTable &t = quant.tableFor(cpu, m);
    Rng rng(GetParam() + 1000);
    double total_dev = 0.0;
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        int batch = static_cast<int>(rng.uniform(1, 128));
        Tokens len = static_cast<Tokens>(rng.uniform(32, 4096));
        double actual = PerfModel::decodeTime(cpu, m, batch, len) *
                        std::exp(0.03 * rng.normal());
        double est = Quantifier::decodeEstimate(t, batch, len);
        total_dev += std::abs(est - actual) / actual;
    }
    EXPECT_LT(total_dev / n, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantifierAccuracy,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(QuantifierDeath, UnprofiledPairPanics)
{
    Quantifier quant;
    EXPECT_DEATH(quant.tableFor(a100_80g(), llama2_7b()), "not profiled");
}

TEST(Quantifier, LongContextModelGridReaches32K)
{
    Quantifier quant;
    HardwareSpec cpu = xeon6462c();
    ModelSpec m8 = llama31_8b();
    quant.profile(cpu, m8);
    const Quantifier::ProfileTable &t = quant.tableFor(cpu, m8);
    // §IX-I1 / §X: 32K prefill on the CPU takes tens of seconds.
    EXPECT_GT(Quantifier::prefillEstimate(t, 32768), 20.0);
    // And ~8.4K inputs fit inside the 8 s TTFT ceiling.
    EXPECT_LT(Quantifier::prefillEstimate(t, 8400), 8.0);
}

/** True when `t` holds exactly the prefill grid `hw` and `m` measure. */
bool
tableMatches(const Quantifier::ProfileTable &t, const HardwareSpec &hw,
             const ModelSpec &m)
{
    for (std::size_t li = 0; li < t.lenGrid.size(); ++li) {
        if (t.prefill[li] != PerfModel::prefillTime(hw, m, t.lenGrid[li]))
            return false;
    }
    return !t.lenGrid.empty() && t.lenGrid.back() == m.maxContext;
}

TEST(Quantifier, TableReferencesSurviveGrowthAndReprofile)
{
    Quantifier quant;
    HardwareSpec cpu = xeon6462c();
    ModelSpec m7 = llama2_7b();
    quant.profile(cpu, m7);
    const Quantifier::ProfileTable &a = quant.tableFor(cpu, m7);

    // Twelve more pairs: more than one deque block, and pairs that
    // share only the hardware name or only the model name with A.
    std::vector<std::pair<HardwareSpec, ModelSpec>> pairs = {{cpu, m7}};
    for (const HardwareSpec &hw : {cpu, a100_80g(), xeon8369b()}) {
        for (const ModelSpec &m :
             {m7, llama2_13b(), llama32_3b(), codestral_22b()}) {
            if (hw.name == cpu.name && m.name == m7.name)
                continue;
            quant.profile(hw, m);
            pairs.emplace_back(hw, m);
        }
    }
    quant.profile(xeon6_96c(), m7);
    pairs.emplace_back(xeon6_96c(), m7);
    ASSERT_EQ(pairs.size(), 13u);
    ASSERT_EQ(&quant.tableFor(cpu, m7), &a) << "growth moved A's table";

    // Re-profile A with a slower spec under the same names.
    HardwareSpec slowCpu = cpu;
    slowCpu.peakFlops /= 2;
    slowCpu.memBandwidth /= 2;
    Seconds before = Quantifier::prefillEstimate(a, 1024);
    std::uint64_t gen = quant.generation();
    quant.profile(slowCpu, m7);
    pairs[0].first = slowCpu;

    ASSERT_EQ(&quant.tableFor(cpu, m7), &a);
    EXPECT_TRUE(tableMatches(a, slowCpu, m7));
    EXPECT_GT(Quantifier::prefillEstimate(a, 1024), before);
    EXPECT_NE(quant.generation(), gen);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto &[hw, m] = pairs[i];
        const Quantifier::ProfileTable &t = quant.tableFor(hw, m);
        EXPECT_TRUE(tableMatches(t, hw, m)) << hw.name << " | " << m.name;
        for (std::size_t j = 0; j < i; ++j)
            EXPECT_NE(&t, &quant.tableFor(pairs[j].first, pairs[j].second));
    }
}

/** Bitwise equality: the O(1) bracket must not move a single bit. */
::testing::AssertionResult
sameBits(Seconds got, Seconds want)
{
    if (std::memcmp(&got, &want, sizeof got) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << got << " vs " << want << " (diff " << got - want << ")";
}

/** The reference bracket: scan up from grid[1] to the first point at
 *  or above x. */
template <typename T>
void
scanBracket(const std::vector<T> &grid, double x, std::size_t &lo,
            std::size_t &hi, double &w)
{
    if (x <= static_cast<double>(grid.front())) {
        lo = hi = 0;
        w = 0.0;
        return;
    }
    if (x >= static_cast<double>(grid.back())) {
        lo = hi = grid.size() - 1;
        w = 0.0;
        return;
    }
    std::size_t i = 1;
    while (static_cast<double>(grid[i]) < x)
        ++i;
    lo = i - 1;
    hi = i;
    double g_lo = static_cast<double>(grid[lo]);
    double g_hi = static_cast<double>(grid[hi]);
    w = (x - g_lo) / (g_hi - g_lo);
}

Seconds
scanPrefill(const Quantifier::ProfileTable &t, Tokens len)
{
    std::size_t lo, hi;
    double w;
    scanBracket(t.lenGrid, static_cast<double>(len), lo, hi, w);
    return t.prefill[lo] * (1.0 - w) + t.prefill[hi] * w;
}

Seconds
scanDecode(const Quantifier::ProfileTable &t, int batch, Tokens len)
{
    std::size_t bl, bh, ll, lh;
    double wb, wl;
    scanBracket(t.batchGrid, static_cast<double>(batch), bl, bh, wb);
    scanBracket(t.lenGrid, static_cast<double>(len), ll, lh, wl);
    double v0 = t.decode[bl][ll] * (1.0 - wl) + t.decode[bl][lh] * wl;
    double v1 = t.decode[bh][ll] * (1.0 - wl) + t.decode[bh][lh] * wl;
    double est = v0 * (1.0 - wb) + v1 * wb;
    std::size_t n = t.batchGrid.size();
    if (batch > t.batchGrid.back() && n >= 2)
        est += (t.decode[n - 1][ll] - t.decode[n - 2][ll]) /
               static_cast<double>(t.batchGrid[n - 1] - t.batchGrid[n - 2]) *
               static_cast<double>(batch - t.batchGrid.back());
    return est;
}

TEST(QuantifierBracket, MatchesLinearScanBitForBit)
{
    // The pairs this file profiles, plus a context that is not a
    // power of two, so the length grid's top sits off the doubling.
    ModelSpec offGrid = llama2_7b();
    offGrid.name += "-3000";
    offGrid.maxContext = 3000;
    const std::vector<std::pair<HardwareSpec, ModelSpec>> pairs = {
        {xeon6462c(), llama2_7b()},
        {a100_80g(), llama2_7b()},
        {xeon6462c(), llama2_13b()},
        {xeon6462c(), llama31_8b()},
        {xeon6462c(), offGrid}};
    Quantifier quant;
    for (const auto &[hw, m] : pairs)
        quant.profile(hw, m);
    // Every batch from 0 to past the 256 grid top (extrapolation) and
    // every length from 0 to past maxContext: both clamps, every grid
    // point and every interval of both grids.
    for (const auto &[hw, m] : pairs) {
        const Quantifier::ProfileTable &t = quant.tableFor(hw, m);
        for (Tokens len = 0; len <= m.maxContext + 64; ++len) {
            ASSERT_TRUE(sameBits(Quantifier::prefillEstimate(t, len),
                                 scanPrefill(t, len)))
                << hw.name << " " << m.name << " len " << len;
            for (int batch = 0; batch <= 600; ++batch) {
                ASSERT_TRUE(sameBits(Quantifier::decodeEstimate(t, batch,
                                                                len),
                                     scanDecode(t, batch, len)))
                    << hw.name << " " << m.name << " batch " << batch
                    << " len " << len;
            }
        }
    }
}

TEST(QuantifierDeath, GridThatDoesNotDoublePanics)
{
    Quantifier quant;
    quant.profile(xeon6462c(), llama2_7b());
    const Quantifier::ProfileTable &good =
        quant.tableFor(xeon6462c(), llama2_7b());
    Quantifier::checkDoubling(good);

    Quantifier::ProfileTable t = good;
    t.lenGrid[3] += 16; // an interior point off the doubling
    EXPECT_DEATH(Quantifier::checkDoubling(t), "length grid does not double");
    t = good;
    t.lenGrid.back() = t.lenGrid[t.lenGrid.size() - 2]; // flat top
    EXPECT_DEATH(Quantifier::checkDoubling(t), "length grid does not double");
    t = good;
    t.batchGrid[2] = 3;
    EXPECT_DEATH(Quantifier::checkDoubling(t), "batch grid does not double");
    t = good;
    t.batchGrid.front() = 0;
    EXPECT_DEATH(Quantifier::checkDoubling(t), "batch grid does not double");
}

} // namespace
} // namespace slinfer

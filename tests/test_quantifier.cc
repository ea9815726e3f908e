/**
 * @file
 * Quantifier tests (§VI-B): power-of-two profiling grids, interpolation
 * exactness on grid points, and — the paper's headline accuracy claim —
 * interpolated estimates within a few percent of the (noisy) ground
 * truth across random workloads. The decode cursor must return the
 * table estimate bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
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
    std::size_t n = quant.sampleCount(cpu, m7);
    EXPECT_LT(n, 500u);
    EXPECT_GT(n, 50u);
}

TEST_F(QuantifierTest, ExactOnGridPoints)
{
    for (Tokens len : {16, 64, 1024, 4096}) {
        EXPECT_DOUBLE_EQ(quant.prefillEstimate(cpu, m7, len),
                         PerfModel::prefillTime(cpu, m7, len));
    }
    for (int b : {1, 8, 64}) {
        for (Tokens len : {16, 256, 2048}) {
            EXPECT_DOUBLE_EQ(quant.decodeEstimate(cpu, m7, b, len),
                             PerfModel::decodeTime(cpu, m7, b, len));
        }
    }
}

TEST_F(QuantifierTest, InterpolationBetweenGridPoints)
{
    // Estimate at 1536 must lie between the 1024 and 2048 samples.
    Seconds lo = PerfModel::prefillTime(cpu, m7, 1024);
    Seconds hi = PerfModel::prefillTime(cpu, m7, 2048);
    Seconds est = quant.prefillEstimate(cpu, m7, 1536);
    EXPECT_GT(est, lo);
    EXPECT_LT(est, hi);
}

TEST_F(QuantifierTest, ClampsOutsideGrid)
{
    EXPECT_DOUBLE_EQ(quant.prefillEstimate(cpu, m7, 1),
                     PerfModel::prefillTime(cpu, m7, 16));
    // Batch extrapolation beyond the grid keeps growing.
    EXPECT_GT(quant.decodeEstimate(cpu, m7, 512, 1024),
              quant.decodeEstimate(cpu, m7, 256, 1024));
}

TEST_F(QuantifierTest, ReprofileIsIdempotent)
{
    Seconds before = quant.prefillEstimate(cpu, m7, 777);
    quant.profile(cpu, m7);
    EXPECT_DOUBLE_EQ(quant.prefillEstimate(cpu, m7, 777), before);
}

TEST_F(QuantifierTest, DistinguishesHardwareByName)
{
    // The same model profiles differently per hardware.
    EXPECT_GT(quant.prefillEstimate(cpu, m7, 2048),
              quant.prefillEstimate(gpu, m7, 2048) * 3.0);
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
    Rng rng(GetParam());
    double total_dev = 0.0;
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        Tokens len = static_cast<Tokens>(rng.uniform(32, 4096));
        double actual = PerfModel::prefillTime(cpu, m, len) *
                        std::exp(0.03 * rng.normal());
        double est = quant.prefillEstimate(cpu, m, len);
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
    Rng rng(GetParam() + 1000);
    double total_dev = 0.0;
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        int batch = static_cast<int>(rng.uniform(1, 128));
        Tokens len = static_cast<Tokens>(rng.uniform(32, 4096));
        double actual = PerfModel::decodeTime(cpu, m, batch, len) *
                        std::exp(0.03 * rng.normal());
        double est = quant.decodeEstimate(cpu, m, batch, len);
        total_dev += std::abs(est - actual) / actual;
    }
    EXPECT_LT(total_dev / n, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantifierAccuracy,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(QuantifierDeath, UnprofiledPairPanics)
{
    Quantifier quant;
    EXPECT_DEATH(quant.prefillEstimate(a100_80g(), llama2_7b(), 100),
                 "not profiled");
}

TEST(Quantifier, LongContextModelGridReaches32K)
{
    Quantifier quant;
    HardwareSpec cpu = xeon6462c();
    ModelSpec m8 = llama31_8b();
    quant.profile(cpu, m8);
    // §IX-I1 / §X: 32K prefill on the CPU takes tens of seconds.
    EXPECT_GT(quant.prefillEstimate(cpu, m8, 32768), 20.0);
    // And ~8.4K inputs fit inside the 8 s TTFT ceiling.
    EXPECT_LT(quant.prefillEstimate(cpu, m8, 8400), 8.0);
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

/** Bitwise equality: a cursor estimate must be the table estimate. */
::testing::AssertionResult
sameBits(Seconds got, Seconds want)
{
    if (std::memcmp(&got, &want, sizeof got) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << got << " vs " << want << " (diff " << got - want << ")";
}

/** Every pair this file profiles: the 4K-context fixture pairs and
 *  the 32K-context model. */
class DecodeCursorTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        pairs = {{xeon6462c(), llama2_7b()},
                 {a100_80g(), llama2_7b()},
                 {xeon6462c(), llama2_13b()},
                 {xeon6462c(), llama31_8b()}};
        for (const auto &[hw, m] : pairs)
            quant.profile(hw, m);
    }

    std::vector<std::pair<HardwareSpec, ModelSpec>> pairs;
    Quantifier quant;
};

TEST_F(DecodeCursorTest, LengthWalkMatchesTableEstimate)
{
    // Each batch size from 1 to past the 256 grid top (extrapolation),
    // with the length stepping by one from below the grid front to
    // past maxContext: every grid point (w == 1 from below), both
    // clamps, and every interval of the length grid.
    for (const auto &[hw, m] : pairs) {
        const Quantifier::ProfileTable &t = quant.tableFor(hw, m);
        Quantifier::DecodeCursor cursor;
        cursor.reset(t);
        for (int batch = 1; batch <= 600; ++batch) {
            for (Tokens len = 1; len <= m.maxContext + 64; ++len) {
                ASSERT_TRUE(sameBits(cursor.estimate(batch, len),
                                     Quantifier::decodeEstimate(t, batch,
                                                                len)))
                    << hw.name << " " << m.name << " batch " << batch
                    << " len " << len;
            }
        }
    }
}

TEST_F(DecodeCursorTest, JumpsAndBatchChangesMatchTableEstimate)
{
    // A shadow fast-forward's query sequence: mostly +1 length steps,
    // with prefills joining (the batch grows and the mean length jumps,
    // often backwards), and the cursor re-pointed between tables.
    std::mt19937_64 rng(42);
    Quantifier::DecodeCursor cursor;
    for (int round = 0; round < 400; ++round) {
        const auto &[hw, m] = pairs[rng() % pairs.size()];
        const Quantifier::ProfileTable &t = quant.tableFor(hw, m);
        cursor.reset(t);
        const Tokens top = m.maxContext + 64;
        int batch = 1 + static_cast<int>(rng() % 600);
        double avg = static_cast<double>(1 + rng() % top);
        for (int step = 0; step < 300; ++step) {
            int roll = static_cast<int>(rng() % 100);
            if (roll < 8) {
                // A prefill joins the batch.
                double ctx = static_cast<double>(1 + rng() % top);
                avg = (avg * batch + ctx) / (batch + 1.0);
                ++batch;
            } else if (roll < 12) {
                // A jump anywhere, backwards included.
                avg = static_cast<double>(1 + rng() % top);
                batch = 1 + static_cast<int>(rng() % 600);
            } else {
                avg += 1.0;
            }
            Tokens len = static_cast<Tokens>(avg);
            ASSERT_TRUE(sameBits(cursor.estimate(batch, len),
                                 Quantifier::decodeEstimate(t, batch, len)))
                << hw.name << " " << m.name << " round " << round
                << " batch " << batch << " len " << len;
        }
    }
}

} // namespace
} // namespace slinfer

/**
 * @file
 * Hardware-layer tests: the model/hardware catalogs and — critically —
 * the roofline performance model's calibration against the paper's
 * published measurements (Table I, Figs. 6-8, 17).
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "hw/host_cpu_model.hh"
#include "hw/memcost_model.hh"
#include "hw/perf_model.hh"

namespace slinfer
{
namespace
{

// ------------------------------------------------------------------
// Model catalog
// ------------------------------------------------------------------

TEST(ModelSpec, WeightSizes)
{
    EXPECT_NEAR(toGiB(llama2_7b().weightBytes()), 12.5, 0.5);   // 13.4 GB
    EXPECT_NEAR(toGiB(llama2_13b().weightBytes()), 24.2, 0.5);  // 26 GB
    EXPECT_NEAR(toGiB(llama32_3b().weightBytes()), 6.0, 0.3);
    EXPECT_NEAR(toGiB(codellama_34b().weightBytes()), 62.8, 1.0);
}

TEST(ModelSpec, KvBytesPerToken)
{
    // Llama-2-7B: 32 layers * 2 (K,V) * 4096 * 2 bytes = 512 KiB/token.
    EXPECT_EQ(llama2_7b().kvBytesPerToken(), 512u * 1024u);
    // Llama-2-13B: 40 layers * 2 * 5120 * 2 = 800 KiB/token.
    EXPECT_EQ(llama2_13b().kvBytesPerToken(), 800u * 1024u);
    // GQA models have much smaller KV.
    EXPECT_LT(llama31_8b().kvBytesPerToken(),
              llama2_7b().kvBytesPerToken() / 3);
}

TEST(ModelSpec, FlopsPerToken)
{
    EXPECT_DOUBLE_EQ(llama2_7b().flopsPerToken(), 2.0 * 6.7e9);
    EXPECT_GT(llama2_7b().attnFlops(4096), llama2_7b().attnFlops(1024));
}

TEST(ModelSpec, QuantizedShrinksWeightsOnly)
{
    ModelSpec base = codestral_22b();
    ModelSpec q4 = quantized(base, 4);
    EXPECT_EQ(q4.weightBytes(), base.weightBytes() / 4);
    EXPECT_EQ(q4.kvBytesPerToken(), base.kvBytesPerToken());
    EXPECT_NE(q4.name, base.name);
}

TEST(ModelSpec, ClassNames)
{
    EXPECT_STREQ(modelClassName(ModelClass::Small3B), "3B");
    EXPECT_STREQ(modelClassName(ModelClass::Huge34B), "34B");
}

TEST(ModelSpec, ContextLengths)
{
    EXPECT_EQ(llama2_7b().maxContext, 4096);
    EXPECT_EQ(llama31_8b().maxContext, 32768); // LongBench support
}

TEST(ModelSpec, TensorParallelDegrees)
{
    EXPECT_EQ(llama2_7b().tpDegree, 1);
    EXPECT_EQ(codellama_34b().tpDegree, 2);
}

TEST(ModelSpec, PresetsResolveBySlugAndDisplayName)
{
    const std::pair<const char *, ModelSpec> presets[] = {
        {"llama32-3b", llama32_3b()},     {"llama2-7b", llama2_7b()},
        {"llama31-8b", llama31_8b()},     {"llama2-13b", llama2_13b()},
        {"codestral-22b", codestral_22b()},
        {"codellama-34b", codellama_34b()},
    };
    for (const auto &[slug, want] : presets) {
        for (const std::string &name : {std::string(slug), want.name}) {
            ModelSpec got;
            ASSERT_TRUE(tryModelPreset(name, got)) << name;
            EXPECT_EQ(got.name, want.name) << name;
            EXPECT_EQ(got.klass, want.klass) << name;
            EXPECT_EQ(got.params, want.params) << name;
            EXPECT_EQ(got.numLayers, want.numLayers) << name;
            EXPECT_EQ(got.hiddenDim, want.hiddenDim) << name;
            EXPECT_EQ(got.kvBytesPerLayerToken, want.kvBytesPerLayerToken)
                << name;
            EXPECT_EQ(got.bytesPerParam, want.bytesPerParam) << name;
            EXPECT_EQ(got.maxContext, want.maxContext) << name;
            EXPECT_EQ(got.tpDegree, want.tpDegree) << name;
        }
    }
    EXPECT_EQ(llama2_13b().name, "Llama-2-13B");
    ModelSpec untouched;
    EXPECT_FALSE(tryModelPreset("llama2-70b", untouched));
    EXPECT_FALSE(tryModelPreset("", untouched));
    EXPECT_TRUE(untouched.name.empty());
}

// ------------------------------------------------------------------
// Hardware catalog
// ------------------------------------------------------------------

TEST(HardwareSpec, Catalog)
{
    EXPECT_FALSE(xeon8369b().hasMatrixAccel);
    EXPECT_TRUE(xeon6462c().hasMatrixAccel);
    EXPECT_EQ(xeon6462c().kind, HwKind::Cpu);
    EXPECT_EQ(a100_80g().kind, HwKind::Gpu);
    // Paper Discussion: 105 vs 13 vs 297 TFLOPS.
    EXPECT_NEAR(xeon6462c().peakFlops / xeon8369b().peakFlops, 8.0, 1.0);
    EXPECT_NEAR(xeon6_96c().peakFlops / 1e12, 297.0, 1.0);
}

TEST(HardwareSpec, ScaledPartitionHalvesResources)
{
    HardwareSpec half = scaledPartition(a100_80g(), 0.5);
    EXPECT_DOUBLE_EQ(half.peakFlops, a100_80g().peakFlops / 2);
    EXPECT_DOUBLE_EQ(half.memBandwidth, a100_80g().memBandwidth / 2);
    EXPECT_EQ(half.memCapacity, a100_80g().memCapacity / 2);
    EXPECT_NE(half.name, a100_80g().name); // distinct profile key
    EXPECT_DOUBLE_EQ(half.effPrefill, a100_80g().effPrefill);
}

// ------------------------------------------------------------------
// Roofline calibration: Table I (Llama-2-7B on two CPU generations).
// The test asserts every cell within 12% relative error.
// ------------------------------------------------------------------

struct TableICase
{
    const char *cpu;
    Tokens prefill_len;
    double expect_ms;
};

class TableIPrefill : public ::testing::TestWithParam<TableICase>
{
};

TEST_P(TableIPrefill, MatchesPaper)
{
    const auto &c = GetParam();
    HardwareSpec hw =
        std::string(c.cpu) == "3rd" ? xeon8369b() : xeon6462c();
    double got = toMs(PerfModel::prefillTime(hw, llama2_7b(),
                                             c.prefill_len));
    EXPECT_NEAR(got, c.expect_ms, c.expect_ms * 0.12)
        << c.cpu << " gen, L=" << c.prefill_len;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTableI, TableIPrefill,
    ::testing::Values(TableICase{"3rd", 256, 1003.0},
                      TableICase{"3rd", 1024, 4113.0},
                      TableICase{"3rd", 4096, 18612.0},
                      TableICase{"4th", 256, 149.0},
                      TableICase{"4th", 1024, 567.0},
                      TableICase{"4th", 4096, 2748.0}));

struct TableIDecodeCase
{
    const char *cpu;
    int batch;
    Tokens len;
    double expect_ms;
};

class TableIDecode : public ::testing::TestWithParam<TableIDecodeCase>
{
};

TEST_P(TableIDecode, MatchesPaper)
{
    const auto &c = GetParam();
    HardwareSpec hw =
        std::string(c.cpu) == "3rd" ? xeon8369b() : xeon6462c();
    double got =
        toMs(PerfModel::decodeTime(hw, llama2_7b(), c.batch, c.len));
    EXPECT_NEAR(got, c.expect_ms, c.expect_ms * 0.12)
        << c.cpu << " gen, bs=" << c.batch << ", L=" << c.len;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTableI, TableIDecode,
    ::testing::Values(TableIDecodeCase{"3rd", 1, 1024, 100.0},
                      TableIDecodeCase{"3rd", 32, 1024, 338.0},
                      TableIDecodeCase{"3rd", 1, 4096, 110.0},
                      TableIDecodeCase{"3rd", 32, 4096, 697.0},
                      TableIDecodeCase{"4th", 1, 1024, 71.0},
                      TableIDecodeCase{"4th", 32, 1024, 196.0},
                      TableIDecodeCase{"4th", 1, 4096, 80.0},
                      TableIDecodeCase{"4th", 32, 4096, 459.0}));

// ------------------------------------------------------------------
// Qualitative shape properties of the performance model (Figs. 6-8).
// ------------------------------------------------------------------

class PerfShape : public ::testing::TestWithParam<int>
{
  protected:
    ModelSpec modelFor(int idx)
    {
        switch (idx % 3) {
          case 0: return llama2_7b();
          case 1: return llama2_13b();
          default: return llama32_3b();
        }
    }
    HardwareSpec hwFor(int idx)
    {
        return idx < 3 ? xeon6462c() : a100_80g();
    }
};

TEST_P(PerfShape, PrefillMonotoneInLength)
{
    ModelSpec m = modelFor(GetParam());
    HardwareSpec hw = hwFor(GetParam());
    Seconds prev = 0.0;
    for (Tokens len = 128; len <= 8192; len *= 2) {
        Seconds t = PerfModel::prefillTime(hw, m, len);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST_P(PerfShape, DecodeMonotoneInBatchAndLength)
{
    ModelSpec m = modelFor(GetParam());
    HardwareSpec hw = hwFor(GetParam());
    for (Tokens len : {512, 1024, 2048}) {
        Seconds prev = 0.0;
        for (int b = 1; b <= 128; b *= 2) {
            Seconds t = PerfModel::decodeTime(hw, m, b, len);
            EXPECT_GT(t, prev);
            prev = t;
        }
    }
    EXPECT_LT(PerfModel::decodeTime(hw, m, 8, 512),
              PerfModel::decodeTime(hw, m, 8, 2048));
}

TEST_P(PerfShape, BatchingIsSubLinear)
{
    // Paper Fig. 7: a 4-batch costs much less than 4x a 1-batch.
    ModelSpec m = modelFor(GetParam());
    HardwareSpec hw = hwFor(GetParam());
    Seconds t1 = PerfModel::decodeTime(hw, m, 1, 1024);
    Seconds t4 = PerfModel::decodeTime(hw, m, 4, 1024);
    EXPECT_LT(t4, 2.0 * t1);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, PerfShape, ::testing::Range(0, 6));

TEST(PerfModel, CpuSevenBFourBatchWithinFourteenPercent)
{
    // Paper §IV-A2: 7B on CPU at 1K tokens, 4-batch TPOT is only ~14%
    // above 1-batch.
    HardwareSpec cpu = xeon6462c();
    Seconds t1 = PerfModel::decodeTime(cpu, llama2_7b(), 1, 1024);
    Seconds t4 = PerfModel::decodeTime(cpu, llama2_7b(), 4, 1024);
    EXPECT_LT((t4 - t1) / t1, 0.25);
}

TEST(PerfModel, Cpu13BDoublesFrom512To2K)
{
    // Paper §IV-A2: 13B at 32-batch roughly doubles TPOT from 512 to
    // 2K, violating the 0.25 s SLO at 2K.
    HardwareSpec cpu = xeon6462c();
    Seconds t512 = PerfModel::decodeTime(cpu, llama2_13b(), 32, 512);
    Seconds t2k = PerfModel::decodeTime(cpu, llama2_13b(), 32, 2048);
    EXPECT_NEAR(t2k / t512, 2.0, 0.5);
    EXPECT_GT(t2k, 0.25);
}

TEST(PerfModel, GpuMeetsTightSlos)
{
    HardwareSpec gpu = a100_80g();
    // A100 serves 7B at batch 128, 2K context within the 0.25 s TPOT.
    EXPECT_LT(PerfModel::decodeTime(gpu, llama2_7b(), 128, 2048), 0.25);
    // And prefills 8K inputs in about a second (Fig. 6).
    EXPECT_LT(PerfModel::prefillTime(gpu, llama2_7b(), 8192), 2.0);
}

TEST(PerfModel, Cpu34BIsInfeasible)
{
    // Fig. 6: C-34B violates the TTFT SLO at moderate lengths; the
    // decode also exceeds 0.25 s even at batch 1.
    HardwareSpec cpu = xeon6462c();
    EXPECT_GT(PerfModel::decodeTime(cpu, codellama_34b(), 1, 1024), 0.25);
}

TEST(PerfModel, MaxBatchWithinTpot)
{
    HardwareSpec cpu = xeon6462c();
    // Table II: C-7B-2K supports ~27 concurrent within the 0.25 s SLO.
    int b = PerfModel::maxBatchWithinTpot(cpu, llama2_7b(), 2048, 0.25);
    EXPECT_GE(b, 18);
    EXPECT_LE(b, 40);
    // Infeasible at batch 1 returns zero.
    EXPECT_EQ(PerfModel::maxBatchWithinTpot(cpu, codellama_34b(), 1024,
                                            0.25),
              0);
}

TEST(PerfModel, TightSlosShrinkCpuApplicability)
{
    // Paper §IV-A2 limitation (3): under a 100 ms TPOT only small
    // batches of 7B work; at 50 ms even 7B fails.
    HardwareSpec cpu = xeon6462c();
    int b100_1k = PerfModel::maxBatchWithinTpot(cpu, llama2_7b(), 1024,
                                                0.100);
    int b100_4k = PerfModel::maxBatchWithinTpot(cpu, llama2_7b(), 4096,
                                                0.100);
    int b50 = PerfModel::maxBatchWithinTpot(cpu, llama2_7b(), 1024,
                                            0.050);
    EXPECT_GT(b100_1k, 0);
    EXPECT_LE(b100_1k, 16);
    EXPECT_LE(b100_4k, 6);
    EXPECT_EQ(b50, 0);
}

TEST(PerfModel, TensorParallelScales)
{
    HardwareSpec tp2 = PerfModel::tensorParallel(a100_80g(), 2);
    EXPECT_GT(tp2.peakFlops, a100_80g().peakFlops);
    EXPECT_LT(tp2.peakFlops, 2.0 * a100_80g().peakFlops); // comm penalty
    EXPECT_EQ(tp2.memCapacity, 2 * a100_80g().memCapacity);
    EXPECT_LT(PerfModel::prefillTime(tp2, codellama_34b(), 2048),
              PerfModel::prefillTime(a100_80g(), codellama_34b(), 2048));
}

TEST(PerfModel, AuxKvBandwidthSpeedsDecodeOnly)
{
    HardwareSpec gpu = a100_80g();
    HardwareSpec neo = gpu;
    neo.auxKvBandwidth = 100e9;
    EXPECT_LT(PerfModel::decodeTime(neo, llama2_7b(), 64, 2048),
              PerfModel::decodeTime(gpu, llama2_7b(), 64, 2048));
    EXPECT_DOUBLE_EQ(PerfModel::prefillTime(neo, llama2_7b(), 1024),
                     PerfModel::prefillTime(gpu, llama2_7b(), 1024));
}

TEST(PerfModel, NonPositiveShapesPanic)
{
    EXPECT_DEATH(PerfModel::decodeTime(a100_80g(), llama2_7b(), 0, 512),
                 "non-positive batch size");
    EXPECT_DEATH(PerfModel::prefillTime(a100_80g(), llama2_7b(), 0),
                 "non-positive input length");
}

// ------------------------------------------------------------------
// Memory-operation cost model (Fig. 17, §IX-A).
// ------------------------------------------------------------------

TEST(MemCostModel, KvResizeMatchesFig17)
{
    HardwareSpec gpu = a100_80g();
    // 32 GB -> 64 GB: 1.9 s; 32 GB -> 16 GB: 0.3 s (vendor GB).
    Seconds up = MemCostModel::kvResizeTime(gpu, 32e9, 64e9);
    Seconds down = MemCostModel::kvResizeTime(gpu, 32e9, 16e9);
    EXPECT_NEAR(up, 1.9, 0.2);
    EXPECT_NEAR(down, 0.3, 0.1);
}

TEST(MemCostModel, ResizeZeroWhenUnchanged)
{
    EXPECT_DOUBLE_EQ(MemCostModel::kvResizeTime(a100_80g(), 8e9, 8e9),
                     0.0);
}

TEST(MemCostModel, CpuResizesCheaper)
{
    EXPECT_LT(MemCostModel::kvResizeTime(xeon6462c(), 8e9, 16e9),
              MemCostModel::kvResizeTime(a100_80g(), 8e9, 16e9));
}

TEST(MemCostModel, SevenBLoadsInAboutASecond)
{
    // §IX-A: the sllm loader loads a 7B model in ~1 s.
    Seconds t = MemCostModel::weightLoadTime(a100_80g(), llama2_7b());
    EXPECT_GT(t, 0.7);
    EXPECT_LT(t, 1.5);
}

TEST(MemCostModel, LoadScalesWithModelSize)
{
    EXPECT_GT(MemCostModel::weightLoadTime(a100_80g(), llama2_13b()),
              MemCostModel::weightLoadTime(a100_80g(), llama2_7b()));
}

TEST(MemCostModel, UnloadIsFasterThanLoad)
{
    Seconds unload = MemCostModel::weightUnloadTime(a100_80g(), llama2_7b());
    EXPECT_GT(unload, 0.0);
    EXPECT_LT(unload, MemCostModel::weightLoadTime(a100_80g(), llama2_7b()));
}

TEST(MemCostModel, MigrationUsesFabricBandwidth)
{
    // 12.5 GB/s: 1.25 GB of KV takes ~100 ms.
    Seconds t = MemCostModel::kvMigrationTime(1250000000ULL);
    EXPECT_NEAR(t, 0.102, 0.01);
}

// ------------------------------------------------------------------
// Host-CPU usage model (Figs. 10, 11, 28).
// ------------------------------------------------------------------

TEST(HostCpuModel, NeverExceedsOneCore)
{
    for (int b = 1; b <= 256; b *= 2)
        EXPECT_LT(HostCpuModel::coreUsage(b), 1.0);
    EXPECT_GT(HostCpuModel::coreUsage(64), HostCpuModel::coreUsage(1));
}

TEST(HostCpuModel, StressSlowdownMatchesFig11)
{
    // 64 stress processes on 32 cores => ~4% loss.
    EXPECT_NEAR(HostCpuModel::stressSlowdown(64, 32), 1.04, 0.005);
    EXPECT_DOUBLE_EQ(HostCpuModel::stressSlowdown(0, 32), 1.0);
    // Saturates: more stress cannot exceed the calibrated ceiling.
    EXPECT_LE(HostCpuModel::stressSlowdown(1024, 32), 1.05);
}

TEST(HostCpuModel, ColocationStaysNearOneCore)
{
    // Fig. 28: eight colocated instances use just over one core.
    double u8 = HostCpuModel::colocatedCoreUsage(8);
    EXPECT_GT(u8, 1.0);
    EXPECT_LT(u8, 1.5);
    EXPECT_LT(HostCpuModel::colocatedCoreUsage(1), 0.8);
}

} // namespace
} // namespace slinfer

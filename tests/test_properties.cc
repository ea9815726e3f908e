/**
 * @file
 * Cross-cutting property tests: comparative claims from the paper's
 * evaluation that must hold for any seed — SLINFER's capacity advantage
 * at scale, memory safety under every system, the watermark's effect on
 * scaling overhead, and PD disaggregation's cost at low load.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/experiment.hh"

namespace slinfer
{
namespace
{

Report
runSystem(SystemKind sys, int num_models, std::uint64_t seed,
          Seconds duration = 300.0,
          ControllerConfig ctl = ControllerConfig{})
{
    ExperimentConfig cfg;
    cfg.system = sys;
    cfg.models = replicateModel(llama2_7b(), num_models);
    AzureTraceConfig tc;
    tc.numModels = num_models;
    tc.duration = duration;
    tc.seed = seed;
    cfg.trace = generateAzureTrace(tc);
    cfg.duration = duration;
    cfg.controller = ctl;
    cfg.seed = seed;
    return runExperiment(cfg);
}

class SeededComparison : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeededComparison, SlinferBeatsSllmAtScale)
{
    // Fig. 22: at high model counts SLINFER serves substantially more
    // SLO-met requests than exclusive allocation.
    Report slinfer = runSystem(SystemKind::Slinfer, 64, GetParam());
    Report sllm = runSystem(SystemKind::Sllm, 64, GetParam());
    EXPECT_GT(slinfer.sloMet, sllm.sloMet);
    EXPECT_GE(static_cast<double>(slinfer.sloMet),
              1.1 * static_cast<double>(sllm.sloMet));
}

TEST_P(SeededComparison, SlinferDropsFewerRequests)
{
    Report slinfer = runSystem(SystemKind::Slinfer, 64, GetParam());
    Report sllm = runSystem(SystemKind::Sllm, 64, GetParam());
    EXPECT_LT(slinfer.dropped, sllm.dropped);
}

TEST_P(SeededComparison, CpuAblationUsesMoreGpus)
{
    // Fig. 23: disabling the CPU path keeps GPU usage consistently
    // high.
    Report full = runSystem(SystemKind::Slinfer, 32, GetParam());
    Report no_cpu = runSystem(SystemKind::SlinferNoCpu, 32, GetParam());
    EXPECT_GT(no_cpu.avgGpuNodesUsed, full.avgGpuNodesUsed);
    EXPECT_DOUBLE_EQ(no_cpu.avgCpuNodesUsed, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededComparison,
                         ::testing::Values(5, 17, 23));

TEST(Properties, SharingAblationServesFewerAtScale)
{
    // Fig. 23: without sharing the deployment density collapses.
    Report full = runSystem(SystemKind::Slinfer, 64, 5);
    Report no_share = runSystem(SystemKind::SlinferNoSharing, 64, 5);
    EXPECT_GT(full.sloMet, no_share.sloMet);
}

TEST(Properties, PdDisaggregationCostsCapacity)
{
    // Table III: at serverless load levels PD disaggregation uses more
    // resources / serves less than aggregated serving.
    Report agg = runSystem(SystemKind::Slinfer, 32, 5);
    Report pd = runSystem(SystemKind::SlinferPD, 32, 5);
    EXPECT_GE(agg.sloMet, pd.sloMet);
}

TEST(Properties, WatermarkReducesScalingOverhead)
{
    // Fig. 31: watermark 0 spends far more lifetime on KV resizes than
    // the default 25%.
    ControllerConfig w0;
    w0.watermark = 0.0;
    ControllerConfig w25;
    w25.watermark = 0.25;
    Report r0 = runSystem(SystemKind::Slinfer, 24, 5, 300.0, w0);
    Report r25 = runSystem(SystemKind::Slinfer, 24, 5, 300.0, w25);
    EXPECT_GT(r0.scalingOverhead, r25.scalingOverhead);
}

TEST(Properties, HighWatermarkLowersKvUtilization)
{
    // Fig. 31: raising the watermark wastes allocation.
    ControllerConfig w25;
    w25.watermark = 0.25;
    ControllerConfig w100;
    w100.watermark = 1.00;
    Report r25 = runSystem(SystemKind::Slinfer, 24, 5, 300.0, w25);
    Report r100 = runSystem(SystemKind::Slinfer, 24, 5, 300.0, w100);
    EXPECT_GT(r25.kvUtilization, r100.kvUtilization);
}

TEST(Properties, MigrationRateStaysLow)
{
    // §IX-I5 reports 0-0.3%; our simulated substrate sits below 8%
    // at moderate load (see EXPERIMENTS.md for the recorded deviation).
    Report r = runSystem(SystemKind::Slinfer, 32, 5);
    EXPECT_LT(r.migrationRate, 0.08);
}

TEST(Properties, MoreNodesServeMore)
{
    // Fig. 32 shape: capacity grows with the cluster.
    auto run_with = [](int cpus, int gpus) {
        ExperimentConfig cfg;
        cfg.system = SystemKind::Slinfer;
        cfg.cluster.cpuNodes = cpus;
        cfg.cluster.gpuNodes = gpus;
        cfg.models = replicateModel(llama2_7b(), 64);
        AzureTraceConfig tc;
        tc.numModels = 64;
        tc.duration = 300.0;
        tc.seed = 5;
        cfg.trace = generateAzureTrace(tc);
        cfg.duration = 300.0;
        return runExperiment(cfg);
    };
    Report small = run_with(1, 1);
    Report large = run_with(4, 4);
    EXPECT_GT(large.sloMet, small.sloMet);
}

class MemorySafety : public ::testing::TestWithParam<SystemKind>
{
};

TEST_P(MemorySafety, NoSystemEverOoms)
{
    // Run each system on a stressful trace and assert the physical
    // ledger never rejected a hold (the orchestration invariant).
    ExperimentConfig cfg;
    cfg.system = GetParam();
    cfg.cluster.cpuNodes = 2;
    cfg.cluster.gpuNodes = 2;
    cfg.models = replicateModel(llama2_13b(), 24);
    AzureTraceConfig tc;
    tc.numModels = 24;
    tc.duration = 240.0;
    tc.seed = 9;
    cfg.trace = generateAzureTrace(tc);
    cfg.duration = 240.0;

    // Rebuild runExperiment inline to keep access to the nodes.
    Simulator sim;
    ClusterHandle cluster{buildCluster(cfg.cluster,
                                       systemPartitions(cfg.system)),
                          nullptr};
    auto &nodes = cluster.nodes;
    Recorder recorder;
    Dataset dataset(cfg.dataset);
    Rng len_rng = Rng(cfg.seed).fork(0x1E46);
    std::deque<Request> requests;
    RequestId next_id = 1;
    for (const Arrival &a : cfg.trace.arrivals) {
        const ModelSpec &spec = cfg.models[a.model];
        LengthSample len = dataset.sample(len_rng);
        Request req;
        req.id = next_id++;
        req.model = a.model;
        req.arrival = a.time;
        req.inputLen = std::clamp<Tokens>(len.input, 1,
                                          spec.maxContext - 64);
        req.targetOutput = std::clamp<Tokens>(
            len.output, 1, spec.maxContext - req.inputLen - 1);
        req.ttftSlo = cfg.controller.slo.ttft(req.inputLen);
        req.tpotSlo = cfg.controller.slo.tpot;
        requests.push_back(req);
    }
    std::vector<double> avg(cfg.models.size(), dataset.meanOutput());
    auto controller = makeSystem(cfg.system, sim, cluster, cfg.models,
                                 avg, cfg.controller, recorder);
    for (Request &req : requests) {
        sim.scheduleAt(req.arrival,
                       [&controller, &req] { controller->submit(&req); });
    }
    sim.run();

    for (const auto &node : nodes) {
        for (const auto &part : node->partitions()) {
            EXPECT_EQ(part->mem.oomEvents(), 0u)
                << systemName(cfg.system) << " node " << node->id();
            // Everything was eventually released.
            EXPECT_EQ(part->mem.used(), 0u);
        }
    }
    // Conservation: every request either completed or was dropped.
    EXPECT_EQ(recorder.completed() + recorder.dropped(),
              requests.size());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, MemorySafety,
                         ::testing::Values(SystemKind::Sllm,
                                           SystemKind::SllmC,
                                           SystemKind::SllmCS,
                                           SystemKind::Slinfer,
                                           SystemKind::SlinferNoCpu,
                                           SystemKind::SlinferPD));

} // namespace
} // namespace slinfer

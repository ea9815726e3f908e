/**
 * @file
 * Regression and edge-case tests: bugs found during development (each
 * with the failure mode it guards against) plus boundary conditions of
 * the public API.
 */

#include <gtest/gtest.h>

#include "baselines/neo.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/controller.hh"
#include "harness/experiment.hh"
#include "harness/session.hh"
#include "metrics/cluster_stats.hh"
#include "metrics/recorder.hh"
#include "scenario/scenario.hh"

namespace slinfer
{
namespace
{

struct Rig
{
    void
    build(int cpus, int gpus, std::vector<ModelSpec> model_specs,
          ControllerConfig cfg = {})
    {
        cluster.cpuNodes = cpus;
        cluster.gpuNodes = gpus;
        nodes = buildCluster(cluster, 1);
        models = std::move(model_specs);
        std::vector<double> avg(models.size(), 250.0);
        ctl = std::make_unique<SlinferController>(sim, nodes, models, avg,
                                                  cfg, recorder, nullptr);
    }

    Request &
    submitAt(ModelId model, Seconds arrival, Tokens in, Tokens out)
    {
        auto r = std::make_unique<Request>();
        r->id = nextReq++;
        r->model = model;
        r->arrival = arrival;
        r->inputLen = in;
        r->targetOutput = out;
        r->ttftSlo = std::min(std::max(0.5, in / 512.0), 8.0);
        r->tpotSlo = 0.25;
        Request *p = r.get();
        reqs.push_back(std::move(r));
        sim.scheduleAt(arrival, [this, p] { ctl->submit(p); });
        return *p;
    }

    ClusterSpec cluster;
    Simulator sim;
    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<ModelSpec> models;
    Recorder recorder;
    std::unique_ptr<SlinferController> ctl;
    std::vector<std::unique_ptr<Request>> reqs;
    RequestId nextReq = 1;
};

// --------------------------------------------------------------
// Regression: keep-alive 0 + resize-in-flight used to spin a
// zero-delay event loop forever (simulated time never advanced).
// --------------------------------------------------------------
TEST(Regression, ZeroKeepAliveTerminates)
{
    Rig rig;
    ControllerConfig cfg;
    cfg.keepAlive = 0.0;
    rig.build(1, 1, {llama2_7b(), llama2_7b()}, cfg);
    for (int i = 0; i < 20; ++i)
        rig.submitAt(i % 2, 0.1 * i, 1500, 120);
    rig.sim.run(); // must terminate
    EXPECT_EQ(rig.recorder.completed() + rig.recorder.dropped(), 20u);
    for (const auto &node : rig.nodes)
        EXPECT_EQ(node->memUsed(), 0u);
}

// --------------------------------------------------------------
// Regression: a KV resize committed while the instance's cold-start
// load was still parked used to release bytes that were never held,
// corrupting the node ledger and wedging the partition permanently.
// The end-to-end symptom was instances stuck Loading forever.
// --------------------------------------------------------------
TEST(Regression, NoPermanentLoadingWedgeUnderPressure)
{
    Rig rig;
    rig.build(0, 1, {llama2_7b(), llama2_7b(), llama2_7b(),
                     llama2_7b(), llama2_7b(), llama2_7b()});
    for (int m = 0; m < 6; ++m)
        for (int i = 0; i < 8; ++i)
            rig.submitAt(m, 0.2 * i + 0.01 * m, 2500, 250);
    rig.sim.run();
    // Every instance reached a terminal or serving state; nothing is
    // stuck mid-load with queued requests.
    EXPECT_EQ(rig.recorder.completed() + rig.recorder.dropped(), 48u);
    for (const auto &me : rig.ctl->models())
        EXPECT_TRUE(me.instances.empty());
    for (const auto &node : rig.nodes) {
        EXPECT_EQ(node->memUsed(), 0u);
        for (const auto &part : node->partitions())
            EXPECT_EQ(part->mem.oomEvents(), 0u);
    }
}

// --------------------------------------------------------------
// Regression: evicted requests whose deadlines had expired could
// never re-pass shadow validation and leaked (neither completed nor
// dropped). Conservation must hold under heavy eviction pressure.
// --------------------------------------------------------------
TEST(Regression, EvictedRequestsAlwaysFinish)
{
    Rig rig;
    rig.build(0, 1, {llama2_7b(), llama2_7b(), llama2_7b(),
                     llama2_7b()});
    for (int m = 0; m < 4; ++m)
        for (int i = 0; i < 6; ++i)
            rig.submitAt(m, 0.05 * i, 3500, 500);
    rig.sim.run();
    EXPECT_EQ(rig.recorder.completed() + rig.recorder.dropped(), 24u);
}

// --------------------------------------------------------------
// Regression: the consolidator could plan a move of one victim's
// request onto an instance that a later iteration then added as a
// victim too, and execute() panicked "victim still owns requests"
// when it unloaded that instance. fleet-640 with its arrivals drawn at
// the catalog seed 5 and experiment seed 12 hit it about 10 s in.
// --------------------------------------------------------------
class FixedSeedArrivals : public scenario::ArrivalProcess
{
  public:
    FixedSeedArrivals(scenario::ArrivalProcessPtr inner, std::uint64_t seed)
        : inner_(std::move(inner)), seed_(seed)
    {
    }
    const char *kind() const override { return inner_->kind(); }
    AzureTrace generate(std::uint64_t) const override
    {
        return inner_->generate(seed_);
    }
    Seconds duration() const override { return inner_->duration(); }
    int numModels() const override { return inner_->numModels(); }
    double targetAggregateRpm() const override
    {
        return inner_->targetAggregateRpm();
    }

  private:
    scenario::ArrivalProcessPtr inner_;
    std::uint64_t seed_;
};

TEST(Regression, ConsolidatorNeverUnloadsAMoveDestination)
{
    const scenario::Scenario *sc = scenario::byName("fleet-640");
    ASSERT_NE(sc, nullptr);
    ExperimentConfig cfg = sc->toExperiment(SystemKind::Slinfer, 12);
    cfg.arrivals = std::make_shared<FixedSeedArrivals>(sc->arrivals, 5);
    Session session(cfg);
    session.advanceTo(20.0); // must not panic
    EXPECT_EQ(session.now(), 20.0);
}

// --------------------------------------------------------------
// Edge cases of the public API.
// --------------------------------------------------------------

TEST(EdgeCase, EmptyTraceRunsCleanly)
{
    ExperimentConfig cfg;
    cfg.system = SystemKind::Slinfer;
    cfg.models = replicateModel(llama2_7b(), 2);
    cfg.trace = AzureTrace{}; // no arrivals
    cfg.duration = 10.0;
    Report r = runExperiment(cfg);
    EXPECT_EQ(r.totalRequests, 0u);
    EXPECT_DOUBLE_EQ(r.avgGpuNodesUsed, 0.0);
}

TEST(EdgeCase, SimultaneousArrivalsAreDeterministic)
{
    auto run_once = [] {
        Rig rig;
        rig.build(1, 1, {llama2_7b()});
        for (int i = 0; i < 10; ++i)
            rig.submitAt(0, 1.0, 800, 40); // identical timestamps
        rig.sim.run();
        return rig.recorder.sloMet();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(EdgeCase, MaxContextRequestServed)
{
    Rig rig;
    rig.build(0, 1, {llama2_7b()});
    // Input at the clamp boundary, one output token.
    Request &r = rig.submitAt(0, 0.0, llama2_7b().maxContext - 64, 1);
    rig.sim.run();
    EXPECT_EQ(r.state, RequestState::Completed);
}

TEST(EdgeCase, SingleCoreScaledCpuNodeStillWorks)
{
    // Fig. 29 harvesting path: a 1/32-scaled CPU node must behave
    // sanely (profiled, admitted against, never OOM).
    Rig rig;
    rig.cluster.cpuSpec = scaledPartition(xeon6462c(), 1.0 / 32.0);
    rig.build(1, 1, {llama32_3b()});
    rig.submitAt(0, 0.0, 256, 20);
    rig.sim.run();
    EXPECT_EQ(rig.recorder.completed(), 1u);
}

TEST(EdgeCase, NeoZeroCoresIsPlainGpu)
{
    HardwareSpec gpu = a100_80g();
    HardwareSpec neo = neoGpuSpec(gpu, xeon6462c(), 0);
    EXPECT_EQ(neo.name, gpu.name);
    EXPECT_DOUBLE_EQ(neo.auxKvBandwidth, 0.0);
    EXPECT_EQ(neo.auxKvCapacity, 0u);
}

TEST(EdgeCase, PartitionLiveBytesTracksWeightsAndKv)
{
    Node node(0, a100_80g(), 1);
    Partition *part = node.partitions()[0].get();
    ModelSpec m = llama2_7b();
    Instance inst(1, 0, m, part, a100_80g(), 8ULL << 30);
    part->addInstance(&inst);
    // Not yet resident: only KV pages would count (none used).
    EXPECT_EQ(part->liveBytes(), 0u);
    inst.memResident = true;
    EXPECT_EQ(part->liveBytes(), m.weightBytes());
    ASSERT_TRUE(inst.kv.reserve(1024));
    EXPECT_EQ(part->liveBytes(),
              m.weightBytes() + 1024 * m.kvBytesPerToken());
    inst.setState(InstanceState::Reclaimed);
    EXPECT_EQ(part->liveBytes(), 0u);
}

TEST(EdgeCase, WatermarkZeroStillServes)
{
    Rig rig;
    ControllerConfig cfg;
    cfg.watermark = 0.0;
    rig.build(1, 1, {llama2_7b()}, cfg);
    for (int i = 0; i < 10; ++i)
        rig.submitAt(0, 0.3 * i, 1200, 80);
    rig.sim.run();
    EXPECT_EQ(rig.recorder.completed(), 10u);
    // Frequent resizing shows up in the overhead accounting.
    EXPECT_GT(rig.ctl->resizeOps(), 0u);
}

TEST(EdgeCase, TwoRequestsSameModelDifferentLengthClasses)
{
    // A short request must not be starved behind a long prefill of the
    // same model thanks to headroom ordering.
    Rig rig;
    rig.build(0, 1, {llama2_7b()});
    Request &longr = rig.submitAt(0, 0.0, 4000, 100);
    Request &shortr = rig.submitAt(0, 0.05, 128, 20); // TTFT 0.5 s
    rig.sim.run();
    EXPECT_EQ(longr.state, RequestState::Completed);
    EXPECT_EQ(shortr.state, RequestState::Completed);
    EXPECT_FALSE(shortr.sloViolated);
}

TEST(EdgeCase, QuantizedModelEndToEnd)
{
    Rig rig;
    rig.build(1, 1, {quantized(llama2_13b(), 4)});
    Request &r = rig.submitAt(0, 0.0, 1024, 60);
    rig.sim.run();
    EXPECT_EQ(r.state, RequestState::Completed);
    // INT4 weights load much faster => smaller grace window.
    EXPECT_LT(r.grace, 0.6);
}

TEST(EdgeCase, ReportBuildOnEmptyCollectors)
{
    Recorder rec;
    Simulator sim;
    std::vector<std::unique_ptr<Node>> nodes;
    ClusterStats stats(sim, nodes);
    Report r = Report::build("x", rec, stats, {1.0, 2.0});
    EXPECT_EQ(r.totalRequests, 0u);
    EXPECT_EQ(r.ttftCdf.size(), 2u);
    EXPECT_DOUBLE_EQ(r.ttftCdf[0].second, 0.0);
}

// The decode batch-size CDF must not grow with the number of decode
// iterations: fleet-640 runs about 3.8M of them.
TEST(ClusterStats, BatchCdfStorageIsBounded)
{
    Simulator sim;
    std::vector<std::unique_ptr<Node>> nodes;
    ClusterStats stats(sim, nodes);
    CdfBuilder ref;
    Rng rng(11);
    for (int i = 0; i < 1000000; ++i) {
        auto batch = static_cast<int>(rng.uniformInt(1, 64));
        stats.onDecodeIteration(HwKind::Gpu, batch, batch);
        ref.add(batch);
    }
    const CountCdf &cdf = stats.batchCdf();
    EXPECT_EQ(cdf.count(), 1000000u);
    EXPECT_LE(cdf.bins(), 65u);
    EXPECT_EQ(cdf.mean(), ref.mean());
}

TEST(EdgeCase, TraceWithOneModel)
{
    AzureTraceConfig tc;
    tc.numModels = 1;
    tc.duration = 300.0;
    tc.seed = 3;
    AzureTrace t = generateAzureTrace(tc);
    EXPECT_GT(t.totalRequests(), 0u);
    EXPECT_DOUBLE_EQ(t.topShare(0.01), 1.0);
    for (const Arrival &a : t.arrivals)
        EXPECT_EQ(a.model, 0u);
}

} // namespace
} // namespace slinfer

/**
 * @file
 * SLINFER controller integration tests: the request lifecycle end to
 * end, CPU-first placement with profile-based GPU fallback, keep-alive
 * reclamation, exclusive fallback for large models, proactive drops,
 * eviction on underestimation, and cluster-wide safety invariants.
 */

#include <gtest/gtest.h>

#include "core/controller.hh"
#include "harness/experiment.hh"
#include "metrics/recorder.hh"

namespace slinfer
{
namespace
{

struct CtlHarness
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

    void
    expectNoOom()
    {
        for (const auto &node : nodes)
            for (const auto &part : node->partitions())
                EXPECT_EQ(part->mem.oomEvents(), 0u);
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

struct CtlFixture : public ::testing::Test, public CtlHarness
{
};

TEST_F(CtlFixture, SingleRequestLifecycle)
{
    build(1, 1, {llama2_7b()});
    Request &r = submitAt(0, 0.0, 1024, 100);
    sim.run();
    EXPECT_EQ(r.state, RequestState::Completed);
    EXPECT_EQ(r.generated, 100);
    EXPECT_EQ(recorder.completed(), 1u);
    EXPECT_EQ(recorder.sloMet(), 1u);
    // Cold-started: the grace window covered the load.
    EXPECT_GT(r.grace, 0.5);
    expectNoOom();
}

TEST_F(CtlFixture, CpuFirstPlacementForFeasibleRequests)
{
    build(1, 1, {llama2_7b()});
    submitAt(0, 0.0, 1024, 50);
    sim.runUntil(2.0);
    // The instance landed on the CPU node (node 0).
    ASSERT_EQ(ctl->models()[0].instances.size(), 1u);
    EXPECT_EQ(ctl->models()[0].instances[0]->execSpec.kind, HwKind::Cpu);
    sim.run();
}

TEST_F(CtlFixture, LongInputFallsBackToGpu)
{
    // An 8B request with a 20K-token input cannot meet TTFT on the
    // CPU (§IX-I1: CPUs handle up to ~8.4K within the 8 s ceiling).
    build(1, 1, {llama31_8b()});
    submitAt(0, 0.0, 20000, 50);
    sim.runUntil(3.0);
    ASSERT_EQ(ctl->models()[0].instances.size(), 1u);
    EXPECT_EQ(ctl->models()[0].instances[0]->execSpec.kind, HwKind::Gpu);
    sim.run();
}

TEST_F(CtlFixture, NoCpuAblationUsesGpuOnly)
{
    ControllerConfig cfg;
    cfg.useCpu = false;
    build(1, 1, {llama2_7b()}, cfg);
    submitAt(0, 0.0, 1024, 50);
    sim.run();
    for (const auto &me : ctl->models())
        EXPECT_TRUE(me.instances.empty()); // reclaimed by now
    EXPECT_EQ(recorder.completed(), 1u);
    // The CPU node was never used.
    EXPECT_EQ(ctl->clusterIndex().busySeconds(HwKind::Cpu), 0.0);
}

TEST_F(CtlFixture, KeepAliveReclaimsIdleInstances)
{
    build(1, 1, {llama2_7b()});
    submitAt(0, 0.0, 512, 5);
    sim.run();
    // After completion + keep-alive (1 s) + unload, nothing remains.
    EXPECT_TRUE(ctl->models()[0].instances.empty());
    for (const auto &node : nodes)
        EXPECT_EQ(node->memUsed(), 0u);
}

TEST_F(CtlFixture, KeepAliveCancelledByNewRequest)
{
    build(1, 1, {llama2_7b()});
    submitAt(0, 0.0, 512, 5);
    // Arrives inside the keep-alive window of the first instance.
    Request &r2 = submitAt(0, 2.2, 512, 5);
    sim.run();
    EXPECT_EQ(r2.state, RequestState::Completed);
    // No second cold start: only one instance was ever created.
    EXPECT_EQ(ctl->instancesCreated(), 1u);
    EXPECT_DOUBLE_EQ(r2.grace, 0.0);
}

TEST_F(CtlFixture, BurstBatchesOnOneInstance)
{
    build(0, 1, {llama2_7b()});
    for (int i = 0; i < 8; ++i)
        submitAt(0, 0.0 + i * 0.01, 1024, 60);
    sim.run();
    EXPECT_EQ(recorder.completed(), 8u);
    // Continuous batching: the burst shares one instance.
    EXPECT_EQ(ctl->instancesCreated(), 1u);
    expectNoOom();
}

TEST_F(CtlFixture, ColocatesDifferentModelsOnOneNode)
{
    build(0, 1, {llama2_7b(), llama2_7b(), llama32_3b()});
    submitAt(0, 0.0, 1024, 400);
    submitAt(1, 0.1, 1024, 400);
    submitAt(2, 0.2, 1024, 400);
    sim.runUntil(5.0);
    std::size_t live = 0;
    for (const auto &me : ctl->models())
        live += me.instances.size();
    EXPECT_EQ(live, 3u); // all three share the single GPU
    sim.run();
    EXPECT_EQ(recorder.completed(), 3u);
    expectNoOom();
}

TEST_F(CtlFixture, SharingDisabledForcesExclusive)
{
    ControllerConfig cfg;
    cfg.enableSharing = false;
    build(0, 2, {llama2_7b(), llama2_7b(), llama2_7b()}, cfg);
    submitAt(0, 0.0, 1024, 300);
    submitAt(1, 0.1, 1024, 300);
    Request &r3 = submitAt(2, 0.2, 256, 10); // no node left; TTFT 0.5 s
    sim.run();
    EXPECT_EQ(r3.state, RequestState::Dropped);
    EXPECT_EQ(recorder.dropped(), 1u);
}

TEST_F(CtlFixture, ProactiveDropAtTtftDeadline)
{
    // One tiny cluster, overwhelming burst: the tail must be dropped at
    // the TTFT deadline, not left queued forever.
    build(0, 1, {llama2_13b(), llama2_13b(), llama2_13b(),
                 llama2_13b(), llama2_13b()});
    for (int m = 0; m < 5; ++m)
        for (int i = 0; i < 10; ++i)
            submitAt(m, 0.0 + i * 0.01, 3000, 200);
    sim.run();
    EXPECT_GT(recorder.dropped(), 0u);
    EXPECT_EQ(recorder.completed() + recorder.dropped(), 50u);
    expectNoOom();
}

TEST_F(CtlFixture, ExclusiveFallbackFor34B)
{
    build(1, 2, {codellama_34b()});
    Request &r = submitAt(0, 0.0, 2048, 50);
    sim.runUntil(8.0);
    ASSERT_EQ(ctl->models()[0].instances.size(), 1u);
    const Instance *inst = ctl->models()[0].instances[0].get();
    EXPECT_TRUE(inst->staticKv);
    EXPECT_EQ(inst->extraHolds.size(), 1u); // TP=2 holds a second GPU
    EXPECT_EQ(inst->execSpec.kind, HwKind::Gpu);
    sim.run();
    EXPECT_EQ(r.state, RequestState::Completed);
}

TEST_F(CtlFixture, ThirtyFourBRejectedWithOneGpu)
{
    build(1, 1, {codellama_34b()});
    Request &r = submitAt(0, 0.0, 2048, 50);
    sim.run();
    EXPECT_EQ(r.state, RequestState::Dropped);
}

TEST_F(CtlFixture, EvictionOnSevereUnderestimation)
{
    // Tiny GPU memory pressure scenario: many long-output requests on
    // one node force at least one eviction/migration, and everything
    // still completes or drops cleanly.
    build(0, 1, {llama2_7b(), llama2_7b(), llama2_7b(), llama2_7b()});
    for (int m = 0; m < 4; ++m)
        for (int i = 0; i < 6; ++i)
            submitAt(m, 0.05 * i, 3500, 500);
    sim.run();
    EXPECT_EQ(recorder.completed() + recorder.dropped(), 24u);
    expectNoOom();
}

TEST_F(CtlFixture, PdDisaggregationServesEndToEnd)
{
    ControllerConfig cfg;
    cfg.pdDisaggregation = true;
    build(1, 2, {llama2_7b()}, cfg);
    Request &r = submitAt(0, 0.0, 1024, 50);
    sim.run();
    EXPECT_EQ(r.state, RequestState::Completed);
    EXPECT_EQ(r.generated, 50);
    // Two instances existed: a prefill-only and a decode-only.
    EXPECT_GE(ctl->instancesCreated(), 2u);
    expectNoOom();
}

TEST_F(CtlFixture, SchedulingIsDeterministic)
{
    auto run_once = [](std::uint64_t seed) {
        CtlHarness f;
        ControllerConfig cfg;
        cfg.seed = seed;
        f.build(1, 1, {llama2_7b(), llama32_3b()}, cfg);
        for (int i = 0; i < 20; ++i)
            f.submitAt(i % 2, 0.1 * i, 700 + 37 * i, 40 + i);
        f.sim.run();
        return std::make_pair(f.sim.now(), f.recorder.sloMet());
    };
    auto a = run_once(7);
    auto b = run_once(7);
    EXPECT_DOUBLE_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    auto c = run_once(8);
    EXPECT_NE(a.first, c.first); // noise differs by seed
}

TEST_F(CtlFixture, GraceWindowAppliedOnlyToColdStarts)
{
    build(1, 1, {llama2_7b()});
    Request &cold = submitAt(0, 0.0, 1024, 10);
    Request &warm = submitAt(0, 2.2, 1024, 10);
    sim.run();
    EXPECT_GT(cold.grace, 0.0);
    EXPECT_DOUBLE_EQ(warm.grace, 0.0);
}

TEST_F(CtlFixture, ScalingOverheadFractionIsSmallAtDefaults)
{
    build(1, 1, {llama2_7b(), llama2_7b()});
    for (int i = 0; i < 30; ++i)
        submitAt(i % 2, 0.3 * i, 1024, 80);
    sim.run();
    // §IX-I5: with the 25% watermark the scaling overhead is ~1.4%.
    EXPECT_LT(ctl->clusterIndex().scalingOverheadFraction(sim.now()), 0.08);
}

} // namespace
} // namespace slinfer

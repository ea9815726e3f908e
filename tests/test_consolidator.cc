/**
 * @file
 * Consolidation tests (§VIII): proactive preemption of smaller-batch
 * neighbors with validated rescheduling, and reactive largest-batch
 * ordering. Exercised through a real SlinferController on a tiny
 * cluster so the whole preemption pipeline runs.
 */

#include <gtest/gtest.h>

#include "core/consolidator.hh"
#include "core/controller.hh"
#include "harness/experiment.hh"
#include "metrics/recorder.hh"

namespace slinfer
{
namespace
{

TEST(Consolidator, OrderLargestBatchFirst)
{
    Node node(0, a100_80g(), 1);
    Partition *part = node.partitions()[0].get();
    ModelSpec m = llama2_7b();
    Instance a(1, 0, m, part, a100_80g(), 1 << 30);
    Instance b(2, 0, m, part, a100_80g(), 1 << 30);
    Instance c(3, 0, m, part, a100_80g(), 1 << 30);
    Request r1, r2, r3;
    b.joinDecode(&r1);
    b.joinDecode(&r2);
    c.joinDecode(&r3);
    std::vector<Instance *> v = {&a, &b, &c};
    Consolidator::orderLargestBatchFirst(v);
    EXPECT_EQ(v[0], &b);
    EXPECT_EQ(v[1], &c);
    EXPECT_EQ(v[2], &a);
}

/**
 * Integration fixture: a one-GPU cluster hosting two models. Model 0
 * builds a large batch; model 1 holds a small idle instance next to
 * it. A burst to model 0 must preempt model 1's fragment rather than
 * fragment model 0 further.
 */
struct PreemptFixture : public ::testing::Test
{
    PreemptFixture()
    {
        cluster.cpuNodes = 0;
        cluster.gpuNodes = 1;
        nodes = buildCluster(cluster, 1);
        models = {llama2_7b(), llama2_7b()};
        ControllerConfig cfg;
        ctl = std::make_unique<SlinferController>(
            sim, nodes, models, std::vector<double>{250.0, 250.0}, cfg,
            recorder, nullptr);
    }

    Request &
    makeReq(ModelId model, Seconds arrival, Tokens in, Tokens out)
    {
        auto r = std::make_unique<Request>();
        r->id = nextReq++;
        r->model = model;
        r->arrival = arrival;
        r->inputLen = in;
        r->targetOutput = out;
        r->ttftSlo = std::min(std::max(0.5, in / 512.0), 8.0);
        r->tpotSlo = 0.25;
        reqs.push_back(std::move(r));
        return *reqs.back();
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

TEST_F(PreemptFixture, IdleFragmentIsPreemptedForGrowth)
{
    // Seed model 1 with one request so it holds an instance, then let
    // it drain to an idle (keep-alive) fragment.
    Request &warm = makeReq(1, 0.0, 512, 2);
    sim.scheduleAt(0.0, [&] { ctl->submit(&warm); });

    // Saturate model 0 with a steady stream of long-context requests;
    // growth eventually needs the neighbor's memory.
    std::vector<Request *> stream;
    for (int i = 0; i < 60; ++i) {
        Request &r = makeReq(0, 2.0 + i * 0.05, 3000, 300);
        stream.push_back(&r);
        sim.scheduleAt(r.arrival, [&, p = &r] { ctl->submit(p); });
    }
    sim.runUntil(12.0);

    // The fragment was removed (preempted or demand-reclaimed) and the
    // big model kept growing on the same node.
    EXPECT_TRUE(ctl->models()[1].instances.empty());
    EXPECT_GE(ctl->models()[0].instances.size(), 1u);
    std::size_t batch = 0;
    for (const auto &inst : ctl->models()[0].instances)
        batch = std::max(batch,
                         static_cast<std::size_t>(inst->batchSize()));
    EXPECT_GE(batch, 4u);
    sim.run();
}

TEST_F(PreemptFixture, PreemptionMovesVictimRequestsSafely)
{
    // Two instances of model 1 (one on the GPU next to model 0's
    // grower): preempting must relocate in-flight requests, never drop
    // them.
    Request &v1 = makeReq(1, 0.0, 512, 400);
    sim.scheduleAt(0.0, [&] { ctl->submit(&v1); });
    std::vector<Request *> stream;
    for (int i = 0; i < 40; ++i) {
        Request &r = makeReq(0, 1.0 + i * 0.1, 3000, 200);
        stream.push_back(&r);
        sim.scheduleAt(r.arrival, [&, p = &r] { ctl->submit(p); });
    }
    sim.run();
    // The victim request still completed (migrated or in place).
    EXPECT_EQ(v1.state, RequestState::Completed);
    EXPECT_EQ(v1.generated, 400);
}

TEST_F(PreemptFixture, NoPreemptionOfLargerBatches)
{
    // Model 1 builds the bigger batch; a single request for model 0
    // must NOT dismantle it.
    std::vector<Request *> stream;
    for (int i = 0; i < 12; ++i) {
        Request &r = makeReq(1, 0.0 + i * 0.05, 1500, 400);
        stream.push_back(&r);
        sim.scheduleAt(r.arrival, [&, p = &r] { ctl->submit(p); });
    }
    Request &single = makeReq(0, 3.0, 512, 50);
    sim.scheduleAt(3.0, [&] { ctl->submit(&single); });
    sim.runUntil(4.0);
    // Model 1 still holds its big batch.
    std::size_t batch = 0;
    for (const auto &inst : ctl->models()[1].instances)
        batch = std::max(batch,
                         static_cast<std::size_t>(inst->batchSize()));
    EXPECT_GE(batch, 6u);
    sim.run();
}

} // namespace
} // namespace slinfer

/**
 * @file
 * Token-level scheduler tests (§VI-A): one iteration at a time per
 * partition, headroom-ordered instance selection, prefill/decode
 * mechanics, KV growth and shortage reporting, and the FIFO
 * prefill-first baseline policy.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/token_scheduler.hh"
#include "hw/perf_model.hh"

namespace slinfer
{
namespace
{

struct SchedHarness
{
    SchedHarness() : node(0, a100_80g(), 1)
    {
        part = node.partitions()[0].get();
    }

    TokenScheduler &
    makeScheduler(SchedPolicy policy = SchedPolicy::Headroom,
                  double noise = 0.0)
    {
        TokenScheduler::Callbacks cbs;
        cbs.onRequestDone = [this](Request *r, Instance *i) {
            done.emplace_back(r, i);
        };
        cbs.onKvShortage = [this](Instance *i) { shortages.push_back(i); };
        sched = std::make_unique<TokenScheduler>(sim, *part, policy, noise,
                                                 Rng(1), cbs, nullptr);
        return *sched;
    }

    Instance &
    addInstance(Bytes kvAlloc = 8ULL << 30)
    {
        auto inst = std::make_unique<Instance>(
            nextId++, 0, llama2_7b(), part, a100_80g(), kvAlloc);
        inst->setState(InstanceState::Active);
        part->addInstance(inst.get());
        pool.push_back(std::move(inst));
        return *pool.back();
    }

    Request &
    addRequest(Instance &inst, Seconds arrival, Tokens in, Tokens out)
    {
        auto r = std::make_unique<Request>();
        r->id = nextReq++;
        r->arrival = arrival;
        r->inputLen = in;
        r->targetOutput = out;
        r->ttftSlo = 2.0;
        r->tpotSlo = 0.25;
        r->instance = inst.id;
        r->state = RequestState::Prefill;
        inst.enqueuePrefill(r.get());
        reqs.push_back(std::move(r));
        return *reqs.back();
    }

    Simulator sim;
    Node node;
    Partition *part;
    std::unique_ptr<TokenScheduler> sched;
    std::vector<std::unique_ptr<Instance>> pool;
    std::vector<std::unique_ptr<Request>> reqs;
    std::vector<std::pair<Request *, Instance *>> done;
    std::vector<Instance *> shortages;
    InstanceId nextId = 1;
    RequestId nextReq = 1;
};

struct SchedFixture : public ::testing::Test, public SchedHarness
{
};

TEST_F(SchedFixture, PrefillThenDecodeToCompletion)
{
    auto &s = makeScheduler();
    Instance &inst = addInstance();
    Request &r = addRequest(inst, 0.0, 1024, 5);
    s.kick();
    sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].first, &r);
    EXPECT_EQ(r.generated, 5);
    EXPECT_EQ(r.state, RequestState::Completed);
    EXPECT_GT(r.firstTokenTime, 0.0);
    // First token comes from the prefill; 4 decode iterations follow.
    Seconds pf = PerfModel::prefillTime(a100_80g(), llama2_7b(), 1024);
    EXPECT_NEAR(r.firstTokenTime, pf, 1e-9);
    EXPECT_EQ(inst.decodedTokens, 4);
    // KV fully released at completion.
    EXPECT_EQ(inst.kv.usedTokens(), 0);
    EXPECT_EQ(inst.batchSize(), 0);
}

TEST_F(SchedFixture, SingleTokenRequestCompletesAtPrefill)
{
    auto &s = makeScheduler();
    Instance &inst = addInstance();
    Request &r = addRequest(inst, 0.0, 512, 1);
    s.kick();
    sim.run();
    EXPECT_EQ(r.generated, 1);
    EXPECT_TRUE(r.finishedGenerating());
    EXPECT_EQ(done.size(), 1u);
}

TEST_F(SchedFixture, OneIterationAtATime)
{
    auto &s = makeScheduler();
    Instance &a = addInstance();
    Instance &b = addInstance();
    addRequest(a, 0.0, 1024, 3);
    addRequest(b, 0.0, 1024, 3);
    s.kick();
    EXPECT_TRUE(part->busy);
    // A second kick while busy must be a no-op.
    s.kick();
    sim.run();
    EXPECT_EQ(done.size(), 2u);
    EXPECT_FALSE(part->busy);
}

TEST_F(SchedFixture, HeadroomPolicyPicksMostUrgentInstance)
{
    auto &s = makeScheduler();
    Instance &a = addInstance();
    Instance &b = addInstance();
    // b's request arrived earlier => smaller headroom => runs first.
    Request &ra = addRequest(a, 5.0, 1024, 1);
    Request &rb = addRequest(b, 0.0, 1024, 1);
    sim.runUntil(6.0);
    s.kick();
    sim.run();
    EXPECT_LT(rb.firstTokenTime, ra.firstTokenTime);
}

TEST_F(SchedFixture, FifoPolicyRunsPrefillsBeforeDecodes)
{
    auto &s = makeScheduler(SchedPolicy::FifoPrefillFirst);
    Instance &inst = addInstance();
    Request &r1 = addRequest(inst, 0.0, 512, 50);
    s.kick();
    // Let the first prefill finish, then inject a second request. With
    // prefill-first, its prefill preempts r1's decode progression.
    sim.runUntil(0.2);
    Request &r2 = addRequest(inst, 0.2, 512, 2);
    s.kick();
    sim.run();
    EXPECT_EQ(done.size(), 2u);
    EXPECT_GT(r1.generated, 0);
    EXPECT_GT(r2.firstTokenTime, 0.0);
    // r2's prefill ran promptly: its TTFT is well under r1's total.
    EXPECT_LT(r2.firstTokenTime - r2.arrival, 0.5);
}

TEST_F(SchedFixture, DecodeBatchesWholeInstance)
{
    auto &s = makeScheduler();
    Instance &inst = addInstance();
    Request &r1 = addRequest(inst, 0.0, 512, 4);
    Request &r2 = addRequest(inst, 0.0, 512, 4);
    s.kick();
    sim.run();
    EXPECT_EQ(done.size(), 2u);
    // Both decoded together: 2 prefills + 3 decode rounds of batch 2.
    EXPECT_EQ(inst.decodedTokens, 6);
    EXPECT_EQ(r1.generated, 4);
    EXPECT_EQ(r2.generated, 4);
}

TEST_F(SchedFixture, KvShortageReportedWhenPrefillCannotFit)
{
    auto &s = makeScheduler();
    // Tiny KV: 512 tokens worth.
    Instance &inst = addInstance(512ULL * llama2_7b().kvBytesPerToken());
    addRequest(inst, 0.0, 2048, 4); // cannot fit
    s.kick();
    sim.run();
    EXPECT_FALSE(shortages.empty());
    EXPECT_EQ(done.size(), 0u);
}

TEST_F(SchedFixture, KvGrowthAcrossBlocks)
{
    auto &s = makeScheduler();
    Instance &inst = addInstance();
    Request &r = addRequest(inst, 0.0, 15, 20); // crosses block edges
    s.kick();
    sim.run();
    EXPECT_EQ(r.generated, 20);
    EXPECT_EQ(done.size(), 1u);
}

TEST_F(SchedFixture, NoiseIsDeterministicPerSeed)
{
    Seconds first_run;
    {
        auto &s = makeScheduler(SchedPolicy::Headroom, 0.05);
        Instance &inst = addInstance();
        addRequest(inst, 0.0, 1024, 10);
        s.kick();
        sim.run();
        first_run = sim.now();
    }
    // Rebuild everything with the same seed.
    SchedHarness other;
    auto &s2 = other.makeScheduler(SchedPolicy::Headroom, 0.05);
    Instance &inst2 = other.addInstance();
    other.addRequest(inst2, 0.0, 1024, 10);
    s2.kick();
    other.sim.run();
    EXPECT_DOUBLE_EQ(other.sim.now(), first_run);
}

TEST_F(SchedFixture, ResizeInFlightBlocksInstanceButNotSiblings)
{
    auto &s = makeScheduler();
    Instance &a = addInstance();
    Instance &b = addInstance();
    addRequest(a, 0.0, 512, 2);
    Request &rb = addRequest(b, 0.0, 512, 2);
    a.resizeInFlight = true;
    s.kick();
    sim.run();
    // Only b made progress.
    EXPECT_EQ(rb.generated, 2);
    EXPECT_EQ(a.prefillQueue().size(), 1u);
}

TEST_F(SchedFixture, BusyUntilTracksIteration)
{
    auto &s = makeScheduler();
    Instance &inst = addInstance();
    addRequest(inst, 0.0, 1024, 1);
    s.kick();
    Seconds pf = PerfModel::prefillTime(a100_80g(), llama2_7b(), 1024);
    EXPECT_NEAR(s.busyUntil(), pf, 1e-9);
}

TEST_F(SchedFixture, EvictedMidIterationRequestSkipsToken)
{
    auto &s = makeScheduler();
    Instance &inst = addInstance();
    Request &r1 = addRequest(inst, 0.0, 512, 100);
    Request &r2 = addRequest(inst, 0.0, 512, 100);
    s.kick();
    // After both prefills, evict r2 mid-decode-iteration.
    sim.runUntil(0.3);
    if (r2.state == RequestState::Decode) {
        inst.removeRequest(&r2);
        inst.kv.release(r2.kvReserved);
        r2.kvReserved = 0;
        r2.instance = 0;
        r2.state = RequestState::Queued;
    }
    sim.run();
    EXPECT_EQ(r1.generated, 100);
    EXPECT_LT(r2.generated, 100);
}

} // namespace
} // namespace slinfer

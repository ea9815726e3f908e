/**
 * @file
 * Engine-layer tests: requests & headroom (Eq. 1), the paged KV cache,
 * instances, partitions/nodes and the physical memory ledger.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "engine/instance.hh"
#include "engine/memory_manager.hh"

namespace slinfer
{
namespace
{

Request
makeReq(RequestId id, Seconds arrival, Tokens in, Tokens out,
        Seconds ttft = 2.0, Seconds tpot = 0.25)
{
    Request r;
    r.id = id;
    r.arrival = arrival;
    r.inputLen = in;
    r.targetOutput = out;
    r.ttftSlo = ttft;
    r.tpotSlo = tpot;
    return r;
}

// ------------------------------------------------------------------
// Request / headroom (Eq. 1).
// ------------------------------------------------------------------

TEST(Request, HeadroomEquationOne)
{
    Request r = makeReq(1, 10.0, 1024, 100);
    // headroom = ST + TTFT + TPOT * O - CT with O = 0.
    EXPECT_DOUBLE_EQ(r.headroom(10.0), 2.0);
    EXPECT_DOUBLE_EQ(r.headroom(11.5), 0.5);
    r.generated = 4;
    EXPECT_DOUBLE_EQ(r.headroom(11.5), 2.0 + 4 * 0.25 - 1.5);
}

TEST(Request, GraceExtendsDeadline)
{
    Request r = makeReq(1, 0.0, 512, 10);
    Seconds base = r.deadlineForNextToken();
    r.grace = 1.2;
    EXPECT_DOUBLE_EQ(r.deadlineForNextToken(), base + 1.2);
}

TEST(Request, NoteTokenTracksViolations)
{
    Request r = makeReq(1, 0.0, 512, 3);
    EXPECT_GE(r.noteToken(1.0), 0.0); // TTFT 2.0, on time
    EXPECT_FALSE(r.sloViolated);
    EXPECT_DOUBLE_EQ(r.firstTokenTime, 1.0);
    EXPECT_EQ(r.generated, 1);
    // Second token deadline = 2.25; emit late.
    EXPECT_LT(r.noteToken(3.0), 0.0);
    EXPECT_TRUE(r.sloViolated);
    r.noteToken(3.1);
    EXPECT_TRUE(r.finishedGenerating());
}

TEST(Request, CumulativeDeadlineForgivesJitter)
{
    // One slow token after several fast ones still meets the
    // cumulative schedule.
    Request r = makeReq(1, 0.0, 512, 10);
    r.noteToken(0.5);
    r.noteToken(0.6);
    r.noteToken(0.7);
    // Deadline for 4th token: 2.0 + 3*0.25 = 2.75.
    EXPECT_GE(r.noteToken(2.7), 0.0);
    EXPECT_FALSE(r.sloViolated);
}

TEST(Request, ContextLenGrowsWithGeneration)
{
    Request r = makeReq(1, 0.0, 100, 5);
    EXPECT_EQ(r.contextLen(), 100);
    r.noteToken(0.1);
    EXPECT_EQ(r.contextLen(), 101);
}

// ------------------------------------------------------------------
// Paged KV cache.
// ------------------------------------------------------------------

TEST(PagedKvCache, BlockRounding)
{
    EXPECT_EQ(PagedKvCache::roundedTokens(0), 0);
    EXPECT_EQ(PagedKvCache::roundedTokens(1), 16);
    EXPECT_EQ(PagedKvCache::roundedTokens(16), 16);
    EXPECT_EQ(PagedKvCache::roundedTokens(17), 32);
}

TEST(PagedKvCache, ReserveRelease)
{
    PagedKvCache kv(1024, 1024 * 1000); // 1000 tokens
    EXPECT_EQ(kv.capacityTokens(), 1000);
    EXPECT_TRUE(kv.reserve(600));
    EXPECT_EQ(kv.usedTokens(), 600);
    EXPECT_FALSE(kv.reserve(500)); // would overflow
    EXPECT_EQ(kv.usedTokens(), 600);
    kv.release(100);
    EXPECT_TRUE(kv.reserve(500));
    EXPECT_EQ(kv.usedTokens(), 1000);
}

TEST(PagedKvCache, UtilizationAndBytes)
{
    PagedKvCache kv(1000, 100000);
    ASSERT_TRUE(kv.reserve(50));
    EXPECT_EQ(kv.usedBytes(), 50000u);
    EXPECT_DOUBLE_EQ(kv.utilization(), 0.5);
}

TEST(PagedKvCache, ResizeChangesCapacity)
{
    PagedKvCache kv(1000, 100000);
    ASSERT_TRUE(kv.reserve(80));
    kv.setAllocBytes(200000);
    EXPECT_EQ(kv.capacityTokens(), 200);
    EXPECT_TRUE(kv.canFit(120));
    EXPECT_FALSE(kv.canFit(121));
}

TEST(PagedKvCacheDeath, OverReleasePanics)
{
    PagedKvCache kv(1000, 100000);
    ASSERT_TRUE(kv.reserve(10));
    EXPECT_DEATH(kv.release(11), "releasing more");
}

// ------------------------------------------------------------------
// MemoryManager (physical ledger).
// ------------------------------------------------------------------

TEST(MemoryManager, HoldReleaseAndOomCount)
{
    MemoryManager mm(100);
    EXPECT_TRUE(mm.tryHold(60));
    EXPECT_EQ(mm.available(), 40u);
    EXPECT_FALSE(mm.tryHold(41));
    EXPECT_EQ(mm.oomEvents(), 1u);
    EXPECT_TRUE(mm.tryHold(40));
    mm.release(100);
    EXPECT_EQ(mm.used(), 0u);
}

TEST(MemoryManagerDeath, OverReleasePanics)
{
    MemoryManager mm(100);
    ASSERT_TRUE(mm.tryHold(10));
    EXPECT_DEATH(mm.release(11), "releasing more");
}

// ------------------------------------------------------------------
// Node / Partition.
// ------------------------------------------------------------------

TEST(Node, SinglePartitionSpansNode)
{
    Node n(0, a100_80g(), 1);
    ASSERT_EQ(n.partitions().size(), 1u);
    EXPECT_EQ(n.partitions()[0]->mem.capacity(), a100_80g().memCapacity);
    EXPECT_FALSE(n.isCpu());
    EXPECT_FALSE(n.inUse());
}

TEST(Node, StaticSharingHalvesPartitions)
{
    Node n(1, xeon6462c(), 2);
    ASSERT_EQ(n.partitions().size(), 2u);
    EXPECT_TRUE(n.isCpu());
    EXPECT_EQ(n.partitions()[0]->mem.capacity(),
              xeon6462c().memCapacity / 2);
    EXPECT_NEAR(n.partitions()[0]->spec.peakFlops,
                xeon6462c().peakFlops / 2, 1e6);
    EXPECT_EQ(n.memCapacity(), 2 * n.partitions()[0]->mem.capacity());
}

TEST(Node, InUseTracksInstances)
{
    Node n(0, a100_80g(), 1);
    ModelSpec m = llama2_7b();
    Instance inst(1, 0, m, n.partitions()[0].get(), a100_80g(), 1 << 30);
    n.partitions()[0]->addInstance(&inst);
    EXPECT_TRUE(n.inUse());
    EXPECT_FALSE(n.partitions()[0]->openForPlacement() == false);
    n.partitions()[0]->exclusiveHolder = &inst;
    EXPECT_FALSE(n.partitions()[0]->openForPlacement());
}

// ------------------------------------------------------------------
// Instance.
// ------------------------------------------------------------------

class InstanceTest : public ::testing::Test
{
  protected:
    InstanceTest()
        : node(0, a100_80g(), 1), model(llama2_7b()),
          inst(1, 0, model, node.partitions()[0].get(), a100_80g(),
               8ULL << 30)
    {
        inst.setState(InstanceState::Active);
    }

    Node node;
    ModelSpec model;
    Instance inst;
};

TEST_F(InstanceTest, UrgencyPicksMinHeadroom)
{
    Request a = makeReq(1, 0.0, 512, 10); // deadline 2.0 (prefill)
    Request b = makeReq(2, 0.0, 512, 10);
    b.generated = 2; // deadline 2.5
    inst.enqueuePrefill(&a);
    inst.joinDecode(&b);
    Instance::Urgency u = inst.urgency(1.0);
    EXPECT_EQ(u.prefill, &a);
    EXPECT_DOUBLE_EQ(u.prefillHeadroom, 1.0);
    EXPECT_DOUBLE_EQ(u.decodeHeadroom, 1.5);
}

TEST_F(InstanceTest, UrgencyCanBeDecode)
{
    Request a = makeReq(1, 5.0, 512, 10); // deadline 7.0
    Request b = makeReq(2, 0.0, 512, 10); // decode deadline 2.0
    inst.enqueuePrefill(&a);
    inst.joinDecode(&b);
    Instance::Urgency u = inst.urgency(1.0);
    EXPECT_EQ(u.prefill, &a);
    EXPECT_DOUBLE_EQ(u.prefillHeadroom, 6.0);
    EXPECT_DOUBLE_EQ(u.decodeHeadroom, 1.0);
    EXPECT_LT(u.decodeHeadroom, u.prefillHeadroom);
}

TEST_F(InstanceTest, BatchAndContextAccounting)
{
    Request a = makeReq(1, 0.0, 100, 10);
    Request b = makeReq(2, 0.0, 300, 10);
    b.generated = 10;
    inst.joinDecode(&a);
    inst.joinDecode(&b);
    EXPECT_EQ(inst.batchSize(), 2);
    EXPECT_EQ(inst.totalContext(), 100 + 310);
    EXPECT_EQ(inst.avgContextLen(), 205);
}

TEST_F(InstanceTest, RunnableConditions)
{
    EXPECT_FALSE(inst.runnable()); // no work
    Request a = makeReq(1, 0.0, 100, 10);
    inst.enqueuePrefill(&a);
    EXPECT_TRUE(inst.runnable());
    inst.resizeInFlight = true;
    EXPECT_FALSE(inst.runnable());
    inst.resizeInFlight = false;
    inst.setState(InstanceState::Loading);
    EXPECT_FALSE(inst.runnable());
}

TEST_F(InstanceTest, RemoveRequestFromEitherQueue)
{
    Request a = makeReq(1, 0.0, 100, 10);
    Request b = makeReq(2, 0.0, 100, 10);
    inst.enqueuePrefill(&a);
    inst.joinDecode(&b);
    inst.removeRequest(&a);
    inst.removeRequest(&b);
    EXPECT_EQ(inst.loadSize(), 0);
}

TEST_F(InstanceTest, EmptyInstanceHasInfiniteHeadroom)
{
    Instance::Urgency u = inst.urgency(0.0);
    EXPECT_EQ(u.prefill, nullptr);
    EXPECT_TRUE(std::isinf(u.prefillHeadroom));
    EXPECT_TRUE(std::isinf(u.decodeHeadroom));
    EXPECT_EQ(inst.decodeGrowth(), 0);
    EXPECT_EQ(inst.earliestPrefill(), nullptr);
}

} // namespace
} // namespace slinfer

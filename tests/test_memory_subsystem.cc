/**
 * @file
 * Memory-subsystem tests (§VII): Eq. 2 demand, watermark scale-up /
 * lazy scale-down, the compromise path, the optimistic/pessimistic
 * orchestration with its reservation station, and a property test that
 * random scaling storms never OOM the physical ledger.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "core/memory_subsystem.hh"

namespace slinfer
{
namespace
{

struct MemFixture : public ::testing::Test
{
    MemFixture() : node(0, a100_80g(), 1)
    {
        part = node.partitions()[0].get();
        sub = std::make_unique<MemorySubsystem>(sim, *part, 0.25,
                                                [this] { ++notifies; });
    }

    Instance &
    addInstance(Bytes kvInit, const ModelSpec &m = llama2_7b())
    {
        auto inst = std::make_unique<Instance>(nextId++, 0, m, part,
                                               a100_80g(), kvInit);
        part->addInstance(inst.get());
        pool.push_back(std::move(inst));
        return *pool.back();
    }

    /** Create an instance and run its load to completion. */
    Instance &
    addLoadedInstance(Bytes kvInit, const ModelSpec &m = llama2_7b())
    {
        Instance &inst = addInstance(kvInit, m);
        sub->beginLoad(inst, nullptr);
        sim.run();
        EXPECT_EQ(inst.state(), InstanceState::Active);
        return inst;
    }

    Request &
    makeRequest(Tokens in, Tokens generated = 0)
    {
        auto r = std::make_unique<Request>();
        r->id = nextReq++;
        r->inputLen = in;
        r->generated = generated;
        r->targetOutput = 1000;
        reqs.push_back(std::move(r));
        return *reqs.back();
    }

    Simulator sim;
    Node node;
    Partition *part;
    std::unique_ptr<MemorySubsystem> sub;
    std::vector<std::unique_ptr<Instance>> pool;
    std::vector<std::unique_ptr<Request>> reqs;
    InstanceId nextId = 1;
    RequestId nextReq = 1;
    int notifies = 0;
};

// ------------------------------------------------------------------
// Eq. 2 demand.
// ------------------------------------------------------------------

TEST_F(MemFixture, RequiredBytesFollowsEquationTwo)
{
    Instance &inst = addInstance(1ULL << 30);
    // Empty instance: the L_min = max-context floor applies.
    Bytes floor = static_cast<Bytes>(llama2_7b().maxContext) *
                  llama2_7b().kvBytesPerToken();
    EXPECT_EQ(sub->requiredBytes(inst, nullptr, 250.0), floor);

    // Three requests of input 2000, avg output 250: sum exceeds Lmin.
    for (int i = 0; i < 3; ++i) {
        Request &r = makeRequest(2000);
        inst.joinDecode(&r);
    }
    Bytes expect = static_cast<Bytes>(3 * (2000 + 250)) *
                   llama2_7b().kvBytesPerToken();
    EXPECT_EQ(sub->requiredBytes(inst, nullptr, 250.0), expect);
}

TEST_F(MemFixture, RequiredBytesUsesActualWhenPastAverage)
{
    Instance &inst = addInstance(1ULL << 30);
    Request &r = makeRequest(3000, /*generated=*/700); // beyond O_bar
    inst.joinDecode(&r);
    Request &r2 = makeRequest(3000, 100); // below O_bar
    inst.joinDecode(&r2);
    Bytes expect = static_cast<Bytes>((3000 + 700) + (3000 + 250)) *
                   llama2_7b().kvBytesPerToken();
    EXPECT_EQ(sub->requiredBytes(inst, nullptr, 250.0), expect);
}

// ------------------------------------------------------------------
// Watermark plan.
// ------------------------------------------------------------------

TEST_F(MemFixture, PlanNoResizeWhenTargetSuffices)
{
    Instance &inst = addLoadedInstance(8ULL << 30);
    Request &r = makeRequest(1000);
    auto plan = sub->planAdmit(inst, r, 250.0);
    EXPECT_TRUE(plan.ok);
    EXPECT_FALSE(plan.needsResize);
    EXPECT_EQ(plan.target, inst.kvTarget);
}

TEST_F(MemFixture, PlanScalesUpToRecommendation)
{
    Instance &inst = addLoadedInstance(2ULL << 30);
    // Fill with enough requests that require > target.
    for (int i = 0; i < 4; ++i) {
        Request &r = makeRequest(2000);
        inst.joinDecode(&r);
    }
    Request &incoming = makeRequest(2000);
    auto plan = sub->planAdmit(inst, incoming, 250.0);
    ASSERT_TRUE(plan.ok);
    EXPECT_TRUE(plan.needsResize);
    EXPECT_FALSE(plan.compromise);
    Bytes require = sub->requiredBytes(inst, &incoming, 250.0);
    EXPECT_EQ(plan.target,
              static_cast<Bytes>(static_cast<double>(require) * 1.25));
}

TEST_F(MemFixture, PlanCompromisesWhenRecommendationDoesNotFit)
{
    // Saturate the optimistic budget with a sibling so only the bare
    // requirement fits.
    Instance &hog = addLoadedInstance(Bytes{36'000'000'000});
    (void)hog;
    Instance &inst = addLoadedInstance(2ULL << 30);
    for (int i = 0; i < 9; ++i) {
        Request &r = makeRequest(2400);
        inst.joinDecode(&r);
    }
    Request &incoming = makeRequest(2400);
    auto plan = sub->planAdmit(inst, incoming, 250.0);
    ASSERT_TRUE(plan.ok);
    EXPECT_TRUE(plan.compromise);
    EXPECT_EQ(plan.target, sub->requiredBytes(inst, &incoming, 250.0));
}

TEST_F(MemFixture, PlanRejectsWhenNothingFits)
{
    Instance &hog = addLoadedInstance(Bytes{45'000'000'000});
    (void)hog;
    Instance &inst = addLoadedInstance(2ULL << 30);
    for (int i = 0; i < 20; ++i) {
        Request &r = makeRequest(3000);
        inst.joinDecode(&r);
    }
    Request &incoming = makeRequest(3000);
    auto plan = sub->planAdmit(inst, incoming, 250.0);
    EXPECT_FALSE(plan.ok);
}

TEST_F(MemFixture, LazyScaleDownHysteresis)
{
    Instance &inst = addLoadedInstance(12ULL << 30);
    Request &r = makeRequest(2000);
    inst.joinDecode(&r);
    // Slightly over-allocated: recommend*(1+w) is NOT below target.
    Bytes require = sub->requiredBytes(inst, nullptr, 250.0);
    inst.kvTarget = static_cast<Bytes>(require * 1.5);
    inst.kv.setAllocBytes(inst.kvTarget);
    sub->onRequestComplete(inst, 250.0);
    EXPECT_FALSE(inst.resizeInFlight); // hysteresis suppressed it

    // Far over-allocated: scale-down triggers.
    inst.kvTarget = static_cast<Bytes>(require * 2.0);
    inst.kv.setAllocBytes(inst.kvTarget);
    sub->onRequestComplete(inst, 250.0);
    EXPECT_TRUE(inst.resizeInFlight);
    sim.run();
    EXPECT_EQ(inst.kv.allocBytes(),
              static_cast<Bytes>(static_cast<double>(require) * 1.25));
}

// ------------------------------------------------------------------
// Load / unload lifecycle and accounting.
// ------------------------------------------------------------------

TEST_F(MemFixture, LoadHoldsWeightsPlusKv)
{
    Instance &inst = addInstance(4ULL << 30);
    sub->beginLoad(inst, nullptr);
    EXPECT_EQ(part->mem.used(),
              llama2_7b().weightBytes() + (4ULL << 30));
    EXPECT_EQ(inst.state(), InstanceState::Loading);
    sim.run();
    EXPECT_EQ(inst.state(), InstanceState::Active);
    EXPECT_GT(inst.loadDuration, 0.5);
}

TEST_F(MemFixture, UnloadReleasesEverything)
{
    Instance &inst = addLoadedInstance(4ULL << 30);
    bool done = false;
    sub->beginUnload(inst, [&] { done = true; });
    EXPECT_EQ(inst.state(), InstanceState::Unloading);
    // Optimistic budget drops immediately (scale-down semantics).
    EXPECT_EQ(sub->committed(), 0u);
    // Physical release only on completion.
    EXPECT_GT(part->mem.used(), 0u);
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(part->mem.used(), 0u);
    EXPECT_EQ(inst.state(), InstanceState::Reclaimed);
}

TEST_F(MemFixture, CommittedSumsWeightsAndTargets)
{
    Instance &a = addLoadedInstance(4ULL << 30);
    Instance &b = addLoadedInstance(6ULL << 30);
    EXPECT_EQ(sub->committed(), a.model.weightBytes() + (4ULL << 30) +
                                    b.model.weightBytes() + (6ULL << 30));
}

TEST_F(MemFixture, CanPlaceKeepsReserve)
{
    // An empty 80 GB partition must not accept a placement that
    // pledges more than (1 - reserve) of it.
    Bytes almost_all = part->mem.capacity() - llama2_7b().weightBytes();
    EXPECT_FALSE(sub->canPlace(llama2_7b().weightBytes(), almost_all));
    EXPECT_TRUE(sub->canPlace(llama2_7b().weightBytes(), 4ULL << 30));
}

TEST_F(MemFixture, ParkedLoadWaitsForRelease)
{
    Instance &hog = addLoadedInstance(60ULL << 30);
    Instance &inst = addInstance(4ULL << 30);
    sub->beginLoad(inst, nullptr);
    // Physically parked: the hog leaves no room.
    EXPECT_EQ(sub->parkedOps(), 1u);
    EXPECT_FALSE(inst.memResident);
    // Releasing the hog drains the station and the load proceeds.
    sub->beginUnload(hog, nullptr);
    sim.run();
    EXPECT_EQ(inst.state(), InstanceState::Active);
    EXPECT_EQ(sub->parkedOps(), 0u);
}

TEST_F(MemFixture, ResizeOnParkedLoadDoesNotCorruptLedger)
{
    // Regression test: committing a bigger KV target while the load is
    // still parked must not execute a resize (which would release
    // bytes that were never held).
    Instance &hog = addLoadedInstance(60ULL << 30);
    Instance &inst = addInstance(2ULL << 30);
    sub->beginLoad(inst, nullptr);
    ASSERT_EQ(sub->parkedOps(), 1u);
    Bytes used_before = part->mem.used();
    inst.kvTarget = 8ULL << 30;
    // This must be a no-op while the load is parked.
    MemorySubsystem::Plan plan;
    plan.ok = true;
    plan.needsResize = true;
    plan.target = 8ULL << 30;
    sub->commitPlan(inst, plan);
    sim.run();
    EXPECT_EQ(part->mem.used(), used_before);
    EXPECT_FALSE(inst.resizeInFlight);
    // Unload the hog; the load executes with the *latest* target.
    sub->beginUnload(hog, nullptr);
    sim.run();
    EXPECT_EQ(inst.state(), InstanceState::Active);
    EXPECT_EQ(inst.kv.allocBytes(), 8ULL << 30);
}

// ------------------------------------------------------------------
// Orchestration: the Fig. 18/19 scenario.
// ------------------------------------------------------------------

TEST_F(MemFixture, ScaleUpParksUntilScaleDownCompletes)
{
    // Two instances nearly filling the node; A scales down while B
    // wants to scale up; B's transient only fits after A's release
    // (the Fig. 18 scenario the orchestrator defuses).
    const Bytes kA = 30'000'000'000, kADown = 10'000'000'000;
    const Bytes kB = 12'000'000'000, kBUp = 30'000'000'000;
    Instance &a = addLoadedInstance(kA);
    Instance &b = addLoadedInstance(kB);
    MemorySubsystem::Plan down;
    down.ok = true;
    down.needsResize = true;
    down.target = kADown;
    sub->commitPlan(a, down);
    EXPECT_TRUE(a.resizeInFlight);

    MemorySubsystem::Plan up;
    up.ok = true;
    up.needsResize = true;
    up.target = kBUp;
    sub->commitPlan(b, up);
    EXPECT_FALSE(b.resizeInFlight);
    EXPECT_EQ(sub->parkedOps(), 1u);

    sim.run();
    EXPECT_EQ(a.kv.allocBytes(), kADown);
    EXPECT_EQ(b.kv.allocBytes(), kBUp);
    EXPECT_EQ(sub->parkedOps(), 0u);
    EXPECT_EQ(part->mem.oomEvents(), 0u);
}

TEST_F(MemFixture, FollowUpResizeCoalesces)
{
    Instance &inst = addLoadedInstance(4ULL << 30);
    MemorySubsystem::Plan p1;
    p1.ok = true;
    p1.needsResize = true;
    p1.target = 6ULL << 30;
    sub->commitPlan(inst, p1);
    EXPECT_TRUE(inst.resizeInFlight);
    // While in flight, a second demand raises the target again.
    MemorySubsystem::Plan p2 = p1;
    p2.target = 9ULL << 30;
    sub->commitPlan(inst, p2);
    sim.run();
    EXPECT_EQ(inst.kv.allocBytes(), 9ULL << 30);
}

TEST_F(MemFixture, ScalingTimeIsAccounted)
{
    Instance &inst = addLoadedInstance(4ULL << 30);
    MemorySubsystem::Plan p;
    p.ok = true;
    p.needsResize = true;
    p.target = 16ULL << 30;
    sub->commitPlan(inst, p);
    sim.run();
    EXPECT_GT(inst.scalingTime, 0.0);
}

TEST_F(MemFixture, EmergencyGrowResults)
{
    Instance &inst = addLoadedInstance(2ULL << 30);
    // Fill usage close to the allocation.
    ASSERT_TRUE(inst.kv.reserve(inst.kv.capacityTokens() - 8));
    auto res = sub->tryEmergencyGrow(inst, 250.0);
    EXPECT_EQ(res, MemorySubsystem::GrowResult::Executing);
    sim.run();
    EXPECT_GT(inst.kv.allocBytes(), 2ULL << 30);
}

TEST_F(MemFixture, EmergencyGrowRejectedWhenBudgetFull)
{
    Instance &hog = addLoadedInstance(Bytes{45'000'000'000});
    (void)hog;
    Instance &inst = addLoadedInstance(Bytes{8'000'000'000});
    // A batch whose Eq. 2 requirement dwarfs anything the budget could
    // still provide.
    for (int i = 0; i < 30; ++i) {
        Request &r = makeRequest(2500);
        inst.joinDecode(&r);
    }
    auto res = sub->tryEmergencyGrow(inst, 250.0);
    EXPECT_EQ(res, MemorySubsystem::GrowResult::Rejected);
}

// ------------------------------------------------------------------
// Property: random scaling storms never violate the physical ledger.
// ------------------------------------------------------------------

class MemoryStorm : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MemoryStorm, NeverOoms)
{
    Simulator sim;
    Node node(0, a100_80g(), 1);
    Partition *part = node.partitions()[0].get();
    MemorySubsystem sub(sim, *part, 0.25, [] {});
    Rng rng(GetParam());

    std::vector<std::unique_ptr<Instance>> pool;
    std::vector<Instance *> live;
    InstanceId next_id = 1;
    ModelSpec m = llama2_7b();

    // Drive 300 random operations interleaved with time advancement.
    for (int step = 0; step < 300; ++step) {
        double dice = rng.uniform();
        if (dice < 0.3 || live.empty()) {
            // Try to place a new instance.
            Bytes kv = static_cast<Bytes>(
                rng.uniform(1.0, 8.0) * (1ULL << 30));
            if (sub.canPlace(m.weightBytes(), kv)) {
                auto inst = std::make_unique<Instance>(next_id++, 0, m,
                                                       part, a100_80g(),
                                                       kv);
                part->addInstance(inst.get());
                live.push_back(inst.get());
                sub.beginLoad(*inst, nullptr);
                pool.push_back(std::move(inst));
            }
        } else if (dice < 0.7) {
            // Random resize on a live instance via the plan path.
            Instance *inst = live[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1))];
            if (inst->state() == InstanceState::Active ||
                inst->state() == InstanceState::Loading) {
                Bytes target = static_cast<Bytes>(
                    rng.uniform(0.5, 12.0) * (1ULL << 30));
                Bytes head = sub.committed() - inst->kvTarget;
                if (head + target <= sub.capacity()) {
                    MemorySubsystem::Plan p;
                    p.ok = true;
                    p.needsResize = true;
                    p.target = target;
                    sub.commitPlan(*inst, p);
                }
            }
        } else if (!live.empty()) {
            // Unload one.
            std::size_t idx = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
            Instance *inst = live[idx];
            if (inst->state() == InstanceState::Active &&
                !inst->resizeInFlight) {
                sub.beginUnload(*inst, nullptr);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(idx));
            }
        }
        sim.runUntil(sim.now() + rng.uniform(0.0, 0.5));
        // The invariant the orchestrator exists to defend:
        ASSERT_EQ(part->mem.oomEvents(), 0u) << "step " << step;
        ASSERT_LE(part->mem.used(), part->mem.capacity());
    }
    sim.run();
    EXPECT_EQ(part->mem.oomEvents(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryStorm,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
} // namespace slinfer

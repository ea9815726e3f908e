/**
 * @file
 * Token-level scheduler tests (§VI-A): one iteration at a time per
 * partition, headroom-ordered instance selection, prefill/decode
 * mechanics, KV growth and shortage reporting, the FIFO prefill-first
 * baseline policy, and a fuzz of the kept urgency facts against a scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>

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
                  double noise = 0.0, ClusterStats *stats = nullptr)
    {
        TokenScheduler::Callbacks cbs;
        cbs.onRequestDone = [this](Request *r, Instance *i) {
            done.emplace_back(r, i);
        };
        cbs.onKvShortage = [this](Instance *i) { shortages.push_back(i); };
        sched = std::make_unique<TokenScheduler>(sim, *part, policy, noise,
                                                 Rng(1), cbs, stats);
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
    // The prefill emits one token; the decode steps emit the rest.
    EXPECT_EQ(r.generated - 1, 4);
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
    // Both decoded together: 2 prefills + 3 decode rounds of batch 2,
    // so the decode steps emitted all but one token per request.
    EXPECT_EQ((r1.generated - 1) + (r2.generated - 1), 6);
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

/**
 * Iteration k runs for the perf model's time times the k-th noise draw
 * of the scheduler's Rng, across the blocks noise() draws ahead: 400
 * iterations span four engine blocks of about 122 draws each.
 */
void
expectNoiseDrawsInOrder(double sigma)
{
    SchedHarness h;
    auto &s = h.makeScheduler(SchedPolicy::Headroom, sigma);
    Instance &inst = h.addInstance();
    h.addRequest(inst, 0.0, 512, 400); // 1 prefill + 399 decode steps
    Rng ref(1); // a copy of the Rng makeScheduler hands the scheduler
    s.kick();
    int iters = 0;
    while (h.part->busy) {
        const Seconds base =
            iters == 0
                ? PerfModel::prefillTime(a100_80g(), llama2_7b(), 512)
                : PerfModel::decodeTime(a100_80g(), llama2_7b(),
                                        inst.batchSize(),
                                        inst.avgContextLen());
        const double f = sigma > 0 ? std::exp(sigma * ref.normal()) : 1.0;
        EXPECT_EQ(s.busyUntil(),
                  h.sim.now() + base * f * h.part->perfFactor)
            << "iteration " << iters;
        ++iters;
        h.sim.runUntil(s.busyUntil());
    }
    EXPECT_EQ(iters, 400);
    EXPECT_EQ(h.done.size(), 1u);
}

TEST(TokenSchedulerNoise, IterationKGetsTheKthDraw)
{
    expectNoiseDrawsInOrder(0.05);
}

TEST(TokenSchedulerNoise, ZeroSigmaRunsThePerfModelTime)
{
    expectNoiseDrawsInOrder(0.0);
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

TEST_F(SchedFixture, InstanceRetiredMidIterationIsNotTouched)
{
    // The controller frees an instance at unregisterInstance, which can
    // land while the instance's decode iteration is still in flight.
    std::vector<std::unique_ptr<Node>> no_nodes;
    ClusterStats stats(sim, no_nodes);
    auto &s = makeScheduler(SchedPolicy::Headroom, 0.0, &stats);
    Instance &inst = addInstance();
    Request &r = addRequest(inst, 0.0, 512, 100);
    s.kick();
    Seconds pf = PerfModel::prefillTime(a100_80g(), llama2_7b(), 512);
    sim.runUntil(pf + 1e-6);
    ASSERT_EQ(r.state, RequestState::Decode);
    ASSERT_GT(s.busyUntil(), sim.now()); // the first decode step runs
    ASSERT_EQ(stats.batchCdf().count(), 0u);

    // Retire it as the controller does: evict, unregister, free.
    inst.removeRequest(&r);
    inst.kv.release(r.kvReserved);
    r.kvReserved = 0;
    r.instance = 0;
    r.state = RequestState::Queued;
    part->removeInstance(&inst);
    s.forget(inst);
    pool.clear(); // under ASan, any later touch is a use-after-free

    sim.run();
    EXPECT_FALSE(part->busy);
    EXPECT_EQ(r.generated, 1); // the prefill's token only
    EXPECT_TRUE(done.empty());
    // The step still counts, with its batch and no tokens.
    EXPECT_EQ(stats.batchCdf().count(), 1u);
    EXPECT_EQ(stats.decodeTokens(HwKind::Gpu), 0);
}

// ------------------------------------------------------------------
// Kept urgency facts against a scan of the queues.
// ------------------------------------------------------------------

/** The first request of minimum headroom and whether it awaits its
 *  prefill: the scan Instance::urgency must reproduce. */
Request *
scanMostUrgent(const Instance &inst, Seconds now, bool &is_prefill)
{
    Request *best = nullptr;
    Seconds best_h = std::numeric_limits<Seconds>::infinity();
    is_prefill = false;
    for (Request *r : inst.prefillQueue()) {
        Seconds h = r->headroom(now);
        if (h < best_h) {
            best_h = h;
            best = r;
            is_prefill = true;
        }
    }
    for (Request *r : inst.decodeBatch()) {
        Seconds h = r->headroom(now);
        if (h < best_h) {
            best_h = h;
            best = r;
            is_prefill = false;
        }
    }
    return best;
}

Seconds
scanMinHeadroom(const Instance &inst, Seconds now)
{
    bool is_prefill = false;
    Request *r = scanMostUrgent(inst, now, is_prefill);
    return r ? r->headroom(now) : std::numeric_limits<Seconds>::infinity();
}

Tokens
scanDecodeGrowth(const Instance &inst)
{
    Tokens growth = 0;
    for (const Request *r : inst.decodeBatch()) {
        Tokens need = PagedKvCache::roundedTokens(r->contextLen() + 1);
        if (need > r->kvReserved)
            growth += need - r->kvReserved;
    }
    return growth;
}

/** TokenScheduler::pickNext as a scan of every queue per pick. */
TokenScheduler::Pick
scanPickNext(const Partition &partition, SchedPolicy policy, Seconds now,
             std::vector<Instance *> &shortages)
{
    TokenScheduler::Pick best;
    const double kPrefillBias = 1e12;
    for (Instance *inst : partition.instances) {
        if (!inst->runnable())
            continue;
        TokenScheduler::Pick cand;
        double key = std::numeric_limits<double>::infinity();
        if (policy == SchedPolicy::Headroom) {
            bool is_prefill = false;
            Request *urgent = scanMostUrgent(*inst, now, is_prefill);
            if (!urgent)
                continue;
            if (is_prefill) {
                if (inst->kv.canFit(
                        PagedKvCache::roundedTokens(urgent->contextLen()))) {
                    cand = {inst, urgent};
                    key = urgent->headroom(now);
                } else {
                    shortages.push_back(inst);
                    if (!inst->decodeBatch().empty() &&
                        inst->kv.canFit(scanDecodeGrowth(*inst))) {
                        cand = {inst, nullptr};
                        key = scanMinHeadroom(*inst, now);
                    }
                }
            } else if (inst->kv.canFit(scanDecodeGrowth(*inst))) {
                cand = {inst, nullptr};
                key = urgent->headroom(now);
            } else {
                shortages.push_back(inst);
            }
        } else {
            Request *first_prefill = nullptr;
            for (Request *r : inst->prefillQueue()) {
                if (!first_prefill || r->arrival < first_prefill->arrival)
                    first_prefill = r;
            }
            if (first_prefill &&
                inst->kv.canFit(PagedKvCache::roundedTokens(
                    first_prefill->contextLen()))) {
                cand = {inst, first_prefill};
                key = first_prefill->arrival - kPrefillBias;
            } else if (!inst->decodeBatch().empty()) {
                if (first_prefill)
                    shortages.push_back(inst);
                if (inst->kv.canFit(scanDecodeGrowth(*inst))) {
                    cand = {inst, nullptr};
                    key = scanMinHeadroom(*inst, now);
                } else {
                    shortages.push_back(inst);
                }
            } else if (first_prefill) {
                shortages.push_back(inst);
            }
        }
        if (cand.inst && key < best.key) {
            best = cand;
            best.key = key;
        }
    }
    return best;
}

/**
 * pickNext and Instance::urgency against the scan above, through seeded
 * churn on one partition: enqueues, decode joins (mid-step ones
 * included), evictions, decode steps that stall on KV, prefill
 * completions (some routed away), state changes and KV resizes. The
 * clock sits near 1e4 s and many deadlines far in the past, so distinct
 * deadlines d and nextafter(d, +inf) round to one headroom; other
 * deadlines sit on a 1/8 s grid so prefill and decode deadlines tie.
 * After every step the pick, its key and the shortage list must equal
 * the scan's, and each instance's decodeGrowth() a fresh sum.
 */
TEST(TokenSchedulerFuzz, CachedPickMatchesScan)
{
    const Seconds kInf = std::numeric_limits<Seconds>::infinity();
    const Bytes per_token = llama2_7b().kvBytesPerToken();
    int fl_ties = 0, queue_ties = 0, midstep_joins = 0, stalls = 0,
        prefill_picks = 0, decode_picks = 0, checks = 0;
    for (SchedPolicy policy :
         {SchedPolicy::Headroom, SchedPolicy::FifoPrefillFirst}) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " policy " +
                         std::to_string(static_cast<int>(policy)));
            std::mt19937_64 rng(seed);
            auto pick = [&rng](std::size_t n) {
                return static_cast<std::size_t>(rng() % n);
            };
            auto coin = [&rng](int pct) {
                return static_cast<int>(rng() % 100) < pct;
            };

            SchedHarness h;
            TokenScheduler::Callbacks cbs;
            cbs.onRequestDone = [&h](Request *r, Instance *i) {
                h.done.emplace_back(r, i);
            };
            cbs.onKvShortage = [&h](Instance *i) {
                h.shortages.push_back(i);
            };
            cbs.routeAfterPrefill = [&coin](Request *r, Instance *i) {
                if (!coin(15))
                    return false;
                i->kv.release(r->kvReserved);
                r->kvReserved = 0;
                r->instance = 0;
                r->state = RequestState::Transfer;
                return true;
            };
            h.sched = std::make_unique<TokenScheduler>(
                h.sim, *h.part, policy, 0.05, Rng(seed), cbs, nullptr);
            TokenScheduler &sched = *h.sched;
            h.sim.runUntil(1e4 + 0.37 * static_cast<double>(seed));

            for (std::size_t k = 1 + pick(3); k > 0; --k)
                h.addInstance((1024 + 512 * pick(8)) * per_token);

            Seconds last_deadline = 0.0;
            auto make = [&](Tokens generated) -> Request & {
                auto r = std::make_unique<Request>();
                r->id = h.nextReq++;
                r->inputLen = static_cast<Tokens>(1 + pick(400));
                if (coin(30))
                    r->inputLen = 16 * static_cast<Tokens>(1 + pick(24));
                r->targetOutput = generated + 1 +
                                  static_cast<Tokens>(pick(30));
                r->generated = generated;
                r->tpotSlo = 0.25;
                if (coin(40)) {
                    // Far in the past: d - now rounds to a coarser
                    // grid than d, so neighbouring deadlines tie.
                    r->arrival = 2000.0 + 0.001 * static_cast<double>(
                                              pick(1000000));
                    r->ttftSlo = 0.0;
                } else {
                    r->arrival = h.sim.now() -
                                 0.125 * static_cast<double>(pick(40));
                    r->ttftSlo = 0.5 * static_cast<double>(pick(5));
                }
                if (coin(30) && last_deadline > 0.0) {
                    // Reuse the last deadline, or a neighbouring double.
                    const int side = static_cast<int>(pick(3));
                    Seconds d = side == 0 ? last_deadline
                                          : std::nextafter(last_deadline,
                                                           side == 1 ? kInf
                                                                     : -kInf);
                    r->arrival = d - r->tpotSlo *
                                         static_cast<double>(generated);
                    r->ttftSlo = 0.0;
                }
                last_deadline = r->deadlineForNextToken();
                h.reqs.push_back(std::move(r));
                return *h.reqs.back();
            };
            auto instanceAt = [&]() -> Instance * {
                auto &v = h.part->instances;
                return v.empty() ? nullptr : v[pick(v.size())];
            };

            for (int step = 0; step < 250; ++step) {
                const int op = static_cast<int>(pick(100));
                Instance *inst = instanceAt();
                if (op < 22 && inst) {
                    Request &r = make(0);
                    r.instance = inst->id;
                    r.state = RequestState::Prefill;
                    inst->enqueuePrefill(&r);
                } else if (op < 40 && inst) {
                    Request &r = make(1 + static_cast<Tokens>(pick(20)));
                    Tokens need = PagedKvCache::roundedTokens(
                        r.contextLen() + (coin(50) ? 1 : 0));
                    if (inst->kv.reserve(need)) {
                        if (h.part->busy && !inst->decodeBatch().empty())
                            ++midstep_joins;
                        r.kvReserved = need;
                        r.instance = inst->id;
                        r.state = RequestState::Decode;
                        inst->joinDecode(&r);
                    }
                } else if (op < 50 && inst && inst->loadSize() > 0) {
                    const bool prefill =
                        !inst->prefillQueue().empty() &&
                        (inst->decodeBatch().empty() || coin(40));
                    const auto &q = prefill ? inst->prefillQueue()
                                            : inst->decodeBatch();
                    Request *r = q[pick(q.size())];
                    inst->removeRequest(r);
                    inst->kv.release(r->kvReserved);
                    r->kvReserved = 0;
                    r->instance = 0;
                    r->state = RequestState::Queued;
                } else if (op < 85) {
                    if (h.part->busy) {
                        // A stall: a member that stays in a batch that
                        // advanced without it.
                        std::vector<std::pair<Request *, Tokens>> seen;
                        for (const Instance *i : h.part->instances)
                            for (Request *r : i->decodeBatch())
                                seen.emplace_back(r, r->generated);
                        h.sim.runUntil(sched.busyUntil());
                        for (const auto &[r, g] : seen) {
                            if (r->state != RequestState::Decode ||
                                r->generated != g)
                                continue;
                            for (const auto &[o, og] : seen) {
                                if (o->instance == r->instance &&
                                    o->generated > og) {
                                    ++stalls;
                                    break;
                                }
                            }
                        }
                    }
                } else if (op < 92 && inst) {
                    if (coin(50)) {
                        inst->resizeInFlight = !inst->resizeInFlight;
                    } else {
                        inst->setState(coin(75) ? InstanceState::Active
                                                : InstanceState::Loading);
                    }
                } else if (op < 98 && inst) {
                    // A KV resize, never below what is reserved.
                    Tokens cap = std::max<Tokens>(
                        inst->kv.usedTokens(),
                        static_cast<Tokens>(512 + 256 * pick(16)));
                    inst->kv.setAllocBytes(static_cast<Bytes>(cap) *
                                           per_token);
                } else if (h.part->instances.size() < 4) {
                    h.addInstance((1024 + 512 * pick(8)) * per_token);
                }
                sched.kick();

                const Seconds now = h.sim.now();
                for (const Instance *i : h.part->instances) {
                    ASSERT_EQ(i->decodeGrowth(), scanDecodeGrowth(*i))
                        << "step " << step;
                    bool is_prefill = false;
                    Request *urgent = scanMostUrgent(*i, now, is_prefill);
                    const Instance::Urgency u = i->urgency(now);
                    Seconds pmin = kInf, dmin = kInf;
                    Request *first = nullptr, *earliest = nullptr;
                    std::vector<Seconds> deadlines;
                    for (Request *r : i->prefillQueue()) {
                        if (r->headroom(now) < pmin) {
                            pmin = r->headroom(now);
                            first = r;
                        }
                        if (!earliest || r->arrival < earliest->arrival)
                            earliest = r;
                        deadlines.push_back(r->deadlineForNextToken());
                    }
                    for (const Request *r : i->decodeBatch())
                        dmin = std::min(dmin, r->headroom(now));
                    ASSERT_EQ(u.prefill, first) << "step " << step;
                    ASSERT_EQ(u.prefillHeadroom, pmin) << "step " << step;
                    ASSERT_EQ(u.decodeHeadroom, dmin) << "step " << step;
                    queue_ties += first && pmin == dmin ? 1 : 0;
                    ASSERT_EQ(i->earliestPrefill(), earliest)
                        << "step " << step;
                    if (urgent) {
                        ASSERT_EQ(is_prefill,
                                  u.prefill &&
                                      u.prefillHeadroom <= u.decodeHeadroom)
                            << "step " << step;
                    }
                    std::sort(deadlines.begin(), deadlines.end());
                    for (std::size_t k = 1; k < deadlines.size(); ++k) {
                        if (deadlines[k] != deadlines[0]) {
                            fl_ties += deadlines[k] - now ==
                                               deadlines[0] - now
                                           ? 1
                                           : 0;
                            break;
                        }
                    }
                }
                std::vector<Instance *> got_short, want_short;
                const TokenScheduler::Pick got =
                    TokenScheduler::pickNext(*h.part, policy, now,
                                             got_short);
                const TokenScheduler::Pick want =
                    scanPickNext(*h.part, policy, now, want_short);
                ASSERT_EQ(got.inst, want.inst) << "step " << step;
                ASSERT_EQ(got.prefill, want.prefill) << "step " << step;
                ASSERT_EQ(got.key, want.key) << "step " << step;
                ASSERT_EQ(got_short, want_short) << "step " << step;
                if (got.inst)
                    ++(got.prefill ? prefill_picks : decode_picks);
                ++checks;
            }
        }
    }
    // The churn reached every case the kept facts must get right.
    EXPECT_GT(fl_ties, 50);
    EXPECT_GT(queue_ties, 50);
    EXPECT_GT(midstep_joins, 50);
    EXPECT_GT(stalls, 50);
    EXPECT_GT(prefill_picks, 1000);
    EXPECT_GT(decode_picks, 1000);
    EXPECT_EQ(checks, 2 * 40 * 250);
}

} // namespace
} // namespace slinfer

/**
 * @file
 * Shadow-validation tests (§VI-C): the three rejection cases, the
 * doomed-request exemption, loading-instance availability, the
 * aggregate (case 3) decode check, and the fast path (running minima,
 * lazy decode deadlines, baseline memo) against a scan-based reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>

#include "core/shadow_validator.hh"

namespace slinfer
{
namespace
{

struct ShadowFixture : public ::testing::Test
{
    ShadowFixture() : node(0, xeon6462c(), 1)
    {
        part = node.partitions()[0].get();
        quant.profile(xeon6462c(), llama2_7b());
        quant.profile(a100_80g(), llama2_7b());
        validator = std::make_unique<ShadowValidator>(
            quant, ShadowConfig{1.10, 0.25, 500});
    }

    Instance &
    addInstance(const HardwareSpec &hw)
    {
        auto inst = std::make_unique<Instance>(nextId++, 0, llama2_7b(),
                                               part, hw, 32ULL << 30);
        inst->setState(InstanceState::Active);
        part->addInstance(inst.get());
        pool.push_back(std::move(inst));
        return *pool.back();
    }

    Request &
    makeRequest(Seconds arrival, Tokens in, Tokens out,
                Tokens generated = 0)
    {
        auto r = std::make_unique<Request>();
        r->id = nextReq++;
        r->arrival = arrival;
        r->inputLen = in;
        r->targetOutput = out;
        r->generated = generated;
        r->ttftSlo = std::min(std::max(0.5, in / 512.0), 8.0);
        r->tpotSlo = 0.25;
        reqs.push_back(std::move(r));
        return *reqs.back();
    }

    /** `n` decoding requests on `inst`, next token due at `deadline`. */
    void
    addDecodes(Instance &inst, int n, Seconds deadline)
    {
        for (int i = 0; i < n; ++i) {
            Request &r = makeRequest(0.0, 1024, 400, 40);
            r.state = RequestState::Decode;
            r.arrival += deadline - r.deadlineForNextToken();
            inst.joinDecode(&r);
        }
    }

    Node node;
    Partition *part;
    Quantifier quant;
    std::unique_ptr<ShadowValidator> validator;
    std::vector<std::unique_ptr<Instance>> pool;
    std::vector<std::unique_ptr<Request>> reqs;
    InstanceId nextId = 1;
    RequestId nextReq = 1;
};

TEST_F(ShadowFixture, AdmitsToIdleInstance)
{
    Instance &inst = addInstance(xeon6462c());
    Request &r = makeRequest(0.0, 1024, 100);
    EXPECT_TRUE(validator->canAdmit(*part, &inst, r, 0.0, 0.0));
}

TEST_F(ShadowFixture, RejectsCase1PrefillTooLong)
{
    // A 34B model on the CPU: the prefill alone blows the TTFT SLO.
    quant.profile(xeon6462c(), codellama_34b());
    auto inst = std::make_unique<Instance>(nextId++, 0, codellama_34b(),
                                           part, xeon6462c(), 32ULL << 30);
    inst->setState(InstanceState::Active);
    part->addInstance(inst.get());
    Request &r = makeRequest(0.0, 2048, 100);
    EXPECT_FALSE(validator->canAdmit(*part, inst.get(), r, 0.0, 0.0));
}

TEST_F(ShadowFixture, RejectsCase2ExistingRequestDelayed)
{
    // A large CPU decode batch running near its deadline budget: a
    // short-TTFT newcomer cannot squeeze its prefill in without either
    // being late itself or delaying the batch past its cumulative
    // deadlines.
    Instance &inst = addInstance(xeon6462c());
    std::vector<Request *> batch;
    for (int i = 0; i < 22; ++i) {
        Request &r = makeRequest(0.0, 2000, 400, /*generated=*/8);
        r.state = RequestState::Decode;
        inst.joinDecode(&r);
        batch.push_back(&r);
    }
    Seconds now = batch[0]->deadlineForNextToken() - 0.05;
    Request &incoming = makeRequest(now, 256, 100); // TTFT SLO 0.5 s
    EXPECT_FALSE(validator->canAdmit(*part, &inst, incoming, now, now));
}

TEST_F(ShadowFixture, RejectsCase3AggregateDecode)
{
    // Four CPU instances each with sizeable batches: the sum of one
    // decode iteration across instances exceeds the 0.25 s TPOT.
    for (int i = 0; i < 4; ++i) {
        Instance &inst = addInstance(xeon6462c());
        for (int j = 0; j < 12; ++j) {
            Request &r = makeRequest(0.0, 1024, 200, 5);
            r.state = RequestState::Decode;
            inst.joinDecode(&r);
        }
    }
    Request &incoming = makeRequest(10.0, 512, 50);
    EXPECT_FALSE(validator->aggregateDecodeFits(
        *part, part->instances[0], 1, incoming.contextLen()));
    EXPECT_FALSE(validator->canAdmit(*part, part->instances[0], incoming,
                                     10.0, 10.0));
}

TEST_F(ShadowFixture, AggregateFitsWithFewInstances)
{
    Instance &a = addInstance(xeon6462c());
    Request &r = makeRequest(0.0, 1024, 100, 3);
    r.state = RequestState::Decode;
    a.joinDecode(&r);
    EXPECT_TRUE(validator->aggregateDecodeFits(*part, &a, 1, 1024));
}

TEST_F(ShadowFixture, ExcludedInstancesAreIgnored)
{
    // Same overload as the case-3 test, but excluding three of the
    // four instances clears the admission.
    std::vector<Instance *> insts;
    for (int i = 0; i < 4; ++i) {
        Instance &inst = addInstance(xeon6462c());
        insts.push_back(&inst);
        for (int j = 0; j < 12; ++j) {
            Request &r = makeRequest(0.0, 1024, 200, 5);
            r.state = RequestState::Decode;
            inst.joinDecode(&r);
        }
    }
    // Excluding three of the four instances clears the aggregate
    // (case 3) check that rejected the crowded partition.
    Request &incoming = makeRequest(10.0, 512, 50);
    std::set<const Instance *> excl = {insts[1], insts[2], insts[3]};
    EXPECT_FALSE(validator->aggregateDecodeFits(
        *part, insts[0], 1, incoming.contextLen()));
    EXPECT_TRUE(validator->aggregateDecodeFits(
        *part, insts[0], 1, incoming.contextLen(), excl));
}

TEST_F(ShadowFixture, DoomedRequestDoesNotVetoAdmission)
{
    // A request slightly past its deadline is doomed regardless of the
    // newcomer; it may not veto the admission (only consume compute).
    Instance &inst = addInstance(xeon6462c());
    Request &doomed = makeRequest(0.0, 1024, 100, 2);
    doomed.state = RequestState::Decode;
    inst.joinDecode(&doomed);
    Seconds now = doomed.deadlineForNextToken() + 0.3;
    Request &incoming = makeRequest(now, 1024, 50); // TTFT SLO 2 s
    EXPECT_TRUE(validator->canAdmit(*part, &inst, incoming, now, now));
}

TEST_F(ShadowFixture, DoomedCandidateCanStillBeReplaced)
{
    // An evicted request being re-placed has already lost its SLO; its
    // own lateness must not block finding a new home.
    Instance &inst = addInstance(xeon6462c());
    Request &evicted = makeRequest(0.0, 1024, 400, /*generated=*/50);
    Seconds now = evicted.deadlineForNextToken() + 10.0;
    EXPECT_TRUE(validator->canAdmit(*part, &inst, evicted, now, now));
}

TEST_F(ShadowFixture, CanAdmitNewOnEmptyPartition)
{
    Request &r = makeRequest(0.0, 1024, 100);
    // Cold start ready ~1 s later; grace covers it.
    EXPECT_TRUE(validator->canAdmitNew(*part, llama2_7b(), xeon6462c(), r,
                                       0.0, 0.0, 1.0));
}

TEST_F(ShadowFixture, CanAdmitNewRespectsBusyNeighbors)
{
    for (int i = 0; i < 3; ++i) {
        Instance &inst = addInstance(xeon6462c());
        for (int j = 0; j < 12; ++j) {
            Request &r = makeRequest(0.0, 1024, 200, 5);
            r.state = RequestState::Decode;
            inst.joinDecode(&r);
        }
    }
    Request &r = makeRequest(10.0, 1024, 100);
    EXPECT_FALSE(validator->canAdmitNew(*part, llama2_7b(), xeon6462c(),
                                        r, 10.0, 10.0, 11.0));
}

TEST_F(ShadowFixture, LoadingInstanceDelaysItsPrefills)
{
    Instance &inst = addInstance(xeon6462c());
    inst.setState(InstanceState::Loading);
    inst.createdAt = 0.0;
    inst.loadDuration = 1.0;
    // A queued request whose TTFT cannot survive waiting for the load
    // plus a long prefill.
    Request &queued = makeRequest(0.0, 256, 50); // TTFT SLO = 0.5 s
    queued.state = RequestState::Prefill;
    inst.enqueuePrefill(&queued);
    Request &incoming = makeRequest(0.0, 256, 50);
    // The queued request is doomed by the load alone (no grace in this
    // synthetic setup), so it must not veto the incoming one... but the
    // incoming rides the same loading instance, so it is late too.
    EXPECT_FALSE(validator->canAdmit(*part, &inst, incoming, 0.0, 0.0));
}

TEST_F(ShadowFixture, GpuAbsorbsWhatCpuCannot)
{
    // The identical load that fails on the CPU passes on an A100.
    Node gpu_node(1, a100_80g(), 1);
    Partition *gpu_part = gpu_node.partitions()[0].get();
    auto gi = std::make_unique<Instance>(nextId++, 0, llama2_7b(),
                                         gpu_part, a100_80g(),
                                         32ULL << 30);
    gi->setState(InstanceState::Active);
    gpu_part->addInstance(gi.get());
    for (int j = 0; j < 12; ++j) {
        Request &r = makeRequest(0.0, 1024, 200, 5);
        r.state = RequestState::Decode;
        gi->joinDecode(&r);
    }
    Request &incoming = makeRequest(10.0, 2048, 100);
    EXPECT_TRUE(validator->canAdmit(*gpu_part, gi.get(), incoming, 10.0,
                                    10.0));
}

TEST_F(ShadowFixture, PartitionBusyUntilDelaysEverything)
{
    Instance &inst = addInstance(xeon6462c());
    Request &r = makeRequest(0.0, 256, 50); // TTFT 0.5 s
    // The partition is busy with someone else's long iteration until
    // after the candidate's deadline.
    EXPECT_FALSE(validator->canAdmit(*part, &inst, r, 0.0, /*busy=*/3.0));
    EXPECT_TRUE(validator->canAdmit(*part, &inst, r, 0.0, 0.0));
}

/**
 * Reference validator: the straightforward scan the fast path replaced.
 * Every step rescans every instance and every deadline, each estimate
 * looks its profile table up by name, and both passes always run. It
 * shares nothing with ShadowValidator but the case-3 check, which the
 * fast path left alone.
 */
class ScanValidator
{
  public:
    ScanValidator(const Quantifier &quant, ShadowConfig cfg)
        : quant_(quant), cfg_(cfg), aggregate_(quant, cfg)
    {
    }

    bool
    canAdmit(const Partition &part, const Instance *target,
             const Request &req, Seconds now, Seconds partBusyUntil,
             const std::set<const Instance *> &exclude) const
    {
        if (!aggregate_.aggregateDecodeFits(part, target, 1,
                                            req.contextLen(), exclude))
            return false;
        std::vector<SimInst> state;
        int next_id = 0;
        for (const Instance *inst : part.instances) {
            if (!live(inst, exclude))
                continue;
            state.push_back(build(*inst, now, next_id));
            if (inst == target) {
                state.back().prefills.push_back(
                    {req.deadlineForNextToken(), req.contextLen(), true,
                     -1});
            }
        }
        return twoPass(state, std::max(now, partBusyUntil), now);
    }

    bool
    canAdmitNew(const Partition &part, const ModelSpec &model,
                const HardwareSpec &execSpec, const Request &req,
                Seconds now, Seconds partBusyUntil, Seconds readyAt) const
    {
        if (case3RejectsNew(part, model, execSpec, req))
            return false;
        std::vector<SimInst> state;
        int next_id = 0;
        for (const Instance *inst : part.instances) {
            if (live(inst, {}))
                state.push_back(build(*inst, now, next_id));
        }
        SimInst cand;
        cand.model = &model;
        cand.hw = &execSpec;
        cand.availAt = readyAt;
        Seconds grace = std::max<Seconds>(0.0, readyAt - now);
        cand.prefills.push_back({req.deadlineForNextToken() + grace,
                                 req.contextLen(), true, -1});
        cand.avgLen = static_cast<double>(req.contextLen());
        state.push_back(cand);
        return twoPass(state, std::max(now, partBusyUntil), now);
    }

    /**
     * canAdmitNew's two case-3 checks, fresh: every context summed from
     * the queues, every estimate looked up by name, no cached bound.
     */
    bool
    case3RejectsNew(const Partition &part, const ModelSpec &model,
                    const HardwareSpec &execSpec, const Request &req) const
    {
        Seconds aggregate = 0.0;
        Seconds others = 0.0;
        for (const Instance *inst : part.instances) {
            if (inst->state() == InstanceState::Reclaimed ||
                inst->state() == InstanceState::Unloading)
                continue;
            int batch = inst->loadSize();
            if (batch == 0)
                continue;
            Tokens decode_ctx = 0, all_ctx = 0;
            for (const Request *r : inst->decodeBatch())
                decode_ctx += r->contextLen();
            all_ctx = decode_ctx;
            for (const Request *r : inst->prefillQueue())
                all_ctx += r->contextLen();
            Tokens decode_avg =
                inst->batchSize() == 0
                    ? 1
                    : std::max<Tokens>(1, decode_ctx / inst->batchSize());
            const Quantifier::ProfileTable &table =
                quant_.tableFor(inst->execSpec, inst->model);
            others += Quantifier::decodeEstimate(table, batch, decode_avg) *
                      cfg_.overestimate;
            if (inst->state() == InstanceState::Draining)
                continue;
            aggregate += Quantifier::decodeEstimate(
                             table, batch,
                             std::max<Tokens>(1, all_ctx / batch)) *
                         cfg_.overestimate;
        }
        Seconds own = Quantifier::decodeEstimate(
                          quant_.tableFor(execSpec, model), 1,
                          req.contextLen()) *
                      cfg_.overestimate;
        return aggregate > cfg_.tpotSlo || own + others > cfg_.tpotSlo;
    }

  private:
    struct SimReq
    {
        Seconds deadline;
        Tokens ctx;
        bool isCandidate;
        int id;
    };
    struct SimDecode
    {
        Seconds deadline;
        int id;
    };
    struct SimInst
    {
        const ModelSpec *model = nullptr;
        const HardwareSpec *hw = nullptr;
        Seconds availAt = 0.0;
        std::vector<SimReq> prefills;
        std::vector<SimDecode> decodeDeadlines;
        double avgLen = 1.0;
        bool decodedSinceCandidate = false;
    };

    static bool
    live(const Instance *inst, const std::set<const Instance *> &exclude)
    {
        return !exclude.count(inst) &&
               inst->state() != InstanceState::Reclaimed &&
               inst->state() != InstanceState::Unloading &&
               inst->state() != InstanceState::Draining;
    }

    static SimInst
    build(const Instance &inst, Seconds now, int &next_id)
    {
        SimInst s;
        s.model = &inst.model;
        s.hw = &inst.execSpec;
        s.availAt = inst.state() == InstanceState::Loading
                        ? inst.createdAt + inst.loadDuration
                        : now;
        for (const Request *r : inst.prefillQueue())
            s.prefills.push_back({r->deadlineForNextToken(),
                                  r->contextLen(), false, next_id++});
        for (const Request *r : inst.decodeBatch())
            s.decodeDeadlines.push_back(
                {r->deadlineForNextToken(), next_id++});
        s.avgLen = static_cast<double>(inst.avgContextLen());
        return s;
    }

    bool
    twoPass(const std::vector<SimInst> &state, Seconds start,
            Seconds now) const
    {
        std::vector<SimInst> baseline = state;
        for (SimInst &si : baseline)
            si.prefills.erase(std::remove_if(si.prefills.begin(),
                                             si.prefills.end(),
                                             [](const SimReq &p) {
                                                 return p.isCandidate;
                                             }),
                              si.prefills.end());
        std::vector<int> doomed;
        simulate(baseline, start, true, doomed);
        for (const SimInst &si : state)
            for (const SimReq &p : si.prefills)
                if (p.isCandidate && p.deadline < now)
                    doomed.push_back(p.id);
        std::sort(doomed.begin(), doomed.end());
        std::vector<SimInst> real = state;
        return simulate(real, start, false, doomed);
    }

    bool
    simulate(std::vector<SimInst> &v, Seconds start, bool collectDoomed,
             std::vector<int> &doomed) const
    {
        const Seconds inf = std::numeric_limits<Seconds>::infinity();
        Seconds t = start;
        bool candidate_prefilled = true;
        for (const SimInst &si : v)
            for (const SimReq &p : si.prefills)
                if (p.isCandidate)
                    candidate_prefilled = false;
        auto violate = [&](int id) {
            if (collectDoomed) {
                doomed.push_back(id);
                return false;
            }
            return !std::binary_search(doomed.begin(), doomed.end(), id);
        };
        for (int step = 0; step < cfg_.maxSteps; ++step) {
            if (candidate_prefilled) {
                bool all_ok = true;
                for (const SimInst &si : v)
                    if (!si.prefills.empty() ||
                        (!si.decodeDeadlines.empty() &&
                         !si.decodedSinceCandidate))
                        all_ok = false;
                if (all_ok)
                    return true;
            }
            SimInst *chosen = nullptr;
            Seconds best = inf;
            Seconds min_avail = inf;
            bool any_work = false;
            for (SimInst &si : v) {
                if (si.prefills.empty() && si.decodeDeadlines.empty())
                    continue;
                any_work = true;
                min_avail = std::min(min_avail, si.availAt);
                if (si.availAt > t)
                    continue;
                Seconds d = inf;
                for (const SimReq &p : si.prefills)
                    d = std::min(d, p.deadline);
                for (const SimDecode &dd : si.decodeDeadlines)
                    d = std::min(d, dd.deadline);
                if (d < best) {
                    best = d;
                    chosen = &si;
                }
            }
            if (!any_work)
                return true;
            if (!chosen) {
                t = std::max(t, min_avail);
                continue;
            }
            std::size_t pf_idx = 0;
            Seconds pf_best = inf;
            for (std::size_t i = 0; i < chosen->prefills.size(); ++i) {
                if (chosen->prefills[i].deadline < pf_best) {
                    pf_best = chosen->prefills[i].deadline;
                    pf_idx = i;
                }
            }
            Seconds dec_best = inf;
            for (const SimDecode &dd : chosen->decodeDeadlines)
                dec_best = std::min(dec_best, dd.deadline);
            if (pf_best <= dec_best) {
                SimReq req = chosen->prefills[pf_idx];
                t += Quantifier::prefillEstimate(
                         quant_.tableFor(*chosen->hw, *chosen->model),
                         req.ctx) *
                     cfg_.overestimate;
                if (t > req.deadline && violate(req.id))
                    return false;
                chosen->prefills.erase(chosen->prefills.begin() +
                                       static_cast<std::ptrdiff_t>(pf_idx));
                if (req.isCandidate)
                    candidate_prefilled = true;
                double n =
                    static_cast<double>(chosen->decodeDeadlines.size());
                chosen->avgLen = (chosen->avgLen * n +
                                  static_cast<double>(req.ctx)) /
                                 (n + 1.0);
                chosen->decodeDeadlines.push_back(
                    {std::max(req.deadline, t) + cfg_.tpotSlo, req.id});
            } else {
                int batch = static_cast<int>(chosen->decodeDeadlines.size());
                t += Quantifier::decodeEstimate(
                         quant_.tableFor(*chosen->hw, *chosen->model),
                         batch, static_cast<Tokens>(chosen->avgLen)) *
                     cfg_.overestimate;
                for (SimDecode &dd : chosen->decodeDeadlines) {
                    if (t > dd.deadline && violate(dd.id))
                        return false;
                    dd.deadline += cfg_.tpotSlo;
                }
                chosen->avgLen += 1.0;
                chosen->decodedSinceCandidate = true;
            }
        }
        return true;
    }

    const Quantifier &quant_;
    ShadowConfig cfg_;
    ShadowValidator aggregate_;
};

std::uint64_t
shadowRejections(const obs::Counters &c)
{
    return c.v[obs::kShadowRejectAggregate] +
           c.v[obs::kShadowRejectPrefillLate] +
           c.v[obs::kShadowRejectDecodeDelayed];
}

TEST_F(ShadowFixture, FastPathMatchesScanReferenceFuzz)
{
    // Random partitions: mixed CPU/GPU tables and two models, loading
    // instances not yet available, draining/unloading ones skipped,
    // exclude sets, and deadlines drawn from a coarse grid so ties
    // between instances, prefills and decodes are common. Each state
    // is queried several times so the warm validator's memo answers
    // baselines it has seen; the fresh one always simulates.
    //
    // Two more regimes stress the lazy decode deadlines: prefills due
    // 30-60 s ahead, so the decode batches step for the whole horizon
    // before any prefill is urgent, and decodes already far past their
    // deadlines, so every decode step of both passes catches its batch
    // up. Every regime runs at three horizons; the short ones cut the
    // fast-forward between decode epochs.
    //
    // The quiescent regime is the state most fleet-scale passes that
    // used to run out the horizon start from: 3-4 instances, decodes
    // 20-30 s ahead of their deadlines and 1-3 prefills due within a
    // few seconds, where the demand bound ends most passes early. In
    // half the draws the candidate is due just before one prefill's
    // first decode, so that decode's slack sits within a step of the
    // work due by it.
    enum class Regime { Mixed, FarPrefills, LateDecodes, Quiescent };
    const std::vector<ModelSpec> models = {llama2_7b(), llama32_3b()};
    const std::vector<HardwareSpec> hws = {xeon6462c(), a100_80g()};
    for (const ModelSpec &m : models)
        for (const HardwareSpec &hw : hws)
            quant.profile(hw, m);
    obs::Counters counters;
    std::uint64_t rejected = 0;
    std::uint64_t verdicts[2] = {0, 0};
    const Tokens lens[] = {64, 256, 512, 1024, 2048, 3000};
    Node gpu_node(1, a100_80g(), 1);

    // One regime at one horizon: `seeds` random partitions, six
    // queries each, verdicts compared against the scan reference.
    auto fuzz = [&](Regime regime, int max_steps, std::uint64_t seeds) {
        const ShadowConfig cfg{1.10, 0.25, max_steps};
        const std::string where = "regime " +
                                  std::to_string(static_cast<int>(regime)) +
                                  " maxSteps " + std::to_string(max_steps);
        const bool quiet = regime == Regime::Quiescent;
        ScanValidator reference(quant, cfg);
        ShadowValidator warm(quant, cfg);
        obs::Counters regime_counters;
        warm.attachCounters(&regime_counters);
        std::uint64_t regime_verdicts[2] = {0, 0};
        std::uint64_t tight = 0;
        for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
            std::mt19937_64 rng(seed);
            auto pick = [&rng](std::size_t n) {
                return static_cast<std::size_t>(rng() % n);
            };
            auto coin = [&rng](int pct) {
                return static_cast<int>(rng() % 100) < pct;
            };
            auto request = [&](Seconds now, Tokens generated) -> Request & {
                Request &r = makeRequest(now - 0.25 * static_cast<double>(
                                                       pick(9)),
                                         lens[pick(6)], 400, generated);
                r.ttftSlo = 0.5 * static_cast<double>(1 + pick(4));
                if (regime == Regime::FarPrefills && generated == 0)
                    r.ttftSlo = 30.0 + static_cast<double>(pick(31));
                return r;
            };
            // Move `r`'s next-token deadline to `deadline`.
            auto dueAt = [](Request &r, Seconds deadline) {
                r.arrival += deadline - r.deadlineForNextToken();
            };

            Partition *p = coin(50) ? part : gpu_node.partitions()[0].get();
            p->instances.clear();
            const Seconds now = 100.0;
            auto decode = [&](Instance *inst) {
                Request &r = request(now, static_cast<Tokens>(1 + pick(20)));
                r.state = RequestState::Decode;
                if (regime == Regime::LateDecodes)
                    r.arrival -= 60.0;
                if (quiet)
                    dueAt(r,
                          now + 20.0 + 0.25 * static_cast<double>(pick(41)));
                inst->joinDecode(&r);
            };
            std::size_t n_inst = quiet ? 3 + pick(2) : 1 + pick(8);
            std::vector<Instance *> insts;
            for (std::size_t i = 0; i < n_inst; ++i) {
                std::size_t mi = pick(models.size());
                auto inst = std::make_unique<Instance>(
                    nextId++, static_cast<ModelId>(mi), models[mi], p,
                    hws[pick(hws.size())], 32ULL << 30);
                int roll = static_cast<int>(pick(100));
                if (quiet)
                    roll = roll < 85 ? 0 : 80;
                inst->setState(roll < 70   ? InstanceState::Active
                               : roll < 88 ? InstanceState::Loading
                               : roll < 94 ? InstanceState::Draining
                                           : InstanceState::Unloading);
                inst->createdAt = now - 0.5 * static_cast<double>(pick(4));
                inst->loadDuration = 0.5 * static_cast<double>(1 + pick(6));
                for (std::size_t k = quiet ? 0 : pick(5); k > 0; --k)
                    inst->enqueuePrefill(&request(now, 0));
                for (std::size_t k = quiet ? 1 + pick(12) : pick(14); k > 0;
                     --k)
                    decode(inst.get());
                p->addInstance(inst.get());
                insts.push_back(inst.get());
                pool.push_back(std::move(inst));
            }
            std::vector<const Request *> queued;
            for (std::size_t k = quiet ? 1 + pick(3) : 0; k > 0; --k) {
                Request &r = request(now, 0);
                dueAt(r, now + 0.5 + 0.05 * static_cast<double>(pick(80)));
                insts[pick(insts.size())]->enqueuePrefill(&r);
                queued.push_back(&r);
            }
            // A candidate; a quiescent one is due in a few seconds or, in
            // half the draws, just before the first decode of a queued
            // prefill, whose instance `follows` then names.
            auto candidate = [&](const Instance *&follows) -> Request & {
                Request &cand = request(now, coin(20) ? 30 : 0);
                follows = nullptr;
                if (quiet && coin(50)) {
                    const Request *q = queued[pick(queued.size())];
                    for (const Instance *inst : insts)
                        for (const Request *r : inst->prefillQueue())
                            if (r == q)
                                follows = inst;
                    dueAt(cand, q->deadlineForNextToken() + 0.25 -
                                    0.005 * static_cast<double>(1 + pick(24)));
                } else if (quiet) {
                    dueAt(cand,
                          now + 0.5 + 0.05 * static_cast<double>(pick(80)));
                }
                return cand;
            };
            std::set<const Instance *> exclude;
            for (Instance *inst : insts)
                if (!quiet && coin(15))
                    exclude.insert(inst);
            Seconds busy = coin(50) ? now : now + 0.1 * static_cast<double>(
                                                          pick(6));

            for (int q = 0; q < 6; ++q) {
                ShadowValidator fresh(quant, cfg);
                const Instance *follows;
                Request &cand = candidate(follows);
                bool expect, got_fresh, got_warm;
                if (q % 3 == 2) {
                    std::size_t mi = pick(models.size());
                    const HardwareSpec &hw = hws[pick(hws.size())];
                    Seconds ready = now + 0.5 * static_cast<double>(pick(6));
                    expect = reference.canAdmitNew(*p, models[mi], hw, cand,
                                                   now, busy, ready);
                    got_fresh = fresh.canAdmitNew(*p, models[mi], hw, cand,
                                                  now, busy, ready);
                    got_warm = warm.canAdmitNew(*p, models[mi], hw, cand, now,
                                                busy, ready);
                } else {
                    const Instance *target = insts[pick(insts.size())];
                    expect = reference.canAdmit(*p, target, cand, now, busy,
                                                exclude);
                    got_fresh =
                        fresh.canAdmit(*p, target, cand, now, busy, exclude);
                    got_warm =
                        warm.canAdmit(*p, target, cand, now, busy, exclude);
                }
                ASSERT_EQ(got_fresh, expect)
                    << where << " seed " << seed << " q " << q;
                ASSERT_EQ(got_warm, expect)
                    << where << " seed " << seed << " q " << q;
                rejected += expect ? 0 : 1;
                ++verdicts[expect ? 1 : 0];
                ++regime_verdicts[expect ? 1 : 0];
            }

            // A tight draw: move the partition's busy-until time to
            // where the reference's verdict flips, so some slack sits
            // within a rounding step of the work due by it, and query
            // both sides of the flip.
            if (quiet || coin(50)) {
                const Instance *follows;
                Request &cand = candidate(follows);
                const Instance *target =
                    follows ? follows
                    : coin(50) ? nullptr
                               : insts[pick(insts.size())];
                const std::size_t mi = pick(models.size());
                const HardwareSpec &hw = hws[pick(hws.size())];
                const Seconds ready =
                    now + 0.5 * static_cast<double>(pick(3));
                // canAdmit on `target`, or canAdmitNew when it is null,
                // with the partition busy for `x` more seconds and, in
                // half the draws, the candidate's deadline moved out by
                // as much.
                const Seconds cand_due = cand.deadlineForNextToken();
                const bool cand_moves = !follows && coin(50);
                auto admit = [&](const auto &v, Seconds x) {
                    dueAt(cand, cand_moves ? cand_due + x : cand_due);
                    return target ? v.canAdmit(*p, target, cand, now, now + x,
                                               exclude)
                                  : v.canAdmitNew(*p, models[mi], hw, cand,
                                                  now, now + x, ready + x);
                };
                Seconds lo = 0.0, hi = 40.0;
                const bool at_lo = admit(reference, lo);
                if (at_lo != admit(reference, hi)) {
                    for (int i = 0; i < 40; ++i) {
                        Seconds mid = 0.5 * (lo + hi);
                        (admit(reference, mid) == at_lo ? lo : hi) = mid;
                    }
                    for (Seconds x : {lo, hi}) {
                        bool expect = admit(reference, x);
                        ShadowValidator fresh(quant, cfg);
                        ASSERT_EQ(admit(fresh, x), expect)
                            << where << " seed " << seed << " tight";
                        ASSERT_EQ(admit(warm, x), expect)
                            << where << " seed " << seed << " tight";
                        ++tight;
                        rejected += expect ? 0 : 1;
                        ++verdicts[expect ? 1 : 0];
                        ++regime_verdicts[expect ? 1 : 0];
                    }
                }
            }
            p->instances.clear();
        }
        // Every regime and horizon sees both verdicts, and the demand
        // bound ends quiescent passes early.
        EXPECT_GT(regime_verdicts[0], 0u) << where;
        EXPECT_GT(regime_verdicts[1], 0u) << where;
        if (quiet) {
            EXPECT_GT(regime_counters.v[obs::kShadowEarlyExits], 0u)
                << where;
            EXPECT_GT(tight, 0u) << where;
        }
        for (std::size_t i = 0; i < obs::kNumCounters; ++i)
            counters.v[i] += regime_counters.v[i];
    };
    for (Regime regime : {Regime::Mixed, Regime::FarPrefills,
                          Regime::LateDecodes, Regime::Quiescent}) {
        for (int max_steps : {500, 60, 7}) {
            fuzz(regime, max_steps,
                 (regime == Regime::Mixed && max_steps == 500) ||
                         regime == Regime::Quiescent
                     ? 200
                     : 60);
            if (HasFatalFailure())
                return;
        }
    }
    // Both verdicts occur, repeats were served from the memo, passes
    // ran out the horizon, and every rejection was counted under
    // exactly one reason.
    EXPECT_GT(verdicts[0], 50u);
    EXPECT_GT(verdicts[1], 50u);
    EXPECT_GT(counters.v[obs::kShadowMemoHits], 100u);
    EXPECT_GT(counters.v[obs::kShadowHorizonHits], 0u);
    EXPECT_GT(counters.v[obs::kShadowSteps],
              counters.v[obs::kShadowHorizonHits] * 7);
    EXPECT_EQ(shadowRejections(counters), rejected);
}

TEST_F(ShadowFixture, EarlyExitAtStepZero)
{
    // Decodes 20 s ahead of their deadlines and a candidate due in 2 s:
    // the demand due by any deadline fits long before it, so the pass
    // ends before its first step with the horizon's verdict.
    obs::Counters counters;
    validator->attachCounters(&counters);
    const Seconds now = 100.0;
    Instance &inst = addInstance(a100_80g());
    addDecodes(inst, 4, now + 20.0);
    Request &cand = makeRequest(now, 512, 100);
    cand.ttftSlo = 2.0;
    ScanValidator reference(quant, ShadowConfig{1.10, 0.25, 500});
    ASSERT_TRUE(reference.canAdmit(*part, &inst, cand, now, now, {}));

    // The first call fills the baseline memo; the second runs only the
    // candidate pass.
    ASSERT_TRUE(validator->canAdmit(*part, &inst, cand, now, now));
    counters = obs::Counters();
    EXPECT_TRUE(validator->canAdmit(*part, &inst, cand, now, now));
    EXPECT_EQ(counters.v[obs::kShadowMemoHits], 1u);
    EXPECT_EQ(counters.v[obs::kShadowSteps], 0u);
    EXPECT_EQ(counters.v[obs::kShadowEarlyExits], 1u);
    EXPECT_EQ(counters.v[obs::kShadowHorizonHits], 0u);
}

TEST_F(ShadowFixture, PendingPrefillPullsStreamStartForward)
{
    // One CPU instance decodes 20 s ahead of its deadlines, with a
    // queued prefill due just after the partition frees up. The
    // candidate is due just before that prefill's first decode, so it
    // runs between the two, and the decode lands late. The instance's
    // decode stream starts at the prefill's deadline plus tpotSlo, not
    // at its batch's deadline 20 s out; a bound that started it there
    // would end the pass before the violation and admit.
    obs::Counters counters;
    validator->attachCounters(&counters);
    const Seconds now = 100.0;
    Instance &inst = addInstance(xeon6462c());
    addDecodes(inst, 4, now + 20.0);
    const Quantifier::ProfileTable &table =
        quant.tableFor(xeon6462c(), llama2_7b());
    const Seconds pf = Quantifier::prefillEstimate(table, 256) * 1.10;
    const Seconds dec = Quantifier::decodeEstimate(table, 6, 700) * 1.10;
    const Seconds busy = now + 1.0;
    Request &queued = makeRequest(now, 256, 100);
    queued.arrival += busy + pf + 0.01 - queued.deadlineForNextToken();
    inst.enqueuePrefill(&queued);
    Request &cand = makeRequest(now, 256, 100);
    cand.arrival += busy + 2 * pf + 0.005 - cand.deadlineForNextToken();
    // Both prefills fit and the candidate runs first, but the decode
    // after them does not fit before the queued request's deadline.
    ASSERT_LT(cand.deadlineForNextToken(),
              queued.deadlineForNextToken() + 0.25);
    ASSERT_GT(pf + dec, 0.26);

    ScanValidator reference(quant, ShadowConfig{1.10, 0.25, 500});
    const bool expect = reference.canAdmit(*part, &inst, cand, now, busy, {});
    EXPECT_FALSE(expect);
    ASSERT_EQ(validator->canAdmit(*part, &inst, cand, now, busy), expect);
    // Again with the baseline memoized: the candidate pass alone ends
    // on the delayed decode, not on the bound.
    counters = obs::Counters();
    EXPECT_EQ(validator->canAdmit(*part, &inst, cand, now, busy), expect);
    EXPECT_EQ(counters.v[obs::kShadowMemoHits], 1u);
    EXPECT_EQ(counters.v[obs::kShadowEarlyExits], 0u);
    EXPECT_EQ(counters.v[obs::kShadowRejectDecodeDelayed], 1u);
}

TEST_F(ShadowFixture, MemoHitsIdenticalStateAndMissesOneUlp)
{
    obs::Counters counters;
    validator->attachCounters(&counters);
    Instance &inst = addInstance(xeon6462c());
    Request &decoding = makeRequest(99.0, 1024, 200, 4);
    decoding.state = RequestState::Decode;
    inst.joinDecode(&decoding);
    Request &a = makeRequest(100.0, 512, 50);
    Request &b = makeRequest(100.0, 256, 50);
    const Seconds now = 100.0;

    bool first = validator->canAdmit(*part, &inst, a, now, now);
    EXPECT_EQ(counters.v[obs::kShadowMemoHits], 0u);
    // Same partition, different candidate: the baseline is unchanged.
    EXPECT_EQ(validator->canAdmit(*part, &inst, a, now, now), first);
    validator->canAdmit(*part, &inst, b, now, now);
    EXPECT_EQ(counters.v[obs::kShadowMemoHits], 2u);

    // Nudge the decoding request's deadline by exactly one ulp.
    const Seconds d0 = decoding.deadlineForNextToken();
    while (decoding.deadlineForNextToken() == d0)
        decoding.arrival = std::nextafter(
            decoding.arrival, std::numeric_limits<double>::infinity());
    ASSERT_EQ(decoding.deadlineForNextToken(),
              std::nextafter(d0, std::numeric_limits<double>::infinity()));
    validator->canAdmit(*part, &inst, a, now, now);
    EXPECT_EQ(counters.v[obs::kShadowMemoHits], 2u);
    EXPECT_EQ(validator->evaluations(), 4u);
}

TEST_F(ShadowFixture, RejectionReasonsAreCounted)
{
    obs::Counters counters;
    validator->attachCounters(&counters);
    // Case 3: four busy CPU instances saturate the TPOT budget.
    for (int i = 0; i < 4; ++i) {
        Instance &inst = addInstance(xeon6462c());
        for (int j = 0; j < 12; ++j) {
            Request &r = makeRequest(0.0, 1024, 200, 5);
            r.state = RequestState::Decode;
            inst.joinDecode(&r);
        }
    }
    Request &incoming = makeRequest(10.0, 512, 50);
    EXPECT_FALSE(validator->canAdmit(*part, part->instances[0], incoming,
                                     10.0, 10.0));
    EXPECT_EQ(counters.v[obs::kShadowRejectAggregate], 1u);

    // Case 1: the partition is busy past the candidate's TTFT deadline.
    part->instances.clear();
    Instance &idle = addInstance(xeon6462c());
    Request &r = makeRequest(0.0, 256, 50);
    EXPECT_FALSE(validator->canAdmit(*part, &idle, r, 0.0, 3.0));
    EXPECT_EQ(counters.v[obs::kShadowRejectPrefillLate], 1u);
    EXPECT_EQ(counters.v[obs::kShadowRejectDecodeDelayed], 0u);
}

/**
 * canAdmitNew's cached case-3 bounds against a fresh evaluation
 * (DESIGN.md, "Cached admission bounds"). Random partitions go through
 * joins, leaves, decode iterations, prefill completions, state changes,
 * membership changes and re-profiles, steered to hover around
 * saturation so that cached rejects keep meeting the leaves that lift
 * them. After every step each instance's running context sums must
 * equal a scan of its queues, and two canAdmitNew queries must return
 * the scan reference's verdict and bump shadow_reject_aggregate exactly
 * when its fresh case-3 checks reject.
 */
TEST_F(ShadowFixture, CachedBoundsMatchFreshEvaluationFuzz)
{
    const std::vector<ModelSpec> models = {llama2_7b(), llama32_3b()};
    const std::vector<HardwareSpec> hws = {xeon6462c(), a100_80g()};
    for (const ModelSpec &m : models)
        for (const HardwareSpec &hw : hws)
            quant.profile(hw, m);
    const Tokens lens[] = {64, 256, 512, 1024, 2048, 3000};
    const Seconds now = 100.0;
    std::uint64_t warm = 0, case3 = 0, verdicts[2] = {0, 0};
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        auto pick = [&rng](std::size_t n) {
            return static_cast<std::size_t>(rng() % n);
        };
        auto coin = [&rng](int pct) {
            return static_cast<int>(rng() % 100) < pct;
        };
        Node home(seed, hws[pick(hws.size())], 1);
        Partition *p = home.partitions()[0].get();
        const ShadowConfig cfg{1.10, seed % 2 ? 0.25 : 0.1, 500};
        ShadowValidator v(quant, cfg);
        ScanValidator reference(quant, cfg);
        obs::Counters ctr;
        v.attachCounters(&ctr);

        auto request = [&](Tokens generated) -> Request & {
            Request &r = makeRequest(
                now - 0.25 * static_cast<double>(pick(9)), lens[pick(6)],
                400, generated);
            r.ttftSlo = 0.5 * static_cast<double>(1 + pick(4));
            r.state = generated ? RequestState::Decode
                                : RequestState::Prefill;
            return r;
        };
        auto addResident = [&] {
            std::size_t mi = pick(models.size());
            auto inst = std::make_unique<Instance>(
                nextId++, static_cast<ModelId>(mi), models[mi], p,
                hws[pick(hws.size())], 32ULL << 30);
            inst->setState(coin(80) ? InstanceState::Active
                                    : InstanceState::Loading);
            inst->createdAt = now - 1.0;
            inst->loadDuration = 0.5 * static_cast<double>(1 + pick(6));
            for (std::size_t k = pick(8); k > 0; --k)
                inst->joinDecode(&request(1 + pick(40)));
            p->addInstance(inst.get());
            pool.push_back(std::move(inst));
        };
        auto loaded = [&](bool prefill) -> Instance * {
            std::vector<Instance *> with;
            for (Instance *inst : p->instances)
                if (!(prefill ? inst->prefillQueue() : inst->decodeBatch())
                         .empty())
                    with.push_back(inst);
            return with.empty() ? nullptr : with[pick(with.size())];
        };
        for (std::size_t i = 1 + pick(4); i > 0; --i)
            addResident();

        for (int step = 0; step < 120; ++step) {
            // Saturated partitions mostly shed load, the rest mostly
            // take it on.
            Request &probe = request(0);
            const bool saturated = reference.case3RejectsNew(
                *p, models[0], p->spec, probe);
            const int op = static_cast<int>(pick(100));
            const bool shed = saturated ? op < 45 : op < 15;
            const bool grow = !shed && (saturated ? op < 60 : op < 55);
            Instance *inst = p->instances.empty()
                                 ? nullptr
                                 : p->instances[pick(p->instances.size())];
            if (shed) {
                Instance *from = loaded(coin(30));
                if (!from)
                    from = loaded(false) ? loaded(false) : loaded(true);
                if (from) {
                    const auto &q = !from->prefillQueue().empty() &&
                                            (from->decodeBatch().empty() ||
                                             coin(30))
                                        ? from->prefillQueue()
                                        : from->decodeBatch();
                    from->removeRequest(q[pick(q.size())]);
                }
            } else if (grow && inst) {
                if (coin(30))
                    inst->enqueuePrefill(&request(0));
                else
                    inst->joinDecode(&request(1 + pick(40)));
            } else if (op < 75) {
                // A run of decode iterations, or a prefill completing
                // into its instance's decode batch.
                if (Instance *d = coin(70) ? loaded(false) : nullptr) {
                    for (std::size_t k = 1 + pick(60); k > 0; --k) {
                        std::vector<Request *> batch = d->decodeBatch();
                        for (Request *r : batch)
                            if (d->kv.reserve(Instance::tokenGrowth(*r)))
                                d->noteDecodeToken(r, now);
                    }
                } else if (Instance *f = loaded(true)) {
                    Request *r = f->prefillQueue()[pick(
                        f->prefillQueue().size())];
                    f->notePrefillToken(r, now);
                    f->removeRequest(r);
                    r->state = RequestState::Decode;
                    f->joinDecode(r);
                }
            } else if (op < 85 && inst) {
                const InstanceState states[] = {
                    InstanceState::Loading, InstanceState::Active,
                    InstanceState::Draining, InstanceState::Unloading,
                    InstanceState::Reclaimed};
                inst->setState(states[pick(5)]);
            } else if (op < 95) {
                if (inst && coin(50))
                    p->removeInstance(inst);
                else
                    addResident();
            } else {
                // A re-profile that measures the hardware at half or
                // full bandwidth: same table, new contents.
                HardwareSpec hw = hws[pick(hws.size())];
                if (coin(50))
                    hw.memBandwidth /= 2;
                quant.profile(hw, models[pick(models.size())]);
            }

            for (const Instance *i : p->instances) {
                Tokens decode = 0, prefill = 0;
                for (const Request *r : i->decodeBatch())
                    decode += r->contextLen();
                for (const Request *r : i->prefillQueue())
                    prefill += r->contextLen();
                ASSERT_EQ(i->totalContext(), decode) << "step " << step;
                ASSERT_EQ(i->prefillContext(), prefill) << "step " << step;
            }
            for (int q = 0; q < 2; ++q) {
                const ModelSpec &m = models[pick(models.size())];
                const HardwareSpec &hw = coin(80) ? p->spec
                                                  : hws[pick(hws.size())];
                Request &cand = request(0);
                const Seconds busy = now + 0.1 * static_cast<double>(pick(3));
                const Seconds ready = now + 0.5 * static_cast<double>(pick(4));
                const Partition::AdmitBounds &b = p->admitBounds;
                warm += b.epoch == p->admitEpoch &&
                                b.generation == quant.generation() &&
                                (b.aggregate > 0.0 || b.others > 0.0)
                            ? 1
                            : 0;
                const bool rejects = reference.case3RejectsNew(*p, m, hw,
                                                               cand);
                const std::uint64_t before =
                    ctr.v[obs::kShadowRejectAggregate];
                const bool got =
                    v.canAdmitNew(*p, m, hw, cand, now, busy, ready);
                ASSERT_EQ(got, reference.canAdmitNew(*p, m, hw, cand, now,
                                                     busy, ready))
                    << "step " << step << " query " << q;
                ASSERT_EQ(ctr.v[obs::kShadowRejectAggregate] - before,
                          rejects ? 1u : 0u)
                    << "step " << step << " query " << q;
                case3 += rejects ? 1 : 0;
                ++verdicts[got ? 1 : 0];
            }
        }
    }
    // Both verdicts occur, case 3 rejects often, and many queries meet
    // a bound cached at their epoch.
    EXPECT_GT(verdicts[0], 500u);
    EXPECT_GT(verdicts[1], 500u);
    EXPECT_GT(case3, 500u);
    EXPECT_GT(warm, 500u);
}

/** A decode table that falls along lenGrid at a fixed batch size, or
 *  whose extrapolation slope falls, panics when checked. */
TEST(QuantifierTableDeathTest, NonMonotoneTablePanics)
{
    Quantifier::ProfileTable t;
    t.lenGrid = {16, 32, 64};
    t.batchGrid = {1, 2};
    t.prefill = {0.01, 0.02, 0.04};
    t.decode = {{0.010, 0.011, 0.012}, {0.020, 0.022, 0.024}};
    Quantifier::checkMonotone(t); // monotone: no panic
    Quantifier::ProfileTable row = t;
    row.decode[0][2] = 0.0105;
    EXPECT_DEATH(Quantifier::checkMonotone(row), "decode row falls");
    Quantifier::ProfileTable slope = t;
    slope.decode[1] = {0.020, 0.022, 0.0225};
    EXPECT_DEATH(Quantifier::checkMonotone(slope),
                 "extrapolation slope falls");
}

} // namespace
} // namespace slinfer

#include "core/shadow_validator.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

namespace slinfer
{

namespace
{

constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();

/** Steps between two demand-bound checks of one pass. */
constexpr int kBoundEvery = 16;
/** The demand bound's rounding margins: relative on every cost,
 *  absolute on every slack (DESIGN.md, "Ending a pass early"). */
constexpr double kCostMargin = 1e-9;
constexpr Seconds kSlackMargin = 1e-6;
constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;

std::uint64_t
bitsOf(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

std::uint64_t
wordOf(std::int64_t x)
{
    return static_cast<std::uint64_t>(x);
}

/** Distinct owner tags for Partition::admitBounds (0 = none). */
std::atomic<std::uint64_t> nextValidatorId{0};

} // namespace

ShadowValidator::ShadowValidator(const Quantifier &quant, ShadowConfig cfg)
    : quant_(quant), cfg_(cfg), id_(++nextValidatorId)
{
}

const Quantifier::ProfileTable &
ShadowValidator::tableOf(const Instance &inst) const
{
    if (inst.id >= tables_.size())
        tables_.resize(inst.id + 1, nullptr);
    const Quantifier::ProfileTable *&t = tables_[inst.id];
    if (!t)
        t = &quant_.tableFor(inst.execSpec, inst.model);
    return *t;
}

void
ShadowValidator::SimInst::scanPrefills()
{
    pfMin = kInf;
    pfIdx = 0;
    for (std::size_t i = 0; i < prefills.size(); ++i) {
        if (prefills[i].deadline < pfMin) {
            pfMin = prefills[i].deadline;
            pfIdx = i;
        }
    }
}

ShadowValidator::SimInst &
ShadowValidator::slotAt(std::size_t i) const
{
    if (i >= state_.size())
        state_.resize(i + 1);
    SimInst &s = state_[i];
    s.prefills.clear();
    s.decodeDeadlines.clear();
    s.decodedSinceCandidate = false;
    s.avgLen = 1.0;
    return s;
}

std::size_t
ShadowValidator::buildState(const Partition &part, Seconds now,
                            const std::set<const Instance *> &exclude) const
{
    std::size_t n = 0;
    int next_id = 0;
    for (const Instance *inst : part.instances) {
        if (exclude.count(inst))
            continue;
        if (inst->state() == InstanceState::Reclaimed ||
            inst->state() == InstanceState::Unloading ||
            inst->state() == InstanceState::Draining) {
            continue;
        }
        SimInst &s = slotAt(n++);
        s.table = &tableOf(*inst);
        s.availAt = inst->state() == InstanceState::Loading
                        ? inst->createdAt + inst->loadDuration
                        : now;
        for (const Request *r : inst->prefillQueue()) {
            s.prefills.push_back({r->deadlineForNextToken(),
                                  r->contextLen(), false, next_id++});
        }
        for (const Request *r : inst->decodeBatch()) {
            s.decodeDeadlines.push_back(
                {r->deadlineForNextToken(), next_id++});
        }
        s.avgLen = static_cast<double>(inst->avgContextLen());
    }
    return n;
}

bool
ShadowValidator::demandBoundHolds(const std::vector<SimInst> &v,
                                  std::size_t count, Seconds t,
                                  int stepsLeft) const
{
    const double inflate = cfg_.overestimate * (1.0 + kCostMargin);
    jumps_.clear();
    Seconds decode_sum = 0.0;
    Seconds prefill_sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        const SimInst &si = v[i];
        if (!si.hasWork())
            continue;
        if (si.availAt > t)
            return false;
        // Prefills: one-shot jobs, each due at its own deadline.
        double len = si.avgLen;
        for (const SimReq &p : si.prefills) {
            Seconds cost =
                Quantifier::prefillEstimate(*si.table, p.ctx) * inflate;
            prefill_sum += cost;
            jumps_.push_back({p.deadline - t, cost, false});
            len = std::max(len, static_cast<double>(p.ctx));
        }
        // Decode stream: one step per tpotSlo at most, from the earlier
        // of the batch's deadline and the first one a prefill can add,
        // each step costed at the largest batch and length it can see.
        int batch =
            static_cast<int>(si.decodeDeadlines.size() + si.prefills.size());
        Seconds cost = Quantifier::decodeEstimate(
                           *si.table, batch,
                           static_cast<Tokens>(std::ceil(len)) + stepsLeft) *
                       inflate;
        decode_sum += cost;
        jumps_.push_back(
            {std::min(si.decMin, si.pfMin + cfg_.tpotSlo) - t, cost, true});
    }
    if (decode_sum > cfg_.tpotSlo)
        return false;
    // The clock and every deadline a step can reach stay below `reach`;
    // past it, the rounding of the adds could outgrow the slack margin.
    const Seconds reach = t + prefill_sum + (stepsLeft + 1) * cfg_.tpotSlo;
    const double roundings =
        4.0 * stepsLeft + 8.0 * static_cast<double>(jumps_.size()) + 16.0;
    if (roundings * kUnitRoundoff * reach > kSlackMargin)
        return false;

    // Demand due by y: f(y) = (prefill costs due by y) + sum over
    // started streams of C_k ((y - m_k) / tpotSlo + 1), kept as
    // `fixed + slope * y`. Between jump points f grows no faster than
    // y (slope <= 1), so checking f(y) <= y at each jump point is
    // enough.
    std::sort(jumps_.begin(), jumps_.end(),
              [](const Jump &a, const Jump &b) { return a.y < b.y; });
    Seconds fixed = 0.0;
    double slope = 0.0;
    for (const Jump &j : jumps_) {
        if (j.stream) {
            fixed += j.cost * (1.0 - j.y / cfg_.tpotSlo);
            slope += j.cost / cfg_.tpotSlo;
        } else {
            fixed += j.cost;
        }
        if (fixed + slope * j.y + kSlackMargin > j.y)
            return false;
    }
    return true;
}

bool
ShadowValidator::simulate(std::vector<SimInst> &v, std::size_t count,
                          Seconds start, bool collectDoomed) const
{
    Seconds t = start;
    bool candidate_prefilled = true;
    // Work never leaves an instance (a prefill becomes a decode, and
    // decodes stay), so whether there is any is fixed up front, and
    // the count of unsettled instances changes only for the one that
    // steps.
    bool any_work = false;
    int pending = 0;
    for (std::size_t i = 0; i < count; ++i) {
        SimInst &si = v[i];
        si.scanPrefills();
        for (const SimReq &p : si.prefills)
            if (p.isCandidate)
                candidate_prefilled = false;
        si.decMin = kInf;
        for (const SimDecode &dd : si.decodeDeadlines)
            si.decMin = std::min(si.decMin, dd.deadline);
        si.decodeSteps = 0;
        any_work = any_work || si.hasWork();
        pending += si.unsettled() ? 1 : 0;
    }
    if (!any_work)
        return true;

    auto is_exempt = [this](int id) {
        return std::binary_search(doomed_.begin(), doomed_.end(), id);
    };
    auto violate = [&](int id) {
        // Returns true when the violation should reject the admission.
        if (collectDoomed) {
            doomed_.push_back(id);
            return false;
        }
        return !is_exempt(id);
    };
    auto finish = [this](bool verdict, int steps, bool horizon) {
        if (ctr_) {
            ctr_->v[obs::kShadowSteps] += static_cast<std::uint64_t>(steps);
            ctr_->v[obs::kShadowHorizonHits] += horizon ? 1 : 0;
        }
        return verdict;
    };

    int step = 0;
    int next_bound = 0;
    for (; step < cfg_.maxSteps; ++step) {
        // Settled: the candidate prefilled, every prefill drained and
        // every busy instance decoded at least once.
        if (candidate_prefilled && pending == 0)
            return finish(true, step, false);
        // No later step can violate: the horizon's verdict, now.
        if (step == next_bound) {
            next_bound = step + kBoundEvery;
            if (demandBoundHolds(v, count, t, cfg_.maxSteps - step)) {
                obs::bump(ctr_, obs::kShadowEarlyExits);
                return finish(true, step, false);
            }
        }
        // The runnable instance with the most urgent request. An
        // instance without work has both minima at infinity and never
        // wins the strict `<`.
        SimInst *chosen = nullptr;
        Seconds best = kInf;
        for (std::size_t i = 0; i < count; ++i) {
            SimInst &si = v[i];
            if (si.availAt > t)
                continue;
            Seconds d = std::min(si.pfMin, si.decMin);
            if (d < best) {
                best = d;
                chosen = &si;
            }
        }
        if (!chosen) {
            // Wait for a load to finish.
            Seconds min_avail = kInf;
            for (std::size_t i = 0; i < count; ++i)
                if (v[i].hasWork())
                    min_avail = std::min(min_avail, v[i].availAt);
            t = std::max(t, min_avail);
            next_bound = step + 1;
            continue;
        }

        const bool was_unsettled = chosen->unsettled();
        if (chosen->pfMin <= chosen->decMin) {
            SimReq req = chosen->prefills[chosen->pfIdx];
            Seconds dur =
                Quantifier::prefillEstimate(*chosen->table, req.ctx) *
                cfg_.overestimate;
            t += dur;
            if (t > req.deadline && violate(req.id)) {
                obs::bump(ctr_, obs::kShadowRejectPrefillLate);
                // cases 1 / 2: prefill lands too late
                return finish(false, step + 1, false);
            }
            chosen->prefills.erase(chosen->prefills.begin() +
                                   static_cast<std::ptrdiff_t>(
                                       chosen->pfIdx));
            chosen->scanPrefills();
            if (req.isCandidate)
                candidate_prefilled = true;
            // Joins the decode batch with the cumulative deadline,
            // current as of this instance's decode steps so far.
            double n = static_cast<double>(chosen->decodeDeadlines.size());
            chosen->avgLen = (chosen->avgLen * n +
                              static_cast<double>(req.ctx)) /
                             (n + 1.0);
            Seconds deadline = std::max(req.deadline, t) + cfg_.tpotSlo;
            chosen->decodeDeadlines.push_back(
                {deadline, req.id, chosen->decodeSteps});
            chosen->decMin = std::min(chosen->decMin, deadline);
        } else {
            int batch = static_cast<int>(chosen->decodeDeadlines.size());
            Seconds dur = Quantifier::decodeEstimate(
                              *chosen->table, batch,
                              static_cast<Tokens>(chosen->avgLen)) *
                          cfg_.overestimate;
            t += dur;
            // Every deadline moves by the same tpotSlo. Rounding is
            // monotone, so fl(min + tpotSlo) is the minimum of the
            // rounded sums, and when t <= decMin no deadline is
            // violated: the step only advances decMin, and the entries
            // fall one epoch behind. Otherwise each entry first replays
            // the adds it missed, then the step checks and advances it.
            const int epoch = chosen->decodeSteps++;
            if (t <= chosen->decMin) {
                chosen->decMin += cfg_.tpotSlo;
            } else {
                Seconds dec_min = kInf;
                for (SimDecode &dd : chosen->decodeDeadlines) {
                    for (; dd.epoch < epoch; ++dd.epoch)
                        dd.deadline += cfg_.tpotSlo;
                    if (t > dd.deadline && violate(dd.id)) {
                        obs::bump(ctr_, obs::kShadowRejectDecodeDelayed);
                        // case 2: existing request delayed
                        return finish(false, step + 1, false);
                    }
                    dd.deadline += cfg_.tpotSlo;
                    ++dd.epoch;
                    dec_min = std::min(dec_min, dd.deadline);
                }
                chosen->decMin = dec_min;
            }
            chosen->avgLen += 1.0;
            chosen->decodedSinceCandidate = true;
        }
        pending += (chosen->unsettled() ? 1 : 0) - (was_unsettled ? 1 : 0);
    }
    // Horizon exhausted with no (rejecting) violation observed.
    return finish(true, step, true);
}

void
ShadowValidator::baselineKey(std::size_t count, Seconds start) const
{
    key_.clear();
    key_.push_back(bitsOf(start));
    key_.push_back(quant_.generation());
    for (std::size_t i = 0; i < count; ++i) {
        const SimInst &si = state_[i];
        std::size_t prefills = 0;
        for (const SimReq &p : si.prefills)
            prefills += p.isCandidate ? 0 : 1;
        if (prefills == 0 && si.decodeDeadlines.empty())
            continue;
        key_.push_back(reinterpret_cast<std::uintptr_t>(si.table));
        key_.push_back(bitsOf(si.availAt));
        key_.push_back(bitsOf(si.avgLen));
        key_.push_back(prefills);
        key_.push_back(si.decodeDeadlines.size());
        for (const SimReq &p : si.prefills) {
            if (p.isCandidate)
                continue;
            key_.push_back(bitsOf(p.deadline));
            key_.push_back(wordOf(p.ctx));
            key_.push_back(wordOf(p.id));
        }
        for (const SimDecode &dd : si.decodeDeadlines) {
            key_.push_back(bitsOf(dd.deadline));
            key_.push_back(wordOf(dd.id));
        }
    }
}

bool
ShadowValidator::twoPass(std::size_t count, Seconds start,
                         Seconds now) const
{
    ++evals_;
    // Baseline pass without the candidate: whatever violates anyway is
    // doomed and must not veto the admission.
    baselineKey(count, start);
    const MemoEntry *hit = nullptr;
    for (const MemoEntry &e : memo_) {
        if (e.key.size() == key_.size() &&
            std::memcmp(e.key.data(), key_.data(),
                        key_.size() * sizeof(std::uint64_t)) == 0) {
            hit = &e;
            break;
        }
    }
    if (hit) {
        obs::bump(ctr_, obs::kShadowMemoHits);
        doomed_ = hit->doomed;
    } else {
        // The baseline scratch copy-assigns element-wise so inner
        // buffers are recycled.
        if (baseline_.size() < count)
            baseline_.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
            SimInst &si = baseline_[i];
            si = state_[i];
            si.prefills.erase(
                std::remove_if(si.prefills.begin(), si.prefills.end(),
                               [](const SimReq &p) {
                                   return p.isCandidate;
                               }),
                si.prefills.end());
        }
        doomed_.clear();
        simulate(baseline_, count, start, /*collectDoomed=*/true);
        MemoEntry &slot = memo_[memoNext_];
        memoNext_ = (memoNext_ + 1) % kMemoSlots;
        slot.key.swap(key_);
        slot.doomed = doomed_;
    }
    // A candidate whose own deadline has already passed (an evicted /
    // migrated request being re-placed) cannot be protected either; it
    // must still find a home, so its own lateness does not reject.
    for (std::size_t i = 0; i < count; ++i) {
        for (const SimReq &p : state_[i].prefills) {
            if (p.isCandidate && p.deadline < now)
                doomed_.push_back(p.id);
        }
    }
    std::sort(doomed_.begin(), doomed_.end());
    return simulate(state_, count, start, /*collectDoomed=*/false);
}

bool
ShadowValidator::aggregateDecodeFits(
    const Partition &part, const Instance *target, int extraOnTarget,
    Tokens extraLen, const std::set<const Instance *> &exclude) const
{
    return aggregateDecode(part, target, extraOnTarget, extraLen,
                           exclude) <= cfg_.tpotSlo;
}

Seconds
ShadowValidator::aggregateDecode(
    const Partition &part, const Instance *target, int extraOnTarget,
    Tokens extraLen, const std::set<const Instance *> &exclude) const
{
    Seconds total = 0.0;
    for (const Instance *inst : part.instances) {
        if (exclude.count(inst))
            continue;
        if (inst->state() == InstanceState::Reclaimed ||
            inst->state() == InstanceState::Unloading ||
            inst->state() == InstanceState::Draining) {
            continue;
        }
        // Steady state: every admitted request is in the decode batch.
        int batch = inst->loadSize() + (inst == target ? extraOnTarget : 0);
        if (batch == 0)
            continue;
        Tokens total_ctx = inst->totalContext() + inst->prefillContext();
        if (inst == target)
            total_ctx += extraLen * extraOnTarget;
        Tokens avg = std::max<Tokens>(1, total_ctx / batch);
        total += Quantifier::decodeEstimate(tableOf(*inst), batch, avg) *
                 cfg_.overestimate;
        if (total > cfg_.tpotSlo)
            return total;
    }
    return total;
}

bool
ShadowValidator::canAdmit(const Partition &part, const Instance *target,
                          const Request &req, Seconds now,
                          Seconds partBusyUntil,
                          const std::set<const Instance *> &exclude) const
{
    if (!aggregateDecodeFits(part, target, 1, req.contextLen(), exclude)) {
        obs::bump(ctr_, obs::kShadowRejectAggregate);
        return false;
    }

    std::size_t count = buildState(part, now, exclude);
    std::size_t live = 0;
    for (const Instance *inst : part.instances) {
        if (exclude.count(inst))
            continue;
        if (inst->state() == InstanceState::Reclaimed ||
            inst->state() == InstanceState::Unloading ||
            inst->state() == InstanceState::Draining) {
            continue;
        }
        if (inst == target) {
            state_[live].prefills.push_back({req.deadlineForNextToken(),
                                             req.contextLen(), true, -1});
        }
        ++live;
    }
    return twoPass(count, std::max(now, partBusyUntil), now);
}

bool
ShadowValidator::canAdmitNew(const Partition &part, const ModelSpec &model,
                             const HardwareSpec &execSpec,
                             const Request &req, Seconds now,
                             Seconds partBusyUntil, Seconds readyAt) const
{
    const Quantifier::ProfileTable &table = quant_.tableFor(execSpec, model);
    Seconds own = Quantifier::decodeEstimate(table, 1, req.contextLen()) *
                  cfg_.overestimate;
    // Case 3, twice: the partition's aggregate as it stands, then every
    // resident's decode stream plus the new instance's own. Neither sum
    // reads the request, and both only grow until the next admitEpoch
    // bump, so a bound cached at this epoch that clears the SLO by the
    // rounding margin is the fresh check's verdict (DESIGN.md, "Cached
    // admission bounds"). Both checks bump one counter, so answering
    // either one first leaves the counters as they were.
    Partition::AdmitBounds &bound = part.admitBounds;
    if (bound.owner != id_ || bound.epoch != part.admitEpoch ||
        bound.generation != quant_.generation()) {
        bound = {id_, part.admitEpoch, quant_.generation(), 0.0, 0.0};
    }
    const Seconds bar = cfg_.tpotSlo * (1.0 + kCostMargin);
    if (bound.aggregate > bar || own + bound.others > bar) {
        obs::bump(ctr_, obs::kShadowRejectAggregate);
        return false;
    }
    Seconds aggregate = aggregateDecode(part, nullptr, 0, 0, {});
    if (aggregate > cfg_.tpotSlo) {
        bound.aggregate = aggregate;
        obs::bump(ctr_, obs::kShadowRejectAggregate);
        return false;
    }
    Seconds others = 0.0;
    for (const Instance *inst : part.instances) {
        if (inst->state() == InstanceState::Reclaimed ||
            inst->state() == InstanceState::Unloading)
            continue;
        int batch = inst->loadSize();
        if (batch == 0)
            continue;
        others += Quantifier::decodeEstimate(tableOf(*inst), batch,
                                             inst->avgContextLen()) *
                  cfg_.overestimate;
    }
    bound.others = others;
    if (own + others > cfg_.tpotSlo) {
        obs::bump(ctr_, obs::kShadowRejectAggregate);
        return false;
    }

    std::size_t count = buildState(part, now, {});
    SimInst &cand = slotAt(count);
    cand.table = &table;
    cand.availAt = readyAt;
    // Cold-started requests receive a grace window equal to the load
    // time, mirroring the runtime accounting.
    Seconds grace = std::max<Seconds>(0.0, readyAt - now);
    cand.prefills.push_back({req.deadlineForNextToken() + grace,
                             req.contextLen(), true, -1});
    cand.avgLen = static_cast<double>(req.contextLen());
    return twoPass(count + 1, std::max(now, partBusyUntil), now);
}

} // namespace slinfer

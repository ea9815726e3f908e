#include "core/token_scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hh"
#include "hw/perf_model.hh"

namespace slinfer
{

TokenScheduler::TokenScheduler(Simulator &sim, Partition &partition,
                               SchedPolicy policy, double noiseSigma,
                               Rng rng, Callbacks cbs, ClusterStats *stats,
                               ClusterIndex *index,
                               obs::TraceRecorder *trace,
                               obs::AnatomyLedger *anatomy)
    : sim_(sim), part_(partition), policy_(policy), sigma_(noiseSigma),
      rng_(rng), cbs_(std::move(cbs)), stats_(stats), index_(index),
      trace_(trace), anat_(anatomy)
{
}

double
TokenScheduler::noise()
{
    if (sigma_ <= 0)
        return 1.0;
    return std::exp(sigma_ * rng_.normal());
}

namespace
{

/** Tokens of extra KV a decode step needs for this batch. */
Tokens
decodeGrowth(const Instance &inst)
{
    Tokens growth = 0;
    for (const Request *r : inst.decodeBatch()) {
        Tokens need = PagedKvCache::roundedTokens(r->contextLen() + 1);
        if (need > r->kvReserved)
            growth += need - r->kvReserved;
    }
    return growth;
}

} // namespace

TokenScheduler::Pick
TokenScheduler::pickNext(const Partition &partition, SchedPolicy policy,
                         Seconds now, std::vector<Instance *> &shortages)
{
    Pick best;
    double best_key = std::numeric_limits<double>::infinity();
    // FifoPrefillFirst biases all prefills ahead of all decodes by
    // subtracting a large constant from their sort key.
    const double kPrefillBias = 1e12;

    for (Instance *inst : partition.instances) {
        if (!inst->runnable())
            continue;

        Pick cand;
        double key = std::numeric_limits<double>::infinity();

        if (policy == SchedPolicy::Headroom) {
            bool is_prefill = false;
            Request *urgent = inst->mostUrgent(now, is_prefill);
            if (!urgent)
                continue;
            if (is_prefill) {
                Tokens need =
                    PagedKvCache::roundedTokens(urgent->contextLen());
                if (inst->kv.canFit(need)) {
                    cand = {inst, urgent};
                    key = urgent->headroom(now);
                } else {
                    shortages.push_back(inst);
                    // Fall back to decoding the existing batch.
                    if (!inst->decodeBatch().empty() &&
                        inst->kv.canFit(decodeGrowth(*inst))) {
                        cand = {inst, nullptr};
                        key = inst->minHeadroom(now);
                    }
                }
            } else {
                if (inst->kv.canFit(decodeGrowth(*inst))) {
                    cand = {inst, nullptr};
                    key = urgent->headroom(now);
                } else {
                    shortages.push_back(inst);
                }
            }
        } else { // FifoPrefillFirst
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
                if (inst->kv.canFit(decodeGrowth(*inst))) {
                    cand = {inst, nullptr};
                    key = inst->minHeadroom(now);
                } else {
                    shortages.push_back(inst);
                    cand = {};
                }
            } else if (first_prefill) {
                shortages.push_back(inst);
            }
        }

        if (cand.inst && key < best_key) {
            best = cand;
            best_key = key;
        }
    }
    return best;
}

void
TokenScheduler::kick()
{
    if (part_.busy)
        return;
    std::vector<Instance *> shortages;
    Pick pick = pickNext(part_, policy_, sim_.now(), shortages);
    if (pick.inst) {
        if (pick.prefill)
            runPrefill(pick.inst, pick.prefill);
        else
            runDecode(pick.inst);
    }
    // Report KV-starved instances after the scheduling decision so the
    // controller can grow or evict; callbacks may re-enter kick().
    for (Instance *inst : shortages) {
        if (cbs_.onKvShortage)
            cbs_.onKvShortage(inst);
    }
}

void
TokenScheduler::runPrefill(Instance *inst, Request *req)
{
    Tokens need = PagedKvCache::roundedTokens(req->contextLen());
    if (!inst->kv.reserve(need))
        panic("TokenScheduler: prefill reserve failed after check");
    req->kvReserved = need;

    // perfFactor is the straggler-degradation multiplier (1.0 when
    // healthy — bit-exact), set by degradeNode.
    Seconds dur = PerfModel::prefillTime(inst->execSpec, inst->model,
                                         req->contextLen()) *
                  noise() * part_.perfFactor;
    if (trace_)
        trace_->complete(obs::kCatExec, "prefill", sim_.now(), dur,
                         obs::kPidCluster, static_cast<int>(part_.viewPos),
                         "request", static_cast<double>(req->id));
    if (anat_)
        anat_->onPrefillStart(*req, sim_.now());
    part_.busy = true;
    busyUntil_ = sim_.now() + dur;
    inst->busyTime += dur;
    if (index_)
        index_->addBusySeconds(inst->execSpec.kind, dur);
    curInst_ = inst;
    curPrefill_ = req;
    sim_.schedule(dur, [this] { finishIteration(); });
}

void
TokenScheduler::runDecode(Instance *inst)
{
    int batch = inst->batchSize();
    if (batch == 0)
        panic("TokenScheduler: decode with empty batch");
    Seconds dur = PerfModel::decodeTime(inst->execSpec, inst->model, batch,
                                        inst->avgContextLen()) *
                  noise() * part_.perfFactor;
    if (trace_)
        trace_->complete(obs::kCatExec, "decode", sim_.now(), dur,
                         obs::kPidCluster, static_cast<int>(part_.viewPos),
                         "batch", static_cast<double>(batch));
    if (anat_) {
        for (Request *r : inst->decodeBatch())
            anat_->onDecodeIterStart(*r, sim_.now());
    }
    part_.busy = true;
    busyUntil_ = sim_.now() + dur;
    inst->busyTime += dur;
    if (index_)
        index_->addBusySeconds(inst->execSpec.kind, dur);
    curInst_ = inst;
    curPrefill_ = nullptr;
    curBatch_ = inst->decodeBatch();
    sim_.schedule(dur, [this] { finishIteration(); });
}

void
TokenScheduler::finishIteration()
{
    Instance *inst = curInst_;
    Request *prefill = curPrefill_;
    // Swap, don't move-to-local: the swap hands curBatch_ the scratch's
    // old capacity, so steady-state decode iterations allocate nothing.
    doneBatch_.swap(curBatch_);
    std::vector<Request *> &batch = doneBatch_;
    curInst_ = nullptr;
    curPrefill_ = nullptr;
    curBatch_.clear();
    part_.busy = false;
    busyUntil_ = sim_.now();

    finished_.clear();
    std::vector<Request *> &done = finished_;
    std::vector<Instance *> shortages;

    if (prefill) {
        // The request may have been dropped/evicted mid-prefill; only
        // apply effects if it is still ours.
        bool still_ours = std::find(inst->prefillQueue().begin(),
                                    inst->prefillQueue().end(),
                                    prefill) != inst->prefillQueue().end();
        if (still_ours) {
            inst->notePrefillToken(prefill, sim_.now());
            if (cbs_.onFirstToken)
                cbs_.onFirstToken(prefill, inst);
            inst->removeRequest(prefill);
            if (prefill->finishedGenerating()) {
                inst->kv.release(prefill->kvReserved);
                prefill->kvReserved = 0;
                prefill->state = RequestState::Completed;
                done.push_back(prefill);
            } else if (cbs_.routeAfterPrefill &&
                       cbs_.routeAfterPrefill(prefill, inst)) {
                // Controller took the request (PD disaggregation).
            } else {
                prefill->state = RequestState::Decode;
                if (anat_)
                    anat_->onPrefillEnd(*prefill, sim_.now());
                inst->joinDecode(prefill);
            }
        }
    } else {
        Tokens emitted = 0;
        for (Request *r : batch) {
            // Skip requests evicted while the iteration was in flight.
            if (r->instance != inst->id ||
                r->state != RequestState::Decode) {
                continue;
            }
            Tokens need = PagedKvCache::roundedTokens(r->contextLen() + 1);
            if (need > r->kvReserved) {
                Tokens growth = need - r->kvReserved;
                if (!inst->kv.reserve(growth)) {
                    // Underestimation: this request cannot grow; it
                    // stalls until the controller grows or evicts.
                    if (anat_)
                        anat_->onDecodeIterEnd(*r, /*stalled=*/true,
                                               sim_.now());
                    shortages.push_back(inst);
                    continue;
                }
                r->kvReserved = need;
            }
            inst->noteDecodeToken(r, sim_.now());
            ++inst->decodedTokens;
            ++emitted;
            if (r->finishedGenerating()) {
                inst->removeRequest(r);
                inst->kv.release(r->kvReserved);
                r->kvReserved = 0;
                r->state = RequestState::Completed;
                done.push_back(r);
            } else if (anat_) {
                anat_->onDecodeIterEnd(*r, inst->resizeInFlight,
                                       sim_.now());
            }
        }
        if (stats_)
            stats_->onDecodeIteration(inst->execSpec.kind,
                                      static_cast<int>(batch.size()),
                                      emitted);
    }

    for (Request *r : done) {
        if (cbs_.onRequestDone)
            cbs_.onRequestDone(r, inst);
    }
    for (Instance *s : shortages) {
        if (cbs_.onKvShortage)
            cbs_.onKvShortage(s);
    }
    kick();
}

} // namespace slinfer

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

TokenScheduler::Pick
TokenScheduler::pickNext(const Partition &partition, SchedPolicy policy,
                         Seconds now, std::vector<Instance *> &shortages)
{
    Pick best;
    // FifoPrefillFirst biases all prefills ahead of all decodes by
    // subtracting a large constant from their sort key.
    const double kPrefillBias = 1e12;

    for (Instance *inst : partition.instances) {
        if (!inst->runnable())
            continue;

        Pick cand;
        double key = std::numeric_limits<double>::infinity();

        if (policy == SchedPolicy::Headroom) {
            const Instance::Urgency u = inst->urgency(now);
            // Prefill wins ties: the scan visited the prefill queue
            // first and replaced its pick only on a strictly smaller
            // headroom.
            if (u.prefill && u.prefillHeadroom <= u.decodeHeadroom) {
                Tokens need =
                    PagedKvCache::roundedTokens(u.prefill->contextLen());
                if (inst->kv.canFit(need)) {
                    cand = {inst, u.prefill};
                    key = u.prefillHeadroom;
                } else {
                    shortages.push_back(inst);
                    // Fall back to decoding the existing batch.
                    if (!inst->decodeBatch().empty() &&
                        inst->kv.canFit(inst->decodeGrowth())) {
                        cand = {inst, nullptr};
                        key = u.prefillHeadroom;
                    }
                }
            } else if (inst->kv.canFit(inst->decodeGrowth())) {
                cand = {inst, nullptr};
                key = u.decodeHeadroom;
            } else {
                shortages.push_back(inst);
            }
        } else { // FifoPrefillFirst
            Request *first_prefill = inst->earliestPrefill();
            if (first_prefill &&
                inst->kv.canFit(PagedKvCache::roundedTokens(
                    first_prefill->contextLen()))) {
                cand = {inst, first_prefill};
                key = first_prefill->arrival - kPrefillBias;
            } else if (!inst->decodeBatch().empty()) {
                if (first_prefill)
                    shortages.push_back(inst);
                if (inst->kv.canFit(inst->decodeGrowth())) {
                    const Instance::Urgency u = inst->urgency(now);
                    cand = {inst, nullptr};
                    key = std::min(u.prefillHeadroom, u.decodeHeadroom);
                } else {
                    shortages.push_back(inst);
                    cand = {};
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
        // The step raises every emitting member's deadline; fold the
        // batch's new minimum here instead of rescanning at the next
        // pick (Instance::endDecodeStep).
        Seconds min_deadline = std::numeric_limits<Seconds>::infinity();
        int folded = 0;
        for (Request *r : batch) {
            // Skip requests evicted while the iteration was in flight.
            if (r->instance != inst->id ||
                r->state != RequestState::Decode) {
                continue;
            }
            Tokens growth = Instance::tokenGrowth(*r);
            if (growth > 0 && !inst->kv.reserve(growth)) {
                // Underestimation: this request cannot grow; it
                // stalls until the controller grows or evicts.
                if (anat_)
                    anat_->onDecodeIterEnd(*r, /*stalled=*/true,
                                           sim_.now());
                shortages.push_back(inst);
            } else {
                inst->noteDecodeToken(r, sim_.now());
                ++inst->decodedTokens;
                ++emitted;
                if (r->finishedGenerating()) {
                    inst->removeRequest(r);
                    inst->kv.release(r->kvReserved);
                    r->kvReserved = 0;
                    r->state = RequestState::Completed;
                    done.push_back(r);
                    continue;
                }
                if (anat_)
                    anat_->onDecodeIterEnd(*r, inst->resizeInFlight,
                                           sim_.now());
            }
            min_deadline = std::min(min_deadline, r->deadlineForNextToken());
            ++folded;
        }
        inst->endDecodeStep(min_deadline, folded);
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

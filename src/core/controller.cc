#include "core/controller.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"
#include "core/consolidator.hh"
#include "core/headroom.hh"
#include "engine/loader.hh"
#include "hw/memcost_model.hh"

namespace slinfer
{

ControllerBase::ControllerBase(Simulator &sim,
                               std::vector<std::unique_ptr<Node>> &nodes,
                               std::vector<ModelSpec> modelSpecs,
                               std::vector<double> initialAvgOutput,
                               ControllerConfig cfg, Recorder &recorder,
                               ClusterStats *stats)
    : sim_(sim), nodes_(nodes), cfg_(cfg), recorder_(recorder),
      stats_(stats), rng_(cfg.seed), index_(nodes)
{
    models_.reserve(modelSpecs.size());
    for (std::size_t i = 0; i < modelSpecs.size(); ++i) {
        ModelEntry e;
        e.spec = modelSpecs[i];
        e.avgOutput = i < initialAvgOutput.size() ? initialAvgOutput[i]
                                                  : 256.0;
        models_.push_back(std::move(e));
    }
    pendingDecode_.resize(models_.size());
    decodeDirty_.assign(models_.size(), 0);
    scheds_.resize(index_.partitions(true).size());
}

void
ControllerBase::attachObs(obs::FlightRecorder *fr)
{
    if (!fr)
        return;
    ctr_ = fr->counters();
    trace_ = fr->trace();
    prof_ = fr->profiler();
    anat_ = fr->anatomy();
    onObsAttached();
    if (!trace_)
        return;
    trace_->setProcessName(obs::kPidController, "controller");
    trace_->setProcessName(obs::kPidCluster, "cluster");
    for (std::size_t m = 0; m < models_.size(); ++m)
        trace_->setProcessName(tracePid(static_cast<ModelId>(m)),
                               "model " + std::to_string(m));
    for (Partition *p : index_.partitions(true)) {
        trace_->setThreadName(obs::kPidCluster,
                              static_cast<int>(p->viewPos),
                              "n" + std::to_string(p->node) + "/p" +
                                  std::to_string(p->index));
    }
}

void
ControllerBase::traceRequestEnd(const Request *req)
{
    if (!trace_)
        return;
    trace_->asyncInstant(obs::kCatRequest, requestStateName(req->state),
                         sim_.now(), tracePid(req->model), req->id);
    trace_->asyncEnd(obs::kCatRequest, "request", sim_.now(),
                     tracePid(req->model), req->id);
}

void
ControllerBase::submit(Request *req)
{
    obs::ScopedPhase phase(prof_, obs::kPhaseControllerDecide);
    recorder_.onArrival(*req);
    if (anat_)
        anat_->onArrival(*req, sim_.now());
    if (trace_)
        trace_->asyncBegin(obs::kCatRequest, "request", sim_.now(),
                           tracePid(req->model), req->id);
    if (models_[req->model].retired) {
        dropRequest(req);
        return;
    }
    // Graceful degradation: while capacity is down, batch-class work
    // (lax TTFT SLO) yields to latency-critical traffic — queued
    // without an immediate dispatch attempt past one depth threshold,
    // shed outright past twice that depth. pending_ may contain
    // already-settled ghosts, so the depth is a heuristic upper bound;
    // that is fine for a load-shedding trigger.
    const ResilienceConfig &res = cfg_.resilience;
    if (res.shedBatchFirst && failedNodes_ > 0 &&
        req->ttftSlo >= res.batchSloCutoff) {
        if (pending_.size() >= 2 * res.shedQueueDepth) {
            dropRequest(req);
            return;
        }
        if (pending_.size() >= res.shedQueueDepth) {
            queueRequest(req);
            return;
        }
    }
    if (!tryDispatch(req))
        queueRequest(req);
}

bool
ControllerBase::tryDispatchDecode(Request *req)
{
    (void)req;
    return false;
}

void
ControllerBase::onRequestDoneHook(Request *req, Instance *inst)
{
    (void)req;
    (void)inst;
}

void
ControllerBase::onModelDeployed(ModelId m)
{
    (void)m;
}

bool
ControllerBase::tryAbortParkedLoad(Instance *inst)
{
    (void)inst;
    return false;
}

// --------------------------------------------------------------------
// Interventions (Session::inject / timelines)
// --------------------------------------------------------------------

/** Re-sweep cadence for instances whose memory ops must settle before
 *  an intervention can unload them. */
static constexpr Seconds kDrainSweepInterval = 0.05;

void
ControllerBase::dropRequest(Request *req)
{
    auto it = dropEvents_.find(req->id);
    if (it != dropEvents_.end()) {
        it->second.cancel();
        dropEvents_.erase(it);
    }
    req->state = RequestState::Dropped;
    recorder_.onDrop(*req, sim_.now());
    if (anat_)
        anat_->onDrop(*req, sim_.now());
    traceRequestEnd(req);
    // Queued drops stay referenced by pending_ as ghosts until a retry
    // round purges them; maybeReclaim fires only for unreferenced ones.
    maybeReclaim(req);
}

void
ControllerBase::evictAllRequests(Instance *inst, bool drop)
{
    std::vector<Request *> owned = inst->prefillQueue;
    owned.insert(owned.end(), inst->decodeBatch.begin(),
                 inst->decodeBatch.end());
    if (owned.empty())
        return;
    for (Request *req : owned) {
        if (drop) {
            inst->removeRequest(req);
            inst->kv.release(req->kvReserved);
            req->kvReserved = 0;
            req->instance = 0;
            dropRequest(req);
        } else {
            // Recompute-style migration, exactly the shortage
            // eviction path: the next host re-prefills.
            requeueEvicted(req, inst);
        }
    }
    markAllDecodeDirty();
}

bool
ControllerBase::settleInstance(Instance *inst, bool drop,
                               unsigned reasonBit)
{
    evictAllRequests(inst, drop);
    if (inst->state == InstanceState::Loading && !inst->memResident &&
        tryAbortParkedLoad(inst)) {
        return true; // the parked load never held memory; retired flat-out
    }
    if (inst->state == InstanceState::Active && !inst->resizeInFlight) {
        cancelKeepAlive(inst);
        doUnload(inst);
        return true;
    }
    if (inst->state == InstanceState::Unloading ||
        inst->state == InstanceState::Reclaimed)
        return true;
    // An executing load or resize must land first (beginUnload refuses
    // mid-resize); the drain sweep retries shortly after. Fence the
    // instance so admission paths keep off it in the meantime —
    // otherwise retryPending() would re-admit the very requests the
    // sweep just evicted, churning until the op lands.
    inst->draining |= reasonBit;
    return false;
}

void
ControllerBase::drainNodeInstances(Node *node)
{
    if (!node->failed())
        return; // restored while a sweep was pending; stop draining
    obs::bump(ctr_, obs::kDrainSweeps);
    if (trace_)
        trace_->instant(obs::kCatController, "drain-node", sim_.now(),
                        obs::kPidController, 0, "node",
                        static_cast<double>(node->id()));
    bool unsettled = false;
    for (auto &part : node->partitions()) {
        // Copy: unloads and aborts mutate the resident list.
        std::vector<Instance *> insts = part->instances;
        for (Instance *inst : insts) {
            if (inst->state == InstanceState::Unloading ||
                inst->state == InstanceState::Reclaimed)
                continue;
            if (!settleInstance(inst, false, kDrainNodeFail))
                unsettled = true;
        }
    }
    if (unsettled) {
        sim_.schedule(kDrainSweepInterval,
                      [this, node] { drainNodeInstances(node); });
    }
    retryPending();
}

void
ControllerBase::drainInstanceSet(std::vector<Instance *> insts, bool drop)
{
    obs::bump(ctr_, obs::kDrainSweeps);
    if (trace_)
        trace_->instant(obs::kCatController, "drain-set", sim_.now(),
                        obs::kPidController, 0, "instances",
                        static_cast<double>(insts.size()));
    std::vector<Instance *> remaining;
    for (Instance *inst : insts) {
        if (inst->state == InstanceState::Unloading ||
            inst->state == InstanceState::Reclaimed)
            continue;
        if (!settleInstance(inst, drop, kDrainInstanceSet))
            remaining.push_back(inst);
    }
    if (!remaining.empty()) {
        sim_.schedule(kDrainSweepInterval,
                      [this, remaining = std::move(remaining), drop] {
                          drainInstanceSet(remaining, drop);
                      });
    }
    retryPending();
}

void
ControllerBase::failNode(NodeId node)
{
    if (node >= nodes_.size())
        fatal("failNode: unknown node " + std::to_string(node));
    Node *n = nodes_[node].get();
    if (n->failed())
        return; // defined no-op: the node is already fenced
    n->setFailed(true);
    ++failedNodes_;
    for (auto &p : n->partitions()) {
        p->lastFailedAt = sim_.now();
        index_.onPartitionFailed(*p);
    }
    drainNodeInstances(n);
}

void
ControllerBase::restoreNode(NodeId node)
{
    if (node >= nodes_.size())
        fatal("restoreNode: unknown node " + std::to_string(node));
    Node *n = nodes_[node].get();
    if (!n->failed())
        return; // defined no-op: restore of a node that is not failed
    n->setFailed(false);
    --failedNodes_;
    // Under the failover-exclusion policy the restored partitions stay
    // skipped until the window (measured from the failure) expires; a
    // wakeup at expiry re-runs placement for whatever is still queued.
    if (cfg_.resilience.failoverExclusion > 0 &&
        !n->partitions().empty()) {
        Seconds until = n->partitions().front()->lastFailedAt +
                        cfg_.resilience.failoverExclusion;
        if (until > sim_.now())
            sim_.schedule(until - sim_.now(),
                          [this] { retryPending(); });
    }
    for (auto &p : n->partitions()) {
        index_.onPartitionRestored(*p);
        // Residents the interrupted node drain never settled go back
        // into service (that sweep stops once the node is restored);
        // a concurrent redeploy/retire sweep keeps its own fence bit.
        for (Instance *inst : p->instances)
            inst->draining &= ~kDrainNodeFail;
    }
    markAllDecodeDirty();
    retryPending();
}

void
ControllerBase::degradeNode(NodeId node, double factor)
{
    if (node >= nodes_.size())
        fatal("degradeNode: unknown node " + std::to_string(node));
    if (factor <= 0)
        fatal("degradeNode: factor must be > 0");
    // The multiplier only shapes future iteration durations, so no
    // index or scheduler state needs touching; re-degrading just
    // replaces the factor.
    for (auto &p : nodes_[node]->partitions())
        p->perfFactor = factor;
}

void
ControllerBase::recoverNode(NodeId node)
{
    if (node >= nodes_.size())
        fatal("recoverNode: unknown node " + std::to_string(node));
    // Defined no-op on a never-degraded node (perfFactor is already 1).
    for (auto &p : nodes_[node]->partitions())
        p->perfFactor = 1.0;
}

void
ControllerBase::setNetFactor(double factor)
{
    if (factor <= 0)
        fatal("setNetFactor: factor must be > 0");
    netFactor_ = factor;
}

ModelId
ControllerBase::deployModel(const ModelSpec &spec, double initialAvgOutput)
{
    ModelEntry e;
    e.spec = spec;
    e.avgOutput = initialAvgOutput > 0 ? initialAvgOutput : 256.0;
    models_.push_back(std::move(e));
    pendingDecode_.emplace_back();
    decodeDirty_.push_back(0);
    ModelId id = static_cast<ModelId>(models_.size() - 1);
    if (trace_)
        trace_->setProcessName(tracePid(id),
                               "model " + std::to_string(id));
    onModelDeployed(id);
    return id;
}

void
ControllerBase::redeployModel(ModelId model)
{
    if (model >= models_.size())
        fatal("redeployModel: unknown model " + std::to_string(model));
    ModelEntry &me = models_[model];
    if (me.retired)
        return;
    // Only the instances of the *current* version drain; replacements
    // created while the sweep settles are left alone.
    drainInstanceSet(me.instances, false);
}

void
ControllerBase::retireModel(ModelId model)
{
    if (model >= models_.size())
        fatal("retireModel: unknown model " + std::to_string(model));
    ModelEntry &me = models_[model];
    if (me.retired)
        return;
    me.retired = true;
    for (Request *req : pending_) {
        if (req->state == RequestState::Queued && req->model == model)
            dropRequest(req);
    }
    // The dropped ghosts purge from pending_ at later retry rounds.
    auto &dq = pendingDecode_[model];
    decodePendingCount_ -= dq.size();
    for (auto &entry : dq) {
        Request *req = entry.second;
        --req->queueRefs; // leaving the decode queue for good
        if (req->state == RequestState::Transfer)
            dropRequest(req);
        else
            maybeReclaim(req); // settled ghost: last ref just left
    }
    dq.clear();
    drainInstanceSet(me.instances, true);
}

std::vector<std::size_t>
ControllerBase::pendingPerModel() const
{
    std::vector<std::size_t> depth(models_.size(), 0);
    for (const Request *req : pending_) {
        if (req->state == RequestState::Queued)
            ++depth[req->model];
    }
    for (std::size_t m = 0; m < pendingDecode_.size(); ++m) {
        for (const auto &entry : pendingDecode_[m]) {
            if (entry.second->state == RequestState::Transfer)
                ++depth[m];
        }
    }
    return depth;
}

TokenScheduler &
ControllerBase::schedulerFor(Partition *part)
{
    std::unique_ptr<TokenScheduler> &slot = scheds_[part->viewPos];
    if (slot)
        return *slot;

    TokenScheduler::Callbacks cbs;
    cbs.onRequestDone = [this](Request *r, Instance *i) {
        requestDone(r, i);
    };
    cbs.routeAfterPrefill = [this](Request *r, Instance *i) {
        return takeAfterPrefill(r, i);
    };
    cbs.onKvShortage = [this](Instance *i) { handleKvShortage(i); };
    slot = std::make_unique<TokenScheduler>(
        sim_, *part, schedPolicy(), cfg_.noiseSigma,
        rng_.fork(0x5C4ED + part->node * 16 + part->index), std::move(cbs),
        stats_, &index_, trace_, anat_);
    return *slot;
}

void
ControllerBase::kickPartition(Partition *part)
{
    schedulerFor(part).kick();
}

Instance *
ControllerBase::makeInstance(ModelId model, Partition *primary,
                             HardwareSpec execSpec, Bytes kvAlloc,
                             InstanceRole role,
                             std::vector<Partition *> extraHolds,
                             bool staticKv)
{
    auto inst = std::make_unique<Instance>(
        static_cast<InstanceId>(instancePool_.size() + 1), model,
        models_[model].spec, primary, std::move(execSpec), kvAlloc);
    inst->role = role;
    inst->staticKv = staticKv;
    inst->createdAt = sim_.now();
    inst->extraHolds = std::move(extraHolds);
    Instance *ptr = inst.get();
    instancePool_.push_back(std::move(inst));
    ++instancesCreated_;

    primary->instances.push_back(ptr);
    index_.onInstanceAdded(*ptr);
    for (Partition *p : ptr->extraHolds) {
        p->exclusiveHolder = ptr;
        if (!p->mem.tryHold(p->mem.capacity() - p->mem.used()))
            panic("makeInstance: exclusive hold failed");
    }
    if (!ptr->extraHolds.empty())
        primary->exclusiveHolder = ptr;
    models_[model].instances.push_back(ptr);
    schedulerFor(primary); // ensure the scheduler exists
    return ptr;
}

void
ControllerBase::startStaticLoad(Instance *inst)
{
    Bytes footprint = std::min<Bytes>(
        inst->model.weightBytes() + inst->kv.allocBytes(),
        inst->primary->mem.capacity() - inst->primary->mem.used());
    if (!inst->primary->mem.tryHold(footprint))
        panic("startStaticLoad: static hold failed");
    inst->memResident = true;
    inst->heldPrimaryBytes = footprint;
    inst->loadDuration = Loader::loadTime(inst->primary->spec, inst->model);
    if (trace_)
        trace_->complete(obs::kCatMemory, "load", sim_.now(),
                         inst->loadDuration, obs::kPidCluster,
                         static_cast<int>(inst->primary->viewPos),
                         "instance", static_cast<double>(inst->id));
    sim_.schedule(inst->loadDuration, [this, inst] {
        inst->state = InstanceState::Active;
        inst->activeAt = sim_.now();
        index_.onInstanceActivated(*inst);
        if (anat_) {
            for (Request *r : inst->prefillQueue)
                anat_->onInstanceActive(*r, sim_.now());
            for (Request *r : inst->decodeBatch)
                anat_->onInstanceActive(*r, sim_.now());
        }
        markAllDecodeDirty();
        kickPartition(inst->primary);
        retryPending();
    });
}

void
ControllerBase::unloadStatic(Instance *inst)
{
    index_.onInstanceUnloading(*inst);
    if (inst->state == InstanceState::Active)
        index_.onInstanceDeactivated(*inst);
    inst->state = InstanceState::Unloading;
    markAllDecodeDirty();
    Seconds unload_dur =
        MemCostModel::weightUnloadTime(inst->primary->spec, inst->model);
    if (trace_)
        trace_->complete(obs::kCatMemory, "unload", sim_.now(),
                         unload_dur, obs::kPidCluster,
                         static_cast<int>(inst->primary->viewPos),
                         "instance", static_cast<double>(inst->id));
    sim_.schedule(
        unload_dur,
        [this, inst] {
            inst->state = InstanceState::Reclaimed;
            inst->reclaimedAt = sim_.now();
            index_.onInstanceReclaimed(*inst);
            inst->primary->mem.release(inst->heldPrimaryBytes);
            inst->heldPrimaryBytes = 0;
            unregisterInstance(inst);
            markAllDecodeDirty();
            retryPending();
        });
}

void
ControllerBase::unregisterInstance(Instance *inst)
{
    auto &pv = inst->primary->instances;
    pv.erase(std::remove(pv.begin(), pv.end(), inst), pv.end());
    if (inst->primary->exclusiveHolder == inst)
        inst->primary->exclusiveHolder = nullptr;
    for (Partition *p : inst->extraHolds) {
        if (p->exclusiveHolder == inst) {
            p->exclusiveHolder = nullptr;
            p->mem.release(p->mem.used());
        }
    }
    auto &mv = models_[inst->modelId].instances;
    mv.erase(std::remove(mv.begin(), mv.end(), inst), mv.end());
}

void
ControllerBase::scheduleKeepAlive(Instance *inst)
{
    cancelKeepAlive(inst);
    inst->keepAliveEv = sim_.schedule(cfg_.keepAlive, [this, inst] {
        if (inst->state != InstanceState::Active || inst->loadSize() > 0)
            return;
        if (inst->resizeInFlight) {
            // Retry once the op settles. A strictly positive delay is
            // required even when keepAlive is 0, or same-time retries
            // would spin without ever advancing the clock.
            inst->keepAliveEv = sim_.schedule(
                std::max(cfg_.keepAlive, 0.05),
                [this, inst] { scheduleKeepAlive(inst); });
            return;
        }
        doUnload(inst);
    });
}

void
ControllerBase::cancelKeepAlive(Instance *inst)
{
    inst->keepAliveEv.cancel();
}

void
ControllerBase::admitTo(Request *req, Instance *inst)
{
    cancelKeepAlive(inst);
    auto it = dropEvents_.find(req->id);
    if (it != dropEvents_.end()) {
        it->second.cancel();
        dropEvents_.erase(it);
    }
    req->instance = inst->id;
    req->state = RequestState::Prefill;
    req->dispatchFailures = 0;
    req->retryAfter = 0.0;
    if (anat_)
        anat_->onAdmit(*req, inst->state == InstanceState::Loading,
                       sim_.now());
    if (trace_)
        trace_->asyncInstant(obs::kCatRequest, "admit", sim_.now(),
                             tracePid(req->model), req->id, "instance",
                             static_cast<double>(inst->id));
    if (inst->state == InstanceState::Loading)
        req->grace = std::max(req->grace, inst->loadDuration);
    inst->prefillQueue.push_back(req);
    kickPartition(inst->primary);
}

bool
ControllerBase::admitToDecode(Request *req, Instance *inst)
{
    Tokens need = PagedKvCache::roundedTokens(req->contextLen() + 1);
    if (!inst->kv.reserve(need))
        return false;
    cancelKeepAlive(inst);
    req->kvReserved = need;
    req->instance = inst->id;
    req->state = RequestState::Decode;
    req->dispatchFailures = 0;
    req->retryAfter = 0.0;
    if (anat_)
        anat_->onDecodeAdmit(*req,
                             inst->state == InstanceState::Loading,
                             sim_.now());
    if (trace_)
        trace_->asyncInstant(obs::kCatRequest, "admit-decode", sim_.now(),
                             tracePid(req->model), req->id, "instance",
                             static_cast<double>(inst->id));
    inst->decodeBatch.push_back(req);
    kickPartition(inst->primary);
    return true;
}

void
ControllerBase::queueRequest(Request *req)
{
    pending_.push_back(req);
    ++req->queueRefs;
    if (trace_)
        trace_->asyncInstant(obs::kCatRequest,
                             requestStateName(req->state), sim_.now(),
                             tracePid(req->model), req->id);
    if (req->generated > 0)
        return; // re-queued mid-decode; never proactively dropped
    Seconds deadline = req->arrival + cfg_.slo.ttft(req->inputLen);
    Seconds delay = std::max<Seconds>(0.0, deadline - sim_.now());
    dropEvents_[req->id] = sim_.schedule(delay, [this, req] {
        if (req->state != RequestState::Queued)
            return;
        req->state = RequestState::Dropped;
        recorder_.onDrop(*req, sim_.now());
        if (anat_)
            anat_->onDrop(*req, sim_.now());
        dropEvents_.erase(req->id);
        traceRequestEnd(req);
    });
}

void
ControllerBase::queueDecode(Request *req)
{
    pendingDecode_[req->model].push_back({decodeSeq_++, req});
    ++req->queueRefs;
    ++decodePendingCount_;
    decodeDirty_[req->model] = 1;
}

void
ControllerBase::markDecodeDirty(ModelId model)
{
    if (decodePendingCount_ == 0)
        return;
    decodeDirty_[model] = 1;
}

void
ControllerBase::markAllDecodeDirty()
{
    if (decodePendingCount_ == 0)
        return;
    std::fill(decodeDirty_.begin(), decodeDirty_.end(), char(1));
}

void
ControllerBase::retryPending()
{
    if (inRetry_) {
        retryAgain_ = true;
        return;
    }
    inRetry_ = true;
    obs::bump(ctr_, obs::kPendingWakeups);
    obs::ScopedPhase phase(prof_, obs::kPhaseControllerDecide);
    do {
        retryAgain_ = false;
        // Cap the failed-dispatch work per retry round: under deep
        // saturation re-validating the entire queue on every event is
        // quadratic for no benefit (stuck heads drop at their TTFT
        // deadline soon anyway). Unlike the pre-index code, the drain
        // stops at the cap instead of cycling the whole deque through
        // a scratch copy — entries behind the cap are left untouched
        // (admitted/dropped ghosts among them are purged whenever a
        // later round reaches them), so a deep backlog costs the
        // failures actually attempted, not O(queue) churn per event.
        const ResilienceConfig &res = cfg_.resilience;
        const int kMaxFailures = res.retryCap;
        int failures = 0;
        retryStill_.clear();
        while (!pending_.empty() && failures < kMaxFailures) {
            Request *req = pending_.front();
            pending_.pop_front();
            --req->queueRefs;
            if (req->state != RequestState::Queued) {
                // Dropped or already admitted elsewhere: purge the
                // ghost (and recycle it if this was its last ref).
                maybeReclaim(req);
                continue;
            }
            if (res.backoff && req->retryAfter > sim_.now()) {
                // Parked under backoff: not charged as a failure (the
                // wakeup armBackoff scheduled re-runs this round).
                retryStill_.push_back(req);
                continue;
            }
            if (!tryDispatch(req)) {
                if (anat_)
                    anat_->onPlacementRetry(*req);
                ++failures;
                if (res.backoff && !armBackoff(req))
                    continue; // deadline-aware give-up dropped it
                retryStill_.push_back(req);
            }
        }
        // Preserve arrival order for the survivors, ahead of the
        // untouched tail and anything queued while we were
        // dispatching.
        for (auto it = retryStill_.rbegin(); it != retryStill_.rend();
             ++it) {
            pending_.push_front(*it);
            ++(*it)->queueRefs;
        }

        retryDecodePending();
    } while (retryAgain_);
    inRetry_ = false;
}

bool
ControllerBase::armBackoff(Request *req)
{
    const ResilienceConfig &res = cfg_.resilience;
    ++req->dispatchFailures;
    Seconds delay = res.backoffBase;
    for (int i = 1; i < req->dispatchFailures && delay < res.backoffMax;
         ++i)
        delay *= 2.0;
    delay = std::min(delay, res.backoffMax);
    if (req->generated == 0) {
        // Deadline-aware give-up: a request that cannot attempt again
        // before its TTFT drop deadline can never dispatch in time.
        // (The deadline event itself fires the same way; dropping here
        // just skips retry rounds the request was doomed to lose.)
        Seconds deadline = req->arrival + cfg_.slo.ttft(req->inputLen);
        if (sim_.now() + delay >= deadline) {
            dropRequest(req);
            return false;
        }
    }
    req->retryAfter = sim_.now() + delay;
    sim_.schedule(delay, [this] { retryPending(); });
    return true;
}

bool
ControllerBase::placementExcluded(const Partition *p) const
{
    Seconds w = cfg_.resilience.failoverExclusion;
    return w > 0 && p->lastFailedAt >= 0 &&
           sim_.now() < p->lastFailedAt + w;
}

void
ControllerBase::retryDecodePending()
{
    if (decodePendingCount_ == 0)
        return;
    // Collect the dirty models' entries and replay them in global
    // arrival order. Clean queues are skipped entirely: decode
    // admission has no deadline term, so an entry that failed stays
    // failed until some relevant state changes — and every such
    // change marks the affected queues dirty.
    decodeRound_.clear();
    for (std::size_t m = 0; m < pendingDecode_.size(); ++m) {
        if (!decodeDirty_[m] || pendingDecode_[m].empty())
            continue;
        for (auto &e : pendingDecode_[m])
            decodeRound_.push_back(e);
        pendingDecode_[m].clear();
    }
    // Clear the dirty set before dispatching so wakeups raised by the
    // dispatches themselves (new entries, admissions) survive the
    // round.
    std::fill(decodeDirty_.begin(), decodeDirty_.end(), char(0));
    if (decodeRound_.empty())
        return;
    obs::bump(ctr_, obs::kDecodeWakeups);
    std::sort(decodeRound_.begin(), decodeRound_.end());
    bool admitted = false;
    for (auto &entry : decodeRound_) {
        Request *req = entry.second;
        if (req->state != RequestState::Transfer) {
            --decodePendingCount_;
            --req->queueRefs;
            maybeReclaim(req); // settled ghost leaving for good
            continue;
        }
        if (tryDispatchDecode(req)) {
            --decodePendingCount_;
            --req->queueRefs;
            admitted = true;
        } else {
            pendingDecode_[req->model].push_back(entry);
        }
    }
    // An admission mutated cluster state (batches, budgets), which can
    // unblock entries that failed earlier in this round.
    if (admitted)
        markAllDecodeDirty();
}

void
ControllerBase::requestDone(Request *req, Instance *inst)
{
    req->completionTime = sim_.now();
    recorder_.onComplete(*req, sim_.now());
    if (anat_)
        anat_->onComplete(*req, sim_.now());
    traceRequestEnd(req);
    ModelEntry &me = models_[req->model];
    me.avgOutput = 0.85 * me.avgOutput +
                   0.15 * static_cast<double>(req->generated);
    onRequestDoneHook(req, inst);
    // Shortage-driven wakeup: the completion freed a batch slot and KV
    // on `inst` and shrank its partition's aggregate decode load, so
    // only this model's decode queue and those of its partition
    // neighbors can newly admit.
    if (decodePendingCount_ > 0) {
        markDecodeDirty(req->model);
        for (const Instance *other : inst->primary->instances)
            markDecodeDirty(other->modelId);
    }
    if (inst->loadSize() == 0 && inst->state == InstanceState::Active)
        scheduleKeepAlive(inst);
    retryPending();
    maybeReclaim(req);
}

void
ControllerBase::requeueEvicted(Request *req, Instance *inst)
{
    inst->removeRequest(req);
    inst->kv.release(req->kvReserved);
    req->kvReserved = 0;
    req->instance = 0;
    req->state = RequestState::Queued;
    ++req->migrations;
    ++evictions_;
    if (anat_)
        anat_->onEvicted(*req, sim_.now());
    queueRequest(req);
}

void
ControllerBase::evictLongestHeadroom(Instance *inst)
{
    Request *victim = nullptr;
    Seconds best = -std::numeric_limits<Seconds>::infinity();
    for (Request *r : inst->decodeBatch) {
        Seconds h = r->headroom(sim_.now());
        if (h > best) {
            best = h;
            victim = r;
        }
    }
    if (!victim)
        return;
    requeueEvicted(victim, inst);
    markAllDecodeDirty();
    retryPending();
}

bool
ControllerBase::takeAfterPrefill(Request *req, Instance *inst)
{
    if (!cfg_.pdDisaggregation || inst->role != InstanceRole::PrefillOnly)
        return false;
    // KV pages stream to the decode instance over the fabric; the
    // prefill instance frees them locally once sent.
    inst->kv.release(req->kvReserved);
    req->kvReserved = 0;
    req->instance = 0;
    req->state = RequestState::Transfer;
    if (anat_)
        anat_->onTransfer(*req, sim_.now());
    Bytes kv_bytes = static_cast<Bytes>(req->contextLen()) *
                     inst->model.kvBytesPerToken();
    if (trace_)
        trace_->asyncInstant(obs::kCatRequest,
                             requestStateName(req->state), sim_.now(),
                             tracePid(req->model), req->id, "kv_bytes",
                             static_cast<double>(kv_bytes));
    if (inst->loadSize() == 0 && inst->state == InstanceState::Active)
        scheduleKeepAlive(inst);
    markAllDecodeDirty();
    sim_.schedule(MemCostModel::kvMigrationTime(kv_bytes) * netFactor_,
                  [this, req] {
        if (models_[req->model].retired) {
            dropRequest(req); // retired mid-transfer; nothing may place
            return;
        }
        if (!tryDispatchDecode(req))
            queueDecode(req);
    });
    return true;
}

double
ControllerBase::scalingOverheadFraction() const
{
    // Always the exact pool scan: this figure lands verbatim in every
    // report, and the running aggregate accumulates in event order,
    // whose last-ulp rounding can differ from the pool-order sum the
    // reports have always carried. The scan runs once per experiment;
    // the timeseries sampler needs O(1) and reads
    // clusterIndex().scalingOverheadFraction(now) instead (the fuzz
    // test keeps the two within 1e-9 of each other).
    double scaling = 0.0;
    double uptime = 0.0;
    for (const auto &inst : instancePool_) {
        if (inst->activeAt < 0)
            continue;
        Seconds end = inst->state == InstanceState::Reclaimed
                          ? inst->activeAt + inst->busyTime +
                                inst->scalingTime
                          : sim_.now();
        scaling += inst->scalingTime;
        uptime += std::max<Seconds>(end - inst->activeAt, 1e-9);
    }
    return uptime > 0 ? scaling / uptime : 0.0;
}

double
ControllerBase::totalBusySeconds(HwKind kind) const
{
    return index_.busySeconds(kind);
}

double
ControllerBase::kvUtilizationNow() const
{
    return index_.kvUtilizationNow();
}

// ====================================================================
// SlinferController
// ====================================================================

SlinferController::SlinferController(
    Simulator &sim, std::vector<std::unique_ptr<Node>> &nodes,
    std::vector<ModelSpec> modelSpecs,
    std::vector<double> initialAvgOutput, ControllerConfig cfg,
    Recorder &recorder, ClusterStats *stats)
    : ControllerBase(sim, nodes, std::move(modelSpecs),
                     std::move(initialAvgOutput), cfg, recorder, stats),
      shadow_(quant_, ShadowConfig{cfg.overestimate, cfg.slo.tpot, 500})
{
    mem_.resize(index_.partitions(true).size());
    // Offline profiling: every (hardware type, model) pair the cluster
    // could combine (§VI-B). Partition specs share their node's name
    // only when identical, so profile per concrete spec.
    for (const auto &node : nodes_) {
        for (const auto &part : node->partitions()) {
            for (const auto &me : models_) {
                if (!quant_.profiled(part->spec, me.spec))
                    quant_.profile(part->spec, me.spec);
                // Tensor-parallel exec spec for exclusive fallbacks.
                if (me.spec.tpDegree > 1 && !node->isCpu()) {
                    HardwareSpec tp = PerfModel::tensorParallel(
                        node->spec(), me.spec.tpDegree);
                    if (!quant_.profiled(tp, me.spec))
                        quant_.profile(tp, me.spec);
                }
            }
        }
    }
    consolidator_ = std::make_unique<Consolidator>(*this);
}

SlinferController::~SlinferController() = default;

SchedPolicy
SlinferController::schedPolicy() const
{
    return SchedPolicy::Headroom;
}

MemorySubsystem &
SlinferController::subsystemFor(Partition *part)
{
    std::unique_ptr<MemorySubsystem> &slot = mem_[part->viewPos];
    if (slot)
        return *slot;
    slot = std::make_unique<MemorySubsystem>(
        sim_, *part, cfg_.watermark,
        [this, part] {
            markAllDecodeDirty();
            kickPartition(part);
            retryPending();
        },
        &index_, ctr_, trace_, prof_, anat_);
    return *slot;
}

bool
SlinferController::cpuFeasible(const ModelSpec &spec,
                               const Request &req) const
{
    const HardwareSpec *cpu = index_.cpuSpec();
    if (!cpu || !cpu->hasMatrixAccel)
        return false;
    if (!quant_.profiled(*cpu, spec))
        return false;
    Seconds ttft_slo = cfg_.slo.ttft(req.inputLen);
    if (quant_.prefillEstimate(*cpu, spec, req.contextLen()) *
            cfg_.overestimate >
        ttft_slo) {
        return false;
    }
    Tokens ctx = req.inputLen +
                 static_cast<Tokens>(models_[req.model].avgOutput);
    return quant_.decodeEstimate(*cpu, spec, 1, ctx) * cfg_.overestimate <=
           cfg_.slo.tpot;
}

bool
SlinferController::exclusiveOnly(const ModelSpec &spec) const
{
    if (spec.tpDegree > 1)
        return true;
    // A model whose weights leave less than one max-context KV slot on
    // the largest GPU partition cannot be shared meaningfully.
    Bytes gpu_cap = index_.gpuPartitionCapacity();
    if (gpu_cap == 0)
        return false;
    Bytes min_kv = static_cast<Bytes>(spec.maxContext) *
                   spec.kvBytesPerToken();
    return spec.weightBytes() + 2 * min_kv > gpu_cap;
}

Seconds
SlinferController::partBusyUntil(Partition *part)
{
    return schedulerFor(part).busyUntil();
}

bool
SlinferController::tryExistingInstances(Request *req)
{
    ModelEntry &me = models_[req->model];
    std::vector<Instance *> cands;
    for (Instance *inst : me.instances) {
        if (inst->state != InstanceState::Active &&
            inst->state != InstanceState::Loading)
            continue;
        if (inst->draining || inst->primary->failed)
            continue; // being drained by an intervention
        if (cfg_.pdDisaggregation &&
            inst->role != InstanceRole::PrefillOnly)
            continue;
        if (!cfg_.pdDisaggregation && inst->role != InstanceRole::Unified)
            continue;
        cands.push_back(inst);
    }
    // Reactive bin-packing (§VIII-B): the largest-batch instance takes
    // new requests first so fragments drain; ties prefer CPU residents
    // when the request is CPU-feasible (§V's CPU-first policy).
    bool cpu_ok = cfg_.useCpu && cpuFeasible(me.spec, *req);
    std::stable_sort(cands.begin(), cands.end(),
                     [cpu_ok](const Instance *a, const Instance *b) {
                         if (a->batchSize() != b->batchSize())
                             return a->batchSize() > b->batchSize();
                         bool ac = a->execSpec.kind == HwKind::Cpu;
                         bool bc = b->execSpec.kind == HwKind::Cpu;
                         if (ac != bc)
                             return cpu_ok ? ac : bc;
                         return false;
                     });
    for (Instance *inst : cands) {
        if (inst->execSpec.kind == HwKind::Cpu && !cpu_ok)
            continue;
        Partition *p = inst->primary;
        obs::bump(ctr_, obs::kShadowRuns);
        if (!shadow_.canAdmit(*p, inst, *req, sim_.now(),
                              partBusyUntil(p))) {
            ++dispatchStats_.rejectShadow;
            continue;
        }
        if (inst->staticKv) {
            Tokens need = PagedKvCache::roundedTokens(req->contextLen()) +
                          PagedKvCache::kBlockTokens;
            if (!inst->kv.canFit(need))
                continue;
            admitTo(req, inst);
            return true;
        }
        auto plan = subsystemFor(p).planAdmit(*inst, *req,
                                              me.avgOutput);
        if (!plan.ok) {
            ++dispatchStats_.rejectMemory;
            continue;
        }
        subsystemFor(p).commitPlan(*inst, plan);
        ++dispatchStats_.admitExisting;
        admitTo(req, inst);
        return true;
    }
    return false;
}

SlinferController::PlacementDemand
SlinferController::placementDemand(const Request &req) const
{
    const ModelEntry &me = models_[req.model];
    PlacementDemand d;
    d.cpuOk = cfg_.useCpu && cpuFeasible(me.spec, req);
    d.weights = me.spec.weightBytes();
    d.require = static_cast<Bytes>(std::max(
                    static_cast<double>(req.inputLen) + me.avgOutput,
                    static_cast<double>(me.spec.maxContext))) *
                me.spec.kvBytesPerToken();
    d.recommend = static_cast<Bytes>(static_cast<double>(d.require) *
                                     (1.0 + cfg_.watermark));
    return d;
}

bool
SlinferController::placementCandidateOk(Partition *p, const Request &req,
                                        const PlacementDemand &d,
                                        Bytes &kvInit)
{
    const ModelSpec &spec = models_[req.model].spec;
    if (p->spec.kind == HwKind::Cpu && !d.cpuOk)
        return false;
    if (!p->openForPlacement() || placementExcluded(p))
        return false;
    if (!cfg_.enableSharing && !p->instances.empty())
        return false;
    MemorySubsystem &sub = subsystemFor(p);
    if (sub.canPlace(d.weights, d.recommend))
        kvInit = d.recommend;
    else if (sub.canPlace(d.weights, d.require))
        kvInit = d.require; // compromise (§VII-D)
    else
        return false;
    Seconds ready = sim_.now() + Loader::loadTime(p->spec, spec);
    obs::bump(ctr_, obs::kShadowRuns);
    return shadow_.canAdmitNew(*p, spec, p->spec, req, sim_.now(),
                               partBusyUntil(p), ready);
}

/**
 * Indexed candidate selection. The free-capacity index orders each
 * hardware kind's partitions by (free optimistic bytes, view
 * position); walking ascending from the first possibly-sufficient
 * key and returning the first candidate that passes eligibility +
 * shadow validation selects exactly the partition a best-fit scan
 * over every partition would: that scan keeps the minimum (free,
 * id-order) among shadow-passing candidates, which is the first
 * passing element of this walk (shadow validation is pure, so
 * evaluating candidates in a different order cannot change any
 * verdict).
 */
SlinferController::PlacementChoice
SlinferController::selectPlacement(const Request &req,
                                   const PlacementDemand &d)
{
    obs::bump(ctr_, obs::kPlacementProbes);
    auto tryKind = [&](HwKind kind) -> PlacementChoice {
        const auto &fs = index_.freeSet(kind);
        // Eligibility needs free >= weights + require + reserve; the
        // reserve term varies with partition capacity, so start at the
        // necessary bound and let canPlace reject the stragglers.
        ClusterIndex::FreeKey from{d.weights + d.require, 0};
        for (auto it = fs.lower_bound(from); it != fs.end(); ++it) {
            obs::bump(ctr_, obs::kIndexWalkSteps);
            Partition *p = index_.partitionAt(it->second);
            Bytes kv_init = 0;
            if (placementCandidateOk(p, req, d, kv_init))
                return {p, kv_init};
        }
        return {};
    };
    if (d.cpuOk) {
        // CPU strictly preferred over GPU (§V).
        PlacementChoice c = tryKind(HwKind::Cpu);
        if (c.part)
            return c;
    }
    return tryKind(HwKind::Gpu);
}

bool
SlinferController::tryNewInstance(Request *req)
{
    ModelEntry &me = models_[req->model];
    if (exclusiveOnly(me.spec))
        return tryExclusivePlacement(req);

    PlacementDemand d = placementDemand(*req);
    PlacementChoice choice = selectPlacement(*req, d);
    if (!choice.part) {
        ++dispatchStats_.rejectNoPlacement;
        return false;
    }
    ++dispatchStats_.admitNew;

    Partition *best = choice.part;
    if (trace_)
        trace_->instant(obs::kCatController, "place-new", sim_.now(),
                        obs::kPidController, 0, "partition",
                        static_cast<double>(best->viewPos));
    Instance *inst = makeInstance(req->model, best, best->spec,
                                  choice.kvInit,
                                  cfg_.pdDisaggregation
                                      ? InstanceRole::PrefillOnly
                                      : InstanceRole::Unified,
                                  {}, false);
    subsystemFor(best).beginLoad(*inst, [this, inst] {
        kickPartition(inst->primary);
        retryPending();
    });
    admitTo(req, inst);
    return true;
}

bool
SlinferController::tryExclusivePlacement(Request *req)
{
    ModelEntry &me = models_[req->model];
    int degree = std::max(1, me.spec.tpDegree);
    // Collect fully idle GPU nodes.
    std::vector<Node *> free_nodes;
    for (const auto &node : nodes_) {
        if (node->isCpu() || node->inUse() || node->failed())
            continue;
        if (!node->partitions().empty() &&
            placementExcluded(node->partitions().front().get()))
            continue;
        free_nodes.push_back(node.get());
        if (static_cast<int>(free_nodes.size()) == degree)
            break;
    }
    if (static_cast<int>(free_nodes.size()) < degree)
        return false;

    HardwareSpec exec = PerfModel::tensorParallel(free_nodes[0]->spec(),
                                                  degree);
    if (!quant_.profiled(exec, me.spec))
        quant_.profile(exec, me.spec);
    Bytes total_cap = 0;
    std::vector<Partition *> holds;
    for (Node *n : free_nodes) {
        for (auto &p : n->partitions()) {
            total_cap += p->mem.capacity();
            holds.push_back(p.get());
        }
    }
    Partition *primary = holds.front();
    holds.erase(holds.begin());
    Bytes kv_alloc = total_cap - me.spec.weightBytes();
    Instance *inst = makeInstance(req->model, primary, exec, kv_alloc,
                                  InstanceRole::Unified, holds, true);
    startStaticLoad(inst);
    admitTo(req, inst);
    return true;
}

bool
SlinferController::tryDispatch(Request *req)
{
    if (tryExistingInstances(req))
        return true;
    if (cfg_.enableConsolidation && !cfg_.pdDisaggregation &&
        consolidator_->tryPreemptFor(req)) {
        ++dispatchStats_.admitPreempt;
        return true;
    }
    if (tryNewInstance(req))
        return true;
    // No room anywhere: reclaim idle instances now instead of waiting
    // out their keep-alive; the queued request retries when the memory
    // release lands.
    demandReclaimFor(req);
    return false;
}

bool
SlinferController::demandReclaimFor(Request *req)
{
    const ModelSpec &spec = models_[req->model].spec;
    Bytes weights = spec.weightBytes();
    Bytes require =
        static_cast<Bytes>(std::max(
            static_cast<double>(req->inputLen) +
                models_[req->model].avgOutput,
            static_cast<double>(spec.maxContext))) *
        spec.kvBytesPerToken();
    bool cpu_ok = cfg_.useCpu && cpuFeasible(spec, *req);

    for (Partition *p : allPartitions(cpu_ok)) {
        if (p->spec.kind == HwKind::Cpu && !cpu_ok)
            continue;
        if (!p->openForPlacement() || placementExcluded(p))
            continue;
        if (!cfg_.enableSharing && !p->instances.empty()) {
            // Exclusive placement: any fully idle partition will do
            // once its residents are gone.
        }
        MemorySubsystem &sub = subsystemFor(p);
        Bytes committed = sub.committed();
        Bytes cap = static_cast<Bytes>(
            static_cast<double>(sub.capacity()) *
            (1.0 - MemorySubsystem::kPlacementReserve));
        if (committed + weights + require <= cap)
            continue; // placeable already; the shadow check failed here
        // Sum reclaimable idle footprints, largest first.
        std::vector<Instance *> idle;
        for (Instance *inst : p->instances) {
            if (inst->state == InstanceState::Active &&
                inst->loadSize() == 0 && !inst->resizeInFlight) {
                idle.push_back(inst);
            }
        }
        std::sort(idle.begin(), idle.end(),
                  [](const Instance *a, const Instance *b) {
                      return a->model.weightBytes() + a->kvTarget >
                             b->model.weightBytes() + b->kvTarget;
                  });
        Bytes reclaimable = 0;
        std::vector<Instance *> victims;
        for (Instance *inst : idle) {
            victims.push_back(inst);
            reclaimable += inst->model.weightBytes() + inst->kvTarget;
            if (committed - reclaimable + weights + require <= cap)
                break;
        }
        if (committed - reclaimable + weights + require > cap)
            continue;
        for (Instance *inst : victims) {
            cancelKeepAlive(inst);
            doUnload(inst);
        }
        return true;
    }
    return false;
}

bool
SlinferController::tryDispatchDecode(Request *req)
{
    ModelEntry &me = models_[req->model];
    std::vector<Instance *> cands;
    for (Instance *inst : me.instances) {
        if (inst->role != InstanceRole::DecodeOnly)
            continue;
        if (inst->state != InstanceState::Active)
            continue;
        if (inst->draining || inst->primary->failed)
            continue; // being drained by an intervention
        cands.push_back(inst);
    }
    Consolidator::orderLargestBatchFirst(cands);
    for (Instance *inst : cands) {
        Partition *p = inst->primary;
        if (!shadow_.aggregateDecodeFits(*p, inst, 1, req->contextLen()))
            continue;
        auto plan = subsystemFor(p).planAdmit(*inst, *req, me.avgOutput);
        if (!plan.ok)
            continue;
        subsystemFor(p).commitPlan(*inst, plan);
        if (admitToDecode(req, inst))
            return true;
    }
    // Create a decode instance.
    Bytes weights = me.spec.weightBytes();
    Bytes require = static_cast<Bytes>(std::max(
                        static_cast<double>(req->contextLen()) +
                            me.avgOutput,
                        static_cast<double>(me.spec.maxContext))) *
                    me.spec.kvBytesPerToken();
    for (Partition *p : allPartitions(cfg_.useCpu)) {
        if (!p->openForPlacement() || placementExcluded(p))
            continue;
        MemorySubsystem &sub = subsystemFor(p);
        if (!sub.canPlace(weights, require))
            continue;
        Instance *inst = makeInstance(req->model, p, p->spec, require,
                                      InstanceRole::DecodeOnly, {}, false);
        sub.beginLoad(*inst, [this, inst] {
            kickPartition(inst->primary);
            retryPending();
        });
        // Joins the batch once the load completes and KV is resident.
        if (admitToDecode(req, inst))
            return true;
        queueDecode(req);
        return true;
    }
    return false;
}

void
SlinferController::handleKvShortage(Instance *inst)
{
    if (inst->staticKv || inst->state != InstanceState::Active) {
        if (inst->decodeBatch.size() > 1)
            evictLongestHeadroom(inst);
        return;
    }
    auto result = subsystemFor(inst->primary)
                      .tryEmergencyGrow(*inst,
                                        models_[inst->modelId].avgOutput);
    if (result == MemorySubsystem::GrowResult::Rejected) {
        // No budget anywhere: evict the slackest request so the rest
        // keep making progress (§VII-D).
        evictLongestHeadroom(inst);
    } else if (result == MemorySubsystem::GrowResult::Parked &&
               !shortageTimeouts_.count(inst->id)) {
        // The grow executes once a neighbor's release lands; the batch
        // stalls briefly, which cumulative headroom usually absorbs.
        // Guard against an all-parked partition with a timeout: if the
        // instance still cannot progress after two TPOT budgets, evict
        // to unfreeze it.
        shortageTimeouts_.insert(inst->id);
        sim_.schedule(2.0 * cfg_.slo.tpot, [this, inst] {
            shortageTimeouts_.erase(inst->id);
            if (inst->state == InstanceState::Active &&
                !inst->resizeInFlight &&
                inst->kvTarget > inst->kv.allocBytes() &&
                !inst->decodeBatch.empty()) {
                evictLongestHeadroom(inst);
            }
        });
    }
}

void
SlinferController::doUnload(Instance *inst)
{
    if (inst->staticKv) {
        unloadStatic(inst);
        return;
    }
    markAllDecodeDirty();
    subsystemFor(inst->primary).beginUnload(*inst, [this, inst] {
        unregisterInstance(inst);
        retryPending();
    });
}

void
SlinferController::onRequestDoneHook(Request *req, Instance *inst)
{
    if (inst->staticKv || inst->state != InstanceState::Active)
        return;
    if (subsystemFor(inst->primary)
            .onRequestComplete(*inst, models_[req->model].avgOutput)) {
        // A lazy scale-down lowered the partition's optimistic budget,
        // which can unblock any model's decode placement there.
        markAllDecodeDirty();
    }
}

void
SlinferController::onModelDeployed(ModelId m)
{
    // Profile the new model on every concrete partition spec, exactly
    // as the constructor did for the initial fleet (§VI-B).
    const ModelSpec &spec = models_[m].spec;
    for (const auto &node : nodes_) {
        for (const auto &part : node->partitions()) {
            if (!quant_.profiled(part->spec, spec))
                quant_.profile(part->spec, spec);
            if (spec.tpDegree > 1 && !node->isCpu()) {
                HardwareSpec tp = PerfModel::tensorParallel(
                    node->spec(), spec.tpDegree);
                if (!quant_.profiled(tp, spec))
                    quant_.profile(tp, spec);
            }
        }
    }
}

bool
SlinferController::tryAbortParkedLoad(Instance *inst)
{
    if (!subsystemFor(inst->primary).abortParkedLoad(*inst))
        return false;
    unregisterInstance(inst);
    markAllDecodeDirty();
    return true;
}

std::size_t
SlinferController::parkedOpsNow() const
{
    std::size_t n = 0;
    for (const auto &sub : mem_)
        n += sub ? sub->parkedOps() : 0;
    return n;
}

std::uint64_t
SlinferController::resizeOps() const
{
    std::uint64_t n = 0;
    for (const auto &sub : mem_)
        n += sub ? sub->resizeOps() : 0;
    return n;
}

} // namespace slinfer

#include "core/memory_subsystem.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "hw/memcost_model.hh"

namespace slinfer
{

MemorySubsystem::MemorySubsystem(Simulator &sim, Partition &partition,
                                 double watermark,
                                 std::function<void()> notify,
                                 ClusterIndex *index,
                                 obs::Counters *ctr,
                                 obs::TraceRecorder *trace,
                                 obs::PhaseProfiler *prof,
                                 obs::AnatomyLedger *anatomy)
    : sim_(sim), part_(partition), watermark_(watermark),
      notify_(std::move(notify)), index_(index),
      ctr_(ctr), trace_(trace), prof_(prof), anat_(anatomy)
{
}

Bytes
MemorySubsystem::committed() const
{
    if (index_)
        return part_.committedBytes;
    Bytes total = 0;
    for (const Instance *inst : part_.instances) {
        // Optimistic semantics: an unloading instance's final footprint
        // is zero (its physical release is covered by the pessimistic
        // execution checks).
        if (inst->state() == InstanceState::Reclaimed ||
            inst->state() == InstanceState::Unloading)
            continue;
        total += inst->model.weightBytes() + inst->kvTarget;
    }
    return total;
}

void
MemorySubsystem::setKvTarget(Instance &inst, Bytes target)
{
    obs::bump(ctr_, obs::kKvTargetChanges);
    if (index_)
        index_->onKvTargetChanged(inst, inst.kvTarget, target);
    inst.kvTarget = target;
}

Bytes
MemorySubsystem::requiredBytes(const Instance &inst, const Request *extra,
                               double avgOut) const
{
    double tokens = 0.0;
    auto count = [&](const Request *r) {
        tokens += static_cast<double>(r->inputLen) +
                  std::max(static_cast<double>(r->generated), avgOut);
    };
    for (const Request *r : inst.prefillQueue())
        count(r);
    for (const Request *r : inst.decodeBatch())
        count(r);
    if (extra)
        count(extra);
    double min_tokens = static_cast<double>(inst.model.maxContext);
    double need = std::max(tokens, min_tokens);
    return static_cast<Bytes>(need) * inst.model.kvBytesPerToken();
}

MemorySubsystem::Plan
MemorySubsystem::planAdmit(const Instance &inst, const Request &req,
                           double avgOut) const
{
    Plan plan;
    Bytes require = requiredBytes(inst, &req, avgOut);
    if (inst.kvTarget >= require) {
        plan.ok = true;
        plan.target = inst.kvTarget;
        return plan;
    }
    Bytes head = committed() - inst.kvTarget; // budget minus our KV share
    Bytes recommend =
        static_cast<Bytes>(static_cast<double>(require) *
                           (1.0 + watermark_));
    if (head + recommend <= capacity()) {
        plan.ok = true;
        plan.target = recommend;
        plan.needsResize = true;
        return plan;
    }
    // §VII-D: compromise down to the bare requirement.
    if (head + require <= capacity()) {
        plan.ok = true;
        plan.target = require;
        plan.needsResize = true;
        plan.compromise = true;
        return plan;
    }
    return plan;
}

void
MemorySubsystem::commitPlan(Instance &inst, const Plan &plan)
{
    if (!plan.ok)
        panic("MemorySubsystem: committing a failed plan");
    if (!plan.needsResize)
        return;
    setKvTarget(inst, plan.target);
    issueResize(inst);
}

bool
MemorySubsystem::canPlace(Bytes weights, Bytes kvInit) const
{
    Bytes limit = static_cast<Bytes>(static_cast<double>(capacity()) *
                                     (1.0 - kPlacementReserve));
    return committed() + weights + kvInit <= limit;
}

void
MemorySubsystem::issueResize(Instance &inst)
{
    ++resizeOps_;
    obs::bump(ctr_, obs::kKvResizeOps);
    if (!inst.memResident)
        return; // the pending load reads kvTarget when it executes
    if (inst.resizeInFlight || parkedResize_.count(inst.id))
        return; // the running/parked op picks up the new target
    Op op{OpKind::Resize, &inst, nullptr};
    if (!tryExecute(op)) {
        parkedResize_.insert(inst.id);
        station_.push_back(std::move(op));
    }
}

bool
MemorySubsystem::tryExecute(Op &op)
{
    obs::ScopedPhase phase(prof_, obs::kPhaseMemoryOp);
    Instance &inst = *op.inst;
    if (op.kind == OpKind::Resize) {
        if (inst.state() == InstanceState::Reclaimed ||
            inst.state() == InstanceState::Unloading) {
            return true; // stale op; drop it
        }
        if (!inst.memResident)
            return true; // superseded by the still-pending load
        Bytes target = inst.kvTarget;
        Bytes old_alloc = inst.kv.allocBytes();
        if (target == old_alloc)
            return true; // became a no-op
        // Never shrink below live pages.
        Bytes floor = PagedKvCache::roundedTokens(inst.kv.usedTokens()) *
                      inst.model.kvBytesPerToken();
        if (floor > target) {
            target = floor;
            setKvTarget(inst, target); // keep the optimistic budget honest
            if (target == old_alloc)
                return true;
        }
        // Pessimistic execution check: the transient holds old + new.
        if (!part_.mem.canHold(target))
            return false; // park in the reservation station
        if (!part_.mem.tryHold(target))
            panic("MemorySubsystem: hold failed after check");
        inst.resizeInFlight = true;
        if (anat_) {
            // Waiting requests stall for the resize (the ledger skips
            // any that are mid-iteration or cold-starting).
            for (Request *r : inst.prefillQueue())
                anat_->onResizeStart(*r, sim_.now());
            for (Request *r : inst.decodeBatch())
                anat_->onResizeStart(*r, sim_.now());
        }
        Seconds dur =
            MemCostModel::kvResizeTime(part_.spec, old_alloc, target);
        if (trace_)
            trace_->complete(obs::kCatMemory, "kv-resize", sim_.now(),
                             dur, obs::kPidCluster,
                             static_cast<int>(part_.viewPos), "bytes",
                             static_cast<double>(target));
        Seconds started = sim_.now();
        Bytes committed_target = target;
        sim_.schedule(dur, [this, &inst, old_alloc, committed_target,
                            started] {
            inst.kv.setAllocBytes(committed_target);
            part_.mem.release(old_alloc);
            finishResize(inst, old_alloc, started);
        });
        return true;
    }

    // Load: physically hold weights + the initial KV allocation, then
    // stream the checkpoint in.
    Bytes footprint = inst.model.weightBytes() + inst.kvTarget;
    if (!part_.mem.canHold(footprint))
        return false; // park until a release lands
    if (!part_.mem.tryHold(footprint))
        panic("MemorySubsystem: load hold failed after check");
    inst.memResident = true;
    inst.kv.setAllocBytes(inst.kvTarget);
    if (trace_)
        trace_->complete(obs::kCatMemory, "load", sim_.now(),
                         MemCostModel::weightLoadTime(part_.spec,
                                                      inst.model),
                         obs::kPidCluster,
                         static_cast<int>(part_.viewPos), "instance",
                         static_cast<double>(inst.id));
    sim_.schedule(MemCostModel::weightLoadTime(part_.spec, inst.model),
                  [this, &inst, done = std::move(op.done)]() mutable {
                      inst.setState(InstanceState::Active);
                      inst.activeAt = sim_.now();
                      if (index_)
                          index_->onInstanceActivated(inst);
                      if (anat_) {
                          for (Request *r : inst.prefillQueue())
                              anat_->onInstanceActive(*r, sim_.now());
                          for (Request *r : inst.decodeBatch())
                              anat_->onInstanceActive(*r, sim_.now());
                      }
                      // Admissions during the load may have raised the
                      // committed KV target past what the load held.
                      if (inst.kvTarget != inst.kv.allocBytes())
                          issueResize(inst);
                      if (done)
                          done();
                      notify_();
                  });
    return true;
}

void
MemorySubsystem::finishResize(Instance &inst, Bytes oldAlloc,
                              Seconds started)
{
    (void)oldAlloc;
    inst.resizeInFlight = false;
    Seconds blocked = sim_.now() - started;
    inst.scalingTime += blocked;
    if (anat_) {
        // Unstall before any coalesced follow-up op re-stalls them.
        for (Request *r : inst.prefillQueue())
            anat_->onResizeEnd(*r, sim_.now());
        for (Request *r : inst.decodeBatch())
            anat_->onResizeEnd(*r, sim_.now());
    }
    // The report's scaling sum only sees instances with activeAt >= 0;
    // pre-activation accruals are folded in at activation.
    if (index_ && inst.activeAt >= 0)
        index_->addScalingSeconds(blocked);
    // Coalesced follow-up demand issued while this op ran.
    if (inst.kvTarget != inst.kv.allocBytes() &&
        inst.state() != InstanceState::Reclaimed &&
        inst.state() != InstanceState::Unloading) {
        Op op{OpKind::Resize, &inst, nullptr};
        if (!tryExecute(op)) {
            parkedResize_.insert(inst.id);
            station_.push_back(std::move(op));
        }
    }
    drainStation();
    notify_();
}

void
MemorySubsystem::beginLoad(Instance &inst, DoneFn loaded)
{
    obs::ScopedPhase phase(prof_, obs::kPhaseMemoryOp);
    inst.loadDuration =
        MemCostModel::weightLoadTime(part_.spec, inst.model);
    Op op{OpKind::Load, &inst, std::move(loaded)};
    if (!tryExecute(op))
        station_.push_back(std::move(op));
}

void
MemorySubsystem::beginUnload(Instance &inst, DoneFn unloaded)
{
    obs::ScopedPhase phase(prof_, obs::kPhaseMemoryOp);
    if (inst.resizeInFlight)
        panic("MemorySubsystem: unload during resize");
    if (index_) {
        index_->onInstanceUnloading(inst);
        if (inst.state() == InstanceState::Active)
            index_->onInstanceDeactivated(inst);
    }
    inst.setState(InstanceState::Unloading);
    parkedResize_.erase(inst.id);
    Bytes footprint = inst.model.weightBytes() + inst.kv.allocBytes();
    if (trace_)
        trace_->complete(
            obs::kCatMemory, "unload", sim_.now(),
            MemCostModel::weightUnloadTime(part_.spec, inst.model),
            obs::kPidCluster, static_cast<int>(part_.viewPos),
            "instance", static_cast<double>(inst.id));
    sim_.schedule(MemCostModel::weightUnloadTime(part_.spec, inst.model),
                  [this, &inst, footprint,
                   done = std::move(unloaded)]() mutable {
                      inst.setState(InstanceState::Reclaimed);
                      inst.reclaimedAt = sim_.now();
                      if (index_)
                          index_->onInstanceReclaimed(inst);
                      part_.mem.release(footprint);
                      if (done)
                          done();
                      drainStation();
                      notify_();
                  });
}

bool
MemorySubsystem::onRequestComplete(Instance &inst, double avgOut)
{
    if (inst.state() != InstanceState::Active)
        return false;
    Bytes require = requiredBytes(inst, nullptr, avgOut);
    Bytes recommend = static_cast<Bytes>(
        static_cast<double>(require) * (1.0 + watermark_));
    // Lazy scale-down: only when even the inflated recommendation sits
    // below the current target.
    if (static_cast<double>(recommend) * (1.0 + watermark_) <
        static_cast<double>(inst.kvTarget)) {
        setKvTarget(inst, recommend);
        issueResize(inst);
        return true;
    }
    return false;
}

MemorySubsystem::GrowResult
MemorySubsystem::tryEmergencyGrow(Instance &inst, double avgOut)
{
    obs::bump(ctr_, obs::kEmergencyGrows);
    Bytes require = requiredBytes(inst, nullptr, avgOut);
    Bytes usage_floor =
        (PagedKvCache::roundedTokens(inst.kv.usedTokens()) +
         PagedKvCache::kBlockTokens *
             static_cast<Tokens>(inst.loadSize() + 1)) *
        inst.model.kvBytesPerToken();
    Bytes need = std::max(require, usage_floor);
    if (need <= inst.kvTarget && inst.kvTarget > inst.kv.allocBytes()) {
        // Growth already committed; progress resumes when it lands —
        // unless the op is stuck in the reservation station.
        return parkedResize_.count(inst.id) ? GrowResult::Parked
                                            : GrowResult::Sufficient;
    }
    Bytes head = committed() - inst.kvTarget;
    Bytes recommend = static_cast<Bytes>(
        static_cast<double>(need) * (1.0 + watermark_));
    Bytes target = 0;
    if (head + recommend <= capacity())
        target = recommend;
    else if (head + need <= capacity())
        target = need;
    else
        return GrowResult::Rejected;
    if (target <= inst.kvTarget)
        return GrowResult::Rejected;
    setKvTarget(inst, target);
    issueResize(inst);
    if (inst.resizeInFlight)
        return GrowResult::Executing;
    return parkedResize_.count(inst.id) ? GrowResult::Parked
                                        : GrowResult::Sufficient;
}

bool
MemorySubsystem::abortParkedLoad(Instance &inst)
{
    if (inst.memResident)
        return false; // the load executed; an unload must release it
    for (auto it = station_.begin(); it != station_.end(); ++it) {
        if (it->kind != OpKind::Load || it->inst != &inst)
            continue;
        // The load never executed: nothing is physically held, but the
        // instance still counts toward the optimistic budget.
        if (index_)
            index_->onInstanceUnloading(inst);
        inst.setState(InstanceState::Reclaimed);
        inst.reclaimedAt = sim_.now();
        if (index_)
            index_->onInstanceReclaimed(inst);
        station_.erase(it);
        return true;
    }
    return false;
}

void
MemorySubsystem::drainStation()
{
    obs::ScopedPhase phase(prof_, obs::kPhaseMemoryOp);
    for (auto it = station_.begin(); it != station_.end();) {
        if (tryExecute(*it)) {
            if (it->kind == OpKind::Resize)
                parkedResize_.erase(it->inst->id);
            it = station_.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace slinfer

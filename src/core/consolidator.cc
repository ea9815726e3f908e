#include "core/consolidator.hh"

#include <algorithm>

#include "common/log.hh"
#include "core/controller.hh"

namespace slinfer
{

Consolidator::Consolidator(SlinferController &ctl) : ctl_(ctl)
{
}

void
Consolidator::orderLargestBatchFirst(std::vector<Instance *> &insts)
{
    std::stable_sort(insts.begin(), insts.end(),
                     [](const Instance *a, const Instance *b) {
                         return a->batchSize() > b->batchSize();
                     });
}

bool
Consolidator::planVictims(Instance *grower, Request *req, VictimPlan &plan)
{
    Partition *part = grower->primary;
    Seconds now = ctl_.sim_.now();

    // Preemption candidates: colocated, strictly smaller batch,
    // resizable, not mid-operation. Smallest batch first so large
    // neighbors are never disintegrated (§VIII-A).
    std::vector<Instance *> victims;
    for (Instance *v : part->instances) {
        if (v == grower || v->state() != InstanceState::Active)
            continue;
        if (v->staticKv || v->resizeInFlight)
            continue;
        if (v->batchSize() >= grower->batchSize())
            continue;
        victims.push_back(v);
    }
    std::stable_sort(victims.begin(), victims.end(),
                     [](const Instance *a, const Instance *b) {
                         return a->batchSize() < b->batchSize();
                     });

    std::set<const Instance *> excluded;
    plan.victims.clear();
    plan.moves.clear();
    ModelEntry &me = ctl_.models_[req->model];

    for (Instance *v : victims) {
        // An earlier victim's request is already planned onto `v`:
        // unloading `v` too would strand it, so no plan exists here.
        for (const auto &move : plan.moves) {
            if (move.second == v)
                return false;
        }
        excluded.insert(v);
        plan.victims.push_back(v);

        // Every displaced request must fit somewhere else and still
        // meet its SLO (validated per destination).
        bool movable = true;
        std::vector<std::pair<Request *, Instance *>> moves;
        std::vector<Request *> displaced = v->prefillQueue();
        displaced.insert(displaced.end(), v->decodeBatch().begin(),
                         v->decodeBatch().end());
        for (Request *r : displaced) {
            Instance *dest = nullptr;
            for (const auto &owned : ctl_.models_[r->model].instances) {
                Instance *cand = owned.get();
                if (cand == v || excluded.count(cand))
                    continue;
                if (cand->state() != InstanceState::Active || cand->staticKv)
                    continue;
                if (cand->draining || cand->primary->failed)
                    continue; // being drained by an intervention
                if (cand->role != InstanceRole::Unified)
                    continue;
                Partition *cp = cand->primary;
                if (!ctl_.shadow_.canAdmit(*cp, cand, *r, now,
                                           ctl_.partBusyUntil(cp),
                                           excluded))
                    continue;
                auto mplan = ctl_.subsystemFor(cp).planAdmit(
                    *cand, *r, ctl_.models_[r->model].avgOutput);
                if (!mplan.ok)
                    continue;
                dest = cand;
                break;
            }
            if (!dest) {
                movable = false;
                break;
            }
            moves.emplace_back(r, dest);
        }
        if (!movable)
            return false; // more victims only add more displaced load

        plan.moves.insert(plan.moves.end(), moves.begin(), moves.end());

        // With this victim set gone, does the grower pass validation?
        if (!ctl_.shadow_.canAdmit(*part, grower, *req, now,
                                   ctl_.partBusyUntil(part), excluded))
            continue;
        // Memory: budget must fit once the victims' footprints vanish.
        Bytes victim_foot = 0;
        for (const Instance *vv : plan.victims)
            victim_foot += vv->model.weightBytes() + vv->kvTarget;
        MemorySubsystem &sub = ctl_.subsystemFor(part);
        Bytes require = sub.requiredBytes(*grower, req, me.avgOutput);
        Bytes head = sub.committed() - victim_foot - grower->kvTarget;
        if (head + require > sub.capacity())
            continue;
        return true;
    }
    return false;
}

void
Consolidator::execute(Instance *grower, Request *req,
                      const VictimPlan &plan)
{
    // Displace the victims' requests first (recompute-style migration:
    // the destination re-prefills the full context, as with vLLM's
    // recompute preemption).
    for (const auto &[r, dest] : plan.moves) {
        Instance *src = nullptr;
        for (Instance *v : plan.victims) {
            if (r->instance == v->id) {
                src = v;
                break;
            }
        }
        if (src) {
            src->removeRequest(r);
            src->kv.release(r->kvReserved);
            r->kvReserved = 0;
        }
        ++r->migrations;
        auto mplan = ctl_.subsystemFor(dest->primary)
                         .planAdmit(*dest, *r,
                                    ctl_.models_[r->model].avgOutput);
        if (mplan.ok)
            ctl_.subsystemFor(dest->primary).commitPlan(*dest, mplan);
        r->state = RequestState::Queued;
        ctl_.admitTo(r, dest);
    }
    // Reclaim the victims immediately: their memory funds the scale-up.
    for (Instance *v : plan.victims) {
        ctl_.cancelKeepAlive(v);
        if (v->loadSize() != 0)
            panic("Consolidator: victim still owns requests");
        ctl_.doUnload(v);
    }

    // Finally admit the new request to the grown instance.
    auto plan2 = ctl_.subsystemFor(grower->primary)
                     .planAdmit(*grower, *req,
                                ctl_.models_[req->model].avgOutput);
    if (plan2.ok)
        ctl_.subsystemFor(grower->primary).commitPlan(*grower, plan2);
    ctl_.admitTo(req, grower);
}

bool
Consolidator::tryPreemptFor(Request *req)
{
    ModelEntry &me = ctl_.models_[req->model];
    std::vector<Instance *> growers;
    for (const auto &inst : me.instances) {
        if (inst->state() != InstanceState::Active || inst->staticKv)
            continue;
        if (inst->draining || inst->primary->failed)
            continue; // being drained by an intervention
        if (inst->role != InstanceRole::Unified)
            continue;
        growers.push_back(inst.get());
    }
    orderLargestBatchFirst(growers);
    for (Instance *grower : growers) {
        VictimPlan plan;
        if (planVictims(grower, req, plan)) {
            execute(grower, req, plan);
            return true;
        }
    }
    return false;
}

} // namespace slinfer

#include "baselines/sllm.hh"

#include <algorithm>

#include "common/log.hh"
#include "hw/perf_model.hh"

namespace slinfer
{

SllmController::SllmController(Simulator &sim,
                               std::vector<std::unique_ptr<Node>> &nodes,
                               std::vector<ModelSpec> modelSpecs,
                               std::vector<double> initialAvgOutput,
                               ControllerConfig cfg, Recorder &recorder,
                               ClusterStats *stats, SllmOptions opts)
    : ControllerBase(sim, nodes, std::move(modelSpecs),
                     std::move(initialAvgOutput), cfg, recorder, stats),
      opts_(opts)
{
}

int
SllmController::concurrencyCap(ModelClass klass, HwKind kind, bool shared)
{
    if (kind == HwKind::Cpu) {
        if (!shared) {
            switch (klass) {
              case ModelClass::Small3B: return 59;
              case ModelClass::Mid7B: return 15;
              case ModelClass::Mid8B: return 15;
              case ModelClass::Large13B: return 6;
              default: return 0;
            }
        }
        switch (klass) {
          case ModelClass::Small3B: return 23;
          case ModelClass::Mid7B: return 4;
          case ModelClass::Mid8B: return 4;
          case ModelClass::Large13B: return 6; // full node (exception)
          default: return 0;
        }
    }
    if (!shared) {
        switch (klass) {
          case ModelClass::Small3B: return 160;
          case ModelClass::Mid7B: return 32;
          case ModelClass::Mid8B: return 32;
          case ModelClass::Large13B: return 16;
          case ModelClass::Huge22B: return 12;
          case ModelClass::Huge34B: return 16;
        }
        return 0;
    }
    switch (klass) {
      case ModelClass::Small3B: return 71;
      case ModelClass::Mid7B: return 12;
      case ModelClass::Mid8B: return 12;
      case ModelClass::Large13B: return 4;
      default: return 0; // 22B/34B fall back to exclusive whole nodes
    }
}

SchedPolicy
SllmController::schedPolicy() const
{
    return SchedPolicy::FifoPrefillFirst;
}

bool
SllmController::cpuServable(const ModelSpec &spec) const
{
    if (!opts_.useCpu)
        return false;
    switch (spec.klass) {
      case ModelClass::Small3B:
      case ModelClass::Mid7B:
      case ModelClass::Mid8B:
      case ModelClass::Large13B:
        break;
      default:
        return false;
    }
    for (const auto &node : nodes_) {
        if (node->isCpu())
            return node->spec().hasMatrixAccel;
    }
    return false;
}

bool
SllmController::admitIfRoom(Request *req, Instance *inst, bool asDecode)
{
    if (inst->state() != InstanceState::Active &&
        inst->state() != InstanceState::Loading)
        return false;
    if (inst->draining || inst->primary->failed)
        return false; // being drained by an intervention
    // Full-node deployments (13B-on-CPU exception, exclusive 22B/34B)
    // carry extra holds and use the unshared caps.
    bool shared = opts_.staticShare && inst->extraHolds.empty();
    int cap = concurrencyCap(inst->model.klass, inst->execSpec.kind,
                             shared);
    if (cap == 0)
        cap = 1; // exclusive deployments still serve sequentially-ish
    if (inst->loadSize() >= cap)
        return false;
    Tokens need = PagedKvCache::roundedTokens(req->contextLen()) +
                  PagedKvCache::kBlockTokens;
    if (!inst->kv.canFit(need))
        return false;
    if (asDecode)
        return admitToDecode(req, inst);
    admitTo(req, inst);
    return true;
}

Instance *
SllmController::createInstanceFor(ModelId model, InstanceRole role)
{
    const ModelSpec &spec = models_[model].spec;

    // Large models take whole GPU nodes (tensor parallel if needed).
    bool exclusive = spec.klass == ModelClass::Huge22B ||
                     spec.klass == ModelClass::Huge34B;
    if (exclusive) {
        int degree = std::max(1, spec.tpDegree);
        std::vector<Node *> free_nodes;
        for (const auto &node : nodes_) {
            if (node->isCpu() || node->inUse() || node->failed())
                continue;
            free_nodes.push_back(node.get());
            if (static_cast<int>(free_nodes.size()) == degree)
                break;
        }
        if (static_cast<int>(free_nodes.size()) < degree)
            return nullptr;
        HardwareSpec exec =
            PerfModel::tensorParallel(free_nodes[0]->spec(), degree);
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
        Instance *inst = makeInstance(model, primary, exec,
                                      total_cap - spec.weightBytes(), role,
                                      holds, true);
        startStaticLoad(inst);
        return inst;
    }

    // The first open, empty partition in cpu-first view order: the
    // index's empty sets hold exactly those, ascending by view
    // position, CPU first.
    bool cpu_ok = cpuServable(spec);
    for (HwKind kind : {HwKind::Cpu, HwKind::Gpu}) {
        bool is_cpu = kind == HwKind::Cpu;
        if (is_cpu && !cpu_ok)
            continue;
        for (std::uint32_t pos : index_.emptySet(kind)) {
            Partition *p = index_.partitionAt(pos);
            // The paper's exception: 13B on a shared CPU keeps the whole
            // node. Claim the sibling partition too.
            std::vector<Partition *> holds;
            HardwareSpec exec = p->spec;
            Bytes kv_alloc = p->mem.capacity() - spec.weightBytes();
            if (opts_.staticShare && is_cpu &&
                spec.klass == ModelClass::Large13B) {
                Node *node = nodes_[p->node].get();
                bool all_free = true;
                for (auto &sib : node->partitions()) {
                    if (sib.get() != p &&
                        (!sib->instances.empty() || !sib->openForPlacement()))
                        all_free = false;
                }
                if (!all_free)
                    continue;
                exec = node->spec();
                kv_alloc = node->memCapacity() - spec.weightBytes();
                for (auto &sib : node->partitions()) {
                    if (sib.get() != p)
                        holds.push_back(sib.get());
                }
            }
            if (spec.weightBytes() >= p->mem.capacity() && holds.empty())
                continue; // cannot even fit the weights here
            // NEO-style CPU assistance extends the KV space beyond device
            // memory.
            kv_alloc += p->spec.auxKvCapacity;
            Instance *inst =
                makeInstance(model, p, exec, kv_alloc, role, holds, true);
            startStaticLoad(inst);
            return inst;
        }
    }
    return nullptr;
}

bool
SllmController::tryDispatch(Request *req)
{
    ModelEntry &me = models_[req->model];
    InstanceRole want = cfg_.pdDisaggregation ? InstanceRole::PrefillOnly
                                              : InstanceRole::Unified;
    // Existing instances, in creation order (CPU instances were placed
    // first under +c, so CPU is naturally preferred).
    for (Instance *inst : me.instances) {
        if (inst->role != want)
            continue;
        if (admitIfRoom(req, inst, false))
            return true;
    }
    Instance *inst = createInstanceFor(req->model, want);
    if (!inst)
        return false;
    admitTo(req, inst);
    return true;
}

bool
SllmController::tryDispatchDecode(Request *req)
{
    ModelEntry &me = models_[req->model];
    for (Instance *inst : me.instances) {
        if (inst->role != InstanceRole::DecodeOnly)
            continue;
        if (inst->state() != InstanceState::Active)
            continue;
        if (admitIfRoom(req, inst, true))
            return true;
    }
    Instance *inst =
        createInstanceFor(req->model, InstanceRole::DecodeOnly);
    if (!inst)
        return false;
    if (!admitToDecode(req, inst))
        queueDecode(req);
    return true;
}

void
SllmController::handleKvShortage(Instance *inst)
{
    // vLLM's recompute preemption: push the slackest request back out.
    if (inst->loadSize() > 1)
        evictLongestHeadroom(inst);
}

void
SllmController::doUnload(Instance *inst)
{
    unloadStatic(inst);
}

} // namespace slinfer

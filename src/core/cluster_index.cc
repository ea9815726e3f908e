#include "core/cluster_index.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"

namespace slinfer
{

ClusterIndex::ClusterIndex(
    const std::vector<std::unique_ptr<Node>> &nodes)
    : nodes_(nodes)
{
    rebuildTopology();
}

void
ClusterIndex::rebuildTopology()
{
    cpuFirst_.clear();
    gpuOnly_.clear();
    cpuSpec_ = nullptr;
    gpuCap_ = 0;
    free_[0].clear();
    free_[1].clear();
    empty_[0].clear();
    empty_[1].clear();

    std::vector<Partition *> cpu, gpu;
    for (const auto &node : nodes_) {
        for (const auto &part : node->partitions())
            (node->isCpu() ? cpu : gpu).push_back(part.get());
    }
    if (!cpu.empty())
        cpuSpec_ = &cpu.front()->spec;
    if (!gpu.empty())
        gpuCap_ = gpu.front()->mem.capacity();

    cpuFirst_ = cpu;
    cpuFirst_.insert(cpuFirst_.end(), gpu.begin(), gpu.end());
    gpuOnly_ = std::move(gpu);

    for (std::uint32_t pos = 0; pos < cpuFirst_.size(); ++pos) {
        Partition *p = cpuFirst_[pos];
        p->viewPos = pos;
        Bytes freeBytes = p->mem.capacity() - p->committedBytes;
        free_[p->spec.kind == HwKind::Cpu ? 0 : 1].insert(
            {freeBytes, pos});
        syncEmpty(*p);
    }
}

void
ClusterIndex::syncEmpty(const Partition &part)
{
    auto &set = empty_[part.spec.kind == HwKind::Cpu ? 0 : 1];
    if (part.openForPlacement() && part.instances.empty())
        set.insert(part.viewPos);
    else
        set.erase(part.viewPos);
}

void
ClusterIndex::moveFreeKey(const Partition &part, Bytes oldFree)
{
    auto &set = free_[part.spec.kind == HwKind::Cpu ? 0 : 1];
    set.erase({oldFree, part.viewPos});
    // Failed partitions stay out of the free sets until restored;
    // their committed totals keep updating while residents drain.
    if (!part.failed) {
        set.insert({part.mem.capacity() - part.committedBytes,
                    part.viewPos});
    }
}

void
ClusterIndex::onPartitionFailed(const Partition &part)
{
    free_[part.spec.kind == HwKind::Cpu ? 0 : 1].erase(
        {part.mem.capacity() - part.committedBytes, part.viewPos});
    syncEmpty(part);
}

void
ClusterIndex::onPartitionRestored(const Partition &part)
{
    free_[part.spec.kind == HwKind::Cpu ? 0 : 1].insert(
        {part.mem.capacity() - part.committedBytes, part.viewPos});
    syncEmpty(part);
}

void
ClusterIndex::onInstanceAdded(const Instance &inst)
{
    Partition &p = *inst.primary;
    Bytes oldFree = p.mem.capacity() - p.committedBytes;
    p.committedBytes += inst.model.weightBytes() + inst.kvTarget;
    moveFreeKey(p, oldFree);
}

void
ClusterIndex::onKvTargetChanged(const Instance &inst, Bytes oldTarget,
                                Bytes newTarget)
{
    if (!inst.live())
        return;
    Partition &p = *inst.primary;
    Bytes oldFree = p.mem.capacity() - p.committedBytes;
    p.committedBytes += newTarget;
    p.committedBytes -= oldTarget;
    moveFreeKey(p, oldFree);
}

void
ClusterIndex::uncount(Instance &inst)
{
    Partition &p = *inst.primary;
    Bytes oldFree = p.mem.capacity() - p.committedBytes;
    p.committedBytes -= inst.model.weightBytes() + inst.kvTarget;
    moveFreeKey(p, oldFree);
    if (inst.state() == InstanceState::Active)
        active_.erase(&inst);
}

void
ClusterIndex::activate(Instance &inst, Seconds now)
{
    inst.setState(InstanceState::Active);
    inst.activeAt = now;
    active_.insert(&inst);
    ++liveCount_;
    liveActiveAtSum_ += inst.activeAt;
    // Resizes can execute while the load streams (admissions during
    // the load raise the target); the report's scaling sum only sees
    // an instance once activeAt >= 0, so fold pre-activation accruals
    // in here.
    scalingSeconds_ += inst.scalingTime;
}

void
ClusterIndex::beginUnloading(Instance &inst)
{
    if (!inst.live())
        panic("ClusterIndex: unloading instance " +
              std::to_string(inst.id) + ", which is not live");
    uncount(inst);
    inst.setState(InstanceState::Unloading);
}

void
ClusterIndex::retire(Instance &inst)
{
    if (inst.live())
        uncount(inst);
    inst.setState(InstanceState::Reclaimed);
    if (inst.activeAt < 0)
        return;
    --liveCount_;
    liveActiveAtSum_ -= inst.activeAt;
    retiredUptime_ +=
        std::max<Seconds>(inst.busyTime + inst.scalingTime, 1e-9);
}

double
ClusterIndex::scalingOverheadFraction(Seconds now) const
{
    double uptime = retiredUptime_ +
                    (static_cast<double>(liveCount_) * now -
                     liveActiveAtSum_);
    return uptime > 0 ? scalingSeconds_ / uptime : 0.0;
}

double
ClusterIndex::kvUtilizationNow() const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const Instance *inst : active_) {
        if (inst->loadSize() == 0)
            continue;
        sum += inst->kv.utilization();
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

std::string
ClusterIndex::audit() const
{
    std::ostringstream err;
    std::vector<const Instance *> activeScan;
    // Per-partition committed totals and free-set keys.
    std::size_t freeCount[2] = {free_[0].size(), free_[1].size()};
    std::size_t partCount[2] = {0, 0};
    std::size_t emptyCount[2] = {0, 0};
    for (const auto &node : nodes_) {
        for (const auto &part : node->partitions()) {
            const Partition &p = *part;
            Bytes scan = 0;
            for (const Instance *inst : p.instances) {
                if (inst->state() == InstanceState::Active)
                    activeScan.push_back(inst);
                if (inst->live())
                    scan += inst->model.weightBytes() + inst->kvTarget;
            }
            if (scan != p.committedBytes) {
                err << "partition " << p.node << "/" << p.index
                    << ": committedBytes " << p.committedBytes
                    << " != scan " << scan;
                return err.str();
            }
            int k = p.spec.kind == HwKind::Cpu ? 0 : 1;
            bool empty = p.openForPlacement() && p.instances.empty();
            if (empty_[k].count(p.viewPos) != (empty ? 1u : 0u)) {
                err << "partition " << p.node << "/" << p.index
                    << ": empty-set membership is not "
                    << (empty ? "true" : "false");
                return err.str();
            }
            emptyCount[k] += empty ? 1 : 0;
            if (p.failed) {
                // Fenced partitions must be absent from the free sets.
                FreeKey key{p.mem.capacity() - p.committedBytes,
                            p.viewPos};
                if (free_[k].count(key)) {
                    err << "partition " << p.node << "/" << p.index
                        << ": failed but still in the free index";
                    return err.str();
                }
                continue;
            }
            ++partCount[k];
            FreeKey key{p.mem.capacity() - p.committedBytes, p.viewPos};
            if (!free_[k].count(key)) {
                err << "partition " << p.node << "/" << p.index
                    << ": free key (" << key.first << ", " << key.second
                    << ") missing from the index";
                return err.str();
            }
            if (partitionAt(p.viewPos) != &p) {
                err << "partition " << p.node << "/" << p.index
                    << ": viewPos " << p.viewPos << " does not map back";
                return err.str();
            }
        }
    }
    for (int k = 0; k < 2; ++k) {
        if (freeCount[k] != partCount[k]) {
            err << "free set " << k << " has " << freeCount[k]
                << " entries, cluster has " << partCount[k];
            return err.str();
        }
        if (empty_[k].size() != emptyCount[k]) {
            err << "empty set " << k << " has " << empty_[k].size()
                << " entries, cluster has " << emptyCount[k];
            return err.str();
        }
    }
    // Active registry vs the residents' scan, in id order.
    std::sort(activeScan.begin(), activeScan.end(), idLess);
    auto it = active_.begin();
    for (const Instance *inst : activeScan) {
        if (it == active_.end() || *it != inst) {
            err << "active registry diverges at instance " << inst->id;
            return err.str();
        }
        ++it;
    }
    if (it != active_.end()) {
        err << "active registry holds stale instance " << (*it)->id;
        return err.str();
    }
    return {};
}

} // namespace slinfer

#include "engine/node.hh"

#include <algorithm>

#include "engine/instance.hh"

namespace slinfer
{

Partition::Partition(NodeId node_, int index_, HardwareSpec spec_)
    : node(node_), index(index_), spec(std::move(spec_)),
      mem(spec.memCapacity)
{
}

void
Partition::addInstance(Instance *inst)
{
    instances.push_back(inst);
    ++admitEpoch;
}

void
Partition::removeInstance(Instance *inst)
{
    instances.erase(std::remove(instances.begin(), instances.end(), inst),
                    instances.end());
    ++admitEpoch;
}

bool
Partition::openForPlacement() const
{
    return exclusiveHolder == nullptr && !failed;
}

Bytes
Partition::liveBytes() const
{
    Bytes live = 0;
    for (const Instance *inst : instances) {
        if (inst->state() == InstanceState::Reclaimed)
            continue;
        if (inst->memResident)
            live += inst->model.weightBytes();
        live += inst->kv.usedBytes();
    }
    return live;
}

Node::Node(NodeId id, const HardwareSpec &spec, int numPartitions)
    : id_(id), spec_(spec)
{
    if (numPartitions <= 1) {
        parts_.push_back(std::make_unique<Partition>(id, 0, spec));
        return;
    }
    double frac = 1.0 / numPartitions;
    for (int i = 0; i < numPartitions; ++i) {
        parts_.push_back(std::make_unique<Partition>(
            id, i, scaledPartition(spec, frac)));
    }
}

bool
Node::failed() const
{
    for (const auto &p : parts_) {
        if (p->failed)
            return true;
    }
    return false;
}

void
Node::setFailed(bool failed)
{
    for (auto &p : parts_)
        p->failed = failed;
}

bool
Node::inUse() const
{
    for (const auto &p : parts_) {
        if (!p->instances.empty() || p->exclusiveHolder)
            return true;
    }
    return false;
}

Bytes
Node::memUsed() const
{
    Bytes used = 0;
    for (const auto &p : parts_)
        used += p->mem.used();
    return used;
}

Bytes
Node::memCapacity() const
{
    Bytes cap = 0;
    for (const auto &p : parts_)
        cap += p->mem.capacity();
    return cap;
}

} // namespace slinfer

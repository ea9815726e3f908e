/**
 * @file
 * Cluster nodes and partitions.
 *
 * A Node is one physical CPU or GPU server. Normally it has a single
 * Partition spanning all of its resources; the `sllm+c+s` baseline
 * statically splits each node into two half-partitions (the paper's
 * time-sharing baseline). Instances live on exactly one *primary*
 * partition; exclusive deployments (tensor-parallel 34B, or 13B-on-CPU
 * under the half-partition baseline) may additionally hold other
 * partitions, blocking colocation there.
 */

#ifndef SLINFER_ENGINE_NODE_HH
#define SLINFER_ENGINE_NODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/memory_manager.hh"
#include "hw/hardware_spec.hh"

namespace slinfer
{

class Instance;

/** One schedulable resource slice (whole node or static half). */
struct Partition
{
    Partition(NodeId node, int index, HardwareSpec spec);

    NodeId node;
    int index;
    HardwareSpec spec;
    MemoryManager mem;

    /** Instances whose primary residence is this partition. */
    std::vector<Instance *> instances;
    /** Instance holding this partition exclusively (nullptr if none). */
    Instance *exclusiveHolder = nullptr;
    /** True while an iteration is executing on this partition. */
    bool busy = false;
    /**
     * Fenced by a node-failure intervention: closed for placement and
     * absent from the free-capacity index until restored
     * (ControllerBase::failNode / restoreNode).
     */
    bool failed = false;
    /**
     * Straggler multiplier applied to every perf-model iteration
     * latency executed here (node-degrade intervention;
     * ControllerBase::degradeNode). 1.0 is healthy — the multiply by
     * exactly 1.0 is bit-exact, so undegraded runs are unchanged.
     */
    double perfFactor = 1.0;
    /**
     * Sim time of the most recent node-failure that fenced this
     * partition; < 0 if it never failed. Read by the failover
     * exclusion policy (ResilienceConfig::failoverExclusion) to keep
     * placements off recently failed hardware.
     */
    Seconds lastFailedAt = -1.0;

    /**
     * Running optimistic budget: weights + committed KV target of
     * every non-Unloading/non-Reclaimed resident, maintained
     * incrementally by ClusterIndex at instance registration, KV
     * target changes and unload transitions. Integer arithmetic, so
     * the running value is exactly a scan of the residents
     * (ClusterIndex::auditAgainst checks it).
     */
    Bytes committedBytes = 0;
    /** Position in the controller's canonical cpu-first partition
     *  view; doubles as the free-capacity index tie-breaker so the
     *  indexed placement walk visits equal-free partitions in the
     *  same order as a best-fit scan in view order. */
    std::uint32_t viewPos = 0;

    /** Whether a new instance of another model may be placed here. */
    bool openForPlacement() const;

    /**
     * Bytes actually in use: resident weights plus live KV pages of
     * the hosted instances. This is the utilization the paper plots
     * (allocations can be much larger, e.g. the baselines pin whole
     * nodes).
     */
    Bytes liveBytes() const;
};

class Node
{
  public:
    Node(NodeId id, const HardwareSpec &spec, int numPartitions);

    NodeId id() const { return id_; }
    const HardwareSpec &spec() const { return spec_; }
    bool isCpu() const { return spec_.kind == HwKind::Cpu; }

    std::vector<std::unique_ptr<Partition>> &partitions()
    {
        return parts_;
    }
    const std::vector<std::unique_ptr<Partition>> &partitions() const
    {
        return parts_;
    }

    /** True if any partition hosts a live instance. */
    bool inUse() const;

    /** True while fenced by a node-failure intervention. */
    bool failed() const;
    /** Fence / reopen every partition (index updates are the
     *  controller's job; see ControllerBase::failNode). */
    void setFailed(bool failed);

    /** Physical bytes used across partitions. */
    Bytes memUsed() const;
    Bytes memCapacity() const;

  private:
    NodeId id_;
    HardwareSpec spec_;
    std::vector<std::unique_ptr<Partition>> parts_;
};

} // namespace slinfer

#endif // SLINFER_ENGINE_NODE_HH

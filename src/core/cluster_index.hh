/**
 * @file
 * Incrementally maintained cluster indices (DESIGN.md, "Cluster
 * indices") — the controller's answer to scan-per-decision cost.
 *
 * Before this component, every placement, autoscaling and report
 * query re-walked the cluster: `allPartitions()` materialized fresh
 * vectors per call, `MemorySubsystem::committed()` summed a
 * partition's instances per admission check, and the report-time
 * aggregates walked the entire `instancePool_` (which only ever
 * grows — a serverless run churns through far more instances than
 * are ever live at once). At fleet scale (6400 models on 800
 * partitions) those walks dominate controller time.
 *
 * The index maintains, updated at the transitions that change them:
 *
 *  - **Partition views**: the canonical cpu-first / gpu-only
 *    partition orderings, built once (topology is fixed after
 *    cluster construction) and handed out by const reference.
 *  - **Free-capacity index**: per hardware kind, an ordered set of
 *    (free optimistic bytes, view position) — `free = capacity -
 *    committedBytes`, with `committedBytes` the integer running
 *    total of `weights + kvTarget` over non-Unloading residents.
 *    Placement candidate selection becomes an ordered lower_bound
 *    plus a short ascending walk instead of a full cluster scan; the
 *    (free, viewPos) ordering makes the walk visit candidates in
 *    exactly the order a best-fit scan's comparison would select
 *    them (see selectPlacement in controller.cc).
 *  - **Active-instance registry**: the id-ordered set of Active
 *    instances. KV-utilization sampling walks this set in id order —
 *    the same elements in the same order as a scan of the instance
 *    pool, so the sampled double is bit-identical — at O(live)
 *    instead of O(ever-created).
 *  - **Running aggregates**: busy seconds per hardware kind, scaling
 *    seconds, and the uptime components (retired uptime, live count,
 *    sum of live activation times), making busy/scaling-overhead
 *    queries O(1).
 *
 * The index is the only implementation of these queries. Two checks
 * keep it honest: `auditAgainst` plus pool-walk references in the
 * fuzz test (tests/test_cluster_index.cc) after every transition of
 * a randomized churn, and the golden report digests
 * (tests/golden/reports.txt), which pin every placement decision's
 * effect on the catalog reports.
 */

#ifndef SLINFER_CORE_CLUSTER_INDEX_HH
#define SLINFER_CORE_CLUSTER_INDEX_HH

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/instance.hh"
#include "engine/node.hh"

namespace slinfer
{

class ClusterIndex
{
  public:
    explicit ClusterIndex(
        const std::vector<std::unique_ptr<Node>> &nodes);

    /** Rebuild the views and free sets from scratch (topology hook;
     *  the committed totals of live partitions are preserved). */
    void rebuildTopology();

    // --- cached partition views -------------------------------------
    /** All partitions, CPU nodes first then GPU (cpuFirst) or GPU
     *  only, in id order. Stable for the run; never reallocated. */
    const std::vector<Partition *> &
    partitions(bool cpuFirst) const
    {
        return cpuFirst ? cpuFirst_ : gpuOnly_;
    }

    /** First CPU partition's hardware spec (nullptr without CPUs). */
    const HardwareSpec *cpuSpec() const { return cpuSpec_; }
    /** First GPU partition's memory capacity (0 without GPUs). */
    Bytes gpuPartitionCapacity() const { return gpuCap_; }

    // --- free-capacity placement index ------------------------------
    /** (free bytes, viewPos) — ordered so an ascending walk is the
     *  best-fit order. */
    using FreeKey = std::pair<Bytes, std::uint32_t>;

    const std::set<FreeKey> &
    freeSet(HwKind kind) const
    {
        return free_[kind == HwKind::Cpu ? 0 : 1];
    }

    Partition *
    partitionAt(std::uint32_t viewPos) const
    {
        return cpuFirst_[viewPos];
    }

    // --- maintenance hooks (called at state transitions) ------------
    /** A new instance was registered on its primary partition. */
    void onInstanceAdded(const Instance &inst);
    /** kvTarget is about to change from `oldTarget` to `newTarget`
     *  while the instance still counts toward the budget. */
    void onKvTargetChanged(const Instance &inst, Bytes oldTarget,
                           Bytes newTarget);
    /** The instance left the optimistic budget (→ Unloading). */
    void onInstanceUnloading(const Instance &inst);
    /** The instance became Active at `activeAt`. */
    void onInstanceActivated(Instance &inst);
    /** Active → Unloading: drop from the active registry. */
    void onInstanceDeactivated(Instance &inst);
    /** Unloading → Reclaimed: retire its uptime contribution. */
    void onInstanceReclaimed(const Instance &inst);

    /** The partition was fenced by a node-failure intervention: drop
     *  its free key so placement walks never visit it. `part.failed`
     *  must already be set (moveFreeKey consults it). */
    void onPartitionFailed(const Partition &part);
    /** The partition reopened: reinsert its current free key. */
    void onPartitionRestored(const Partition &part);

    /** An iteration of `dur` seconds started on `kind` hardware. */
    void
    addBusySeconds(HwKind kind, Seconds dur)
    {
        busySeconds_[kind == HwKind::Cpu ? 0 : 1] += dur;
    }

    /** A KV resize blocked its instance for `dur` seconds. */
    void addScalingSeconds(Seconds dur) { scalingSeconds_ += dur; }

    // --- O(1) / O(live) queries -------------------------------------
    /** Total iteration-execution seconds on `kind` hardware. */
    double
    busySeconds(HwKind kind) const
    {
        return busySeconds_[kind == HwKind::Cpu ? 0 : 1];
    }

    /** Fraction of total instance uptime spent blocked on resizes
     *  (the running-aggregate form of the report's pool scan,
     *  ControllerBase::scalingOverheadFraction). */
    double scalingOverheadFraction(Seconds now) const;

    /** Mean KV allocation utilization across live loaded instances,
     *  walking the id-ordered active registry — element-for-element
     *  a pool scan, so the result is bit-identical. */
    double kvUtilizationNow() const;

    /** Id-ordered Active instances (tests / stats). */
    const std::set<Instance *, bool (*)(const Instance *,
                                        const Instance *)> &
    activeInstances() const
    {
        return active_;
    }

    // --- consistency audit (fuzz test / debugging) ------------------
    /**
     * Cross-check every index against scans over `pool`:
     * per-partition committed totals, free-set membership and keys,
     * and the active registry. Returns an empty string when
     * consistent, else a description of the first mismatch.
     */
    std::string auditAgainst(
        const std::vector<std::unique_ptr<Instance>> &pool) const;

  private:
    static bool
    idLess(const Instance *a, const Instance *b)
    {
        return a->id < b->id;
    }

    /** True while the instance counts toward the optimistic budget. */
    static bool
    counted(InstanceState s)
    {
        return s != InstanceState::Unloading &&
               s != InstanceState::Reclaimed;
    }

    void moveFreeKey(const Partition &part, Bytes oldFree);

    const std::vector<std::unique_ptr<Node>> &nodes_;
    std::vector<Partition *> cpuFirst_;
    std::vector<Partition *> gpuOnly_;
    const HardwareSpec *cpuSpec_ = nullptr;
    Bytes gpuCap_ = 0;

    /** [0] = CPU partitions, [1] = GPU partitions. */
    std::set<FreeKey> free_[2];

    std::set<Instance *, bool (*)(const Instance *, const Instance *)>
        active_{&ClusterIndex::idLess};

    double busySeconds_[2] = {0.0, 0.0};
    double scalingSeconds_ = 0.0;
    /** Σ max(busy + scaling, 1e-9) over reclaimed instances. */
    double retiredUptime_ = 0.0;
    /** Instances with activeAt >= 0 that are not yet Reclaimed. */
    std::size_t liveCount_ = 0;
    /** Σ activeAt over those instances. */
    double liveActiveAtSum_ = 0.0;
};

} // namespace slinfer

#endif // SLINFER_CORE_CLUSTER_INDEX_HH

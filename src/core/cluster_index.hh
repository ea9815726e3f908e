/**
 * @file
 * Incrementally maintained cluster indices (DESIGN.md, "Cluster
 * indices") — the controller's answer to scan-per-decision cost.
 *
 * Before this component, every placement, autoscaling and report
 * query re-walked the cluster: `allPartitions()` materialized fresh
 * vectors per call, `MemorySubsystem::committed()` summed a
 * partition's instances per admission check, and the report-time
 * aggregates walked every instance the run ever created (a serverless
 * run churns through far more instances than are ever live at once).
 * At fleet scale (6400 models on 800 partitions) those walks dominate
 * controller time.
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
 *  - **Empty-partition sets**: per hardware kind, the view positions
 *    of the partitions that are open for placement and host no
 *    instance, ascending — the sllm baseline's first-empty search in
 *    view order becomes the first element that passes its checks.
 *  - **Active-instance registry**: the id-ordered set of Active
 *    instances. KV-utilization sampling walks this set in id order,
 *    at O(live) instead of O(ever-created).
 *  - **Running aggregates**: busy seconds per hardware kind, scaling
 *    seconds, and the uptime components (retired uptime, live count,
 *    sum of live activation times), making busy/scaling-overhead
 *    queries O(1). A retired instance's terms live on only here: the
 *    controller frees the instance once it is unregistered.
 *
 * The index also performs the instance lifecycle transitions
 * (activate, beginUnloading, retire), so the state and the indices
 * cannot drift apart.
 *
 * The controller answers its placement, autoscaling, sampling and
 * report queries from these structures. Two checks keep the index
 * honest: `audit` plus scan references in the fuzz test
 * (tests/test_cluster_index.cc) through a randomized churn, and the
 * golden report digests (tests/golden/reports.txt), which pin every
 * placement decision's effect on the catalog reports.
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

    /** View positions of the open partitions of `kind` that host no
     *  instance, ascending (maintained by syncEmpty). */
    const std::set<std::uint32_t> &
    emptySet(HwKind kind) const
    {
        return empty_[kind == HwKind::Cpu ? 0 : 1];
    }

    Partition *
    partitionAt(std::uint32_t viewPos) const
    {
        return cpuFirst_[viewPos];
    }

    // --- instance lifecycle (DESIGN.md, "Instance lifecycle") -------
    /*
     * Every lifecycle state change goes through these, on the static
     * path (ControllerBase) and the elastic one (MemorySubsystem)
     * alike: each makes the transition and every index update it
     * implies, so no caller can update one without the other.
     */
    /** A new (Loading) instance was registered on its primary
     *  partition: it joins the partition's optimistic budget. */
    void onInstanceAdded(const Instance &inst);
    /** kvTarget is about to change from `oldTarget` to `newTarget`;
     *  the budget follows while the instance is live(). */
    void onKvTargetChanged(const Instance &inst, Bytes oldTarget,
                           Bytes newTarget);
    /** Loading → Active at `now`: stamps activeAt and joins the active
     *  registry and the uptime aggregates. */
    void activate(Instance &inst, Seconds now);
    /** Loading/Active → Unloading: leaves the optimistic budget and
     *  the active registry; memory is released at retire. */
    void beginUnloading(Instance &inst);
    /** → Reclaimed: retires the uptime contribution. A live instance
     *  (a cold-start load aborted while parked) leaves the budget
     *  first, with no Unloading state in between. */
    void retire(Instance &inst);

    /** Re-file the partition in the empty sets after its residents,
     *  exclusiveHolder or failed flag changed. */
    void syncEmpty(const Partition &part);

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

    /** Fraction of total instance uptime spent blocked on KV resizes
     *  (Fig. 31), across every instance activated so far. */
    double scalingOverheadFraction(Seconds now) const;

    /** Mean KV allocation utilization across live loaded instances
     *  (Fig. 31), walking the id-ordered active registry. */
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
     * Cross-check every index against scans of the partitions'
     * resident lists: per-partition committed totals, free-set
     * membership and keys, the empty sets, and the active registry.
     * Returns an empty string when consistent, else a description of
     * the first mismatch.
     */
    std::string audit() const;

  private:
    static bool
    idLess(const Instance *a, const Instance *b)
    {
        return a->id < b->id;
    }

    void moveFreeKey(const Partition &part, Bytes oldFree);
    /** Take a live instance off its partition's budget and out of the
     *  active registry (the shared half of beginUnloading/retire). */
    void uncount(Instance &inst);

    const std::vector<std::unique_ptr<Node>> &nodes_;
    std::vector<Partition *> cpuFirst_;
    std::vector<Partition *> gpuOnly_;
    const HardwareSpec *cpuSpec_ = nullptr;
    Bytes gpuCap_ = 0;

    /** [0] = CPU partitions, [1] = GPU partitions. */
    std::set<FreeKey> free_[2];
    /** [0] = CPU, [1] = GPU: see emptySet. */
    std::set<std::uint32_t> empty_[2];

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

/**
 * @file
 * Hazard-aware memory subsystem (paper §VII), one per partition.
 *
 * Demand (Eq. 2): an instance requires
 *     M_require = C * max( sum_r (I_r + max(O_r, O_bar)), L_min )
 * with L_min the model's maximum context length, and is recommended
 * M_require * (1 + w) with watermark w (default 25%): scale up early to
 * the recommendation, scale down lazily only when the recommendation
 * (again inflated by w) falls below the current allocation.
 *
 * Orchestration combines an *optimistic* budget — the sum of every
 * instance's weights plus its committed KV target, checked at admission
 * time — with *pessimistic* execution tracking: the partition's physical
 * ledger holds the transient old+new allocations of in-flight resizes,
 * and a scale-up whose transient would not physically fit is parked in
 * a reservation station and re-attempted whenever memory is freed.
 * The MemoryManager's tryHold() is therefore never allowed to fail,
 * which a property test drives with random scaling storms.
 *
 * The optimistic budget is maintained incrementally: every kvTarget
 * mutation goes through this class and every load/unload transition
 * through the cluster index (core/cluster_index.hh), which keep
 * `Partition::committedBytes` and the free-capacity index current, so
 * `committed()` is O(1) on the admission hot path.
 *
 * Per-op callbacks (`beginLoad`/`beginUnload`) are stored in a
 * small-buffer `DoneFn` (the 16-byte instantiation of the event
 * arena's inline-callback template) instead of `std::function`, so
 * parking an op in the reservation station allocates nothing and the
 * completion events the ops schedule stay within the arena's inline
 * payload window.
 */

#ifndef SLINFER_CORE_MEMORY_SUBSYSTEM_HH
#define SLINFER_CORE_MEMORY_SUBSYSTEM_HH

#include <deque>
#include <functional>
#include <set>
#include <vector>

#include "core/cluster_index.hh"
#include "engine/instance.hh"
#include "engine/node.hh"
#include "obs/anatomy.hh"
#include "obs/counters.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"

namespace slinfer
{

class MemorySubsystem
{
  public:
    /** Per-op completion callback: inline storage sized for the
     *  controller's `[this, inst]` lambdas, heap fallback beyond. */
    using DoneFn = BasicInlineCallback<16>;

    MemorySubsystem(Simulator &sim, Partition &partition, double watermark,
                    std::function<void()> notify, ClusterIndex &index,
                    obs::Counters *ctr = nullptr,
                    obs::TraceRecorder *trace = nullptr,
                    obs::PhaseProfiler *prof = nullptr,
                    obs::AnatomyLedger *anatomy = nullptr);

    /** Optimistic budget: weights + committed KV target of every live
     *  instance on the partition (an unloading instance's final
     *  footprint is zero; the pessimistic execution checks cover its
     *  physical release). O(1): the index's running partition total. */
    Bytes committed() const { return part_.committedBytes; }

    Bytes capacity() const { return part_.mem.capacity(); }

    /** Eq. 2 requirement in bytes, optionally with one extra request. */
    Bytes requiredBytes(const Instance &inst, const Request *extra,
                        double avgOut) const;

    /** Admission plan for adding `req` to `inst`. */
    struct Plan
    {
        bool ok = false;
        Bytes target = 0;        ///< committed KV target after admission
        bool needsResize = false;
        bool compromise = false; ///< accepted at M_require (§VII-D)
    };
    Plan planAdmit(const Instance &inst, const Request &req,
                   double avgOut) const;

    /** Commit a successful plan (may issue an asynchronous resize). */
    void commitPlan(Instance &inst, const Plan &plan);

    /**
     * Optimistic placement check for a new instance. Placement keeps a
     * small reserve (kPlacementReserve) of the partition unpledged so
     * colocated instances can absorb output-length underestimations
     * without evictions; admissions and emergency grows may still use
     * the full capacity.
     */
    bool canPlace(Bytes weights, Bytes kvInit) const;

    /** Fraction of capacity new placements may pledge. */
    static constexpr double kPlacementReserve = 0.08;

    /**
     * Begin a cold-start load: physically holds weights + the initial
     * KV target (parking in the reservation station if the transient
     * does not fit), then runs the load latency; `loaded` fires when
     * the instance is Active. Accepts any nullary callable (or
     * nullptr) by small-buffer conversion.
     */
    void beginLoad(Instance &inst, DoneFn loaded);

    /** Begin reclaiming: unload latency, then memory release. */
    void beginUnload(Instance &inst, DoneFn unloaded);

    /** Lazy scale-down hook, called when a request completes.
     *  Returns true when a scale-down was committed (the optimistic
     *  budget dropped — a placement-relevant event). */
    bool onRequestComplete(Instance &inst, double avgOut);

    /** Outcome of the underestimation path (§VII-D). */
    enum class GrowResult
    {
        Sufficient, ///< growth already committed and executing/arrived
        Executing,  ///< a new resize is running; progress after it lands
        Parked,     ///< committed but waiting in the reservation station
        Rejected,   ///< does not fit the optimistic budget
    };

    /**
     * Underestimation path (§VII-D): try to grow to fit actual usage,
     * first to the recommendation, then compromised to the bare
     * requirement. On Parked/Rejected the caller should evict the
     * longest-headroom request so the instance keeps making progress.
     */
    GrowResult tryEmergencyGrow(Instance &inst, double avgOut);

    /**
     * Intervention hook (drain sweeps): abort `inst`'s cold-start load
     * if it is still parked in the reservation station. A parked load
     * never held memory, so the instance retires directly (Loading →
     * Reclaimed with no unload latency); executing ops are untouched
     * and settle normally. Returns true when a parked load was
     * aborted — the caller must then unregister the instance.
     */
    bool abortParkedLoad(Instance &inst);

    /** Reservation-station occupancy (observability for tests). */
    std::size_t parkedOps() const { return station_.size(); }

    /** Cumulative number of resize operations issued (Fig. 31). */
    std::uint64_t resizeOps() const { return resizeOps_; }

  private:
    enum class OpKind { Resize, Load };
    struct Op
    {
        OpKind kind;
        Instance *inst;
        DoneFn done; ///< only for Load
    };

    /** The one funnel for kvTarget mutations: keeps the partition's
     *  running committed total and the free-capacity index honest. */
    void setKvTarget(Instance &inst, Bytes target);

    void issueResize(Instance &inst);
    bool tryExecute(Op &op);
    void finishResize(Instance &inst, Seconds started);
    void drainStation();

    Simulator &sim_;
    Partition &part_;
    double watermark_;
    std::function<void()> notify_;
    ClusterIndex &index_;
    /** Flight-recorder sinks (any may be null = off). */
    obs::Counters *ctr_;
    obs::TraceRecorder *trace_;
    obs::PhaseProfiler *prof_;
    obs::AnatomyLedger *anat_;
    std::deque<Op> station_;
    /** Instances with a parked (not yet executing) resize. */
    std::set<InstanceId> parkedResize_;
    std::uint64_t resizeOps_ = 0;
};

} // namespace slinfer

#endif // SLINFER_CORE_MEMORY_SUBSYSTEM_HH

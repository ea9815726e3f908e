/**
 * @file
 * Token-level scheduler (paper §VI-A).
 *
 * One TokenScheduler drives one partition. At each cycle it selects one
 * instance and runs exactly one iteration — the prefill of a single
 * request or one decode step for the instance's whole batch — then
 * repeats, keeping the node busy with no idle gaps while work exists.
 *
 * Two selection policies:
 *  - Headroom (SLINFER): the instance whose most urgent request has the
 *    smallest headroom (Eq. 1) runs next; within the instance, the
 *    urgent request determines whether a prefill or a decode runs.
 *    Instances keep their minimum deadlines and KV growth exact as
 *    requests join, leave and emit tokens, so a pick never rescans a
 *    queue (DESIGN.md, "Incremental urgency").
 *  - FifoPrefillFirst (vLLM-style, used by the baselines): pending
 *    prefills run before decode steps, in arrival order.
 *
 * Ground-truth iteration latency is the roofline model times lognormal
 * noise; SLINFER's *decisions* elsewhere only ever see the quantifier's
 * interpolated estimates.
 */

#ifndef SLINFER_CORE_TOKEN_SCHEDULER_HH
#define SLINFER_CORE_TOKEN_SCHEDULER_HH

#include <functional>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "core/cluster_index.hh"
#include "engine/instance.hh"
#include "metrics/cluster_stats.hh"
#include "obs/anatomy.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"

namespace slinfer
{

enum class SchedPolicy { Headroom, FifoPrefillFirst };

class TokenScheduler
{
  public:
    struct Callbacks
    {
        /** A request finished all of its tokens. */
        std::function<void(Request *, Instance *)> onRequestDone;
        /** First token out (TTFT known). May be null. */
        std::function<void(Request *, Instance *)> onFirstToken;
        /**
         * PD disaggregation hook: called when a prefill completes on a
         * PrefillOnly instance; return true if the controller took over
         * the request (it will not join the local batch). May be null.
         */
        std::function<bool(Request *, Instance *)> routeAfterPrefill;
        /** KV allocation too small to make progress on this instance. */
        std::function<void(Instance *)> onKvShortage;
    };

    TokenScheduler(Simulator &sim, Partition &partition, SchedPolicy policy,
                   double noiseSigma, Rng rng, Callbacks cbs,
                   ClusterStats *stats, ClusterIndex *index = nullptr,
                   obs::TraceRecorder *trace = nullptr,
                   obs::AnatomyLedger *anatomy = nullptr);

    /** Start an iteration if the partition is idle and work exists. */
    void kick();

    /** Time the in-flight iteration finishes (== now when idle). */
    Seconds busyUntil() const { return busyUntil_; }

    /** `inst` is about to be freed: an iteration of it still in
     *  flight runs out its duration without touching it. */
    void
    forget(const Instance &inst)
    {
        if (curInst_ == &inst)
            curInst_ = nullptr;
    }

    /** One scheduling decision: the iteration to run next. */
    struct Pick
    {
        Instance *inst = nullptr;
        Request *prefill = nullptr; ///< nullptr selects a decode step
        /** The sort key that won: the candidate's headroom, or under
         *  FifoPrefillFirst a biased arrival time for prefills. */
        double key = std::numeric_limits<double>::infinity();
    };

    /**
     * The iteration `policy` runs next on `partition` at `now`
     * (inst == nullptr when nothing can run). Appends each instance
     * whose KV allocation blocks its work to `shortages`. O(1) per
     * instance: it reads each instance's kept urgency, KV growth and
     * FIFO head (Instance::urgency, decodeGrowth, earliestPrefill)
     * instead of scanning the queues. kick() calls this; Fig. 33's
     * token-level-decision bench times it.
     */
    static Pick pickNext(const Partition &partition, SchedPolicy policy,
                         Seconds now, std::vector<Instance *> &shortages);

  private:
    void runPrefill(Instance *inst, Request *req);
    void runDecode(Instance *inst);
    void finishIteration();
    /** The next iteration's lognormal noise factor, exp(sigma *
     *  normal()) (1.0 when sigma <= 0, drawing nothing). */
    double noise();

    Simulator &sim_;
    Partition &part_;
    SchedPolicy policy_;
    double sigma_;
    Callbacks cbs_;
    ClusterStats *stats_;
    /** Feeds the controller's running busy-seconds aggregates. */
    ClusterIndex *index_;
    /** Flight-recorder span sink (null = tracing off). */
    obs::TraceRecorder *trace_;
    /** Latency-anatomy ledger (null = attribution off). */
    obs::AnatomyLedger *anat_;
    Seconds busyUntil_ = 0.0;

    // In-flight iteration state (one iteration per partition at a time).
    /** Null during an iteration when its instance was forgotten. */
    Instance *curInst_ = nullptr;
    Request *curPrefill_ = nullptr;
    std::vector<Request *> curBatch_;
    /**
     * Scratch the finishing iteration swaps curBatch_ into, so its
     * capacity is recycled instead of freed every decode iteration.
     * Only finishIteration touches it, and finishIteration never
     * nests (it only runs from a scheduled event), so reentrant
     * kick()/runDecode() calls from the completion callbacks cannot
     * clobber it.
     */
    std::vector<Request *> doneBatch_;
    /** Scratch for completed-request callbacks, recycled likewise. */
    std::vector<Request *> finished_;

    // The noise stream and its drawn-ahead factors sit last, so the
    // per-iteration fields above share the object's first cache lines.
    /** Next factor noise() hands out, and one past the last drawn. */
    int noiseNext_ = 0;
    int noiseEnd_ = 0;
    Rng rng_;
    /** Noise factors drawn ahead one engine block at a time; noise()
     *  hands them out in order (DESIGN.md, "Noise draws"). */
    double noiseBlock_[Rng::kBlockPairs] = {};
};

} // namespace slinfer

#endif // SLINFER_CORE_TOKEN_SCHEDULER_HH

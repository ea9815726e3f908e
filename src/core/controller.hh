/**
 * @file
 * Cluster controllers.
 *
 * ControllerBase owns the mechanics every serving system in the paper
 * shares: the event-driven instance lifecycle (cold start via the fast
 * loader, keep-alive reclamation), per-partition token schedulers,
 * pending-request queues with proactive TTFT drops, request completion
 * accounting, eviction, and the optional prefill-decode disaggregation
 * plumbing (Table III). It also owns the incrementally maintained
 * cluster indices (core/cluster_index.hh) that keep placement and
 * report/policy queries off the scan-per-decision path.
 *
 * SlinferController implements the paper's scheme: CPU-first routing
 * with profile-based fallback, shadow-validated admission, the
 * watermark memory subsystem, and the dual consolidator (proactive
 * preemption + reactive bin-packing). The baselines live in
 * src/baselines.
 */

#ifndef SLINFER_CORE_CONTROLLER_HH
#define SLINFER_CORE_CONTROLLER_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/cluster_index.hh"
#include "core/config.hh"
#include "core/memory_subsystem.hh"
#include "core/quantifier.hh"
#include "core/shadow_validator.hh"
#include "core/token_scheduler.hh"
#include "metrics/recorder.hh"
#include "obs/obs.hh"

namespace slinfer
{

class Consolidator;

/** Per-deployed-model state. */
struct ModelEntry
{
    ModelSpec spec;
    /** Historical average output length O_bar (EWMA over completions). */
    double avgOutput = 256.0;
    /** Live instances (Loading/Active/Draining). */
    std::vector<Instance *> instances;
    /** Retired by an intervention: requests drop, nothing places. */
    bool retired = false;
};

class ControllerBase
{
  public:
    ControllerBase(Simulator &sim,
                   std::vector<std::unique_ptr<Node>> &nodes,
                   std::vector<ModelSpec> modelSpecs,
                   std::vector<double> initialAvgOutput,
                   ControllerConfig cfg, Recorder &recorder,
                   ClusterStats *stats);
    virtual ~ControllerBase() = default;

    ControllerBase(const ControllerBase &) = delete;
    ControllerBase &operator=(const ControllerBase &) = delete;

    /** Entry point: a request arrives. */
    void submit(Request *req);

    /**
     * Attach the Session's flight recorder (pre-run, before any event
     * fires). Pulls out the nullable sinks the decision paths bump and
     * registers the trace's track names (controller / per-partition
     * cluster threads / per-model request tracks). Sinks are
     * write-only: attaching them cannot change any decision.
     */
    void attachObs(obs::FlightRecorder *fr);

    // --- intervention hooks (Session::inject / timelines) -----------
    /**
     * Fence `node`: its partitions close for placement and leave the
     * free-capacity index, in-flight requests are evicted (they
     * re-queue and migrate elsewhere, recompute-style), and residents
     * unload as soon as their in-flight memory ops settle (a periodic
     * drain sweep retries Loading/resizing instances). Drain-style
     * failure semantics: the memory ledger stays consistent, so the
     * run remains deterministic.
     */
    void failNode(NodeId node);
    /** Reopen a failed node for placement. */
    void restoreNode(NodeId node);
    /**
     * Append a new model to the fleet mid-run; returns its id. The
     * caller supplies the initial O_bar estimate (Session derives it
     * from the scenario dataset).
     */
    ModelId deployModel(const ModelSpec &spec, double initialAvgOutput);
    /**
     * Roll out a new version of `model` in place: evict its in-flight
     * requests (they re-queue) and unload its instances, so subsequent
     * requests cold-start fresh instances.
     */
    void redeployModel(ModelId model);
    /**
     * Retire `model`: drop its queued and in-flight requests and
     * unload its instances; nothing of this model places afterwards.
     * (Cancelling its future arrivals is the Session's half.)
     */
    void retireModel(ModelId model);
    /**
     * Straggler degradation: multiply every perf-model iteration
     * latency on `node` by `factor` (> 1 slows it down). Orthogonal
     * to failNode — a degraded node keeps serving, just slower; the
     * shadow validator does not model the slowdown (an *unmodeled*
     * straggler is the point of the fault).
     */
    void degradeNode(NodeId node, double factor);
    /** Reset `node`'s degradation multiplier to 1 (defined no-op on a
     *  never-degraded node). */
    void recoverNode(NodeId node);
    /**
     * Network brownout: multiply PD prefill→decode KV-transfer times
     * by `factor` fleet-wide (1 restores; exact 1.0 is bit-exact). */
    void setNetFactor(double factor);
    double netFactor() const { return netFactor_; }

    /** Nodes currently fenced by failNode (resilience probes). */
    int failedNodeCount() const { return failedNodes_; }

    /**
     * Streaming replay: invoked whenever a settled request (Completed
     * or Dropped) has left every controller queue, so the Session's
     * pool may recycle its storage. Unset (materialized runs, the
     * default) the controller never reclaims and the maintenance cost
     * is one null test per settle site. Set it before any event fires.
     */
    void
    setReclaimHook(std::function<void(Request *)> hook)
    {
        reclaim_ = std::move(hook);
    }

    /** Queued (pending dispatch) requests per model, including parked
     *  PD decode transfers — Session::sample's queue-depth view. */
    std::vector<std::size_t> pendingPerModel() const;

    const ControllerConfig &config() const { return cfg_; }
    const std::vector<ModelEntry> &models() const { return models_; }
    std::size_t instancesCreated() const { return instancesCreated_; }
    std::size_t evictions() const { return evictions_; }
    std::size_t preemptions() const { return preemptions_; }

    /** The incremental cluster indices (tests / benches). */
    const ClusterIndex &clusterIndex() const { return index_; }
    /** Stable-storage instance pool (index audits in tests). */
    const std::vector<std::unique_ptr<Instance>> &
    instancePool() const
    {
        return instancePool_;
    }

    /** Where dispatch attempts land (observability / tests). */
    struct DispatchStats
    {
        std::size_t admitExisting = 0;
        std::size_t admitPreempt = 0;
        std::size_t admitNew = 0;
        std::size_t rejectShadow = 0;   ///< compute validation failures
        std::size_t rejectMemory = 0;   ///< memory plan failures
        std::size_t rejectNoPlacement = 0;
    };
    const DispatchStats &dispatchStats() const { return dispatchStats_; }

    /** Total iteration-execution seconds on nodes of `kind` (tests).
     *  O(1) running aggregate. */
    double totalBusySeconds(HwKind kind) const;

    /** Fraction of total instance uptime spent blocked on KV resizes
     *  (Fig. 31), across all instances ever created. Exact pool scan
     *  (a report field — byte-stability trumps O(1) for a
     *  once-per-run query); clusterIndex().scalingOverheadFraction()
     *  is the O(1) running-aggregate form. */
    double scalingOverheadFraction() const;

    /** Mean KV allocation utilization across live instances, sampled
     *  now (Fig. 31). O(live) over the id-ordered active registry —
     *  bit-identical to a walk of the instance pool. */
    double kvUtilizationNow() const;

  protected:
    /** Dispatch a fresh (or re-queued) request; false leaves it queued. */
    virtual bool tryDispatch(Request *req) = 0;
    /** Dispatch a prefilled request to a decode instance (PD mode). */
    virtual bool tryDispatchDecode(Request *req);
    /** Iteration selection policy for this system. */
    virtual SchedPolicy schedPolicy() const = 0;
    /** KV starvation on an instance; grow or evict. */
    virtual void handleKvShortage(Instance *inst) = 0;
    /** Reclaim an idle instance (release memory). */
    virtual void doUnload(Instance *inst) = 0;
    /** Hook invoked after a request completes on `inst`. */
    virtual void onRequestDoneHook(Request *req, Instance *inst);
    /** Hook invoked after deployModel registered model `m`. */
    virtual void onModelDeployed(ModelId m);
    /** Hook invoked once attachObs pulled out the recorder's sinks. */
    virtual void onObsAttached() {}
    /**
     * Drain hook: abort `inst`'s cold-start load if it is still parked
     * in the reservation station (it never held memory, so the
     * instance retires immediately). Default: no station, false.
     */
    virtual bool tryAbortParkedLoad(Instance *inst);

    // --- shared mechanics -------------------------------------------
    TokenScheduler &schedulerFor(Partition *part);
    void kickPartition(Partition *part);

    /** Allocate an Instance object and register it everywhere. */
    Instance *makeInstance(ModelId model, Partition *primary,
                           HardwareSpec execSpec, Bytes kvAlloc,
                           InstanceRole role,
                           std::vector<Partition *> extraHolds,
                           bool staticKv);
    /** Baseline path: hold all memory statically and start the load. */
    void startStaticLoad(Instance *inst);
    /** Release a static instance (unload latency, then memory). */
    void unloadStatic(Instance *inst);
    /** Remove a Reclaimed instance from all registries. */
    void unregisterInstance(Instance *inst);
    void scheduleKeepAlive(Instance *inst);
    void cancelKeepAlive(Instance *inst);

    /** Put the request on `inst`'s prefill queue. */
    void admitTo(Request *req, Instance *inst);
    /** PD mode: join a decode batch directly (KV already resident). */
    bool admitToDecode(Request *req, Instance *inst);

    void queueRequest(Request *req);
    void retryPending();
    /**
     * Record a failed dispatch attempt under the backoff policy:
     * bump the request's failure count, stamp its next permitted
     * attempt, and schedule a retry wakeup. Returns false when the
     * deadline-aware give-up dropped the request instead (its next
     * permitted attempt could only land past the TTFT drop deadline).
     */
    bool armBackoff(Request *req);
    /** Failover exclusion: partition recently failed and still inside
     *  the ResilienceConfig::failoverExclusion window. */
    bool placementExcluded(const Partition *p) const;
    /** Terminate a request as dropped (cancelling its drop timer). */
    void dropRequest(Request *req);
    /** Recompute-style eviction: take `req` off `inst` and re-queue
     *  it with a migration mark (the next host re-prefills). */
    void requeueEvicted(Request *req, Instance *inst);
    /**
     * Take every request off `inst` (prefill queue and decode batch).
     * Evicted requests re-queue with a migration mark (recompute
     * semantics, as the consolidator does); with `drop` they terminate
     * as drops instead (model retirement).
     */
    void evictAllRequests(Instance *inst, bool drop);
    /** Origin bits for Instance::draining (who fenced it). */
    static constexpr unsigned kDrainNodeFail = 1u;
    static constexpr unsigned kDrainInstanceSet = 2u;
    /**
     * Drain one instance for an intervention: evict its requests, then
     * unload it if its memory ops have settled. Returns false when the
     * instance needs a later sweep (an executing load or resize) —
     * marking it draining with `reasonBit` until then.
     */
    bool settleInstance(Instance *inst, bool drop, unsigned reasonBit);
    /** Sweep a fenced node until every resident is unloaded. */
    void drainNodeInstances(Node *node);
    /** Sweep a captured instance set (redeploy/retire) to unload. */
    void drainInstanceSet(std::vector<Instance *> insts, bool drop);
    void requestDone(Request *req, Instance *inst);
    /** Hand `req` to the reclaim hook iff it is settled (Completed or
     *  Dropped) and no pending queue still references it. Call after
     *  every site that settles a request or releases a queue ref. */
    void
    maybeReclaim(Request *req)
    {
        if (reclaim_ && req->queueRefs == 0 &&
            (req->state == RequestState::Completed ||
             req->state == RequestState::Dropped))
            reclaim_(req);
    }
    void evictLongestHeadroom(Instance *inst);
    bool takeAfterPrefill(Request *req, Instance *inst);

    // --- per-model decode pending queues (PD mode) ------------------
    /** Park a prefilled request until a decode slot frees up. */
    void queueDecode(Request *req);
    /** A decode-capacity event touched this model (and, through
     *  partition colocation, its neighbors): re-validate its queue at
     *  the next retry round. */
    void markDecodeDirty(ModelId model);
    /** A cluster-wide event (memory release, load/unload, eviction):
     *  re-validate every model's decode queue. */
    void markAllDecodeDirty();

    /** All partitions, CPU nodes first then GPU, in id order — the
     *  index's cached view. */
    const std::vector<Partition *> &
    allPartitions(bool cpuFirst) const
    {
        return index_.partitions(cpuFirst);
    }

    Simulator &sim_;
    std::vector<std::unique_ptr<Node>> &nodes_;
    std::vector<ModelEntry> models_;
    ControllerConfig cfg_;
    Recorder &recorder_;
    ClusterStats *stats_;
    Rng rng_;
    ClusterIndex index_;

    /** Stable storage: instances are never destroyed mid-run so that
     *  in-flight events can safely reference them. */
    std::vector<std::unique_ptr<Instance>> instancePool_;
    /** Per-partition token schedulers, indexed by Partition::viewPos
     *  (O(1) on the dispatch hot path; created lazily). */
    std::vector<std::unique_ptr<TokenScheduler>> scheds_;

    std::deque<Request *> pending_;
    std::map<RequestId, EventHandle> dropEvents_;

    /** PD mode: prefilled requests awaiting a decode slot, bucketed
     *  per model with global arrival sequence numbers; only models in
     *  the dirty set are re-validated per retry round (decode
     *  admission is deadline-free, so a queue whose relevant state
     *  did not change since its last failure cannot newly pass —
     *  see DESIGN.md, "Cluster indices"). */
    std::vector<std::deque<std::pair<std::uint64_t, Request *>>>
        pendingDecode_;
    std::vector<char> decodeDirty_;
    std::uint64_t decodeSeq_ = 0;
    std::size_t decodePendingCount_ = 0;

    /** Request-storage reclaim hook (streaming replay; may be null). */
    std::function<void(Request *)> reclaim_;

    /** Fleet-wide PD KV-transfer multiplier (NetBrownout). */
    double netFactor_ = 1.0;
    /** Count of currently fenced nodes (graceful-degradation gate). */
    int failedNodes_ = 0;

    std::size_t instancesCreated_ = 0;
    std::size_t evictions_ = 0;
    std::size_t preemptions_ = 0;
    DispatchStats dispatchStats_;

    // Flight-recorder sinks (all nullable; null = off). Shared with
    // the lazily created token schedulers and memory subsystems.
    obs::Counters *ctr_ = nullptr;
    obs::TraceRecorder *trace_ = nullptr;
    obs::PhaseProfiler *prof_ = nullptr;
    obs::AnatomyLedger *anat_ = nullptr;

    /** Request-track pid for a model (trace grouping). */
    static int
    tracePid(ModelId model)
    {
        return obs::kPidModelBase + static_cast<int>(model);
    }
    /** Async end of a request span (complete or dropped). */
    void traceRequestEnd(const Request *req);

  private:
    void retryDecodePending();

    bool inRetry_ = false;
    bool retryAgain_ = false;
    /** Retry-round scratch, recycled across rounds (retryPending is
     *  reentrancy-guarded, so one live round owns them). */
    std::vector<Request *> retryStill_;
    std::vector<std::pair<std::uint64_t, Request *>> decodeRound_;
};

/**
 * The paper's system. See file header.
 */
class SlinferController : public ControllerBase
{
  public:
    SlinferController(Simulator &sim,
                      std::vector<std::unique_ptr<Node>> &nodes,
                      std::vector<ModelSpec> modelSpecs,
                      std::vector<double> initialAvgOutput,
                      ControllerConfig cfg, Recorder &recorder,
                      ClusterStats *stats);
    ~SlinferController() override;

    const Quantifier &quantifier() const { return quant_; }

    /** Mean reservation-station occupancy across partitions (tests). */
    std::size_t parkedOpsNow() const;

    /** Total resize operations issued (Fig. 31). */
    std::uint64_t resizeOps() const;

  protected:
    bool tryDispatch(Request *req) override;
    bool tryDispatchDecode(Request *req) override;
    SchedPolicy schedPolicy() const override;
    void handleKvShortage(Instance *inst) override;
    void doUnload(Instance *inst) override;
    void onRequestDoneHook(Request *req, Instance *inst) override;
    void onModelDeployed(ModelId m) override;
    void onObsAttached() override { shadow_.attachCounters(ctr_); }
    bool tryAbortParkedLoad(Instance *inst) override;

  private:
    friend class Consolidator;

    /** Placement geometry for `req` (Eq. 2 requirement + watermark). */
    struct PlacementDemand
    {
        bool cpuOk = false;
        Bytes weights = 0;
        Bytes require = 0;
        Bytes recommend = 0;
    };
    PlacementDemand placementDemand(const Request &req) const;

    /** A shared-placement candidate for a new instance. */
    struct PlacementChoice
    {
        Partition *part = nullptr;
        Bytes kvInit = 0;
    };
    /** Candidate selection for a new instance of `req`'s model, with
     *  no commitment: an ordered free-capacity lookup plus a short
     *  ascending walk, equivalent to a best-fit scan of every
     *  partition (DESIGN.md, "Cluster indices"). */
    PlacementChoice selectPlacement(const Request &req,
                                    const PlacementDemand &d);
    /** Shared eligibility+shadow check; fills `kvInit` on success. */
    bool placementCandidateOk(Partition *p, const Request &req,
                              const PlacementDemand &d, Bytes &kvInit);

    MemorySubsystem &subsystemFor(Partition *part);
    /** Can this request meet its SLO on the CPU node type at all? */
    bool cpuFeasible(const ModelSpec &spec, const Request &req) const;
    /** True when the model must fall back to exclusive allocation. */
    bool exclusiveOnly(const ModelSpec &spec) const;

    bool tryExistingInstances(Request *req);
    bool tryNewInstance(Request *req);
    bool tryExclusivePlacement(Request *req);
    /**
     * Placement pressure: start unloading idle (keep-alive) instances
     * whose reclamation would make room for this model, so the queued
     * request can place when the release lands. Returns true when at
     * least one reclamation was initiated.
     */
    bool demandReclaimFor(Request *req);
    Seconds partBusyUntil(Partition *part);

    Quantifier quant_;
    ShadowValidator shadow_;
    /** Per-partition memory subsystems, indexed by viewPos. */
    std::vector<std::unique_ptr<MemorySubsystem>> mem_;
    std::unique_ptr<Consolidator> consolidator_;
    /** Instances with a pending parked-grow eviction timeout. */
    std::set<InstanceId> shortageTimeouts_;
};

} // namespace slinfer

#endif // SLINFER_CORE_CONTROLLER_HH

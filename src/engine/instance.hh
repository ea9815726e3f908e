/**
 * @file
 * A model instance: one engine process serving one LLM on one partition,
 * with continuous batching (prefill queue + decode batch) and a paged
 * KV-cache whose allocation the memory subsystem resizes at runtime.
 */

#ifndef SLINFER_ENGINE_INSTANCE_HH
#define SLINFER_ENGINE_INSTANCE_HH

#include <algorithm>
#include <limits>
#include <vector>

#include "engine/kv_cache.hh"
#include "engine/node.hh"
#include "engine/request.hh"
#include "hw/model_spec.hh"
#include "sim/event_queue.hh"

namespace slinfer
{

enum class InstanceState
{
    Loading,   ///< weights streaming in (cold start)
    Active,
    Unloading, ///< keep-alive expired; weights being torn down
    Reclaimed,
};

/** Role under prefill-decode disaggregation (Unified otherwise). */
enum class InstanceRole { Unified, PrefillOnly, DecodeOnly };

class Instance
{
  public:
    Instance(InstanceId id, ModelId modelId, const ModelSpec &model,
             Partition *primary, HardwareSpec execSpec, Bytes kvAlloc);

    const InstanceId id;
    const ModelId modelId;
    const ModelSpec model;
    Partition *const primary;
    /** Extra partitions held exclusively (TP or full-node deployments). */
    std::vector<Partition *> extraHolds;
    /** The hardware view iterations execute with (may be TP-combined). */
    const HardwareSpec execSpec;

    InstanceRole role = InstanceRole::Unified;
    /**
     * Nonzero while an intervention drain (node failure, redeploy,
     * retirement) waits for an executing memory op before unloading.
     * Admission paths skip draining instances so the drain sweep
     * never races new placements. A bitmask of the controller's
     * kDrain* origin bits rather than a bool: a node restore clears
     * only the node-failure bit, so an instance a concurrent
     * redeploy/retire sweep is draining stays fenced.
     */
    unsigned draining = 0;

    PagedKvCache kv;
    /** The allocation the latest committed resize will end at. */
    Bytes kvTarget = 0;
    /** Bytes held directly on the primary partition (static path). */
    Bytes heldPrimaryBytes = 0;

    Seconds createdAt = 0.0;
    Seconds activeAt = -1.0;
    /** Cold-start duration (grace window for requests it admits). */
    Seconds loadDuration = 0.0;
    EventHandle keepAliveEv;

    /** Cumulative seconds spent executing iterations (stats). */
    Seconds busyTime = 0.0;
    /** Cumulative seconds blocked on KV resizes (Fig. 31). */
    Seconds scalingTime = 0.0;

    // These flags share one 8-byte slot with decodeMinDirty_ and
    // state_, the first private data members.
    /** True while a KV resize blocks this instance's iterations. */
    bool resizeInFlight = false;
    /** Static allocation (baselines / exclusive fallback): the KV is
     *  sized once at creation and never resized. */
    bool staticKv = false;
    /**
     * True once the instance's memory (weights + initial KV) is
     * physically held on the partition. A cold-start load parked in
     * the reservation station is not yet resident; KV resizes must not
     * execute before residency (the pending load reads the latest KV
     * target when it finally executes).
     */
    bool memResident = false;

    InstanceState state() const { return state_; }
    /** Loading or Active: the instance counts on its partition (the
     *  optimistic budget, admission bounds and shadow validation). */
    bool live() const
    {
        return state_ == InstanceState::Loading ||
               state_ == InstanceState::Active;
    }
    /** Change the lifecycle state (bumps the partition's admission
     *  epoch: a state change can drop the instance from a bound).
     *  The simulator's transitions go through ClusterIndex (activate,
     *  beginUnloading, retire); tests may set a state directly. */
    void setState(InstanceState s);

    /** Admitted requests whose prefill has not run yet. */
    const std::vector<Request *> &prefillQueue() const
    {
        return prefillQueue_;
    }
    /** Requests in the continuous decode batch. */
    const std::vector<Request *> &decodeBatch() const
    {
        return decodeBatch_;
    }

    /*
     * The queues change only through the methods below. They keep the
     * running context sums and the scheduling facts urgency(),
     * decodeGrowth() and earliestPrefill() read exact, and bump the
     * primary partition's admission epoch on every join and leave
     * (DESIGN.md, "Cached admission bounds" and "Incremental
     * urgency"). A queued request's deadline and context, and a decode
     * member's KV reservation, change only through them.
     */
    /** Append `req` to the prefill queue. */
    void enqueuePrefill(Request *req);
    /** Append `req` to the decode batch. */
    void joinDecode(Request *req);
    /** Remove a request from whichever queue holds it. */
    void removeRequest(Request *req);
    /** Emit one token of `req`, which waits in the prefill queue. */
    void notePrefillToken(Request *req, Seconds t);
    /**
     * Emit one token of `req`, which is in the decode batch. The caller
     * has reserved tokenGrowth(*req) in `kv`; this grows the request's
     * reservation to match. Leaves the batch's minimum deadline dirty
     * until endDecodeStep() or the next urgency() query.
     */
    void noteDecodeToken(Request *req, Seconds t);
    /**
     * Close a decode step. `minDeadline` is the minimum next-token
     * deadline over the `folded` batch members the step visited and
     * kept, stalled ones included. It becomes the batch minimum only
     * when those members are the whole batch: a request that joined
     * mid-step leaves the value dirty instead.
     */
    void endDecodeStep(Seconds minDeadline, int folded);

    /**
     * KV tokens `req`'s next decode token needs beyond its reservation:
     * max(0, roundedTokens(contextLen() + 1) - kvReserved). The
     * reservation is block-rounded, so the growth is nonzero only when
     * the next token overflows it, and roundedTokens runs once a block.
     */
    static Tokens tokenGrowth(const Request &req)
    {
        Tokens next = req.contextLen() + 1;
        return next > req.kvReserved
                   ? PagedKvCache::roundedTokens(next) - req.kvReserved
                   : 0;
    }

    /** Decode batch size ("bs" in the paper's consolidation figures). */
    int batchSize() const
    {
        return static_cast<int>(decodeBatch_.size());
    }

    /** All requests currently owned (prefill queue + decode batch). */
    int loadSize() const
    {
        return static_cast<int>(prefillQueue_.size() + decodeBatch_.size());
    }

    /** Sum of context lengths across the decode batch (O(1)). */
    Tokens totalContext() const { return decodeCtx_; }

    /** Sum of context lengths across the prefill queue (O(1)). */
    Tokens prefillContext() const { return prefillCtx_; }

    /** Average context length of the decode batch (>= 1, O(1)). */
    Tokens avgContextLen() const;

    /** True when the instance can run an iteration right now. */
    bool runnable() const;

    /** The next-token urgency of both queues (paper Eq. 1). */
    struct Urgency
    {
        /** The prefill queue's first request of minimum headroom
         *  (nullptr when the queue is empty). */
        Request *prefill = nullptr;
        /** Its headroom (+inf when the prefill queue is empty). */
        Seconds prefillHeadroom = std::numeric_limits<Seconds>::infinity();
        /** Minimum headroom over the decode batch (+inf when empty). */
        Seconds decodeHeadroom = std::numeric_limits<Seconds>::infinity();
    };

    /**
     * Urgency at `now`, equal to a scan of every owned request's
     * headroom. O(1) from the kept minimum deadlines; the prefill queue
     * is scanned only when two of its deadlines round to one headroom,
     * and the decode batch only after a step left its minimum dirty.
     */
    Urgency urgency(Seconds now) const;

    /** KV tokens one decode step of the whole batch needs beyond its
     *  reservations: Σ tokenGrowth over the batch (O(1)). */
    Tokens decodeGrowth() const { return decodeGrowth_; }

    /** The prefill queue's first earliest-arrival request, which
     *  FifoPrefillFirst runs next (nullptr when empty, O(1)). */
    Request *earliestPrefill() const { return earliestPrefill_; }

  private:
    void bumpEpoch();
    /** Fold `req` into the prefill queue's kept facts. */
    void foldPrefill(Request *req);
    /** Recompute the prefill queue's kept facts from scratch. */
    void rescanPrefill();

    /** True when decodeMin_ may be stale. */
    mutable bool decodeMinDirty_ = false;
    InstanceState state_ = InstanceState::Loading;
    std::vector<Request *> prefillQueue_;
    std::vector<Request *> decodeBatch_;
    /** Running Σ contextLen() over each queue. */
    Tokens prefillCtx_ = 0;
    Tokens decodeCtx_ = 0;
    /** Running Σ tokenGrowth over the decode batch. */
    Tokens decodeGrowth_ = 0;
    /** Minimum next-token deadline over the decode batch, exact unless
     *  decodeMinDirty_; urgency() refreshes a dirty value. */
    mutable Seconds decodeMin_ = std::numeric_limits<Seconds>::infinity();
    /** The prefill queue's first minimum-deadline request, that minimum,
     *  and the second-smallest distinct deadline (+inf when none). */
    Request *urgentPrefill_ = nullptr;
    Seconds prefillMin_ = std::numeric_limits<Seconds>::infinity();
    Seconds prefillSecond_ = std::numeric_limits<Seconds>::infinity();
    /** The prefill queue's first earliest-arrival request. */
    Request *earliestPrefill_ = nullptr;
};

inline void
Instance::noteDecodeToken(Request *req, Seconds t)
{
    Tokens grown = tokenGrowth(*req);
    req->kvReserved += grown;
    req->noteToken(t);
    ++decodeCtx_;
    decodeGrowth_ += tokenGrowth(*req) - grown;
    decodeMinDirty_ = true;
}

inline void
Instance::endDecodeStep(Seconds minDeadline, int folded)
{
    if (folded == batchSize()) {
        decodeMin_ = minDeadline;
        decodeMinDirty_ = false;
    }
}

inline Tokens
Instance::avgContextLen() const
{
    if (decodeBatch_.empty())
        return 1;
    return std::max<Tokens>(
        1, decodeCtx_ / static_cast<Tokens>(decodeBatch_.size()));
}

inline bool
Instance::runnable() const
{
    if (state_ != InstanceState::Active || resizeInFlight)
        return false;
    return !prefillQueue_.empty() || !decodeBatch_.empty();
}

inline Instance::Urgency
Instance::urgency(Seconds now) const
{
    Urgency u;
    if (urgentPrefill_) {
        // fl(d - now) is monotone in d, so the minimum deadline gives
        // the minimum headroom, and its first holder is the scan's
        // pick unless a larger deadline rounds to the same headroom.
        u.prefillHeadroom = prefillMin_ - now;
        if (prefillSecond_ - now > u.prefillHeadroom) {
            u.prefill = urgentPrefill_;
        } else {
            for (Request *r : prefillQueue_) {
                if (r->headroom(now) == u.prefillHeadroom) {
                    u.prefill = r;
                    break;
                }
            }
        }
    }
    if (!decodeBatch_.empty()) {
        if (decodeMinDirty_) {
            decodeMin_ = std::numeric_limits<Seconds>::infinity();
            for (const Request *r : decodeBatch_)
                decodeMin_ = std::min(decodeMin_, r->deadlineForNextToken());
            decodeMinDirty_ = false;
        }
        u.decodeHeadroom = decodeMin_ - now;
    }
    return u;
}

} // namespace slinfer

#endif // SLINFER_ENGINE_INSTANCE_HH

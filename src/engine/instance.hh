/**
 * @file
 * A model instance: one engine process serving one LLM on one partition,
 * with continuous batching (prefill queue + decode batch) and a paged
 * KV-cache whose allocation the memory subsystem resizes at runtime.
 */

#ifndef SLINFER_ENGINE_INSTANCE_HH
#define SLINFER_ENGINE_INSTANCE_HH

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
    Draining,  ///< preempted; finishing migration of its requests
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
    /** True while a KV resize blocks this instance's iterations. */
    bool resizeInFlight = false;
    /** The allocation the latest committed resize will end at. */
    Bytes kvTarget = 0;
    /** Static allocation (baselines / exclusive fallback): the KV is
     *  sized once at creation and never resized. */
    bool staticKv = false;
    /** Bytes held directly on the primary partition (static path). */
    Bytes heldPrimaryBytes = 0;
    /**
     * True once the instance's memory (weights + initial KV) is
     * physically held on the partition. A cold-start load parked in
     * the reservation station is not yet resident; KV resizes must not
     * execute before residency (the pending load reads the latest KV
     * target when it finally executes).
     */
    bool memResident = false;

    Seconds createdAt = 0.0;
    Seconds activeAt = -1.0;
    Seconds reclaimedAt = -1.0;
    /** Cold-start duration (grace window for requests it admits). */
    Seconds loadDuration = 0.0;
    EventHandle keepAliveEv;

    /** Cumulative seconds spent executing iterations (stats). */
    Seconds busyTime = 0.0;
    /** Cumulative seconds blocked on KV resizes (Fig. 31). */
    Seconds scalingTime = 0.0;
    /** Decode tokens produced (stats). */
    Tokens decodedTokens = 0;

    InstanceState state() const { return state_; }
    /** Change the lifecycle state (bumps the partition's admission
     *  epoch: a state change can drop the instance from a bound). */
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
     * The queues change only through the methods below, which keep the
     * running context sums exact and bump the primary partition's
     * admission epoch on every join and leave (DESIGN.md, "Cached
     * admission bounds").
     */
    /** Append `req` to the prefill queue. */
    void enqueuePrefill(Request *req);
    /** Append `req` to the decode batch. */
    void joinDecode(Request *req);
    /** Remove a request from whichever queue holds it. */
    void removeRequest(Request *req);
    /** Emit one token of `req`, which waits in the prefill queue. */
    void notePrefillToken(Request *req, Seconds t);
    /** Emit one token of `req`, which is in the decode batch. */
    void noteDecodeToken(Request *req, Seconds t);

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

    /**
     * The most urgent request (minimum headroom). Sets `is_prefill` to
     * true when that request still awaits its prefill. Returns nullptr
     * when the instance has no requests.
     */
    Request *mostUrgent(Seconds now, bool &is_prefill) const;

    /** Minimum headroom across all owned requests (+inf when empty). */
    Seconds minHeadroom(Seconds now) const;

  private:
    void bumpEpoch();

    InstanceState state_ = InstanceState::Loading;
    std::vector<Request *> prefillQueue_;
    std::vector<Request *> decodeBatch_;
    /** Running Σ contextLen() over each queue. */
    Tokens prefillCtx_ = 0;
    Tokens decodeCtx_ = 0;
};

} // namespace slinfer

#endif // SLINFER_ENGINE_INSTANCE_HH

/**
 * @file
 * Tuning knobs shared by the controllers. Defaults are the paper's
 * evaluation settings (§IX-A, §IX-I): keep-alive 1 s, KV watermark 25%,
 * 10% shadow-validation overestimation.
 */

#ifndef SLINFER_CORE_CONFIG_HH
#define SLINFER_CORE_CONFIG_HH

#include <cstddef>

#include "common/types.hh"
#include "workload/slo.hh"

namespace slinfer
{

/**
 * Controller resilience policies (DESIGN.md, "Resilience policies").
 * Every knob defaults to the pre-policy behavior, so configs that
 * never touch this struct produce byte-identical reports.
 */
struct ResilienceConfig
{
    /**
     * Placement attempts charged per retryPending() round before the
     * rest of the queue is deferred to the next wakeup. The historic
     * hard-coded cap was 16.
     */
    int retryCap = 16;
    /**
     * Exponential backoff between dispatch attempts of one request:
     * after its n-th consecutive failure a request may not be retried
     * for min(backoffBase * 2^(n-1), backoffMax) seconds. Requests
     * whose next permitted attempt would land past their TTFT drop
     * deadline are dropped immediately (deadline-aware give-up)
     * instead of burning retry rounds they can never win.
     */
    bool backoff = false;
    Seconds backoffBase = 0.05;
    Seconds backoffMax = 1.0;
    /**
     * Failover exclusion window: for this many seconds after a node
     * failure, its partitions are skipped as placement candidates even
     * once restored (flapping hardware should not immediately re-host
     * work). 0 disables the policy.
     */
    Seconds failoverExclusion = 0.0;
    /**
     * Graceful degradation: while any node is failed, requests whose
     * TTFT SLO is at least batchSloCutoff (batch-class work) are
     * queued without a dispatch attempt once the pending queue reaches
     * shedQueueDepth, and shed outright at twice that depth —
     * preserving the remaining capacity for latency-critical traffic.
     */
    bool shedBatchFirst = false;
    Seconds batchSloCutoff = 10.0;
    std::size_t shedQueueDepth = 64;
};

struct ControllerConfig
{
    /** Idle instance reclamation threshold. */
    Seconds keepAlive = 1.0;
    /** KV-cache scaling watermark w (M_recommend = M_require*(1+w)). */
    double watermark = 0.25;
    /** Shadow validation per-iteration overestimation factor. */
    double overestimate = 1.10;
    /** Lognormal sigma of ground-truth iteration noise. */
    double noiseSigma = 0.03;
    /** Consider CPU nodes at all (ablation: w/o CPU). */
    bool useCpu = true;
    /** Allow colocating different models on one partition
     *  (ablation: w/o Sharing). */
    bool enableSharing = true;
    /** Proactive preemption + reactive bin-packing
     *  (ablation: w/o Consolidation). */
    bool enableConsolidation = true;
    /** Prefill-decode disaggregation mode (Table III). */
    bool pdDisaggregation = false;
    /** Retry/backoff/failover/degradation policies. */
    ResilienceConfig resilience;
    /** SLO definition. */
    SloSpec slo;
    /** Seed for ground-truth execution noise. */
    std::uint64_t seed = 42;
};

} // namespace slinfer

#endif // SLINFER_CORE_CONFIG_HH

/**
 * @file
 * Hot-path counter registry for the flight recorder.
 *
 * Counters are statically registered: the full set is the Counter enum
 * below, each with a stable snake_case name used verbatim as the JSON
 * key in the Report `counters` block. A Counters object is one
 * cacheline-aligned array of 64-bit values owned by the Session that
 * enabled it; hot paths hold a nullable `Counters *` and bump through
 * the inline helpers, so the disabled cost is a single
 * pointer-is-null test — no virtual call, no allocation, no lock.
 *
 * Counters never feed back into the simulation (no code reads them
 * mid-run), so enabling them cannot perturb event order; reports stay
 * byte-identical counters on vs off (tests/test_obs.cc proves it).
 */

#ifndef SLINFER_OBS_COUNTERS_HH
#define SLINFER_OBS_COUNTERS_HH

#include <cstddef>
#include <cstdint>

namespace slinfer
{
namespace obs
{

/** Every hot-path counter. Append only: names are a stable output
 *  surface (Report JSON keys, --counters CSV rows). */
enum Counter : std::size_t
{
    kEventsFired,      ///< event-queue callbacks dispatched
    kEventsCancelled,  ///< live events cancelled before firing
    /** Retired: the event queue is one heap with no calendar wheel,
     *  so these two always read 0. They keep their names because the
     *  Report JSON keys are a stable surface that perfbench reads. */
    kEventsRebased,
    kBucketPromotions,
    kPlacementProbes,  ///< controller placement searches started
    kIndexWalkSteps,   ///< cluster-index free-KV walk iterations
    kPendingWakeups,   ///< pending-queue retry activations (prefill)
    kDecodeWakeups,    ///< decode-pending retry rounds with work
    kKvTargetChanges,  ///< KV allocation targets moved (churn)
    kKvResizeOps,      ///< physical KV resize operations issued
    kEmergencyGrows,   ///< KV-shortage emergency grow attempts
    kDrainSweeps,      ///< instance drain sweeps executed
    kShadowRuns,       ///< shadow-validator admission evaluations
    kShadowMemoHits,   ///< baseline passes answered by the shadow memo
    kShadowRejectAggregate,     ///< shadow rejections: case 3 (TPOT sum)
    kShadowRejectPrefillLate,   ///< shadow rejections: a prefill too late
    kShadowRejectDecodeDelayed, ///< shadow rejections: a decode delayed
    kShadowSteps,       ///< shadow fast-forward steps, all passes
    kShadowHorizonHits, ///< shadow passes that ran out maxSteps
    kShadowEarlyExits,  ///< shadow passes ended by the demand bound
    kNumCounters
};

/** Stable snake_case name of counter `i` (the JSON/CSV key). */
inline const char *
counterName(std::size_t i)
{
    static const char *const kNames[kNumCounters] = {
        "events_fired",      "events_cancelled", "events_rebased",
        "bucket_promotions", "placement_probes", "index_walk_steps",
        "pending_wakeups",   "decode_wakeups",   "kv_target_changes",
        "kv_resize_ops",     "emergency_grows",  "drain_sweeps",
        "shadow_runs",       "shadow_memo_hits",
        "shadow_reject_aggregate",   "shadow_reject_prefill_late",
        "shadow_reject_decode_delayed",
        "shadow_steps",      "shadow_horizon_hits",
        "shadow_early_exits",
    };
    return i < kNumCounters ? kNames[i] : "?";
}

/**
 * One Session's counter block. Cacheline-aligned so a hot loop that
 * bumps adjacent counters stays within one line; values are plain
 * (non-atomic) because a Counters object is only ever touched by the
 * single thread running its Session (sweep jobs each own their own).
 */
struct Counters
{
    alignas(64) std::uint64_t v[kNumCounters] = {};
};

/** Increment counter `i` iff a sink is attached. */
inline void
bump(Counters *c, Counter i)
{
    if (c)
        ++c->v[i];
}

} // namespace obs
} // namespace slinfer

#endif // SLINFER_OBS_COUNTERS_HH

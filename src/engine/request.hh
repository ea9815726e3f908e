/**
 * @file
 * An inference request and its SLO bookkeeping.
 *
 * The paper defines urgency through *headroom* (Eq. 1):
 *     headroom = ST + TTFT_SLO + TPOT_SLO * O - CT
 * i.e. the absolute deadline of the next token is cumulative in the
 * number of generated tokens. A request meets its SLO iff every token
 * (including the first) was emitted with non-negative headroom; requests
 * served by a cold-started instance get a TTFT grace window equal to the
 * cold-start duration.
 */

#ifndef SLINFER_ENGINE_REQUEST_HH
#define SLINFER_ENGINE_REQUEST_HH

#include "common/types.hh"

namespace slinfer
{

enum class RequestState
{
    Queued,      ///< waiting for admission to an instance
    Prefill,     ///< admitted; waiting for / running its prefill
    Decode,      ///< in a decode batch
    Transfer,    ///< KV in flight between instances (PD disaggregation)
    Completed,
    Dropped,     ///< queueing exceeded the TTFT SLO (proactive drop)
};

/** Stable lowercase name of a lifecycle state; trace spans use these
 *  as step names so the flight recorder and the enum cannot drift. */
inline const char *
requestStateName(RequestState s)
{
    switch (s) {
    case RequestState::Queued:
        return "queued";
    case RequestState::Prefill:
        return "prefill";
    case RequestState::Decode:
        return "decode";
    case RequestState::Transfer:
        return "transfer";
    case RequestState::Completed:
        return "completed";
    case RequestState::Dropped:
        return "dropped";
    }
    return "?";
}

/** Request::poolSlot value for storage not owned by a replay pool. */
inline constexpr std::uint32_t kRequestNotPooled = 0xFFFFFFFFu;

struct Request
{
    RequestId id = 0;
    ModelId model = 0;
    Seconds arrival = 0.0;
    Tokens inputLen = 0;
    Tokens targetOutput = 1;

    Seconds ttftSlo = 0.0;
    Seconds tpotSlo = 0.25;
    /** Cold-start grace added to the TTFT deadline. */
    Seconds grace = 0.0;

    RequestState state = RequestState::Queued;
    Tokens generated = 0;
    Seconds firstTokenTime = -1.0;
    Seconds completionTime = -1.0;
    /** True once any token missed its cumulative deadline. */
    bool sloViolated = false;
    /** Times the request was evicted/migrated between instances. */
    int migrations = 0;
    /** Instance currently responsible (0 = none). */
    InstanceId instance = 0;
    /** KV tokens currently reserved for this request: always a
     *  PagedKvCache::roundedTokens value, which Instance::tokenGrowth
     *  relies on. */
    Tokens kvReserved = 0;
    /** Consecutive failed dispatch attempts since the last admission
     *  (resilience backoff; ResilienceConfig::backoff). */
    int dispatchFailures = 0;
    /** Earliest sim time the next dispatch attempt is permitted under
     *  backoff; attempts before this park the request instead of
     *  charging a retry. <= now means "try immediately". */
    Seconds retryAfter = 0.0;
    /** Live references from controller pending queues (pending_ /
     *  pendingDecode_ entries, including ghost entries awaiting their
     *  lazy purge). A settled request may only be recycled by the
     *  Session's trace request pool once this reaches zero. */
    std::uint32_t queueRefs = 0;
    /** kRequestNotPooled for injected requests (bursts, clones) and
     *  requests built outside a Session; any other value marks storage
     *  owned by the Session's trace request pool (eligible for
     *  recycling once settled and unreferenced, or once thinned). */
    std::uint32_t poolSlot = 0xFFFFFFFFu;

    /** Absolute deadline of the next token (Eq. 1). */
    Seconds deadlineForNextToken() const
    {
        return arrival + grace + ttftSlo +
               tpotSlo * static_cast<double>(generated);
    }

    /** Headroom at time `now`; negative means the SLO is already lost. */
    Seconds headroom(Seconds now) const
    {
        return deadlineForNextToken() - now;
    }

    /** Input plus generated tokens (KV footprint in tokens). */
    Tokens contextLen() const { return inputLen + generated; }

    /** True once all target tokens are out. */
    bool finishedGenerating() const { return generated >= targetOutput; }

    /**
     * Record a token emission at time `t`, updating violation state.
     * Returns the headroom the token had.
     */
    Seconds noteToken(Seconds t);
};

} // namespace slinfer

#endif // SLINFER_ENGINE_REQUEST_HH

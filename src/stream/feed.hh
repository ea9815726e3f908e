/**
 * @file
 * One-at-a-time arrival scheduling: stream::StreamingArrivalFeed.
 *
 * The Session's one arrival path. Instead of pre-building every
 * Request and bulk-scheduling every arrival event before the run starts
 * (O(trace) memory), the feed keeps exactly one trace arrival
 * scheduled: when it fires, the feed pulls the next record from the
 * RequestSource and schedules it. Settled requests are recycled
 * through the caller (a free-list pool), so the live Request count is
 * bounded by one + in-flight regardless of trace length, and the event
 * queue holds ~10^2 entries on a fleet-scale run.
 *
 * Two mechanisms make the lazy schedule fire in exactly the order of
 * scheduling the whole trace up front (DESIGN.md, "Streaming
 * arrivals"):
 *
 *  1. **Sequence-band reservation.** Event ties at equal timestamps
 *     break by schedule order (EventQueue seq). start() reserves one
 *     contiguous seq band during Session construction, before the
 *     timeline is armed, and trace arrival k is scheduled with explicit
 *     seq base + k whenever it is pulled. Runtime events schedule after
 *     the band, so a trace arrival at time T fires before any runtime
 *     event or intervention at T.
 *
 *  2. **Trace-order construction.** The materialize callback (which
 *     consumes the session's length RNG) runs in strict trace order —
 *     records of retired models included: they are built (RNG
 *     parity), then recycled instead of scheduled.
 */

#ifndef SLINFER_STREAM_FEED_HH
#define SLINFER_STREAM_FEED_HH

#include <functional>
#include <vector>

#include "engine/request.hh"
#include "sim/simulator.hh"
#include "stream/source.hh"

namespace slinfer
{
namespace stream
{

class StreamingArrivalFeed
{
  public:
    /** Build one Request from a record, in trace order (consumes the
     *  session's length RNG / id counter). */
    using Materialize = std::function<Request *(const TraceRecord &)>;
    /** Deliver a fired arrival (the Session applies arrival-scale
     *  rules, then submits it to the serving system). */
    using Submit = std::function<void(Request *)>;
    /** Return a request that will never be submitted (retired model)
     *  to the caller's pool. */
    using Recycle = std::function<void(Request *)>;

    StreamingArrivalFeed(Simulator &sim, RequestSource &src,
                         Materialize mat, Submit submit,
                         Recycle recycle);

    StreamingArrivalFeed(const StreamingArrivalFeed &) = delete;
    StreamingArrivalFeed &operator=(const StreamingArrivalFeed &) =
        delete;

    /** Reserve the arrival seq band and schedule the first arrival.
     *  Must run during Session construction, before the timeline is
     *  armed (see file comment); call exactly once, before any event
     *  fires. */
    void start();

    /** Stop scheduling arrivals for `m`: cancels the scheduled arrival
     *  if it is `m`'s and recycles future records of `m` at pump time.
     *  The streaming half of Session::cancelFutureArrivals. */
    void retireModel(ModelId m);

    /** Records pulled from the source so far (retired skips count). */
    std::uint64_t pulled() const { return pulled_; }
    /** Trace arrivals fired so far (thinned ones included). */
    std::uint64_t replayed() const { return fired_; }
    /** True once the source is fully consumed. */
    bool exhausted() const { return exhausted_; }

  private:
    void pump();
    void fired(Request *r);

    /** Covers any real trace (2^42 arrivals) while leaving the upper
     *  2^63 seqs for runtime events; width does not affect ordering —
     *  only band exhaustion would (checked fatally). */
    static constexpr std::uint64_t kBandWidth = 1ull << 42;

    Simulator &sim_;
    RequestSource &src_;
    Materialize mat_;
    Submit submit_;
    Recycle recycle_;

    std::uint64_t seqBase_ = 0;
    std::uint64_t pulled_ = 0;
    std::uint64_t fired_ = 0;
    bool started_ = false;
    bool exhausted_ = false;
    Seconds lastTime_ = 0.0;

    /** The one scheduled-but-unfired trace arrival (null when none)
     *  and its event, cancelled if its model retires. */
    Request *pending_ = nullptr;
    EventHandle pendingEv_;
    /** retired_[m] => records for m are recycled, not scheduled. */
    std::vector<bool> retired_;
};

} // namespace stream
} // namespace slinfer

#endif // SLINFER_STREAM_FEED_HH

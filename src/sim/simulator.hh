/**
 * @file
 * The discrete-event simulator: a clock plus an event queue.
 *
 * All cluster components hold a reference to one Simulator, schedule
 * callbacks with relative delays, and read the current time via now().
 * schedule()/scheduleAt() forward the callable straight into the event
 * arena (sim/event_queue.hh), so a lambda capturing a few pointers is
 * stored inline with no allocation.
 */

#ifndef SLINFER_SIM_SIMULATOR_HH
#define SLINFER_SIM_SIMULATOR_HH

#include "common/log.hh"
#include "obs/phase.hh"
#include "sim/event_queue.hh"

namespace slinfer
{

class Simulator
{
  public:
    /** Current simulated time. */
    Seconds now() const { return now_; }

    /** Schedule `cb` after `delay` seconds (>= 0). */
    template <typename F>
    EventHandle
    schedule(Seconds delay, F &&cb)
    {
        if (delay < 0)
            panic("Simulator::schedule with negative delay");
        return queue_.schedule(now_ + delay, std::forward<F>(cb));
    }

    /** Schedule `cb` at absolute time `when` (>= now). */
    template <typename F>
    EventHandle
    scheduleAt(Seconds when, F &&cb)
    {
        if (when < now_)
            panic("Simulator::scheduleAt in the past");
        return queue_.schedule(when, std::forward<F>(cb));
    }

    /** Reserve a band of sequence numbers for scheduleAtSeq (see
     *  EventQueue::reserveSeqBand — streaming arrival replay). */
    std::uint64_t
    reserveSeqBand(std::uint64_t width)
    {
        return queue_.reserveSeqBand(width);
    }

    /** Schedule `cb` at absolute time `when` (>= now) with an explicit
     *  sequence number from a reserved band. */
    template <typename F>
    EventHandle
    scheduleAtSeq(Seconds when, std::uint64_t seq, F &&cb)
    {
        if (when < now_)
            panic("Simulator::scheduleAtSeq in the past");
        return queue_.scheduleAtSeq(when, seq, std::forward<F>(cb));
    }

    /** Run until the queue drains. Returns the final time. */
    Seconds run();

    /**
     * Run events with time <= `until`, then set the clock to `until`.
     * Events scheduled beyond `until` stay queued.
     */
    Seconds runUntil(Seconds until);

    /** True if no events remain. */
    bool idle() const { return queue_.empty(); }

    /** Number of events executed so far. */
    std::uint64_t eventsRun() const { return eventsRun_; }

    /**
     * Attach flight-recorder sinks (either may be null): counters go
     * to the event queue's hot-path hooks, the profiler brackets the
     * dispatch loops. Neither feeds back into event order.
     */
    void
    attachObs(obs::Counters *counters, obs::PhaseProfiler *profiler)
    {
        queue_.attachCounters(counters);
        prof_ = profiler;
    }

  private:
    EventQueue queue_;
    Seconds now_ = 0.0;
    std::uint64_t eventsRun_ = 0;
    obs::PhaseProfiler *prof_ = nullptr;
};

} // namespace slinfer

#endif // SLINFER_SIM_SIMULATOR_HH

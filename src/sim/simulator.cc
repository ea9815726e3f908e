#include "sim/simulator.hh"

namespace slinfer
{

Seconds
Simulator::run()
{
    obs::ScopedPhase phase(prof_, obs::kPhaseEventDispatch);
    while (!queue_.empty()) {
        // Advance the clock before running the callback so that now()
        // observed inside the callback equals the event's own time.
        now_ = queue_.nextTime();
        queue_.popAndRun();
        ++eventsRun_;
    }
    return now_;
}

Seconds
Simulator::runUntil(Seconds until)
{
    obs::ScopedPhase phase(prof_, obs::kPhaseEventDispatch);
    while (!queue_.empty() && queue_.nextTime() <= until) {
        now_ = queue_.nextTime();
        queue_.popAndRun();
        ++eventsRun_;
    }
    now_ = until > now_ ? until : now_;
    return now_;
}

} // namespace slinfer

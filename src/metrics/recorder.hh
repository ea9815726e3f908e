/**
 * @file
 * Per-request outcome accounting: SLO attainment, TTFT distribution,
 * drops, migrations. One Recorder instance observes a whole experiment.
 */

#ifndef SLINFER_METRICS_RECORDER_HH
#define SLINFER_METRICS_RECORDER_HH

#include "common/stats.hh"
#include "engine/request.hh"

namespace slinfer
{

class Recorder
{
  public:
    /** Pre-size sample buffers for an experiment of `n` requests. */
    void reserve(std::size_t n) { ttft_.reserve(n); }

    /**
     * Per-window accounting over `n` equal slices of [0, duration):
     * arrivals bucket by arrival time, completions/drops (and the
     * completions' TTFT samples and generated tokens) by event time;
     * events past the window clamp into the last slice. Off (and the
     * run byte-identical to an unwindowed one) unless enabled before
     * the first event.
     */
    void enableWindows(Seconds duration, int n);

    void onArrival(const Request &req);
    void onDrop(const Request &req, Seconds now);
    void onComplete(const Request &req, Seconds now);

    std::size_t total() const { return total_; }
    std::size_t completed() const { return completed_; }
    std::size_t dropped() const { return dropped_; }
    /** Requests that completed with every token inside its deadline. */
    std::size_t sloMet() const { return sloMet_; }
    double sloRate() const;

    /** TTFT samples of requests that produced a first token. */
    const CdfBuilder &ttftCdf() const { return ttft_; }
    double p95Ttft() const { return ttft_.percentile(95.0); }

    /** Total generated tokens across completed requests. */
    Tokens generatedTokens() const { return generatedTokens_; }

    /** Fraction of requests evicted/migrated at least once. */
    double migrationRate() const;

    /** Per-window accumulators (empty unless enableWindows ran). */
    struct WindowStats
    {
        std::size_t arrived = 0;
        std::size_t completed = 0;
        std::size_t dropped = 0;
        Tokens generatedTokens = 0;
        CdfBuilder ttft;
    };
    const std::vector<WindowStats> &windows() const { return windows_; }
    Seconds windowSpan() const { return windowSpan_; }

  private:
    std::size_t windowAt(Seconds t) const;

    std::vector<WindowStats> windows_;
    Seconds windowSpan_ = 0.0;
    std::size_t total_ = 0;
    std::size_t completed_ = 0;
    std::size_t dropped_ = 0;
    std::size_t sloMet_ = 0;
    std::size_t migrated_ = 0;
    Tokens generatedTokens_ = 0;
    CdfBuilder ttft_;
};

} // namespace slinfer

#endif // SLINFER_METRICS_RECORDER_HH

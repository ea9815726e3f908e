/**
 * @file
 * Live timeseries: sim-time-cadenced snapshots of the Session's
 * MetricsView, exportable as CSV or JSON for plotting utilization /
 * queue-depth curves against injected interventions.
 *
 * The sampler owns no clock and schedules no events: Session chops its
 * advanceTo() calls at each k * sampleEvery boundary (runUntil is
 * proven split-invariant, see docs/ARCHITECTURE.md) and records a
 * sample between chunks. Sampling therefore cannot perturb event order
 * — it only changes where the caller pauses the simulator.
 */

#ifndef SLINFER_OBS_TIMESERIES_HH
#define SLINFER_OBS_TIMESERIES_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace slinfer
{
namespace obs
{

/** One sample: the MetricsView scalars at a sim-time instant
 *  (per-model queue depths collapsed to their sum). MetricsView
 *  extends it, so a sample is a MetricsView sliced to this base. Its
 *  fields are declared for output once, in timeseries.cc. */
struct TimeseriesSample
{
    /** Simulated time of the snapshot. */
    double time = 0.0;
    /** Requests submitted so far. */
    std::uint64_t arrived = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    /** Submitted but neither completed nor dropped. */
    std::uint64_t inFlight = 0;
    /** Queued (pending dispatch) requests, all models. */
    std::uint64_t queueDepth = 0;
    /** Active instances right now / ever created. */
    std::uint64_t instancesLive = 0;
    std::uint64_t instancesCreated = 0;
    /** Mean KV allocation utilization across live instances. */
    double kvUtilization = 0.0;
    /** Running busy-seconds aggregates per hardware kind. */
    double busySecondsCpu = 0.0;
    double busySecondsGpu = 0.0;
    /** Running scaling-overhead fraction (O(1) index form). */
    double scalingOverhead = 0.0;
};

/** Accumulates samples at a fixed sim-time cadence. */
class Timeseries
{
  public:
    explicit Timeseries(double sampleEvery) : every_(sampleEvery) {}

    /** The configured cadence in sim-seconds. */
    double sampleEvery() const { return every_; }

    void record(const TimeseriesSample &s) { samples_.push_back(s); }

    const std::vector<TimeseriesSample> &samples() const
    {
        return samples_;
    }

    /** Render as CSV (header + one row per sample). */
    std::string toCsv() const;

    /** Render as a JSON array of sample objects. */
    std::string toJson() const;

  private:
    double every_;
    std::vector<TimeseriesSample> samples_;
};

} // namespace obs
} // namespace slinfer

#endif // SLINFER_OBS_TIMESERIES_HH

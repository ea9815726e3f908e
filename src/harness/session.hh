/**
 * @file
 * The stepwise run lifecycle: slinfer::Session.
 *
 * A Session is one live experiment with an explicit lifecycle, in
 * place of the old configure-then-run-to-completion shape:
 *
 *   Session s(cfg);            // validate, build cluster + stream
 *   s.advanceTo(300.0);        // step the simulation (runUntil)
 *   MetricsView v = s.sample(); // observe the run in flight
 *   s.inject(iv);              // mutate it (node fail, deploy, ...)
 *   s.advanceTo(s.duration());
 *   Report r = s.finish();     // drain + the same Report as before
 *
 * Stepping is pure observation: a run advanced in any number of steps
 * executes the exact event sequence of a single run-to-completion, so
 * reports are byte-identical however the caller slices the clock (the
 * determinism contract in docs/ARCHITECTURE.md). Interventions
 * (harness/intervention.hh) are the one way to perturb a run mid
 * flight: node failure/restore and model deploy/redeploy/retire route
 * through the ControllerBase hooks; arrival scaling and bursts act on
 * the Session's own arrivals. Arrivals come from one path, the
 * StreamingArrivalFeed (stream/feed.hh), which keeps one trace
 * arrival scheduled at a time whether the trace was generated in
 * memory or is a `.strc` replay, so arrival scaling is a rule each
 * arrival passes through when its event fires (DESIGN.md, "Arrival
 * scaling at fire time"). A config-embedded Timeline applies
 * interventions at scripted times without any manual stepping — that
 * is how slinfer_run --timeline and the fault/deploy catalog
 * scenarios work.
 *
 * runExperiment (harness/experiment.hh) is now a thin wrapper:
 * create → advanceTo(duration()) → finish().
 */

#ifndef SLINFER_HARNESS_SESSION_HH
#define SLINFER_HARNESS_SESSION_HH

#include <array>
#include <deque>
#include <memory>

#include "harness/experiment.hh"
#include "obs/obs.hh"
#include "stream/feed.hh"

namespace slinfer
{

namespace chaos
{
class ResilienceProbe;
}

/**
 * A consistent snapshot of the live run at sample() time, read off
 * the recorder and the controller's incremental cluster indices
 * (core/cluster_index.hh) — sampling never perturbs the run. Its
 * scalars are a timeseries sample's (obs/timeseries.hh), which the
 * sampler records as they are.
 */
struct MetricsView : obs::TimeseriesSample
{
    /** Queued (pending dispatch) requests per model id; queueDepth is
     *  their sum. */
    std::vector<std::size_t> queueDepthPerModel;
};

class Session
{
  public:
    /** Validate `cfg`, build the cluster and the request stream, and
     *  arm the timeline. No simulated time passes until an advance. */
    explicit Session(const ExperimentConfig &cfg);
    ~Session();

    /** Self-referencing event callbacks pin the address. */
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Heap-allocating convenience constructor. */
    static std::unique_ptr<Session> create(const ExperimentConfig &cfg);

    /** Current simulated time. */
    Seconds now() const;

    /** The metrics window (stamped by the trace/arrival process). */
    Seconds duration() const { return duration_; }

    /** Run every event with time <= `t`, then set the clock to `t`.
     *  Fatal when `t` is in the past or the session is finished. */
    void advanceTo(Seconds t);

    /** advanceTo(now() + dt). */
    void advanceBy(Seconds dt);

    /** Apply an intervention right now (its `at` stamp is ignored). */
    void inject(const Intervention &iv);

    /** Snapshot the live run (read-only; never perturbs it). */
    MetricsView sample() const;

    /** Drain the remaining events (completions past the metrics
     *  window) and build the Report. Callable once. */
    Report finish();

    bool finished() const { return finished_; }

    /** The live serving system (tests / observability). */
    ControllerBase &controller() { return *controller_; }
    const ControllerBase &controller() const { return *controller_; }

    /** The flight recorder, or nullptr when cfg.obs enabled nothing.
     *  Valid for the Session's lifetime, including after finish(). */
    obs::FlightRecorder *flightRecorder() { return obs_.get(); }
    const obs::FlightRecorder *flightRecorder() const
    {
        return obs_.get();
    }

    /** The arrival feed (progress reporting / tests); never null. */
    const stream::StreamingArrivalFeed *feed() const
    {
        return feed_.get();
    }
    /** High-water count of pooled trace Requests ever built — the
     *  bounded-memory assertion's subject. */
    std::size_t streamPoolSize() const { return pool_.size(); }

  private:
    void applyIntervention(const Intervention &iv);
    /** Stamp ids/SLOs and clamp lengths — the shared tail of request
     *  construction. */
    Request fillRequest(ModelId model, const ModelSpec &spec, Seconds at,
                        Tokens input, Tokens output);
    Request materializeRequest(ModelId model, const ModelSpec &spec,
                               Seconds at, Rng &lenRng);
    /** Build the request for one source record: recorded lengths when
     *  the source carries them, dataset samples (lenRng_) otherwise. */
    Request buildRequest(const stream::TraceRecord &rec);
    /** Build `rec` into pooled (recyclable) storage. */
    Request *acquirePooled(const stream::TraceRecord &rec);
    /** Build + schedule an injected arrival at time `t`; it passes
     *  through the scale rules from index `firstRule` on. */
    void addExtraArrival(ModelId model, Seconds t, std::size_t firstRule);
    /** A fired arrival: apply scale rules [firstRule, end), then submit
     *  it unless thinning dropped it. */
    void arrive(Request *r, std::size_t firstRule);
    ModelId checkedModel(const Intervention &iv) const;
    void cancelFutureArrivals(ModelId model);
    void injectBurst(ModelId model, double rpm, Seconds burstLen);
    void sampleKv();
    /** Append one timeseries sample at the current sim time. */
    void recordSample();
    /** Run timeseries sample points in [nextSample_, min(t, end)]
     *  by chopping the advance at each boundary — sampling schedules
     *  no events, so the run stays byte-identical to an unsampled
     *  one (the PR 5 stepped-advance determinism contract). */
    void advanceSampled(Seconds t);
    /** Dataset(kind).meanOutput(), integrated once per kind. */
    double meanOutput(DatasetKind kind);

    ExperimentConfig cfg_;
    Seconds duration_ = 0.0;
    Simulator sim_;
    ClusterHandle cluster_;
    Recorder recorder_;
    std::unique_ptr<ClusterStats> stats_;
    std::vector<Dataset> datasets_;
    /** meanOutput()'s values by kind: 0 until first asked (every
     *  dataset clamps its output lengths to at least 1). */
    std::array<double, kDatasetKinds> meanOutput_{};

    /** Injected arrivals (scale-up clones, bursts): deque so grown
     *  entries never move. extraEvents_ is 1:1, cancellable by a
     *  model retire. */
    std::deque<Request> extra_;
    std::deque<EventHandle> extraEvents_;

    /** One arrival-scale intervention: `factor` applied to arrivals of
     *  `model` (-1 = every model) that fire after it registered. */
    struct ScaleRule
    {
        double factor;
        int model;
    };
    /** Registration order; an arrival remembers the first rule it is
     *  subject to (trace records: 0) and applies the rest at fire. */
    std::vector<ScaleRule> scaleRules_;

    /** Arrival source, pulled incrementally by the feed. */
    stream::RequestSourcePtr source_;
    /** One-scheduled-arrival feed: the one arrival path. */
    std::unique_ptr<stream::StreamingArrivalFeed> feed_;
    /** Trace request pool: storage never moves (deque) and is recycled
     *  through freeList_ once the controller reclaims a settled
     *  request, or thinning drops it. Bounded by the one scheduled
     *  arrival + in-flight. */
    std::deque<Request> pool_;
    std::vector<Request *> freeList_;
    /** Dataset length RNG, consumed in strict trace order (the feed
     *  builds records in trace order). */
    Rng lenRng_;

    std::unique_ptr<ControllerBase> controller_;
    /** Intervention randomness (thinning, clones, burst gaps), forked
     *  from the config seed — untouched runs never draw from it. */
    Rng ivRng_;
    RequestId nextId_ = 1;

    struct KvSampling
    {
        double sum = 0.0;
        std::size_t n = 0;
    };
    KvSampling kvSampling_;
    bool finished_ = false;

    /** Flight recorder (null unless cfg.obs enabled a component). */
    std::unique_ptr<obs::FlightRecorder> obs_;
    /** Next timeseries sample boundary (sim time). */
    Seconds nextSample_ = 0.0;
    /** Resilience probe (null unless cfg.resilienceReport). Notified
     *  of node fail/restore *before* the controller hooks run, so it
     *  can snapshot pre-fault state (chaos/probe.hh). */
    std::unique_ptr<chaos::ResilienceProbe> probe_;
};

} // namespace slinfer

#endif // SLINFER_HARNESS_SESSION_HH

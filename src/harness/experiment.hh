/**
 * @file
 * Experiment configuration and the one-shot driver.
 *
 * ExperimentConfig declares everything one serving experiment needs;
 * Session (harness/session.hh) is the lifecycle that runs it, and
 * runExperiment() is the batch convenience wrapper (create → advance
 * to the metrics window's end → finish) every bench and test uses.
 */

#ifndef SLINFER_HARNESS_EXPERIMENT_HH
#define SLINFER_HARNESS_EXPERIMENT_HH

#include "chaos/chaos.hh"
#include "harness/intervention.hh"
#include "harness/systems.hh"
#include "metrics/report.hh"
#include "obs/config.hh"
#include "scenario/arrival.hh"
#include "stream/source.hh"
#include "workload/azure_trace.hh"
#include "workload/dataset.hh"

namespace slinfer
{

/** Physical cluster description. */
struct ClusterSpec
{
    int cpuNodes = 4;
    int gpuNodes = 4;
    HardwareSpec cpuSpec = xeon6462c();
    HardwareSpec gpuSpec = a100_80g();
};

/** One experiment. */
struct ExperimentConfig
{
    SystemKind system = SystemKind::Slinfer;
    ClusterSpec cluster;
    /** Model deployed behind each ModelId in the trace. */
    std::vector<ModelSpec> models;
    /**
     * Arrival source, preferred form: a composable process expanded
     * with `seed` at run time. The trace duration it stamps is the
     * experiment's metrics window.
     */
    scenario::ArrivalProcessPtr arrivals;
    /** Pre-materialized trace (legacy form; mutually exclusive with
     *  `arrivals`). Its stamped duration must agree with `duration`. */
    AzureTrace trace;
    /** Request length source (all models). */
    DatasetKind dataset = DatasetKind::AzureConv;
    /** Per-model length source overriding `dataset` (empty = uniform;
     *  otherwise one entry per model). */
    std::vector<DatasetKind> datasetPerModel;
    /**
     * Metrics window. 0 (the default) inherits the duration stamped on
     * the trace / arrival process, which is the single source of
     * truth; a nonzero value must agree with it (checked fatally).
     */
    Seconds duration = 0.0;
    ControllerConfig controller;
    std::uint64_t seed = 123;
    /** TTFT CDF sample points for the report. */
    std::vector<double> ttftCdfPoints = {0.25, 0.5, 1, 2, 3, 4, 5, 6};
    /**
     * Scripted mid-run interventions, applied at their `at` stamps
     * (harness/intervention.hh). Empty for a plain run.
     */
    Timeline timeline;
    /**
     * Chaos engine (chaos/chaos.hh): stochastic fault processes
     * expanded into a deterministic intervention schedule from `seed`
     * at Session build time and appended to `timeline` (then validated
     * and armed like hand-written entries). Empty = no chaos, and the
     * run is byte-identical to a pre-chaos one.
     */
    chaos::ChaosConfig chaos;
    /**
     * Attach the resilience probe (chaos/probe.hh) and emit the
     * Report::Resilience block (availability, MTTR, recovery time).
     * Off by default; the probe schedules its own wakeup events, so a
     * probed run is byte-comparable only to other probed runs.
     */
    bool resilienceReport = false;
    /**
     * Split the metrics window into this many equal report windows
     * (Report::windows gains per-window TTFT/throughput rows). 0 (the
     * default) disables windowing and leaves the report unchanged.
     */
    int windows = 0;
    /**
     * Flight-recorder configuration (obs/config.hh): span tracing,
     * hot-path counters, live timeseries sampling, wall-clock phase
     * profiling. All off by default; enabling any of them never
     * perturbs the simulation (reports stay byte-identical).
     */
    obs::ObsConfig obs;
    /**
     * Arrival replay (stream/source.hh): every run pulls its arrivals
     * through a bounded lookahead window and recycles settled request
     * storage, so peak memory is independent of trace length.
     * `stream.tracePath` replays an on-disk `.strc` trace (mutually
     * exclusive with `arrivals`/`trace`).
     */
    stream::StreamConfig stream;

    /**
     * Check the configuration for conflicts before any state is
     * built, one fatal() per conflict: models present, `arrivals` vs
     * `trace` exclusivity, `duration` agreement with the stamped
     * trace/process duration (the trace/scenario is the source of
     * truth), per-model dataset arity, and timeline well-formedness.
     * Session::create runs this up front, so a bad config can no
     * longer die mid-build with partial cluster state.
     */
    void validate() const;

    /**
     * Reject any timeline entry scheduled past `horizon` with
     * validate()'s dead-event message. validate() runs it whenever the
     * duration is known up front; a `.strc` replay learns its duration
     * from the file header, so Session runs it once the file opens.
     */
    void checkTimelineHorizon(Seconds horizon) const;
};

/** Build `count` nodes of each spec (ids: CPUs first). */
std::vector<std::unique_ptr<Node>>
buildCluster(const ClusterSpec &cluster, int partitionsPerNode);

/**
 * Run the experiment to completion and summarize. A thin wrapper over
 * the Session lifecycle (harness/session.hh): create, advance to the
 * metrics window's end, finish.
 */
Report runExperiment(const ExperimentConfig &cfg);

/** Convenience: n replicas of one model spec. */
std::vector<ModelSpec> replicateModel(const ModelSpec &spec, int count);

} // namespace slinfer

#endif // SLINFER_HARNESS_EXPERIMENT_HH

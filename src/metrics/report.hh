/**
 * @file
 * The consolidated result of one experiment run: everything the paper's
 * figures plot, gathered from the Recorder and ClusterStats.
 */

#ifndef SLINFER_METRICS_REPORT_HH
#define SLINFER_METRICS_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace slinfer
{

class Recorder;
class ClusterStats;
namespace sweep
{
class JsonValue;
}

struct Report
{
    std::string system;
    /** Scenario name and seed, stamped by scenario::runScenario /
     *  slinfer_run (empty / 0 for hand-built experiments). */
    std::string scenario;
    std::uint64_t seed = 0;

    std::size_t totalRequests = 0;
    std::size_t completed = 0;
    std::size_t dropped = 0;
    std::size_t sloMet = 0;
    double sloRate = 0.0;

    double avgCpuNodesUsed = 0.0;
    double avgGpuNodesUsed = 0.0;
    double decodeSpeedCpu = 0.0;
    double decodeSpeedGpu = 0.0;

    double p50Ttft = 0.0;
    double p95Ttft = 0.0;
    /** TTFT CDF evaluated at fixed points, normalized by *total*
     *  requests (dropped requests never reach 1.0, as in Fig. 22). */
    std::vector<std::pair<double, double>> ttftCdf;

    double gpuMemUtilMean = 0.0;
    double batchMean = 0.0;
    double migrationRate = 0.0;

    /** Mean KV allocation utilization across instances (Fig. 31). */
    double kvUtilization = 0.0;
    /** Fraction of instance lifetime blocked on KV resizes (Fig. 31). */
    double scalingOverhead = 0.0;

    /** (time, GPUs in use) timeline (Fig. 23). */
    std::vector<std::pair<Seconds, double>> gpuTimeline;

    /** One slice of the metrics window (ExperimentConfig::windows). */
    struct Window
    {
        Seconds start = 0.0;
        Seconds end = 0.0;
        std::size_t arrived = 0;
        std::size_t completed = 0;
        std::size_t dropped = 0;
        double p50Ttft = 0.0;
        double p95Ttft = 0.0;
        /** Completions per second inside the window. */
        double completedPerSec = 0.0;
        /** Generated tokens per second inside the window. */
        double tokensPerSec = 0.0;
    };
    /** Per-window TTFT/throughput rows; empty unless the run was
     *  windowed (plain reports stay byte-identical). */
    std::vector<Window> windows;

    /** Flight-recorder counter snapshot as (name, value) pairs in
     *  registry order (obs/counters.hh); empty unless the run enabled
     *  counters, so plain reports stay byte-identical. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /**
     * Latency anatomy & SLO attribution (obs/anatomy.hh). Emitted
     * only when the run enabled the anatomy ledger, so uninstrumented
     * reports stay byte-identical. Segment rows are in the fixed Seg
     * enum order; blame vectors are indexed likewise.
     */
    struct Attribution
    {
        bool enabled = false;
        /** Closed anatomy records (== requests that ended). */
        std::uint64_t requests = 0;
        /** SLO violations attributed (drops count as violations). */
        std::uint64_t violations = 0;

        struct Segment
        {
            std::string name;         ///< obs::segName
            std::uint64_t count = 0;  ///< requests with a nonzero span
            double totalS = 0.0;      ///< summed span, seconds
            double p50s = 0.0;
            double p95s = 0.0;
            double p99s = 0.0;
            std::uint64_t blamed = 0; ///< violations blaming this seg
        };
        std::vector<Segment> segments;

        struct ModelBlame
        {
            std::string model;
            std::vector<std::uint64_t> blamed; ///< per segment
        };
        std::vector<ModelBlame> perModel;

        /** Per-window violation blame (rows of per-segment counts);
         *  empty unless the run was windowed. */
        double windowLen = 0.0;
        std::vector<std::vector<std::uint64_t>> perWindow;
    };
    Attribution attribution;

    /**
     * Resilience metric family (chaos/probe.hh). Emitted only when the
     * run enabled the resilience probe (ExperimentConfig::
     * resilienceReport), so plain reports stay byte-identical.
     */
    struct Resilience
    {
        bool enabled = false;
        /** Node-failure events that actually fenced a node (no-op
         *  re-fails are not counted) and their restores. */
        std::uint64_t faultEvents = 0;
        std::uint64_t restores = 0;
        /** Time-weighted mean healthy-node fraction over the run. */
        double availability = 1.0;
        /** Mean per-fault repair time (fail -> restore), seconds. */
        double mttrMeanS = 0.0;
        /** Total time with >= 1 node fenced, seconds. */
        double degradedTimeS = 0.0;
        /** Requests dropped per fault event (drops that land inside
         *  degraded intervals, divided by faultEvents). */
        double lostPerFault = 0.0;
        /** Completions per minute inside / outside degraded time. */
        double goodputFaultRpm = 0.0;
        double goodputHealthyRpm = 0.0;
        /** Mean time from full restore until the pending backlog
         *  returns to its pre-fault depth (time-to-steady-state),
         *  seconds; censored at the experiment end. */
        double recoveryMeanS = 0.0;
    };
    Resilience resilience;

    /** Build the summary from the two collectors. */
    static Report build(const std::string &system, const Recorder &rec,
                        const ClusterStats &stats,
                        const std::vector<double> &ttftCdfPoints);
};

/** Serialize as a JSON object (includes the CDF and GPU timeline). */
std::string toJson(const Report &report);

/** Same object on a single line (JSONL record embedding). */
std::string toJsonLine(const Report &report);

/**
 * A count stored as a JSON number: true and `out` set when `x` is a
 * finite integer in [0, 2^53], the range a double holds exactly.
 */
bool countFromJson(double x, std::uint64_t &out);

/**
 * The one report reader: rebuild `r` from a parsed toJson/toJsonLine
 * object, windows and the attribution and resilience blocks included,
 * so a toJsonLine report re-serializes byte for byte. The counters
 * block is not read: no consumer of a stored report uses it. Missing
 * members read as 0. False + *err when `v` is not an object, or when
 * a count (seed, request and window counts, attribution and resilience
 * counts) is negative, fractional, not finite or above 2^53.
 */
bool reportFromJson(const sweep::JsonValue &v, Report &r,
                    std::string *err);

/**
 * The fields of the report's "attribution" object, without braces:
 * "requests" through "per_window". Numbers use the stream's precision;
 * the report writes at 10 digits, slinfer_explain --json at 17.
 */
void writeAttributionFields(std::ostream &os,
                            const Report::Attribution &a);

/**
 * The report's scalar metrics as (json_key, value) pairs in emission
 * order — the single source of truth the sweep summary and regression
 * gate aggregate over.
 */
std::vector<std::pair<std::string, double>>
reportScalarMetrics(const Report &report);

/**
 * The attribution block's sweep-facing metrics as (json_key, value)
 * pairs: per segment seg_<name>_total_s / seg_<name>_p95_s /
 * seg_<name>_blamed, plus attr_violations. Empty when the report has
 * no attribution block, so sweeps over uninstrumented runs are
 * unchanged (the summary and gate skip missing metrics).
 */
std::vector<std::pair<std::string, double>>
reportAttributionMetrics(const Report &report);

/**
 * The resilience block's sweep-facing metrics as (json_key, value)
 * pairs (res_availability, res_mttr_mean_s, res_recovery_mean_s, ...).
 * Empty when the report has no resilience block, so sweeps over
 * chaos-free runs are unchanged.
 */
std::vector<std::pair<std::string, double>>
reportResilienceMetrics(const Report &report);

/** Human-readable rendering of the resilience block (empty string
 *  when the run had no resilience probe). */
std::string renderResilience(const Report &report);

/** Header line matching toResilienceCsvRows. */
std::string reportResilienceCsvHeader();

/** One CSV row of the resilience block (empty string when the run had
 *  no probe); carries system/scenario/seed so the table
 *  self-identifies. */
std::string toResilienceCsvRows(const Report &report);

/** Header line matching toCsvRow (scalar fields only). */
std::string reportCsvHeader();

/** Header line matching toWindowsCsvRows. */
std::string reportWindowsCsvHeader();

/** Header line matching toCountersCsvRows. */
std::string reportCountersCsvHeader();

/** Header line matching toAttributionCsvRows. */
std::string reportAttributionCsvHeader();

/** One CSV row per anatomy segment (empty string when the run did not
 *  enable attribution); rows carry system/scenario/seed so the table
 *  self-identifies. */
std::string toAttributionCsvRows(const Report &report);

/**
 * Human-readable rendering of the attribution block: the per-segment
 * latency-anatomy table, then violation blame by model and by window.
 * Shared by `slinfer_run --explain` and the slinfer_explain tool so
 * the two cannot drift. Empty string when the report has no block.
 */
std::string renderAttribution(const Report &report);

/** One CSV row per flight-recorder counter (empty string when the run
 *  did not enable counters); rows carry system/scenario/seed so the
 *  table self-identifies. */
std::string toCountersCsvRows(const Report &report);

/** One CSV row per report window (empty string when unwindowed);
 *  rows carry system/scenario/seed so the table self-identifies. */
std::string toWindowsCsvRows(const Report &report);

/** One CSV row of the report's scalar fields. String fields are
 *  RFC-4180-quoted when they contain commas/quotes/newlines. */
std::string toCsvRow(const Report &report);

/** Quote a CSV field if needed (RFC 4180: wrap in double quotes,
 *  double any embedded quotes). */
std::string csvField(const std::string &field);

/** Escape a string for embedding in JSON output (the one escaper the
 *  report writer and the sweep store/summary share). */
std::string jsonEscape(const std::string &s);

} // namespace slinfer

#endif // SLINFER_METRICS_REPORT_HH

/**
 * @file
 * Latency-anatomy tests: the segment-sum exactness invariant fuzzed
 * across seeds on the fleet scenarios, the attribution determinism
 * contract (reports byte-identical on vs off), the Report attribution
 * block's shape (windows, per-model blame), the timeseries
 * final-sample rule, the trace_dropped counters entry, sweep
 * integration (seg_* metrics, store round-trip) and multi-threaded
 * phase aggregation under a parallel sweep.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "harness/session.hh"
#include "metrics/report.hh"
#include "obs/anatomy.hh"
#include "obs/obs.hh"
#include "scenario/scenario.hh"
#include "sweep/store.hh"
#include "sweep/summary.hh"
#include "sweep/sweep.hh"

namespace slinfer
{
namespace
{

/** A small, fast experiment (mirrors test_obs.cc's smallConfig). */
ExperimentConfig
smallConfig(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.system = SystemKind::Slinfer;
    cfg.cluster.cpuNodes = 2;
    cfg.cluster.gpuNodes = 2;
    cfg.models = replicateModel(llama2_7b(), 8);
    AzureTraceConfig tc;
    tc.numModels = 8;
    tc.duration = 120.0;
    tc.seed = seed;
    cfg.trace = generateAzureTrace(tc);
    cfg.duration = 120.0;
    cfg.seed = seed;
    return cfg;
}

// The tentpole invariant: for every closed record, the segments
// telescope to the measured end-to-end latency with *integer*
// equality — not approximately, exactly. Fuzzed across 24 seeds on
// the three fast intervention-heavy fleet scenarios (node failure,
// rolling deploy, surge autoscaling), which exercise rewind,
// cold-start and resize paths.
TEST(AnatomySegmentSum, ExactAcrossSeedsOnFleetScenarios)
{
    const char *kScenarios[] = {"fleet-node-failure",
                                "fleet-rolling-deploy",
                                "fleet-surge-scale"};
    int fuzzed = 0;
    for (const char *name : kScenarios) {
        const scenario::Scenario *sc = scenario::byName(name);
        ASSERT_NE(sc, nullptr) << name;
        for (std::uint64_t seed = 1; seed <= 8; ++seed, ++fuzzed) {
            ExperimentConfig cfg =
                sc->toExperiment(SystemKind::Slinfer, seed);
            cfg.obs.anatomy = true;
            Session s(cfg);
            obs::AnatomyLedger *led = s.flightRecorder()->anatomy();
            ASSERT_NE(led, nullptr);
            led->retainRecords(true);
            s.advanceTo(s.duration());
            Report r = s.finish();

            const std::vector<obs::AnatomyRecord> &recs =
                led->records();
            ASSERT_EQ(recs.size(), led->closedCount())
                << name << " seed " << seed;
            EXPECT_EQ(led->openCount(), 0u) << name << " seed " << seed;
            std::uint64_t violated = 0;
            for (const obs::AnatomyRecord &rec : recs) {
                std::int64_t sum = 0;
                for (std::size_t seg = 0; seg < obs::kNumSegs; ++seg) {
                    ASSERT_GE(rec.segNs[seg], 0)
                        << name << " seed " << seed << " req " << rec.id
                        << " seg " << obs::segName(seg);
                    sum += rec.segNs[seg];
                }
                // The invariant. Integer equality, no epsilon.
                ASSERT_EQ(sum, rec.e2eNs())
                    << name << " seed " << seed << " req " << rec.id;
                ASSERT_GE(rec.e2eNs(), 0)
                    << name << " seed " << seed << " req " << rec.id;
                if (rec.violated) {
                    ++violated;
                    // Exactly one dominant cause: blame is the argmax
                    // segment, ties broken by enum order — so no
                    // earlier segment may match its duration and no
                    // segment may exceed it.
                    obs::Seg b = rec.blame;
                    EXPECT_EQ(b, rec.dominant());
                    for (std::size_t seg = 0; seg < obs::kNumSegs;
                         ++seg) {
                        if (seg < b)
                            EXPECT_LT(rec.segNs[seg], rec.segNs[b]);
                        else
                            EXPECT_LE(rec.segNs[seg], rec.segNs[b]);
                    }
                    EXPECT_STRNE(obs::segName(b), "?");
                }
            }
            EXPECT_EQ(violated, led->violationCount())
                << name << " seed " << seed;
            EXPECT_EQ(r.attribution.violations, violated)
                << name << " seed " << seed;
        }
    }
    EXPECT_GE(fuzzed, 20); // the acceptance floor
}

// The determinism contract extends to the ledger: attribution is pure
// observation, so every other report byte must match the
// uninstrumented run exactly.
TEST(AnatomyDeterminism, ReportsByteIdenticalOnVsOff)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        ExperimentConfig plain = smallConfig(seed);
        Report off = runExperiment(plain);

        ExperimentConfig instrumented = smallConfig(seed);
        instrumented.obs.anatomy = true;
        Session s(instrumented);
        s.advanceTo(40.0);
        s.advanceTo(s.duration());
        Report on = s.finish();

        EXPECT_TRUE(on.attribution.enabled) << "seed " << seed;
        EXPECT_FALSE(off.attribution.enabled) << "seed " << seed;
        on.attribution = Report::Attribution{}; // the opted-in block
        EXPECT_EQ(toJson(off), toJson(on)) << "seed " << seed;
        EXPECT_EQ(toCsvRow(off), toCsvRow(on)) << "seed " << seed;
    }
}

// Catalog spot-check of the same contract through the scenario path
// (the full 19-entry catalog is exercised by the CI smoke + the
// release checklist; fleet-6400 is too slow for a unit test).
TEST(AnatomyDeterminism, CatalogScenariosByteIdenticalOnVsOff)
{
    for (const char *name : {"quickstart", "flash-crowd",
                             "fleet-node-failure"}) {
        const scenario::Scenario *sc = scenario::byName(name);
        ASSERT_NE(sc, nullptr) << name;
        ExperimentConfig plain =
            sc->toExperiment(SystemKind::Slinfer, 7);
        Report off = runExperiment(plain);

        ExperimentConfig instrumented =
            sc->toExperiment(SystemKind::Slinfer, 7);
        instrumented.obs.anatomy = true;
        Report on = runExperiment(instrumented);

        EXPECT_TRUE(on.attribution.enabled) << name;
        on.attribution = Report::Attribution{};
        EXPECT_EQ(toJson(off), toJson(on)) << name;
    }
}

// The attribution block's shape: one row per segment in enum order,
// per-window blame clamped to the configured window count, and the
// whole thing coexisting with windowed reports and the timeseries.
TEST(AnatomyReport, AttributionBlockShapeWithWindowsAndTimeseries)
{
    ExperimentConfig cfg = smallConfig(9);
    cfg.obs.anatomy = true;
    cfg.obs.sampleEvery = 10.0;
    cfg.windows = 4;
    Session s(cfg);
    s.advanceTo(s.duration());
    Report r = s.finish();

    const Report::Attribution &a = r.attribution;
    ASSERT_TRUE(a.enabled);
    EXPECT_GT(a.requests, 0u);
    ASSERT_EQ(a.segments.size(), obs::kNumSegs);
    std::uint64_t blamed = 0;
    for (std::size_t seg = 0; seg < obs::kNumSegs; ++seg) {
        EXPECT_EQ(a.segments[seg].name, obs::segName(seg));
        EXPECT_GE(a.segments[seg].totalS, 0.0);
        EXPECT_GE(a.segments[seg].p99s, a.segments[seg].p95s);
        EXPECT_GE(a.segments[seg].p95s, a.segments[seg].p50s);
        blamed += a.segments[seg].blamed;
    }
    // Every violation blames exactly one segment.
    EXPECT_EQ(blamed, a.violations);

    // Per-window blame: one row per report window, one column per
    // segment, totals bounded by the violation count.
    ASSERT_EQ(a.perWindow.size(), 4u);
    EXPECT_DOUBLE_EQ(a.windowLen, cfg.duration / 4.0);
    std::uint64_t windowed = 0;
    for (const std::vector<std::uint64_t> &row : a.perWindow) {
        ASSERT_EQ(row.size(), obs::kNumSegs);
        for (std::uint64_t v : row)
            windowed += v;
    }
    EXPECT_LE(windowed, a.violations);

    // Per-model rows carry the "m<id>:<name>" disambiguated label and
    // only appear for models that blamed something.
    for (const Report::Attribution::ModelBlame &row : a.perModel) {
        EXPECT_EQ(row.model.rfind("m", 0), 0u) << row.model;
        EXPECT_NE(row.model.find(':'), std::string::npos) << row.model;
        std::uint64_t any = 0;
        for (std::uint64_t v : row.blamed)
            any += v;
        EXPECT_GT(any, 0u) << row.model;
    }

    // The satellites it must coexist with: windowed report rows and
    // the sampled timeseries.
    EXPECT_EQ(r.windows.size(), 4u);
    const obs::Timeseries *ts = s.flightRecorder()->timeseries();
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->samples().size(), 13u); // 120 s / 10 s + t=0

    // The block renders and survives the JSON emitter (shape only;
    // the store round-trip test checks value fidelity).
    std::string json = toJson(r);
    EXPECT_NE(json.find("\"attribution\""), std::string::npos);
    EXPECT_NE(json.find("\"per_window\""), std::string::npos);
    EXPECT_FALSE(renderAttribution(r).empty());
}

// finish() closes the timeseries with a final row at duration() when
// the run ends inside a partial cadence window...
TEST(ObsTimeseriesFinalSample, PartialLastWindowGetsClosingRow)
{
    ExperimentConfig cfg = smallConfig(3);
    cfg.obs.sampleEvery = 50.0; // 120 s: samples at 0, 50, 100 + final
    Session s(cfg);
    s.advanceTo(s.duration());
    s.finish();

    const obs::Timeseries *ts = s.flightRecorder()->timeseries();
    ASSERT_NE(ts, nullptr);
    ASSERT_EQ(ts->samples().size(), 4u);
    EXPECT_DOUBLE_EQ(ts->samples()[2].time, 100.0);
    EXPECT_DOUBLE_EQ(ts->samples()[3].time, 120.0);
}

// ...and emits no duplicate when the duration is an exact multiple of
// the cadence (the cadence loop already sampled the endpoint).
TEST(ObsTimeseriesFinalSample, ExactMultipleEmitsNoDuplicate)
{
    ExperimentConfig cfg = smallConfig(3);
    cfg.obs.sampleEvery = 60.0; // 0, 60, 120 — 120 lands on cadence
    Session s(cfg);
    s.advanceTo(s.duration());
    s.finish();

    const obs::Timeseries *ts = s.flightRecorder()->timeseries();
    ASSERT_NE(ts, nullptr);
    ASSERT_EQ(ts->samples().size(), 3u);
    EXPECT_DOUBLE_EQ(ts->samples()[2].time, 120.0);
}

// Ring-overwrite visibility: a trace-enabled counters run appends a
// trace_dropped entry past the registry snapshot (counters-only runs
// keep the exact registry order and length — test_obs.cc holds that).
TEST(ObsCounters, TraceDroppedAppendedWhenTracing)
{
    ExperimentConfig cfg = smallConfig(7);
    cfg.obs.counters = true;
    cfg.obs.trace = true;
    cfg.obs.traceCapacity = 64; // tiny ring: overwrite is certain
    Session s(cfg);
    s.advanceTo(s.duration());
    Report r = s.finish();

    ASSERT_EQ(r.counters.size(), obs::kNumCounters + 1);
    EXPECT_EQ(r.counters.back().first, "trace_dropped");
    EXPECT_GT(r.counters.back().second, 0u);
    EXPECT_EQ(r.counters.back().second,
              s.flightRecorder()->trace()->dropped());
}

// Sweep integration: --attribution runs attach seg_* metrics, the
// JSONL store round-trips the block bit-exactly, and the summary
// joins attribution metrics by name.
TEST(SweepAttribution, RunJobStoreRoundTripAndSummaryMetrics)
{
    sweep::JobSpec job;
    job.scenario = "quickstart";
    job.system = SystemKind::Slinfer;
    job.seed = 3;
    Report r = sweep::runJob(job, false, true);
    ASSERT_TRUE(r.attribution.enabled);

    std::vector<std::pair<std::string, double>> metrics =
        reportAttributionMetrics(r);
    ASSERT_FALSE(metrics.empty());
    EXPECT_EQ(metrics.front().first, "attr_violations");
    bool sawQueueWait = false;
    for (const auto &[name, value] : metrics) {
        (void)value;
        sawQueueWait = sawQueueWait || name == "seg_queue_wait_total_s";
    }
    EXPECT_TRUE(sawQueueWait);
    // Uninstrumented reports contribute none (baseline compatibility).
    EXPECT_TRUE(reportAttributionMetrics(Report{}).empty());

    // Store round-trip: serialize one record line and parse it back;
    // the attribution block must survive byte-exactly.
    std::string line = sweep::ResultStore::recordLine(job, r);
    sweep::JobSpec job2;
    Report r2;
    std::string err;
    ASSERT_TRUE(
        sweep::ResultStore::parseRecordLine(line, job2, r2, &err))
        << err;
    EXPECT_TRUE(r2.attribution.enabled);
    EXPECT_EQ(toJson(r), toJson(r2));

    // Summary rows gain the seg_* metrics, joined by name.
    std::vector<sweep::Record> records;
    records.push_back({job, r});
    std::vector<sweep::SummaryRow> rows = sweep::summarize(records, 10);
    ASSERT_EQ(rows.size(), 1u);
    const sweep::MetricSummary *m =
        rows[0].metric("seg_queue_wait_total_s");
    ASSERT_NE(m, nullptr);
    const sweep::MetricSummary *v = rows[0].metric("attr_violations");
    ASSERT_NE(v, nullptr);
}

// Phase profiling aggregates across a parallel sweep: four workers,
// four jobs, every worker folds its per-thread profiler into the
// process totals at job end.
TEST(ObsPhase, ParallelSweepAggregatesAcrossWorkerThreads)
{
    std::array<double, obs::kNumPhases> before =
        obs::phaseTotalsSnapshot();

    sweep::Grid grid;
    grid.scenarios = {"quickstart", "poisson-steady"};
    grid.systems = {SystemKind::Slinfer};
    grid.seeds = {1, 2};
    sweep::RunOptions opts;
    opts.jobs = 4;
    opts.phaseProfile = true;
    std::vector<sweep::Record> records = sweep::runGrid(grid, opts);
    ASSERT_EQ(records.size(), 4u);

    std::array<double, obs::kNumPhases> after =
        obs::phaseTotalsSnapshot();
    double gained = 0.0;
    for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
        EXPECT_GE(after[i], before[i]) << obs::phaseName(i);
        gained += after[i] - before[i];
    }
    // Four simulated experiments must have burned measurable host
    // time inside profiled phases.
    EXPECT_GT(gained, 0.0);
}

} // namespace
} // namespace slinfer

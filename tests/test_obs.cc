/**
 * @file
 * Flight-recorder tests: the determinism contract (reports are
 * byte-identical with every instrumentation sink on vs off, fuzzed
 * across seeds), Chrome-trace well-formedness, counter sanity,
 * timeseries shape, phase-profiler self-time accounting, and the
 * sweep-worker log-tag hygiene regression.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/log.hh"
#include "harness/session.hh"
#include "obs/obs.hh"
#include "scenario/scenario.hh"
#include "sweep/json.hh"
#include "sweep/sweep.hh"

namespace slinfer
{
namespace
{

/** A small, fast experiment for the fuzz loop. */
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

/** Everything on: counters, full-category trace, timeseries, phases. */
obs::ObsConfig
allOn()
{
    obs::ObsConfig oc;
    oc.counters = true;
    oc.trace = true;
    oc.traceCats = obs::kAllTraceCats;
    oc.sampleEvery = 0.5;
    oc.phaseProfile = true;
    return oc;
}

// The acceptance criterion of the whole subsystem: instrumentation is
// pure observation. 20 seeds, every sink enabled, reports must match
// the uninstrumented run byte for byte (modulo the counters block,
// which only exists because we asked for it).
TEST(ObsDeterminism, ReportsByteIdenticalAcrossTwentySeeds)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ExperimentConfig plain = smallConfig(seed);
        Report off = runExperiment(plain);

        ExperimentConfig instrumented = smallConfig(seed);
        instrumented.obs = allOn();
        Session s(instrumented);
        s.advanceTo(30.0);
        s.advanceTo(s.duration());
        Report on = s.finish();

        EXPECT_FALSE(on.counters.empty()) << "seed " << seed;
        on.counters.clear(); // opted-in block; the rest must match
        EXPECT_EQ(toJson(off), toJson(on)) << "seed " << seed;
        EXPECT_EQ(toCsvRow(off), toCsvRow(on)) << "seed " << seed;
    }
}

TEST(ObsCounters, HotPathCountersAreNonZeroAndNamed)
{
    ExperimentConfig cfg = smallConfig(7);
    cfg.obs.counters = true;
    Session s(cfg);
    s.advanceTo(s.duration());
    Report r = s.finish();

    ASSERT_EQ(r.counters.size(), obs::kNumCounters);
    std::map<std::string, std::uint64_t> c(r.counters.begin(),
                                           r.counters.end());
    EXPECT_GT(c["events_fired"], 0u);
    EXPECT_GT(c["placement_probes"], 0u);
    EXPECT_GT(c["shadow_runs"], 0u);
    EXPECT_GT(c["kv_target_changes"], 0u);
    // Registry order is stable: names follow the Counter enum.
    for (std::size_t i = 0; i < obs::kNumCounters; ++i)
        EXPECT_EQ(r.counters[i].first, obs::counterName(i));
}

TEST(ObsTrace, ChromeJsonIsWellFormedAndTimeOrdered)
{
    ExperimentConfig cfg = smallConfig(11);
    cfg.obs.trace = true;
    Session s(cfg);
    s.advanceTo(s.duration());
    s.finish();

    const obs::TraceRecorder *tr = s.flightRecorder()->trace();
    ASSERT_NE(tr, nullptr);
    EXPECT_GT(tr->size(), 0u);
    EXPECT_EQ(tr->dropped(), 0u);

    std::ostringstream os;
    tr->writeChromeJson(os);

    sweep::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sweep::parseJson(os.str(), doc, &err)) << err;
    const sweep::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_GT(events->array.size(), 0u);

    const std::string known_ph = "MXiben";
    double last_ts = -1.0;
    std::set<std::string> seen;
    for (const sweep::JsonValue &e : events->array) {
        ASSERT_TRUE(e.isObject());
        std::string ph = e.string("ph");
        ASSERT_EQ(ph.size(), 1u);
        EXPECT_NE(known_ph.find(ph), std::string::npos);
        seen.insert(ph);
        if (ph == "M")
            continue;
        const sweep::JsonValue *ts = e.find("ts");
        ASSERT_NE(ts, nullptr);
        ASSERT_TRUE(ts->isNumber());
        EXPECT_GE(ts->number, 0.0);
        EXPECT_GE(ts->number, last_ts); // insertion order == time order
        last_ts = ts->number;
        if (ph == "X")
            EXPECT_GE(e.num("dur", -1.0), 0.0);
        if (ph == "b" || ph == "e" || ph == "n")
            EXPECT_NE(e.find("id"), nullptr);
        if (ph == "i")
            EXPECT_EQ(e.string("s"), "t");
    }
    // The request lifecycle must produce async spans with sub-steps,
    // the schedulers complete spans, and metadata names the tracks.
    EXPECT_TRUE(seen.count("M"));
    EXPECT_TRUE(seen.count("X"));
    EXPECT_TRUE(seen.count("b"));
    EXPECT_TRUE(seen.count("e"));
    EXPECT_TRUE(seen.count("n"));
}

TEST(ObsTrace, CategoryMaskFiltersSpans)
{
    ExperimentConfig cfg = smallConfig(5);
    cfg.obs.trace = true;
    cfg.obs.traceCats = obs::kCatExec; // prefill/decode spans only
    Session s(cfg);
    s.advanceTo(s.duration());
    s.finish();

    const obs::TraceRecorder *tr = s.flightRecorder()->trace();
    ASSERT_NE(tr, nullptr);
    EXPECT_GT(tr->size(), 0u);

    std::ostringstream os;
    tr->writeChromeJson(os);
    sweep::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sweep::parseJson(os.str(), doc, &err)) << err;
    for (const sweep::JsonValue &e : doc.find("traceEvents")->array) {
        if (e.string("ph") == "M")
            continue;
        EXPECT_EQ(e.string("cat"), "exec");
    }
}

TEST(ObsTrace, RingOverwriteKeepsNewestEvents)
{
    obs::TraceRecorder tr(obs::kAllTraceCats, 4);
    for (int i = 0; i < 10; ++i)
        tr.instant(obs::kCatController, "tick", static_cast<double>(i),
                   obs::kPidController, 0);
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.total(), 10u);
    EXPECT_EQ(tr.dropped(), 6u);

    std::ostringstream os;
    tr.writeChromeJson(os);
    sweep::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sweep::parseJson(os.str(), doc, &err)) << err;
    // Oldest-first export of the surviving window: ts 6..9 in µs.
    std::vector<double> ts;
    for (const sweep::JsonValue &e : doc.find("traceEvents")->array)
        if (e.string("ph") != "M")
            ts.push_back(e.num("ts"));
    ASSERT_EQ(ts.size(), 4u);
    EXPECT_EQ(ts.front(), 6e6);
    EXPECT_EQ(ts.back(), 9e6);
}

TEST(ObsTimeseries, CadenceCoversTheWholeWindowIncludingTimeZero)
{
    ExperimentConfig cfg = smallConfig(3);
    cfg.obs.sampleEvery = 10.0;
    Session s(cfg);
    // Step awkwardly: samples must land on the cadence regardless of
    // how the caller slices the clock.
    s.advanceTo(33.0);
    s.advanceTo(34.0);
    Report r = s.finish();
    (void)r;

    const obs::Timeseries *ts = s.flightRecorder()->timeseries();
    ASSERT_NE(ts, nullptr);
    // t = 0, 10, ..., 120: 13 samples.
    ASSERT_EQ(ts->samples().size(), 13u);
    for (std::size_t i = 0; i < ts->samples().size(); ++i) {
        const obs::TimeseriesSample &smp = ts->samples()[i];
        EXPECT_DOUBLE_EQ(smp.time, 10.0 * static_cast<double>(i));
        EXPECT_EQ(smp.inFlight,
                  smp.arrived - smp.completed - smp.dropped);
    }
    // CSV renders one header plus one row per sample.
    std::string csv = ts->toCsv();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              1 + ts->samples().size());
    // The JSON form parses and has the same length.
    sweep::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sweep::parseJson(ts->toJson(), doc, &err)) << err;
    ASSERT_TRUE(doc.isArray());
    EXPECT_EQ(doc.array.size(), ts->samples().size());
}

TEST(ObsPhase, SelfTimeAttributionAndGlobalAggregate)
{
    obs::PhaseProfiler prof;
    {
        obs::ScopedPhase outer(&prof, obs::kPhaseEventDispatch);
        {
            obs::ScopedPhase inner(&prof, obs::kPhaseControllerDecide);
        }
        {
            obs::ScopedPhase inner(&prof, obs::kPhaseMemoryOp);
        }
    }
    EXPECT_EQ(prof.entries(obs::kPhaseEventDispatch), 1u);
    EXPECT_EQ(prof.entries(obs::kPhaseControllerDecide), 1u);
    EXPECT_EQ(prof.entries(obs::kPhaseMemoryOp), 1u);
    EXPECT_GE(prof.total(obs::kPhaseEventDispatch), 0.0);

    // Null profiler: the scope is a no-op, not a crash.
    {
        obs::ScopedPhase off(nullptr, obs::kPhaseEventDispatch);
    }

    std::array<double, obs::kNumPhases> before =
        obs::phaseTotalsSnapshot();
    obs::addPhaseTotals(prof);
    std::array<double, obs::kNumPhases> after =
        obs::phaseTotalsSnapshot();
    for (std::size_t i = 0; i < obs::kNumPhases; ++i)
        EXPECT_GE(after[i], before[i]);
}

// Satellite regression: a sweep worker's thread tag must not leak past
// its job — idle-worker log lines would otherwise claim "job N/M".
TEST(LogTagScope, RestoresThePreviousTagOnEveryExitPath)
{
    setLogThreadTag("");
    {
        LogTagScope outer("outer");
        EXPECT_EQ(logThreadTag(), "outer");
        {
            LogTagScope inner("inner");
            EXPECT_EQ(logThreadTag(), "inner");
        }
        EXPECT_EQ(logThreadTag(), "outer");
    }
    EXPECT_EQ(logThreadTag(), "");
}

TEST(LogTagScope, SweepWorkerLeavesNoStaleTag)
{
    setLogThreadTag("");
    sweep::Grid grid;
    grid.scenarios = {"quickstart"};
    grid.systems = {SystemKind::Slinfer};
    grid.seeds = {1};
    sweep::RunOptions opts;
    opts.jobs = 1; // single worker == this thread runs the job inline
    sweep::runGrid(grid, opts);
    EXPECT_EQ(logThreadTag(), "") << "sweep worker leaked its job tag";
}

} // namespace
} // namespace slinfer

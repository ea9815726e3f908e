/**
 * @file
 * Sweep-subsystem tests: grid expansion order and hashing are stable,
 * runGrid produces byte-identical stores and summaries at any worker
 * count, a partial store resumes by executing only the missing jobs,
 * the bootstrap CI behaves sanely on a known sample, the regression
 * gate passes against itself and fails on an injected drift, manifests
 * parse, records round-trip, and CSV fields quote correctly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "sweep/compare.hh"
#include "sweep/pool.hh"
#include "sweep/store.hh"
#include "sweep/summary.hh"
#include "sweep/sweep.hh"

namespace slinfer
{
namespace sweep
{
namespace
{

/** The fast smoke grid every execution test uses (quickstart runs in
 *  ~10 ms, so the full 6-job grid stays well under a second). */
Grid
smokeGrid()
{
    Grid grid;
    grid.scenarios = {"quickstart"};
    grid.systems = {SystemKind::Slinfer, SystemKind::Sllm};
    grid.seeds = {1, 2, 3};
    return grid;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "slinfer_sweep_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(SweepGrid, ExpansionOrderAndHashesAreStable)
{
    Grid grid = smokeGrid();
    std::vector<JobSpec> a = expandGrid(grid);
    std::vector<JobSpec> b = expandGrid(grid);
    ASSERT_EQ(a.size(), 6u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key(), b[i].key());
        EXPECT_EQ(a[i].hash(), b[i].hash());
        EXPECT_EQ(a[i].hash().size(), 16u);
        EXPECT_DOUBLE_EQ(a[i].duration, 300.0);
    }
    // Scenario-major, then system, then seed.
    EXPECT_EQ(a[0].seed, 1u);
    EXPECT_EQ(a[2].seed, 3u);
    EXPECT_EQ(a[0].system, SystemKind::Slinfer);
    EXPECT_EQ(a[3].system, SystemKind::Sllm);

    // Distinct jobs hash distinctly.
    std::set<std::string> hashes;
    for (const JobSpec &job : a)
        hashes.insert(job.hash());
    EXPECT_EQ(hashes.size(), a.size());
}

TEST(SweepGrid, OverridesChangeTheHashAndTheConfig)
{
    OverrideSet ov;
    ov.name = "small";
    ov.settings = {{"cpu-nodes", "2"}, {"keep-alive", "4.5"}};
    EXPECT_EQ(ov.canonical(), "cpu-nodes=2;keep-alive=4.5");

    JobSpec plain;
    plain.scenario = "quickstart";
    plain.seed = 1;
    JobSpec tweaked = plain;
    tweaked.overrides = ov;
    EXPECT_NE(plain.hash(), tweaked.hash());

    ExperimentConfig cfg;
    cfg = applyOverrides(cfg, ov);
    EXPECT_EQ(cfg.cluster.cpuNodes, 2);
    EXPECT_DOUBLE_EQ(cfg.controller.keepAlive, 4.5);

    OverrideSet bad;
    bad.settings = {{"no-such-knob", "1"}};
    EXPECT_EXIT(applyOverrides(ExperimentConfig{}, bad),
                testing::ExitedWithCode(1), "unknown override key");

    // Node counts must be integers that fit an int; the check runs
    // before the cast, so nan, inf and 1e20 fail instead of being UB.
    for (const char *value : {"nan", "inf", "1e20", "-1", "2.5"}) {
        OverrideSet nodes;
        nodes.settings = {{"gpu-nodes", value}};
        EXPECT_EXIT(applyOverrides(ExperimentConfig{}, nodes),
                    testing::ExitedWithCode(1),
                    "expected a nonnegative integer")
            << value;
    }
}

TEST(SweepRun, ByteIdenticalStoreAndSummaryAtAnyWorkerCount)
{
    std::string path1 = tempPath("jobs1.jsonl");
    std::string path4 = tempPath("jobs4.jsonl");
    std::remove(path1.c_str());
    std::remove(path4.c_str());

    RunOptions o1;
    o1.jobs = 1;
    o1.storePath = path1;
    RunOptions o4;
    o4.jobs = 4;
    o4.storePath = path4;

    std::vector<Record> r1 = runGrid(smokeGrid(), o1);
    std::vector<Record> r4 = runGrid(smokeGrid(), o4);
    ASSERT_EQ(r1.size(), r4.size());

    std::string store1 = slurp(path1);
    EXPECT_FALSE(store1.empty());
    EXPECT_EQ(store1, slurp(path4));
    EXPECT_EQ(summaryToJson(summarize(r1)), summaryToJson(summarize(r4)));
    EXPECT_EQ(summaryToCsv(summarize(r1)), summaryToCsv(summarize(r4)));

    std::remove(path1.c_str());
    std::remove(path4.c_str());
}

TEST(SweepRun, ResumeExecutesOnlyTheMissingJobs)
{
    std::string full_path = tempPath("full.jsonl");
    std::string part_path = tempPath("partial.jsonl");
    std::remove(full_path.c_str());
    std::remove(part_path.c_str());

    RunOptions opts;
    opts.jobs = 2;
    opts.storePath = full_path;
    runGrid(smokeGrid(), opts);
    std::string full = slurp(full_path);

    // Keep the first two records, as if the sweep was interrupted.
    std::istringstream in(full);
    std::ofstream out(part_path);
    std::string line;
    for (int i = 0; i < 2 && std::getline(in, line); ++i)
        out << line << "\n";
    out.close();

    std::atomic<int> executed{0};
    std::atomic<int> cached{0};
    RunOptions resume;
    resume.jobs = 2;
    resume.storePath = part_path;
    resume.onProgress = [&](const Progress &p) {
        (p.cached ? cached : executed)
            .fetch_add(1, std::memory_order_relaxed);
    };
    std::vector<Record> records = runGrid(smokeGrid(), resume);

    EXPECT_EQ(cached.load(), 2);
    EXPECT_EQ(executed.load(), 4);
    ASSERT_EQ(records.size(), 6u);
    // The resumed store compacts to the same bytes as the uninterrupted
    // one.
    EXPECT_EQ(slurp(part_path), full);

    std::remove(full_path.c_str());
    std::remove(part_path.c_str());
}

TEST(SweepRun, ATornFinalRecordIsDroppedAndReRun)
{
    std::string full_path = tempPath("torn_full.jsonl");
    std::string torn_path = tempPath("torn.jsonl");
    std::remove(full_path.c_str());
    std::remove(torn_path.c_str());

    RunOptions opts;
    opts.jobs = 2;
    opts.storePath = full_path;
    runGrid(smokeGrid(), opts);
    std::string full = slurp(full_path);

    // Two complete records plus half of the third, as left behind by a
    // SIGKILL mid-append (no trailing newline).
    std::istringstream in(full);
    std::string line;
    std::ofstream out(torn_path);
    for (int i = 0; i < 2 && std::getline(in, line); ++i)
        out << line << "\n";
    std::getline(in, line);
    out << line.substr(0, line.size() / 2);
    out.close();

    std::atomic<int> executed{0};
    std::atomic<int> cached{0};
    RunOptions resume;
    resume.jobs = 2;
    resume.storePath = torn_path;
    resume.onProgress = [&](const Progress &p) {
        (p.cached ? cached : executed)
            .fetch_add(1, std::memory_order_relaxed);
    };
    runGrid(smokeGrid(), resume);

    EXPECT_EQ(cached.load(), 2);
    EXPECT_EQ(executed.load(), 4); // the torn job re-ran
    EXPECT_EQ(slurp(torn_path), full);

    std::remove(full_path.c_str());
    std::remove(torn_path.c_str());
}

TEST(SweepRun, ASharedStoreKeepsRecordsFromOtherGrids)
{
    std::string path = tempPath("shared.jsonl");
    std::remove(path.c_str());

    Grid wide = smokeGrid();
    wide.scenarios = {"quickstart", "poisson-steady"};
    RunOptions opts;
    opts.jobs = 2;
    opts.storePath = path;
    runGrid(wide, opts);
    std::string full = slurp(path);

    // Re-running a *narrower* grid against the same store must not
    // delete the other scenario's records.
    std::atomic<int> executed{0};
    RunOptions narrow;
    narrow.jobs = 2;
    narrow.storePath = path;
    narrow.onProgress = [&](const Progress &p) {
        if (!p.cached)
            executed.fetch_add(1, std::memory_order_relaxed);
    };
    runGrid(smokeGrid(), narrow);
    EXPECT_EQ(executed.load(), 0);
    EXPECT_EQ(slurp(path), full);

    std::remove(path.c_str());
}

TEST(SweepRun, AValidRecordMissingItsNewlineIsRepairedNotCorrupted)
{
    std::string full_path = tempPath("nonl_full.jsonl");
    std::string nonl_path = tempPath("nonl.jsonl");
    std::remove(full_path.c_str());
    std::remove(nonl_path.c_str());

    RunOptions opts;
    opts.jobs = 2;
    opts.storePath = full_path;
    runGrid(smokeGrid(), opts);
    std::string full = slurp(full_path);

    // Two records where the second lost its trailing newline (e.g. a
    // crash after the flush of the bytes but before the '\n', or a
    // tool stripping it): the record is valid and must be kept, and
    // the next append must not concatenate onto it.
    std::istringstream in(full);
    std::string l1, l2;
    std::getline(in, l1);
    std::getline(in, l2);
    {
        std::ofstream out(nonl_path);
        out << l1 << "\n" << l2; // no trailing newline
    }

    std::atomic<int> cached{0};
    RunOptions resume;
    resume.jobs = 2;
    resume.storePath = nonl_path;
    resume.onProgress = [&](const Progress &p) {
        if (p.cached)
            cached.fetch_add(1, std::memory_order_relaxed);
    };
    runGrid(smokeGrid(), resume);
    EXPECT_EQ(cached.load(), 2); // both survived
    EXPECT_EQ(slurp(nonl_path), full);

    std::remove(full_path.c_str());
    std::remove(nonl_path.c_str());
}

TEST(SweepSummary, BootstrapCiIsSaneOnAKnownSample)
{
    // A fixed sample with mean 10: the 95% CI on the mean must contain
    // it, be ordered, and be deterministic in the seed.
    std::vector<double> samples = {8, 9, 9.5, 10, 10.5, 11, 12};
    MetricSummary s = bootstrapSummary(samples, 77, 2000);
    EXPECT_NEAR(s.mean, 10.0, 1e-12);
    EXPECT_LE(s.ciLo, s.mean);
    EXPECT_GE(s.ciHi, s.mean);
    EXPECT_LT(s.ciLo, s.ciHi);
    EXPECT_GT(s.ciLo, samples.front());
    EXPECT_LT(s.ciHi, samples.back());
    EXPECT_DOUBLE_EQ(s.p50, 10.0);

    MetricSummary again = bootstrapSummary(samples, 77, 2000);
    EXPECT_DOUBLE_EQ(s.ciLo, again.ciLo);
    EXPECT_DOUBLE_EQ(s.ciHi, again.ciHi);

    // More replicates of the same spread tighten the interval.
    std::vector<double> many;
    for (int rep = 0; rep < 20; ++rep)
        for (double x : samples)
            many.push_back(x);
    MetricSummary tight = bootstrapSummary(many, 77, 2000);
    EXPECT_LT(tight.ciHi - tight.ciLo, s.ciHi - s.ciLo);

    // Single sample: degenerate interval at the mean.
    MetricSummary one = bootstrapSummary({3.5}, 1, 2000);
    EXPECT_DOUBLE_EQ(one.ciLo, 3.5);
    EXPECT_DOUBLE_EQ(one.ciHi, 3.5);
}

TEST(SweepSummary, GroupsReplicatesAcrossSeeds)
{
    RunOptions opts;
    opts.jobs = 2;
    std::vector<Record> records = runGrid(smokeGrid(), opts);
    std::vector<SummaryRow> rows = summarize(records, 200);
    ASSERT_EQ(rows.size(), 2u); // one per system
    for (const SummaryRow &row : rows) {
        EXPECT_EQ(row.replicates, 3u);
        const MetricSummary *goodput = row.metric("goodput_rpm");
        ASSERT_NE(goodput, nullptr);
        EXPECT_GT(goodput->mean, 0.0);
        EXPECT_EQ(goodput->n, 3u);
    }

    // JSON round-trip preserves the row identities and means.
    std::vector<SummaryRow> parsed;
    std::string err;
    ASSERT_TRUE(summaryFromJson(summaryToJson(rows), parsed, &err))
        << err;
    ASSERT_EQ(parsed.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(parsed[i].key(), rows[i].key());
        const MetricSummary *a = rows[i].metric("p95_ttft");
        const MetricSummary *b = parsed[i].metric("p95_ttft");
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        EXPECT_NEAR(a->mean, b->mean, 1e-9 * (1.0 + std::abs(a->mean)));
    }
}

TEST(SweepCompare, PassesAgainstItselfAndFailsOnDrift)
{
    RunOptions opts;
    opts.jobs = 2;
    std::vector<Record> records = runGrid(smokeGrid(), opts);
    std::vector<SummaryRow> rows = summarize(records, 200);

    CompareResult self = compare(rows, rows);
    EXPECT_TRUE(self.pass);
    EXPECT_EQ(self.regressions, 0u);
    EXPECT_GT(self.checked, 0u);
    EXPECT_NE(self.table.find("PASS"), std::string::npos);

    // Inflate baseline goodput by 2x: current is now a regression.
    std::vector<SummaryRow> inflated = rows;
    for (SummaryRow &row : inflated) {
        for (auto &[name, m] : row.metrics) {
            if (name == "goodput_rpm")
                m.mean *= 2.0;
        }
    }
    CompareResult fail = compare(rows, inflated);
    EXPECT_FALSE(fail.pass);
    EXPECT_GT(fail.regressions, 0u);
    EXPECT_NE(fail.table.find("REGRESSION"), std::string::npos);
    EXPECT_NE(fail.table.find("goodput_rpm"), std::string::npos);

    // A baseline row with no counterpart fails too.
    std::vector<SummaryRow> extra = rows;
    extra.push_back(rows[0]);
    extra.back().scenario = "not-run-this-time";
    CompareResult missing = compare(rows, extra);
    EXPECT_FALSE(missing.pass);
    EXPECT_EQ(missing.missingRows, 1u);

    // A *new* current row is reported but does not fail the gate.
    CompareResult added = compare(extra, rows);
    EXPECT_TRUE(added.pass);
    EXPECT_EQ(added.newRows, 1u);

    // The gate fails closed: matched rows with zero comparable gated
    // metric cells (e.g. a metric rename) must not pass vacuously.
    std::vector<SummaryRow> renamed = rows;
    for (SummaryRow &row : renamed) {
        for (auto &[name, m] : row.metrics)
            name += "_v2";
    }
    CompareResult vacuous = compare(renamed, renamed);
    EXPECT_FALSE(vacuous.pass);
    EXPECT_EQ(vacuous.checked, 0u);
    EXPECT_NE(vacuous.table.find("EMPTY GATE"), std::string::npos);
}

TEST(SweepManifest, ParsesAxesAndRejectsGarbage)
{
    Grid grid;
    std::string err;
    ASSERT_TRUE(parseManifest("# smoke sweep\n"
                              "scenarios = quickstart, poisson-steady\n"
                              "systems = slinfer, sllm\n"
                              "seeds = 1..3\n"
                              "override = small: cpu-nodes=2; "
                              "gpu-nodes=2\n",
                              grid, &err))
        << err;
    EXPECT_EQ(grid.scenarios.size(), 2u);
    EXPECT_EQ(grid.systems.size(), 2u);
    ASSERT_EQ(grid.seeds.size(), 3u);
    EXPECT_EQ(grid.seeds[0], 1u);
    EXPECT_EQ(grid.seeds[2], 3u);
    ASSERT_EQ(grid.overrides.size(), 1u);
    EXPECT_EQ(grid.overrides[0].name, "small");
    EXPECT_EQ(grid.overrides[0].settings.size(), 2u);

    Grid bad;
    EXPECT_FALSE(parseManifest("nonsense line\n", bad, &err));
    EXPECT_NE(err.find("line 1"), std::string::npos);
    EXPECT_FALSE(parseManifest("frobnicate = 1\n", bad, &err));
    // Unknown systems and malformed overrides report the line instead
    // of exiting the process.
    EXPECT_FALSE(parseManifest("systems = slinfer\nsystems = bogus\n",
                               bad, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos);
    EXPECT_NE(err.find("bogus"), std::string::npos);
    EXPECT_FALSE(parseManifest("override = broken-no-equals\n", bad,
                               &err));
    EXPECT_NE(err.find("line 1"), std::string::npos);
    // Seeds are validated strictly; "three" must not become seed 0.
    EXPECT_FALSE(parseManifest("seeds = 1, 2, three\n", bad, &err));
    EXPECT_NE(err.find("three"), std::string::npos);
    EXPECT_FALSE(parseManifest("seeds = x..3\n", bad, &err));

    std::vector<std::uint64_t> seeds;
    EXPECT_TRUE(parseSeedList("4..6", seeds, &err));
    EXPECT_EQ(seeds, (std::vector<std::uint64_t>{4, 5, 6}));
    seeds.clear();
    EXPECT_FALSE(parseSeedList("5..1", seeds, &err));
    EXPECT_FALSE(parseSeedList("-3", seeds, &err));
    EXPECT_FALSE(parseSeedList("", seeds, &err));
}

/** The strict flag parsers both tools share: whole token, no sign on
 *  counts, no overflow, finite reals only. */
TEST(SweepGrid, StrictNumericParsing)
{
    std::uint64_t n = 0;
    EXPECT_TRUE(parseCount("4", n));
    EXPECT_EQ(n, 4u);
    EXPECT_TRUE(parseCount("18446744073709551615", n));
    for (const char *bad : {"", "4x", "-5", "+4", " 4", "0x10",
                            "18446744073709551616", "abc"})
        EXPECT_FALSE(parseCount(bad, n)) << bad;

    double v = 0.0;
    EXPECT_TRUE(parseReal("0.25", v));
    EXPECT_EQ(v, 0.25);
    EXPECT_TRUE(parseReal("-1e3", v));
    EXPECT_EQ(v, -1000.0);
    for (const char *bad : {"", "abc", "0.1x", " 0.1", "nan", "inf",
                            "1e999"})
        EXPECT_FALSE(parseReal(bad, v)) << bad;
}

TEST(SweepStore, RecordLinesRoundTrip)
{
    JobSpec job;
    job.scenario = "quickstart";
    job.system = SystemKind::SllmCS;
    job.seed = 17;
    job.overrides.name = "tight";
    job.overrides.settings = {{"tpot-slo", "0.05"}};
    job.duration = 300.0;

    Report report;
    report.system = "sllm+c+s";
    report.scenario = "quickstart";
    report.seed = 17;
    report.totalRequests = 100;
    report.completed = 93;
    report.sloRate = 0.93129999999999913;
    report.p95Ttft = 4.25;
    report.ttftCdf = {{0.25, 0.1}, {1.0, 0.8}};
    report.gpuTimeline = {{0.0, 1.0}, {60.0, 2.0}};
    // Every optional block the writer emits, so the reader must read
    // each one back for the line to re-serialize byte for byte.
    Report::Window w;
    w.start = 150.0;
    w.end = 300.0;
    w.arrived = 51;
    w.completed = 47;
    w.dropped = 2;
    w.p50Ttft = 0.30000000000000004;
    w.p95Ttft = 1.75;
    w.completedPerSec = 47.0 / 150.0;
    w.tokensPerSec = 123.456;
    report.windows = {Report::Window{}, w};
    Report::Attribution &a = report.attribution;
    a.enabled = true;
    a.requests = 95;
    a.violations = 7;
    a.segments = {{"queue_wait", 40, 12.5, 0.1, 0.9, 1.0 / 3.0, 5},
                  {"cold_start", 3, 2.25, 0.7, 0.8, 0.9, 2}};
    a.perModel = {{"llama-2-7b", {5, 2}}, {"llama-2-13b", {0, 0}}};
    a.windowLen = 150.0;
    a.perWindow = {{1, 0}, {4, 2}};
    Report::Resilience &res = report.resilience;
    res.enabled = true;
    res.faultEvents = 2;
    res.restores = 1;
    res.availability = 0.96666666666666667;
    res.mttrMeanS = 42.5;
    res.degradedTimeS = 85.0;
    res.lostPerFault = 1.5;
    res.goodputFaultRpm = 8.25;
    res.goodputHealthyRpm = 11.0 / 7.0;
    res.recoveryMeanS = 13.0;

    std::string line = ResultStore::recordLine(job, report);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    JobSpec job2;
    Report report2;
    std::string err;
    ASSERT_TRUE(ResultStore::parseRecordLine(line, job2, report2, &err))
        << err;
    EXPECT_EQ(job2.key(), job.key());
    EXPECT_EQ(job2.hash(), job.hash());
    EXPECT_DOUBLE_EQ(job2.duration, 300.0);
    EXPECT_EQ(report2.totalRequests, 100u);
    EXPECT_EQ(report2.completed, 93u);
    // Bit-exact double round-trip (precision 17).
    EXPECT_EQ(report2.sloRate, report.sloRate);
    ASSERT_EQ(report2.ttftCdf.size(), 2u);
    EXPECT_DOUBLE_EQ(report2.ttftCdf[1].second, 0.8);
    ASSERT_EQ(report2.gpuTimeline.size(), 2u);
    EXPECT_EQ(ResultStore::recordLine(job2, report2), line);

    EXPECT_FALSE(
        ResultStore::parseRecordLine("{\"key\": \"zz\"}", job2, report2,
                                     &err));
}

TEST(SweepStore, TamperedCountsAreRejected)
{
    JobSpec job;
    job.scenario = "quickstart";
    job.seed = 3;
    Report report;
    report.scenario = "quickstart";
    report.seed = 3;
    report.completed = 93;
    report.windows = {Report::Window{}};
    report.windows[0].arrived = 12;
    Report::Attribution &a = report.attribution;
    a.enabled = true;
    a.requests = 95;
    a.perWindow = {{4, 2}};
    const std::string line = ResultStore::recordLine(job, report);

    JobSpec job2;
    Report report2;
    std::string err;
    ASSERT_TRUE(ResultStore::parseRecordLine(line, job2, report2, &err))
        << err;
    // Replace one count of the line at a time with a value no integer
    // count a double holds exactly can take.
    struct Count
    {
        const char *text, *field;
    };
    for (const Count &c : {Count{"\"seed\": 3", "seed"},
                           Count{"\"completed\": 93", "completed"},
                           Count{"\"arrived\": 12", "arrived"},
                           Count{"\"requests\": 95", "requests"},
                           Count{"[[4, 2]]", "blamed"}}) {
        const std::string text = c.text;
        const std::size_t at = line.find(text);
        ASSERT_NE(at, std::string::npos) << text;
        const std::size_t digit = text.find_first_of("0123456789");
        const std::size_t len =
            std::min(text.find_first_not_of("0123456789", digit),
                     text.size()) -
            digit;
        for (const char *bad : {"-1", "2.5", "1e300", "9007199254740994"}) {
            std::string tampered = line;
            tampered.replace(at + digit, len, bad);
            err.clear();
            EXPECT_FALSE(ResultStore::parseRecordLine(tampered, job2,
                                                      report2, &err))
                << tampered;
            EXPECT_NE(err.find(std::string("'") + c.field + "'"),
                      std::string::npos)
                << err;
        }
    }
}

TEST(SweepPool, RunsEveryTaskExactlyOnceAtAnyWidth)
{
    for (int threads : {1, 2, 7}) {
        std::vector<std::atomic<int>> hits(100);
        parallelFor(hits.size(), threads, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
    // n = 0 is a no-op, not a hang.
    parallelFor(0, 4, [](std::size_t) { FAIL(); });
}

TEST(SweepCsv, FieldsWithCommasAreQuoted)
{
    EXPECT_EQ(csvField("plain"), "plain");
    EXPECT_EQ(csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvField("line\nbreak"), "\"line\nbreak\"");

    Report r;
    r.system = "SLINFER";
    r.scenario = "flash,crowd"; // hostile scenario name
    std::string row = toCsvRow(r);
    EXPECT_NE(row.find("\"flash,crowd\""), std::string::npos);
}

TEST(SweepLog, ThreadTagsAreThreadLocalAndEmissionIsSerialized)
{
    setLogThreadTag("main-tag");
    EXPECT_EQ(logThreadTag(), "main-tag");

    std::thread other([] {
        EXPECT_EQ(logThreadTag(), ""); // fresh thread, fresh tag
        setLogThreadTag("worker");
        EXPECT_EQ(logThreadTag(), "worker");
    });
    other.join();
    EXPECT_EQ(logThreadTag(), "main-tag");
    setLogThreadTag("");

    // Concurrent emission must not crash or deadlock (torn lines are
    // not mechanically detectable here; the mutex is the guarantee).
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Error);
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([t] {
            setLogThreadTag("w" + std::to_string(t));
            for (int i = 0; i < 50; ++i)
                logf(LogLevel::Debug, "spam ", t, " ", i);
        });
    }
    for (std::thread &t : writers)
        t.join();
    setLogLevel(before);
}

} // namespace
} // namespace sweep
} // namespace slinfer

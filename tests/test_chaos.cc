/**
 * @file
 * Chaos-engine and resilience-policy tests: the fault-schedule
 * generator is a deterministic, composable pure function; generated
 * timelines validate and run byte-identically at every sweep worker
 * count;
 * node-fail/restore edge cases are defined no-ops; the config
 * validator rejects malformed timelines with clear messages; the
 * resilience probe's metrics match hand-computable schedules; and the
 * retry/backoff/failover/shedding policies keep runs deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "chaos/chaos.hh"
#include "harness/session.hh"
#include "scenario/scenario.hh"
#include "sweep/store.hh"
#include "sweep/summary.hh"
#include "sweep/sweep.hh"

namespace slinfer
{
namespace
{

/** A small, fast experiment shared by the tests below. */
ExperimentConfig
smallConfig(std::uint64_t seed = 3)
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

chaos::FaultProcess
blastProcess(int first, int last, Seconds at, Seconds hold)
{
    chaos::FaultProcess p;
    p.kind = chaos::FaultProcess::Kind::CorrelatedFailure;
    p.firstNode = first;
    p.lastNode = last;
    p.at = at;
    p.hold = hold;
    return p;
}

chaos::FaultProcess
flapProcess(int first, int last, double mtbf, double mttr)
{
    chaos::FaultProcess p;
    p.kind = chaos::FaultProcess::Kind::NodeFlap;
    p.firstNode = first;
    p.lastNode = last;
    p.mtbf = mtbf;
    p.mttr = mttr;
    return p;
}

std::string
timelineFingerprint(const Timeline &tl)
{
    std::ostringstream os;
    os.precision(17);
    for (const Intervention &iv : tl) {
        os << interventionKindName(iv.kind) << '@' << iv.at << ":n"
           << iv.node << ":f" << iv.factor << "\n";
    }
    return os.str();
}

// ------------------------------------------------------------------
// The generator: deterministic, composable, well-formed.
// ------------------------------------------------------------------

TEST(ChaosGenerator, SameSeedSameSchedule)
{
    chaos::ChaosConfig cfg;
    cfg.processes = {flapProcess(0, 3, 100.0, 20.0),
                     blastProcess(1, 2, 300.0, 60.0)};
    Timeline a = chaos::generateChaosTimeline(cfg, 600.0, 42);
    Timeline b = chaos::generateChaosTimeline(cfg, 600.0, 42);
    EXPECT_EQ(timelineFingerprint(a), timelineFingerprint(b));
    EXPECT_FALSE(a.empty());

    Timeline c = chaos::generateChaosTimeline(cfg, 600.0, 43);
    EXPECT_NE(timelineFingerprint(a), timelineFingerprint(c));
}

TEST(ChaosGenerator, AddingAProcessNeverReshufflesAnother)
{
    // Per-process Rng forks: appending a second process must leave the
    // first one's draws untouched.
    chaos::ChaosConfig one;
    one.processes = {flapProcess(0, 1, 100.0, 20.0)};
    chaos::ChaosConfig two = one;
    two.processes.push_back(flapProcess(2, 3, 50.0, 10.0));

    Timeline a = chaos::generateChaosTimeline(one, 600.0, 7);
    Timeline b = chaos::generateChaosTimeline(two, 600.0, 7);

    auto onNodes01 = [](const Timeline &tl) {
        Timeline out;
        for (const Intervention &iv : tl) {
            if (iv.node == 0 || iv.node == 1)
                out.push_back(iv);
        }
        return out;
    };
    EXPECT_EQ(timelineFingerprint(onNodes01(a)),
              timelineFingerprint(onNodes01(b)));
}

TEST(ChaosGenerator, FlapSchedulesAreWellFormed)
{
    chaos::ChaosConfig cfg;
    cfg.processes = {flapProcess(0, 3, 60.0, 15.0)};
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Timeline tl = chaos::generateChaosTimeline(cfg, 900.0, seed);
        // Sorted by time; per node, fails and restores alternate and
        // everything lands inside [0, duration].
        for (std::size_t i = 1; i < tl.size(); ++i)
            EXPECT_LE(tl[i - 1].at, tl[i].at);
        std::vector<int> failed(4, 0);
        for (const Intervention &iv : tl) {
            EXPECT_GE(iv.at, 0.0);
            EXPECT_LE(iv.at, 900.0);
            ASSERT_GE(iv.node, 0);
            ASSERT_LT(iv.node, 4);
            if (iv.kind == Intervention::Kind::NodeFail) {
                EXPECT_EQ(failed[iv.node], 0);
                failed[iv.node] = 1;
            } else {
                ASSERT_EQ(iv.kind, Intervention::Kind::NodeRestore);
                EXPECT_EQ(failed[iv.node], 1);
                failed[iv.node] = 0;
            }
        }
        // Every fail is paired: restores clamp to the duration rather
        // than dangling past it.
        for (int node = 0; node < 4; ++node)
            EXPECT_EQ(failed[node], 0);
    }
}

TEST(ChaosGenerator, GeneratedTimelinesPassValidation)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        ExperimentConfig cfg = smallConfig(seed);
        chaos::ChaosConfig cc;
        cc.processes = {flapProcess(0, 3, 40.0, 10.0)};
        Timeline tl = chaos::generateChaosTimeline(cc, 120.0, seed);
        cfg.timeline = tl;
        cfg.validate(); // would fatal on any malformed pair
    }
}

TEST(ChaosGenerator, OneShotKindsExpandExactly)
{
    chaos::ChaosConfig cfg;
    cfg.processes = {blastProcess(1, 2, 100.0, 50.0)};
    chaos::FaultProcess slow;
    slow.kind = chaos::FaultProcess::Kind::Straggler;
    slow.firstNode = 3;
    slow.lastNode = 3;
    slow.at = 20.0;
    slow.hold = 30.0;
    slow.factor = 2.5;
    cfg.processes.push_back(slow);
    chaos::FaultProcess net;
    net.kind = chaos::FaultProcess::Kind::NetBrownout;
    net.at = 10.0;
    net.hold = 40.0;
    net.factor = 3.0;
    cfg.processes.push_back(net);

    Timeline tl = chaos::generateChaosTimeline(cfg, 600.0, 1);
    ASSERT_EQ(tl.size(), 8u); // 2 blast pairs + 1 straggler + 1 net
    auto count = [&](Intervention::Kind k) {
        return std::count_if(tl.begin(), tl.end(),
                             [k](const Intervention &iv) {
                                 return iv.kind == k;
                             });
    };
    EXPECT_EQ(count(Intervention::Kind::NodeFail), 2);
    EXPECT_EQ(count(Intervention::Kind::NodeRestore), 2);
    EXPECT_EQ(count(Intervention::Kind::NodeDegrade), 1);
    EXPECT_EQ(count(Intervention::Kind::NodeRecover), 1);
    EXPECT_EQ(count(Intervention::Kind::NetBrownout), 1);
    EXPECT_EQ(count(Intervention::Kind::NetRestore), 1);
    // One-shot kinds don't draw randomness: stamps are the configured
    // ones.
    for (const Intervention &iv : tl) {
        if (iv.kind == Intervention::Kind::NodeFail) {
            EXPECT_DOUBLE_EQ(iv.at, 100.0);
        }
        if (iv.kind == Intervention::Kind::NodeRestore) {
            EXPECT_DOUBLE_EQ(iv.at, 150.0);
        }
    }
}

TEST(ChaosGenerator, RestoresClampToTheDuration)
{
    chaos::ChaosConfig cfg;
    cfg.processes = {blastProcess(0, 0, 100.0, 500.0)};
    Timeline tl = chaos::generateChaosTimeline(cfg, 120.0, 1);
    ASSERT_EQ(tl.size(), 2u);
    EXPECT_DOUBLE_EQ(tl[0].at, 100.0);
    EXPECT_DOUBLE_EQ(tl[1].at, 120.0); // clamped, still well-formed
}

// ------------------------------------------------------------------
// The spec parser (--chaos grammar).
// ------------------------------------------------------------------

TEST(ChaosSpec, ParsesAFullSpec)
{
    chaos::ChaosConfig cfg;
    std::string err;
    ASSERT_TRUE(chaos::parseChaosSpec(
        "blast:nodes=4-5,at=300,for=180;"
        "flap:nodes=2,mtbf=250,mttr=40;"
        "straggler:nodes=1-2,at=100,for=60,factor=3;"
        "brownout:at=50,for=20,factor=4",
        cfg, &err))
        << err;
    ASSERT_EQ(cfg.processes.size(), 4u);
    EXPECT_EQ(cfg.processes[0].kind,
              chaos::FaultProcess::Kind::CorrelatedFailure);
    EXPECT_EQ(cfg.processes[0].firstNode, 4);
    EXPECT_EQ(cfg.processes[0].lastNode, 5);
    EXPECT_DOUBLE_EQ(cfg.processes[0].at, 300.0);
    EXPECT_DOUBLE_EQ(cfg.processes[0].hold, 180.0);
    EXPECT_EQ(cfg.processes[1].kind, chaos::FaultProcess::Kind::NodeFlap);
    EXPECT_EQ(cfg.processes[1].firstNode, 2);
    EXPECT_EQ(cfg.processes[1].lastNode, 2);
    EXPECT_DOUBLE_EQ(cfg.processes[1].mtbf, 250.0);
    EXPECT_DOUBLE_EQ(cfg.processes[1].mttr, 40.0);
    EXPECT_DOUBLE_EQ(cfg.processes[2].factor, 3.0);
    EXPECT_EQ(cfg.processes[3].kind,
              chaos::FaultProcess::Kind::NetBrownout);
}

TEST(ChaosSpec, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "blurst:nodes=1",                    // unknown kind
        "flap",                              // missing nodes
        "blast:nodes=1",                     // missing at
        "flap:nodes=1,mtbf=nope",            // malformed number
        "flap:nodes=1,mtbf=-5",              // nonpositive mtbf
        "flap:nodes=3-1",                    // descending range
        "flap:nodes=1,wat=2",                // unknown key
        "",                                  // empty spec
        "blast:nodes=0,at=nan,for=10",       // non-finite time
        "blast:nodes=nan,at=5",              // non-finite node id
        "blast:nodes=1e20,at=5",             // node id past int
        "blast:nodes=0-1e20,at=5",           // range end past int
        "straggler:nodes=0,at=5,factor=inf", // non-finite factor
        "flap:nodes=1,mtbf=nan",             // non-finite mtbf
    };
    for (const char *spec : bad) {
        chaos::ChaosConfig cfg;
        std::string err;
        EXPECT_FALSE(chaos::parseChaosSpec(spec, cfg, &err))
            << "accepted: " << spec;
        EXPECT_FALSE(err.empty()) << spec;
    }
}

// ------------------------------------------------------------------
// Validation (satellite: clear errors for malformed timelines).
// ------------------------------------------------------------------

using ChaosValidationDeath = ::testing::Test;

TEST(ChaosValidationDeath, RejectsEventsPastTheDuration)
{
    ExperimentConfig cfg = smallConfig();
    Intervention iv;
    iv.kind = Intervention::Kind::NodeFail;
    iv.node = 0;
    iv.at = 500.0; // past the 120 s window
    cfg.timeline = {iv};
    EXPECT_DEATH(cfg.validate(), "past the experiment duration");
}

TEST(ChaosValidationDeath, RejectsUnknownNodes)
{
    ExperimentConfig cfg = smallConfig();
    Intervention iv;
    iv.kind = Intervention::Kind::NodeFail;
    iv.node = 9; // 2+2 cluster: nodes 0-3
    iv.at = 10.0;
    cfg.timeline = {iv};
    EXPECT_DEATH(cfg.validate(), "unknown node 9");
}

TEST(ChaosValidationDeath, RejectsDuplicateFailures)
{
    ExperimentConfig cfg = smallConfig();
    Intervention a;
    a.kind = Intervention::Kind::NodeFail;
    a.node = 1;
    a.at = 10.0;
    Intervention b = a;
    b.at = 20.0; // node 1 is still down: a scripted typo
    cfg.timeline = {a, b};
    EXPECT_DEATH(cfg.validate(), "duplicate node-fail");
}

TEST(ChaosValidationDeath, RejectsRestoreWithoutFail)
{
    ExperimentConfig cfg = smallConfig();
    Intervention iv;
    iv.kind = Intervention::Kind::NodeRestore;
    iv.node = 2;
    iv.at = 30.0;
    cfg.timeline = {iv};
    EXPECT_DEATH(cfg.validate(), "without a preceding node-fail");
}

TEST(ChaosValidationDeath, RejectsNonpositiveDegradeFactor)
{
    ExperimentConfig cfg = smallConfig();
    Intervention iv;
    iv.kind = Intervention::Kind::NodeDegrade;
    iv.node = 0;
    iv.at = 10.0;
    iv.factor = 0.0;
    cfg.timeline = {iv};
    EXPECT_DEATH(cfg.validate(), "positive `factor`");
}

TEST(ChaosValidation, AcceptsAFailRestoreFailSequence)
{
    // Re-failing after a restore is legitimate (a flapping node).
    ExperimentConfig cfg = smallConfig();
    Intervention f1;
    f1.kind = Intervention::Kind::NodeFail;
    f1.node = 1;
    f1.at = 10.0;
    Intervention r1 = f1;
    r1.kind = Intervention::Kind::NodeRestore;
    r1.at = 40.0;
    Intervention f2 = f1;
    f2.at = 80.0;
    Intervention r2 = r1;
    r2.at = 110.0;
    cfg.timeline = {f1, r1, f2, r2};
    cfg.validate();
}

// ------------------------------------------------------------------
// Intervention edge-case semantics (satellite: defined no-ops).
// ------------------------------------------------------------------

TEST(ChaosEdgeCases, ReFailingAFailedNodeIsANoOp)
{
    ExperimentConfig cfg = smallConfig();
    Session s(cfg);
    Intervention fail;
    fail.kind = Intervention::Kind::NodeFail;
    fail.node = 1;

    s.advanceTo(30.0);
    s.inject(fail);
    EXPECT_EQ(s.controller().failedNodeCount(), 1);
    s.advanceTo(40.0);
    s.inject(fail); // already failed: defined no-op
    EXPECT_EQ(s.controller().failedNodeCount(), 1);
    s.advanceTo(cfg.duration);
    Report r = s.finish();
    EXPECT_EQ(r.completed + r.dropped, r.totalRequests);
}

TEST(ChaosEdgeCases, RestoringAHealthyNodeIsANoOp)
{
    ExperimentConfig cfg = smallConfig();
    Report plain = runExperiment(cfg);

    Session s(cfg);
    s.advanceTo(30.0);
    Intervention restore;
    restore.kind = Intervention::Kind::NodeRestore;
    restore.node = 2; // never failed
    s.inject(restore);
    EXPECT_EQ(s.controller().failedNodeCount(), 0);
    s.advanceTo(cfg.duration);
    // A no-op restore must not perturb the run at all.
    EXPECT_EQ(toJson(plain), toJson(s.finish()));
}

TEST(ChaosEdgeCases, RecoverWithoutDegradeIsANoOp)
{
    ExperimentConfig cfg = smallConfig();
    Report plain = runExperiment(cfg);

    Session s(cfg);
    s.advanceTo(20.0);
    Intervention recover;
    recover.kind = Intervention::Kind::NodeRecover;
    recover.node = 0; // never degraded: perfFactor already 1.0
    s.inject(recover);
    s.advanceTo(cfg.duration);
    EXPECT_EQ(toJson(plain), toJson(s.finish()));
}

// ------------------------------------------------------------------
// Degrade / brownout interventions actually bite.
// ------------------------------------------------------------------

TEST(ChaosFaults, StragglerDegradationSlowsTheRun)
{
    ExperimentConfig cfg = smallConfig();
    Report plain = runExperiment(cfg);

    // All four nodes 8x slower for most of the window.
    for (int node = 0; node < 4; ++node) {
        Intervention slow;
        slow.kind = Intervention::Kind::NodeDegrade;
        slow.node = node;
        slow.at = 10.0;
        slow.factor = 8.0;
        cfg.timeline.push_back(slow);
    }
    Report degraded = runExperiment(cfg);
    EXPECT_EQ(degraded.totalRequests, plain.totalRequests);
    EXPECT_LT(degraded.sloRate, plain.sloRate);
    EXPECT_GT(degraded.p95Ttft, plain.p95Ttft);
}

TEST(ChaosFaults, DegradeThenRecoverRoundTripsToUnitFactor)
{
    // factor x then recover before any work happens is byte-invisible:
    // the multiplier is exactly 1.0 again (bit-exact float identity).
    ExperimentConfig cfg = smallConfig();
    Report plain = runExperiment(cfg);

    Session s(cfg);
    Intervention slow;
    slow.kind = Intervention::Kind::NodeDegrade;
    slow.node = 1;
    slow.factor = 7.0;
    s.inject(slow);
    Intervention heal;
    heal.kind = Intervention::Kind::NodeRecover;
    heal.node = 1;
    s.inject(heal);
    s.advanceTo(cfg.duration);
    EXPECT_EQ(toJson(plain), toJson(s.finish()));
}

TEST(ChaosFaults, BrownoutRestoreRoundTripsToUnitFactor)
{
    ExperimentConfig cfg = smallConfig();
    Report plain = runExperiment(cfg);

    Session s(cfg);
    Intervention out;
    out.kind = Intervention::Kind::NetBrownout;
    out.factor = 5.0;
    s.inject(out);
    EXPECT_DOUBLE_EQ(s.controller().netFactor(), 5.0);
    Intervention back;
    back.kind = Intervention::Kind::NetRestore;
    s.inject(back);
    EXPECT_DOUBLE_EQ(s.controller().netFactor(), 1.0);
    s.advanceTo(cfg.duration);
    EXPECT_EQ(toJson(plain), toJson(s.finish()));
}

// ------------------------------------------------------------------
// The resilience probe.
// ------------------------------------------------------------------

TEST(ResilienceProbe, MetricsMatchAHandComputableSchedule)
{
    ExperimentConfig cfg = smallConfig();
    cfg.resilienceReport = true;
    Intervention fail;
    fail.kind = Intervention::Kind::NodeFail;
    fail.node = 3;
    fail.at = 60.0;
    Intervention restore = fail;
    restore.kind = Intervention::Kind::NodeRestore;
    restore.at = 90.0;
    cfg.timeline = {fail, restore};

    Report r = runExperiment(cfg);
    ASSERT_TRUE(r.resilience.enabled);
    EXPECT_EQ(r.resilience.faultEvents, 1u);
    EXPECT_EQ(r.resilience.restores, 1u);
    EXPECT_DOUBLE_EQ(r.resilience.mttrMeanS, 30.0);
    EXPECT_DOUBLE_EQ(r.resilience.degradedTimeS, 30.0);
    // 4 nodes, 1 down for 30 of 120 s.
    EXPECT_DOUBLE_EQ(r.resilience.availability,
                     1.0 - (1.0 / 4.0) * (30.0 / 120.0));
    EXPECT_GE(r.resilience.recoveryMeanS, 0.0);
}

TEST(ResilienceProbe, ProbeNeverPerturbsTheRun)
{
    // The probe only observes: a probed fault run's scalar metrics are
    // bit-identical to the unprobed run's.
    ExperimentConfig cfg = smallConfig();
    Intervention fail;
    fail.kind = Intervention::Kind::NodeFail;
    fail.node = 2;
    fail.at = 40.0;
    Intervention restore = fail;
    restore.kind = Intervention::Kind::NodeRestore;
    restore.at = 70.0;
    cfg.timeline = {fail, restore};
    Report plain = runExperiment(cfg);

    cfg.resilienceReport = true;
    Report probed = runExperiment(cfg);
    probed.resilience = Report::Resilience{}; // strip the extra block
    EXPECT_EQ(toJson(plain), toJson(probed));
}

TEST(ResilienceProbe, NoOpEventsAreNotCountedAsFaults)
{
    ExperimentConfig cfg = smallConfig();
    cfg.resilienceReport = true;
    Session s(cfg);
    Intervention fail;
    fail.kind = Intervention::Kind::NodeFail;
    fail.node = 1;
    s.advanceTo(30.0);
    s.inject(fail);
    s.inject(fail); // duplicate: no second fault event
    Intervention restoreWrong;
    restoreWrong.kind = Intervention::Kind::NodeRestore;
    restoreWrong.node = 3; // healthy: no restore event
    s.inject(restoreWrong);
    Intervention restore = fail;
    restore.kind = Intervention::Kind::NodeRestore;
    s.advanceTo(50.0);
    s.inject(restore);
    s.advanceTo(cfg.duration);
    Report r = s.finish();
    EXPECT_EQ(r.resilience.faultEvents, 1u);
    EXPECT_EQ(r.resilience.restores, 1u);
    EXPECT_DOUBLE_EQ(r.resilience.mttrMeanS, 20.0);
}

// ------------------------------------------------------------------
// Resilience policies stay deterministic and well-behaved.
// ------------------------------------------------------------------

ExperimentConfig
chaosPolicyConfig(std::uint64_t seed)
{
    ExperimentConfig cfg = smallConfig(seed);
    chaos::ChaosConfig cc;
    cc.processes = {blastProcess(2, 3, 40.0, 30.0),
                    flapProcess(0, 1, 50.0, 10.0)};
    cfg.chaos = cc;
    cfg.resilienceReport = true;
    cfg.controller.resilience.backoff = true;
    cfg.controller.resilience.failoverExclusion = 15.0;
    cfg.controller.resilience.shedBatchFirst = true;
    cfg.controller.resilience.batchSloCutoff = 4.0;
    return cfg;
}

TEST(ResiliencePolicies, ChaosRunsAreDeterministic)
{
    ExperimentConfig cfg = chaosPolicyConfig(11);
    Report a = runExperiment(cfg);
    Report b = runExperiment(cfg);
    EXPECT_EQ(toJson(a), toJson(b));
    EXPECT_TRUE(a.resilience.enabled);
    EXPECT_GE(a.resilience.faultEvents, 2u);
    EXPECT_EQ(a.completed + a.dropped, a.totalRequests);
}

TEST(ResiliencePolicies, RetryCapStillDropsEventually)
{
    ExperimentConfig cfg = chaosPolicyConfig(12);
    cfg.controller.resilience.retryCap = 1;
    Report tight = runExperiment(cfg);
    EXPECT_EQ(tight.completed + tight.dropped, tight.totalRequests);
}

TEST(ResiliencePolicies, DefaultsMatchPrePolicyBehavior)
{
    // All resilience knobs default off: a config that never touches
    // them runs byte-identically to one that spells the defaults out.
    ExperimentConfig cfg = smallConfig();
    Intervention fail;
    fail.kind = Intervention::Kind::NodeFail;
    fail.node = 3;
    fail.at = 30.0;
    Intervention restore = fail;
    restore.kind = Intervention::Kind::NodeRestore;
    restore.at = 60.0;
    cfg.timeline = {fail, restore};
    Report plain = runExperiment(cfg);

    ExperimentConfig spelled = cfg;
    spelled.controller.resilience = ResilienceConfig{};
    EXPECT_EQ(toJson(plain), toJson(runExperiment(spelled)));
}

// ------------------------------------------------------------------
// Differential: chaos schedules and reports are sweep worker-count
// invariant.
// ------------------------------------------------------------------

TEST(ChaosDifferential, SweepStoreIsByteIdenticalAtAnyWorkerCount)
{
    auto tempPath = [](const char *name) {
        return testing::TempDir() + "slinfer_chaos_" + name;
    };
    auto slurp = [](const std::string &path) {
        std::ifstream in(path);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    std::string path1 = tempPath("jobs1.jsonl");
    std::string path4 = tempPath("jobs4.jsonl");
    std::remove(path1.c_str());
    std::remove(path4.c_str());

    sweep::Grid grid;
    grid.scenarios = {"fleet-chaos-correlated"};
    grid.systems = {SystemKind::Slinfer};
    grid.seeds = {1, 2};

    sweep::RunOptions o1;
    o1.jobs = 1;
    o1.storePath = path1;
    sweep::RunOptions o4;
    o4.jobs = 4;
    o4.storePath = path4;
    std::vector<sweep::Record> r1 = sweep::runGrid(grid, o1);
    std::vector<sweep::Record> r4 = sweep::runGrid(grid, o4);
    ASSERT_EQ(r1.size(), 2u);

    std::string store1 = slurp(path1);
    EXPECT_FALSE(store1.empty());
    EXPECT_EQ(store1, slurp(path4));
    // The resilience metrics survive the store round-trip and join
    // the summary by name.
    EXPECT_TRUE(r1[0].report.resilience.enabled);
    std::vector<sweep::SummaryRow> rows = sweep::summarize(r1);
    ASSERT_EQ(rows.size(), 1u);
    const sweep::MetricSummary *avail =
        rows[0].metric("res_availability");
    ASSERT_NE(avail, nullptr);
    EXPECT_GT(avail->mean, 0.0);
    EXPECT_LE(avail->mean, 1.0);
    ASSERT_NE(rows[0].metric("res_recovery_mean_s"), nullptr);
    ASSERT_NE(rows[0].metric("res_mttr_mean_s"), nullptr);

    std::remove(path1.c_str());
    std::remove(path4.c_str());
}

TEST(ChaosDifferential, ScenarioChaosScheduleIsSeedStableAcrossRuns)
{
    // The catalog chaos scenario expands the same fault schedule on
    // every lowering: the full report (resilience block included) is
    // byte-identical run to run.
    const scenario::Scenario *sc =
        scenario::byName("fleet-chaos-correlated");
    ASSERT_NE(sc, nullptr);
    Report a = scenario::runScenario(*sc, SystemKind::Slinfer, 9);
    Report b = scenario::runScenario(*sc, SystemKind::Slinfer, 9);
    EXPECT_EQ(toJson(a), toJson(b));
    EXPECT_TRUE(a.resilience.enabled);
    EXPECT_EQ(a.resilience.faultEvents, 2u); // the two-node blast
}

} // namespace
} // namespace slinfer

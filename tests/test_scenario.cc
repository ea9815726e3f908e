/**
 * @file
 * Scenario-subsystem tests: every arrival process is deterministic in
 * its seed, calibrated to its configured rate, and emits sorted
 * in-window arrivals; the catalog registry round-trips by name and
 * every entry is internally consistent.
 */

#include <gtest/gtest.h>

#include <set>

#include "scenario/scenario.hh"

namespace slinfer
{
namespace scenario
{
namespace
{

/** Every arrival-process kind, with catalog-like parameters. */
std::vector<ArrivalProcessPtr>
allProcesses()
{
    PoissonConfig po;
    po.numModels = 16;
    po.duration = 1800.0;
    po.aggregateRpm = 90.0;
    po.split.zipfS = 1.1;

    DiurnalConfig di;
    di.numModels = 16;
    di.duration = 3600.0;
    di.period = 1800.0; // two full cycles -> mean rate holds exactly
    di.aggregateRpm = 120.0;
    di.amplitude = 0.6;

    FlashCrowdConfig fl;
    fl.numModels = 16;
    fl.duration = 1800.0;
    fl.baselineRpm = 60.0;
    fl.flashFactor = 8.0;

    RampConfig ra;
    ra.numModels = 16;
    ra.duration = 1800.0;
    ra.startRpm = 30.0;
    ra.endRpm = 150.0;

    RampConfig st = ra;
    st.shape = RampConfig::Shape::Step;

    AzureTraceConfig az;
    az.numModels = 32;
    az.duration = 1800.0;

    BurstGptConfig bg;
    bg.numModels = 32;
    bg.duration = 1800.0;
    bg.aggregateRps = 1.5;

    // A layered composite (the fleet-diurnal-surge shape): diurnal
    // baseline plus MMPP flash crowd over the same model space.
    DiurnalConfig cdi;
    cdi.numModels = 16;
    cdi.duration = 3600.0;
    cdi.period = 1800.0;
    cdi.aggregateRpm = 90.0;
    cdi.amplitude = 0.6;
    FlashCrowdConfig cfl;
    cfl.numModels = 16;
    cfl.duration = 3600.0;
    cfl.baselineRpm = 45.0;
    cfl.flashFactor = 8.0;

    return {makePoisson(po),    makeDiurnal(di), makeFlashCrowd(fl),
            makeRamp(ra),       makeRamp(st),    makeAzure(az),
            makeBurstGpt(bg),
            makeComposite({makeDiurnal(cdi), makeFlashCrowd(cfl)})};
}

class EveryProcess
    : public ::testing::TestWithParam<ArrivalProcessPtr>
{
};

TEST_P(EveryProcess, DeterministicUnderFixedSeed)
{
    const ArrivalProcess &p = *GetParam();
    AzureTrace a = p.generate(17);
    AzureTrace b = p.generate(17);
    ASSERT_EQ(a.arrivals.size(), b.arrivals.size()) << p.kind();
    for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.arrivals[i].time, b.arrivals[i].time);
        EXPECT_EQ(a.arrivals[i].model, b.arrivals[i].model);
    }
    EXPECT_EQ(a.duration, b.duration);
}

TEST_P(EveryProcess, SortedInWindowAndStamped)
{
    const ArrivalProcess &p = *GetParam();
    for (std::uint64_t seed : {1, 2, 3}) {
        AzureTrace t = p.generate(seed);
        EXPECT_DOUBLE_EQ(t.duration, p.duration()) << p.kind();
        EXPECT_EQ(static_cast<int>(t.perModelRpm.size()), p.numModels());
        Seconds prev = 0.0;
        for (const Arrival &a : t.arrivals) {
            EXPECT_GE(a.time, prev) << p.kind();
            EXPECT_LT(a.time, p.duration()) << p.kind();
            EXPECT_LT(a.model, static_cast<ModelId>(p.numModels()))
                << p.kind();
            prev = a.time;
        }
    }
}

TEST_P(EveryProcess, RateCalibratedToTarget)
{
    // Empirical aggregate RPM, averaged over seeds, must track the
    // configured target. The azure generator's episodic bursts make it
    // the noisiest of the family; 20% covers all of them.
    const ArrivalProcess &p = *GetParam();
    double sum = 0.0;
    const int kSeeds = 5;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed)
        sum += p.generate(seed).aggregateRpm(p.duration());
    double rpm = sum / kSeeds;
    EXPECT_NEAR(rpm, p.targetAggregateRpm(),
                p.targetAggregateRpm() * 0.20)
        << p.kind();
}

TEST_P(EveryProcess, SeedChangesTrace)
{
    const ArrivalProcess &p = *GetParam();
    AzureTrace a = p.generate(1);
    AzureTrace b = p.generate(2);
    bool differs = a.arrivals.size() != b.arrivals.size();
    for (std::size_t i = 0; !differs && i < a.arrivals.size(); ++i)
        differs = a.arrivals[i].time != b.arrivals[i].time ||
                  a.arrivals[i].model != b.arrivals[i].model;
    EXPECT_TRUE(differs) << p.kind();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EveryProcess,
                         ::testing::ValuesIn(allProcesses()),
                         [](const auto &info) {
                             std::string name = info.param->kind();
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// ------------------------------------------------------------------
// Process-specific shape checks.
// ------------------------------------------------------------------

TEST(Diurnal, PeakToTroughFollowsEnvelope)
{
    DiurnalConfig dc;
    dc.numModels = 8;
    dc.duration = 3600.0;
    dc.period = 3600.0;
    dc.aggregateRpm = 240.0;
    dc.amplitude = 0.8;
    AzureTrace t = makeDiurnal(dc)->generate(3);
    // sin peaks in the first half-period and troughs in the second.
    std::size_t first = 0, second = 0;
    for (const Arrival &a : t.arrivals)
        (a.time < dc.duration / 2 ? first : second)++;
    ASSERT_GT(second, 0u);
    EXPECT_GT(static_cast<double>(first) / second, 2.0);
}

TEST(FlashCrowd, EpisodesSpikeOneModel)
{
    FlashCrowdConfig fc;
    fc.numModels = 16;
    fc.duration = 1800.0;
    fc.baselineRpm = 30.0;
    fc.flashFactor = 20.0;
    AzureTrace t = makeFlashCrowd(fc)->generate(11);
    // The hottest model's realized rate dwarfs the uniform share.
    double hottest = *std::max_element(t.perModelRpm.begin(),
                                       t.perModelRpm.end());
    double uniform = fc.baselineRpm / fc.numModels;
    EXPECT_GT(hottest, 4.0 * uniform);
}

TEST(Ramp, SecondHalfCarriesMoreLoad)
{
    RampConfig rc;
    rc.numModels = 8;
    rc.duration = 1800.0;
    rc.startRpm = 20.0;
    rc.endRpm = 200.0;
    for (auto shape : {RampConfig::Shape::Linear, RampConfig::Shape::Step}) {
        rc.shape = shape;
        AzureTrace t = makeRamp(rc)->generate(5);
        std::size_t first = 0, second = 0;
        for (const Arrival &a : t.arrivals)
            (a.time < rc.duration / 2 ? first : second)++;
        EXPECT_GT(second, 2 * first);
    }
}

TEST(Azure, MatchesDirectGeneratorBitExactly)
{
    // The bench compatibility contract: the process wrapper reproduces
    // generateAzureTrace for the same seed.
    AzureTraceConfig cfg;
    cfg.numModels = 32;
    cfg.duration = 900.0;
    cfg.seed = 77;
    AzureTrace direct = generateAzureTrace(cfg);
    AzureTrace wrapped = makeAzure(cfg)->generate(77);
    ASSERT_EQ(direct.arrivals.size(), wrapped.arrivals.size());
    for (std::size_t i = 0; i < direct.arrivals.size(); ++i) {
        EXPECT_DOUBLE_EQ(direct.arrivals[i].time,
                         wrapped.arrivals[i].time);
        EXPECT_EQ(direct.arrivals[i].model, wrapped.arrivals[i].model);
    }
}

TEST(PopularitySplitShape, ZipfConcentratesUniformFlat)
{
    PopularitySplit uniform;
    auto wu = uniform.weights(8);
    for (double w : wu)
        EXPECT_DOUBLE_EQ(w, 1.0 / 8);

    PopularitySplit zipf;
    zipf.zipfS = 1.2;
    auto wz = zipf.weights(8);
    double sum = 0.0;
    for (std::size_t i = 1; i < wz.size(); ++i)
        EXPECT_LT(wz[i], wz[i - 1]);
    for (double w : wz)
        sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

// ------------------------------------------------------------------
// Registry.
// ------------------------------------------------------------------

TEST(Registry, RoundTripAndUniqueNames)
{
    ASSERT_GE(all().size(), 8u);
    std::set<std::string> seen;
    for (const Scenario &sc : all()) {
        EXPECT_TRUE(seen.insert(sc.name).second)
            << "duplicate name " << sc.name;
        const Scenario *found = byName(sc.name);
        ASSERT_NE(found, nullptr) << sc.name;
        EXPECT_EQ(found, &sc);
    }
    EXPECT_EQ(byName("no-such-scenario"), nullptr);
    EXPECT_EQ(names().size(), all().size());
}

TEST(Registry, RequiredCatalogEntriesExist)
{
    for (const char *name :
         {"diurnal-cycle", "flash-crowd", "ramp-up", "zipf-multitenant"})
        EXPECT_NE(byName(name), nullptr) << name;
}

TEST(Registry, EveryEntryIsConsistent)
{
    for (const Scenario &sc : all()) {
        SCOPED_TRACE(sc.name);
        ASSERT_TRUE(sc.arrivals);
        EXPECT_GT(sc.duration(), 0.0);
        EXPECT_FALSE(sc.summary.empty());
        EXPECT_EQ(sc.arrivals->numModels(),
                  static_cast<int>(sc.models.size()));
        if (!sc.datasetPerModel.empty()) {
            EXPECT_EQ(sc.datasetPerModel.size(), sc.models.size());
        }
        EXPECT_GT(sc.cluster.cpuNodes + sc.cluster.gpuNodes, 0);
        // The lowering used by slinfer_run must validate cleanly.
        ExperimentConfig cfg =
            sc.toExperiment(SystemKind::Slinfer, sc.seed);
        EXPECT_EQ(cfg.models.size(), sc.models.size());
        EXPECT_DOUBLE_EQ(cfg.duration, 0.0); // inherited from arrivals
    }
}

// ------------------------------------------------------------------
// Duration single-source-of-truth (the ExperimentConfig dedup).
// ------------------------------------------------------------------

TEST(DurationConsistency, InheritedFromTraceWhenUnset)
{
    PoissonConfig pc;
    pc.numModels = 2;
    pc.duration = 60.0;
    pc.aggregateRpm = 30.0;
    ExperimentConfig cfg;
    cfg.models = replicateModel(llama2_7b(), 2);
    cfg.arrivals = makePoisson(pc);
    cfg.cluster.cpuNodes = 1;
    cfg.cluster.gpuNodes = 1;
    Report r = runExperiment(cfg); // cfg.duration == 0 -> inherit
    EXPECT_GT(r.totalRequests, 0u);
}

TEST(DurationConsistency, MismatchIsFatal)
{
    AzureTraceConfig tc;
    tc.numModels = 2;
    tc.duration = 120.0;
    ExperimentConfig cfg;
    cfg.models = replicateModel(llama2_7b(), 2);
    cfg.trace = generateAzureTrace(tc);
    cfg.duration = 300.0; // silently disagreeing before; now fatal
    EXPECT_DEATH(runExperiment(cfg), "source of truth");
}

TEST(DurationConsistency, BothSourcesSetIsFatal)
{
    AzureTraceConfig tc;
    tc.numModels = 2;
    tc.duration = 60.0;
    ExperimentConfig cfg;
    cfg.models = replicateModel(llama2_7b(), 2);
    cfg.trace = generateAzureTrace(tc);
    cfg.arrivals = makeAzure(tc);
    EXPECT_DEATH(runExperiment(cfg), "both");
}

} // namespace
} // namespace scenario
} // namespace slinfer

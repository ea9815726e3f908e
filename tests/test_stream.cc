/**
 * @file
 * Streaming subsystem tests: the `.strc` codec (round trips,
 * multi-chunk files, torn-write recovery) and the headline contract —
 * a run's Report does not depend on which RequestSource feeds it: the
 * in-memory trace and the same trace packed to `.strc` give
 * byte-identical reports across a seeded fuzz matrix (plain, chaos,
 * timeline and arrival-scale variants).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "chaos/chaos.hh"
#include "harness/session.hh"
#include "stream/codec.hh"
#include "stream/source.hh"

namespace slinfer
{
namespace
{

/** Unique temp path per test (tests may run in parallel processes). */
std::string
tmpPath(const std::string &stem)
{
    return testing::TempDir() + "slinfer_" + stem + "_" +
           std::to_string(::getpid());
}

std::string
readFileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

// --------------------------------------------------------------------
// Range coder
// --------------------------------------------------------------------

TEST(RangeCoder, ByteStreamRoundTrip)
{
    Rng rng(99);
    std::vector<std::uint8_t> bytes;
    for (int i = 0; i < 20000; ++i) {
        // A skewed source so the context model has something to learn.
        bytes.push_back(static_cast<std::uint8_t>(
            rng.uniform() < 0.8 ? rng.uniformInt(0, 7)
                                : rng.uniformInt(0, 255)));
    }

    std::string comp;
    {
        stream::ByteModel model;
        stream::RangeEncoder enc(comp);
        for (std::uint8_t b : bytes)
            model.encode(enc, b);
        enc.finish();
    }
    EXPECT_LT(comp.size(), bytes.size()); // skew must actually compress

    stream::ByteModel model;
    stream::RangeDecoder dec(
        reinterpret_cast<const std::uint8_t *>(comp.data()),
        comp.size());
    for (std::size_t i = 0; i < bytes.size(); ++i)
        ASSERT_EQ(model.decode(dec), bytes[i]) << "at byte " << i;
}

TEST(RangeCoder, AdaptiveBitModelRoundTrip)
{
    Rng rng(7);
    std::vector<int> bits;
    for (int i = 0; i < 50000; ++i)
        bits.push_back(rng.uniform() < 0.05 ? 1 : 0);

    std::string comp;
    {
        stream::BitModel m;
        stream::RangeEncoder enc(comp);
        for (int b : bits)
            enc.encode(m, b);
        enc.finish();
    }
    // 5% ones ≈ 0.29 bits/bit entropy; adaptive model should land well
    // under 1 bit/bit.
    EXPECT_LT(comp.size(), bits.size() / 8 * 0.6);

    stream::BitModel m;
    stream::RangeDecoder dec(
        reinterpret_cast<const std::uint8_t *>(comp.data()),
        comp.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        ASSERT_EQ(dec.decode(m), bits[i]) << "at bit " << i;
}

// --------------------------------------------------------------------
// .strc round trips
// --------------------------------------------------------------------

std::vector<stream::TraceRecord>
syntheticRecords(std::size_t n, bool lengths, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<stream::TraceRecord> recs;
    recs.reserve(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        // Irregular gaps incl. exact ties and long jumps: the delta
        // coder must reproduce every double bit-for-bit.
        double gap = rng.uniform() < 0.1 ? 0.0 : rng.exponential(4.0);
        t += gap;
        stream::TraceRecord r;
        r.time = t;
        r.model = static_cast<std::uint32_t>(rng.uniformInt(0, 36));
        if (lengths) {
            r.inputLen =
                static_cast<std::uint32_t>(rng.uniformInt(1, 4000));
            r.targetOutput =
                static_cast<std::uint32_t>(rng.uniformInt(1, 900));
        }
        recs.push_back(r);
    }
    return recs;
}

void
roundTrip(const std::vector<stream::TraceRecord> &recs, bool lengths,
          std::uint32_t chunkCap, const std::string &path)
{
    stream::StrcHeader hdr;
    hdr.hasLengths = lengths;
    hdr.numModels = 37;
    hdr.duration = recs.empty() ? 0.0 : recs.back().time;
    std::string err;
    stream::StrcWriter w;
    ASSERT_TRUE(w.open(path, hdr, &err, chunkCap)) << err;
    for (const auto &r : recs)
        w.add(r);
    ASSERT_TRUE(w.finish(&err)) << err;

    stream::StrcReader rd;
    ASSERT_TRUE(rd.open(path, &err)) << err;
    EXPECT_FALSE(rd.recovered());
    EXPECT_EQ(rd.recordCount(), recs.size());
    EXPECT_EQ(rd.header().totalRequests, recs.size());
    EXPECT_EQ(rd.header().hasLengths, lengths);
    EXPECT_EQ(rd.header().numModels, 37u);

    stream::TraceRecord got;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(rd.next(got)) << "record " << i;
        // Bitwise, not approximate: replay determinism rides on it.
        EXPECT_EQ(got.time, recs[i].time) << i;
        EXPECT_EQ(got.model, recs[i].model) << i;
        EXPECT_EQ(got.inputLen, recs[i].inputLen) << i;
        EXPECT_EQ(got.targetOutput, recs[i].targetOutput) << i;
    }
    EXPECT_FALSE(rd.next(got));
    std::remove(path.c_str());
}

TEST(Strc, RoundTripWithLengths)
{
    roundTrip(syntheticRecords(5000, true, 11), true,
              stream::kStrcChunkCap, tmpPath("rt_len") + ".strc");
}

TEST(Strc, RoundTripWithoutLengths)
{
    roundTrip(syntheticRecords(5000, false, 12), false,
              stream::kStrcChunkCap, tmpPath("rt_nolen") + ".strc");
}

TEST(Strc, MultiChunkSmallCap)
{
    // 23 forces ragged chunk boundaries (5000 = 217*23 + 9).
    roundTrip(syntheticRecords(5000, true, 13), true, 23,
              tmpPath("rt_chunky") + ".strc");
}

TEST(Strc, EmptyFileRoundTrips)
{
    roundTrip({}, false, stream::kStrcChunkCap,
              tmpPath("rt_empty") + ".strc");
}

TEST(Strc, CompressesWellBelowRawSize)
{
    auto recs = syntheticRecords(100000, true, 21);
    std::string path = tmpPath("ratio") + ".strc";
    stream::StrcHeader hdr;
    hdr.hasLengths = true;
    hdr.numModels = 37;
    std::string err;
    stream::StrcWriter w;
    ASSERT_TRUE(w.open(path, hdr, &err));
    for (const auto &r : recs)
        w.add(r);
    ASSERT_TRUE(w.finish(&err)) << err;
    std::size_t raw = recs.size() * sizeof(stream::TraceRecord);
    std::size_t packed = readFileBytes(path).size();
    // The context-model coder should beat raw structs by >2x even on
    // high-entropy synthetic input.
    EXPECT_LT(packed * 2, raw) << packed << " vs " << raw;
    std::remove(path.c_str());
}

TEST(Strc, TruncatedFileRecoversCompleteChunks)
{
    auto recs = syntheticRecords(2000, true, 31);
    std::string path = tmpPath("torn") + ".strc";
    stream::StrcHeader hdr;
    hdr.hasLengths = true;
    hdr.numModels = 37;
    std::string err;
    stream::StrcWriter w;
    ASSERT_TRUE(w.open(path, hdr, &err, 100)); // 20 chunks
    for (const auto &r : recs)
        w.add(r);
    ASSERT_TRUE(w.finish(&err)) << err;

    std::string full = readFileBytes(path);

    // Cut at many points: mid-index, mid-chunk, mid-header-of-chunk.
    for (std::size_t cut : {full.size() - 5, full.size() / 2,
                            full.size() / 3, full.size() / 7}) {
        writeFileBytes(path, full.substr(0, cut));
        stream::StrcReader rd;
        ASSERT_TRUE(rd.open(path, &err)) << err << " cut=" << cut;
        EXPECT_TRUE(rd.recovered()) << cut;
        EXPECT_LE(rd.recordCount(), recs.size());
        // Whatever survived must be a prefix, chunk-aligned, intact.
        EXPECT_EQ(rd.recordCount() % 100, 0u) << cut;
        stream::TraceRecord got;
        for (std::uint64_t i = 0; i < rd.recordCount(); ++i) {
            ASSERT_TRUE(rd.next(got));
            ASSERT_EQ(got.time, recs[i].time) << "cut=" << cut;
            ASSERT_EQ(got.model, recs[i].model);
        }
        EXPECT_FALSE(rd.next(got));
    }

    // A flipped byte inside a chunk payload with an intact index is
    // real mid-file corruption, not a torn tail: silently skipping the
    // chunk would replay a hole, so the reader fail-stops on its CRC.
    std::string corrupt = full;
    corrupt[full.size() / 2] ^= 0x40;
    writeFileBytes(path, corrupt);
    EXPECT_DEATH(
        {
            stream::StrcReader rd;
            std::string e;
            if (rd.open(path, &e)) {
                stream::TraceRecord got;
                while (rd.next(got)) {
                }
            }
            // If the index CRC happened to catch it, open fails — that
            // is also fail-stop; die explicitly so the DEATH matches.
            fatal("checksum mismatch");
        },
        "checksum mismatch");
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// Reports are independent of the RequestSource
// --------------------------------------------------------------------

/** A fast config small enough to fuzz many seeds. */
ExperimentConfig
fuzzConfig(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.system = SystemKind::Slinfer;
    cfg.cluster.cpuNodes = 2;
    cfg.cluster.gpuNodes = 2;
    cfg.models = replicateModel(llama2_7b(), 6);
    AzureTraceConfig tc;
    tc.numModels = 6;
    tc.duration = 60.0;
    // ~180 requests/run: enough churn through the one-arrival feed
    // (and through request recycling) to make byte-identity convincing.
    tc.perModelRpm = 30.0;
    tc.seed = seed;
    cfg.trace = generateAzureTrace(tc);
    cfg.duration = 60.0;
    cfg.seed = seed * 7919 + 17;
    return cfg;
}

/** Pack `trace` (times + models only) into a `.strc` at `path`. */
void
packStrc(const AzureTrace &trace, std::uint32_t numModels,
         const std::string &path)
{
    stream::StrcHeader hdr;
    hdr.hasLengths = false;
    hdr.numModels = numModels;
    hdr.duration = trace.duration;
    std::string err;
    stream::StrcWriter w;
    ASSERT_TRUE(w.open(path, hdr, &err, 512)) << err;
    for (const Arrival &a : trace.arrivals) {
        stream::TraceRecord r;
        r.time = a.time;
        r.model = a.model;
        w.add(r);
    }
    ASSERT_TRUE(w.finish(&err)) << err;
}

/** `cfg` with its in-memory trace swapped for the `.strc` at `path`. */
ExperimentConfig
strcReplay(ExperimentConfig cfg, const std::string &path)
{
    cfg.trace = AzureTrace{};
    cfg.duration = 0.0; // the header's duration is the window
    cfg.stream.tracePath = path;
    return cfg;
}

Intervention
arrivalScale(Seconds at, double factor, int model = -1)
{
    Intervention iv;
    iv.kind = Intervention::Kind::ArrivalScale;
    iv.at = at;
    iv.factor = factor;
    iv.model = model;
    return iv;
}

/**
 * Run `cfg` from its in-memory trace and from the same trace packed to
 * `.strc` (times + models only) — the two RequestSources the feed
 * pulls from — and require byte-identical reports: dataset lengths
 * must come out of the length RNG in the same order either way.
 * Returns the in-memory report.
 */
Report
expectStrcMatchesInMemory(const ExperimentConfig &cfg,
                          const std::string &label)
{
    const std::string path = tmpPath("match") + ".strc";
    packStrc(cfg.trace, static_cast<std::uint32_t>(cfg.models.size()),
             path);
    ExperimentConfig replay = strcReplay(cfg, path);
    // Chaos expansion needs the window before the header is read; it
    // equals the header's duration, so stating it is not a conflict.
    replay.duration = cfg.duration;
    Report inMemory = runExperiment(cfg);
    Report fromDisk = runExperiment(replay);
    std::remove(path.c_str());
    EXPECT_EQ(toJson(inMemory), toJson(fromDisk)) << label;
    return inMemory;
}

TEST(Streaming, TwentySeedFuzzStrcMatchesInMemory)
{
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        expectStrcMatchesInMemory(fuzzConfig(seed),
                                  "seed " + std::to_string(seed));
        ASSERT_FALSE(HasFailure());
    }
}

TEST(Streaming, StrcMatchesInMemoryUnderChaos)
{
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        ExperimentConfig cfg = fuzzConfig(seed);
        chaos::FaultProcess flap;
        flap.kind = chaos::FaultProcess::Kind::NodeFlap;
        flap.firstNode = 0;
        flap.lastNode = 3;
        flap.mtbf = 30.0;
        flap.mttr = 8.0;
        cfg.chaos.processes.push_back(flap);
        expectStrcMatchesInMemory(cfg, "seed " + std::to_string(seed));
        ASSERT_FALSE(HasFailure());
    }
}

TEST(Streaming, StrcMatchesInMemoryWithTimelineInterventions)
{
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        ExperimentConfig cfg = fuzzConfig(seed);
        Intervention retire;
        retire.kind = Intervention::Kind::ModelRetire;
        retire.at = 20.0;
        retire.model = 2;
        cfg.timeline.push_back(retire);
        Intervention burst;
        burst.kind = Intervention::Kind::ArrivalBurst;
        burst.at = 30.0;
        burst.model = 0;
        burst.rpm = 300.0;
        burst.duration = 5.0;
        cfg.timeline.push_back(burst);
        Intervention fail;
        fail.kind = Intervention::Kind::NodeFail;
        fail.at = 25.0;
        fail.node = 1;
        cfg.timeline.push_back(fail);
        Intervention restore;
        restore.kind = Intervention::Kind::NodeRestore;
        restore.at = 40.0;
        restore.node = 1;
        cfg.timeline.push_back(restore);
        expectStrcMatchesInMemory(cfg, "seed " + std::to_string(seed));
        ASSERT_FALSE(HasFailure());
    }
}

TEST(Streaming, ArrivalScaleStrcMatchesInMemory)
{
    // Scale rules apply when each arrival fires, drawing from the
    // intervention RNG in fire order, so the source cannot change
    // which arrivals are thinned or cloned. x2 on every model, a burst
    // on model 1, then x0.5 on model 1 alone: the thinning reaches
    // trace arrivals, burst arrivals and x2 clones of model 1.
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        ExperimentConfig cfg = fuzzConfig(seed);
        cfg.timeline.push_back(arrivalScale(10.0, 2.0));
        Intervention burst;
        burst.kind = Intervention::Kind::ArrivalBurst;
        burst.at = 15.0;
        burst.model = 1;
        burst.rpm = 240.0;
        burst.duration = 20.0;
        cfg.timeline.push_back(burst);
        cfg.timeline.push_back(arrivalScale(25.0, 0.5, 1));
        Report r =
            expectStrcMatchesInMemory(cfg, "seed " + std::to_string(seed));
        ASSERT_FALSE(HasFailure());
        EXPECT_GT(r.totalRequests,
                  runExperiment(fuzzConfig(seed)).totalRequests);
        EXPECT_EQ(r.completed + r.dropped, r.totalRequests);
    }
}

TEST(Streaming, TraceArrivalFiresBeforeInterventionAtSameTime)
{
    // The seq-band rule: trace arrivals at exactly an intervention's
    // `at` fire first, even though the feed schedules the second of
    // two equal-time arrivals only when the first fires. A factor-0
    // arrival-scale at t=10 thins every arrival that fires after it.
    ExperimentConfig cfg;
    cfg.system = SystemKind::Slinfer;
    cfg.cluster.cpuNodes = 1;
    cfg.cluster.gpuNodes = 1;
    cfg.models = replicateModel(llama2_7b(), 1);
    for (Seconds t : {5.0, 10.0, 10.0, 15.0})
        cfg.trace.arrivals.push_back(Arrival{t, 0});
    cfg.trace.duration = 20.0;
    cfg.timeline.push_back(arrivalScale(10.0, 0.0));
    Report r = expectStrcMatchesInMemory(cfg, "equal-time arrivals");
    EXPECT_EQ(r.totalRequests, 3u);
}

TEST(Streaming, StrcReplayRunsArrivalScale)
{
    // arrival-scale applies at fire time on a .strc replay like on any
    // other run, with the same report as the in-memory trace.
    ExperimentConfig cfg = fuzzConfig(4);
    cfg.timeline.push_back(arrivalScale(10.0, 2.0));
    cfg.timeline.push_back(arrivalScale(40.0, 0.25));
    Report inMemory = runExperiment(cfg);

    std::string path = tmpPath("replay_scale") + ".strc";
    packStrc(cfg.trace, static_cast<std::uint32_t>(cfg.models.size()),
             path);
    Report fromDisk = runExperiment(strcReplay(cfg, path));
    std::remove(path.c_str());
    EXPECT_EQ(toJson(inMemory), toJson(fromDisk));
    EXPECT_NE(fromDisk.totalRequests,
              runExperiment(fuzzConfig(4)).totalRequests);

    // A header window shorter than the records (a hand-written CSV can
    // declare one): clones of arrivals past the window land at their
    // parent's own time instead of in the past.
    AzureTrace shortWindow = fuzzConfig(4).trace;
    shortWindow.duration = 30.0;
    packStrc(shortWindow, static_cast<std::uint32_t>(cfg.models.size()),
             path);
    ExperimentConfig past = strcReplay(fuzzConfig(4), path);
    past.timeline.push_back(arrivalScale(10.0, 3.0));
    Report r = runExperiment(past);
    std::remove(path.c_str());
    EXPECT_GT(r.totalRequests, shortWindow.arrivals.size());
    EXPECT_EQ(r.completed + r.dropped, r.totalRequests);
}

TEST(Streaming, StrcReplayRejectsDeadTimelineEntries)
{
    // validate() cannot see a .strc header's duration; the Session
    // re-checks the timeline once the file is open.
    ExperimentConfig cfg = fuzzConfig(5);
    std::string path = tmpPath("replay_dead") + ".strc";
    packStrc(cfg.trace, static_cast<std::uint32_t>(cfg.models.size()),
             path);
    ExperimentConfig replay = strcReplay(cfg, path);
    Intervention fail;
    fail.kind = Intervention::Kind::NodeFail;
    fail.at = 5000.0;
    fail.node = 0;
    replay.timeline.push_back(fail);
    EXPECT_DEATH(runExperiment(replay),
                 "scheduled past the experiment duration");
    std::remove(path.c_str());
}

TEST(Streaming, ClonesOfARetiredModelAreNeverSubmitted)
{
    // One model carries all the traffic and is cloned x3; it retires
    // at t=30 while clones jittered past 30 are still pending. No
    // arrival may reach the controller after the retire.
    ExperimentConfig cfg;
    cfg.system = SystemKind::Slinfer;
    cfg.cluster.cpuNodes = 1;
    cfg.cluster.gpuNodes = 1;
    cfg.models = replicateModel(llama2_7b(), 1);
    AzureTraceConfig tc;
    tc.numModels = 1;
    tc.duration = 60.0;
    tc.perModelRpm = 600.0;
    tc.seed = 8;
    cfg.trace = generateAzureTrace(tc);
    cfg.duration = 60.0;
    cfg.timeline.push_back(arrivalScale(5.0, 3.0));
    ExperimentConfig unretired = cfg;
    Intervention retire;
    retire.kind = Intervention::Kind::ModelRetire;
    retire.at = 30.0;
    retire.model = 0;
    cfg.timeline.push_back(retire);

    // From memory and from a `.strc` replay: the retire cancels the
    // feed's one scheduled arrival either way.
    const std::string path = tmpPath("retire_clones") + ".strc";
    packStrc(cfg.trace, 1, path);
    for (const ExperimentConfig &run : {cfg, strcReplay(cfg, path)}) {
        Session s(run);
        s.advanceTo(30.0);
        const std::size_t atRetire = s.sample().arrived;
        s.advanceTo(s.duration());
        Report r = s.finish();
        EXPECT_EQ(r.totalRequests, atRetire)
            << (run.stream.tracePath.empty() ? "in-memory" : ".strc");
    }
    std::remove(path.c_str());

    // Without the retire, clones keep arriving past t=30.
    Session s(unretired);
    s.advanceTo(30.0);
    const std::size_t at30 = s.sample().arrived;
    s.advanceTo(31.0);
    EXPECT_GT(s.sample().arrived, at30 + 10);
    s.finish();
}

TEST(Streaming, PoolStaysBoundedByOneArrivalPlusInFlight)
{
    ExperimentConfig cfg = fuzzConfig(9);
    // A denser trace so the bound is meaningful (~1000 arrivals).
    AzureTraceConfig tc;
    tc.numModels = 6;
    tc.duration = 60.0;
    tc.perModelRpm = 170.0;
    tc.seed = 9;
    cfg.trace = generateAzureTrace(tc);
    Session s(cfg);
    // The feed keeps exactly one trace arrival scheduled until the
    // source runs dry: every pulled record but that one has fired.
    for (int step = 1; step <= 600; ++step) {
        s.advanceTo(cfg.duration * step / 600);
        const stream::StreamingArrivalFeed &feed = *s.feed();
        ASSERT_EQ(feed.pulled(),
                  feed.replayed() + (feed.exhausted() ? 0 : 1))
            << "t=" << s.now();
    }
    EXPECT_TRUE(s.feed()->exhausted());
    // The pool's high-water mark is one scheduled arrival + peak
    // in-flight — far below the trace size for any nontrivial trace.
    // The hard RSS assertion lives in test_stream_rss.cc; this catches
    // pooling regressions (e.g. the reclaim hook silently never
    // firing) fast.
    EXPECT_LT(s.streamPoolSize(), cfg.trace.arrivals.size() / 2)
        << "pool " << s.streamPoolSize() << " of "
        << cfg.trace.arrivals.size() << " arrivals";
    s.finish();
}

} // namespace
} // namespace slinfer

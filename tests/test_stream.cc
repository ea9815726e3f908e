/**
 * @file
 * Streaming subsystem tests: the `.strc` codec (round trips,
 * multi-chunk files, torn-write recovery) and the headline contract —
 * a run's Report does not depend on the arrival feed's lookahead,
 * across a seeded fuzz matrix (plain, chaos, timeline and
 * arrival-scale variants). The reference is a lookahead at least the
 * trace length, which schedules the whole trace at start.
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
// Reports are independent of the lookahead
// --------------------------------------------------------------------

/** Larger than any trace below: the feed schedules the whole trace at
 *  start, as an up-front arrival loop would. */
constexpr std::uint32_t kWholeTrace = 1u << 24;

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
    // ~180 requests/run: enough churn through a small lookahead window
    // (and through request recycling) to make byte-identity convincing.
    tc.perModelRpm = 30.0;
    tc.seed = seed;
    cfg.trace = generateAzureTrace(tc);
    cfg.duration = 60.0;
    cfg.seed = seed * 7919 + 17;
    return cfg;
}

Report
runStreaming(ExperimentConfig cfg, std::uint32_t lookahead)
{
    cfg.stream.lookahead = lookahead;
    return runExperiment(cfg);
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

TEST(Streaming, TwentySeedFuzzIsLookaheadIndependent)
{
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        ExperimentConfig cfg = fuzzConfig(seed);
        Report whole = runStreaming(cfg, kWholeTrace);
        // Tiny lookahead stresses window churn; the default sits in
        // between. All must be byte-identical.
        Report tight = runStreaming(cfg, 2);
        Report dflt = runExperiment(cfg);
        ASSERT_EQ(toJson(whole), toJson(tight)) << "seed " << seed;
        ASSERT_EQ(toJson(whole), toJson(dflt)) << "seed " << seed;
    }
}

TEST(Streaming, LookaheadIndependentUnderChaos)
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
        ASSERT_EQ(toJson(runStreaming(cfg, kWholeTrace)),
                  toJson(runStreaming(cfg, 64)))
            << "seed " << seed;
    }
}

TEST(Streaming, LookaheadIndependentWithTimelineInterventions)
{
    ExperimentConfig cfg = fuzzConfig(42);
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

    EXPECT_EQ(toJson(runStreaming(cfg, kWholeTrace)),
              toJson(runStreaming(cfg, 8)));
}

TEST(Streaming, ArrivalScaleIsLookaheadIndependent)
{
    // Scale rules apply when each arrival fires, drawing from the
    // intervention RNG in fire order, so no window size can change
    // which arrivals are thinned or cloned. x2 on every model, a burst
    // on model 1, then x0.5 on model 1 alone: the thinning reaches
    // trace arrivals, burst arrivals and x2 clones of model 1.
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
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
        Report whole = runStreaming(cfg, kWholeTrace);
        ASSERT_EQ(toJson(whole), toJson(runStreaming(cfg, 1)))
            << "seed " << seed;
        EXPECT_GT(whole.totalRequests,
                  runExperiment(fuzzConfig(seed)).totalRequests);
        EXPECT_EQ(whole.completed + whole.dropped, whole.totalRequests);
    }
}

TEST(Streaming, StrcReplayMatchesGeneratedTrace)
{
    // Pack the generated trace (times + models only), replay it from
    // disk, and demand byte-identity with the in-memory run: dataset
    // lengths must come out of lenRng_ in the same order either way.
    ExperimentConfig cfg = fuzzConfig(3);
    Report inMemory = runExperiment(cfg);

    std::string path = tmpPath("replay") + ".strc";
    packStrc(cfg.trace, static_cast<std::uint32_t>(cfg.models.size()),
             path);
    Report fromDisk = runStreaming(strcReplay(cfg, path), 32);
    EXPECT_EQ(toJson(inMemory), toJson(fromDisk));
    std::remove(path.c_str());
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
    Report fromDisk = runStreaming(strcReplay(cfg, path), 16);
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

    for (std::uint32_t lookahead : {1u, 64u, kWholeTrace}) {
        cfg.stream.lookahead = lookahead;
        Session s(cfg);
        s.advanceTo(30.0);
        const std::size_t atRetire = s.sample().arrived;
        s.advanceTo(s.duration());
        Report r = s.finish();
        EXPECT_EQ(r.totalRequests, atRetire) << "lookahead " << lookahead;
    }

    // Without the retire, clones keep arriving past t=30.
    Session s(unretired);
    s.advanceTo(30.0);
    const std::size_t at30 = s.sample().arrived;
    s.advanceTo(31.0);
    EXPECT_GT(s.sample().arrived, at30 + 10);
    s.finish();
}

TEST(Streaming, PoolStaysBoundedByLookaheadPlusInFlight)
{
    ExperimentConfig cfg = fuzzConfig(9);
    // A denser trace so the bound is meaningful (~1000 arrivals).
    AzureTraceConfig tc;
    tc.numModels = 6;
    tc.duration = 60.0;
    tc.perModelRpm = 170.0;
    tc.seed = 9;
    cfg.trace = generateAzureTrace(tc);
    cfg.stream.lookahead = 16;
    Session s(cfg);
    s.advanceTo(cfg.duration);
    ASSERT_NE(s.feed(), nullptr);
    EXPECT_TRUE(s.feed()->exhausted());
    // The pool's high-water mark is lookahead + peak in-flight — far
    // below the trace size for any nontrivial trace. The hard RSS
    // assertion lives in test_stream_rss.cc; this catches pooling
    // regressions (e.g. the reclaim hook silently never firing) fast.
    EXPECT_LT(s.streamPoolSize(), cfg.trace.arrivals.size() / 2)
        << "pool " << s.streamPoolSize() << " of "
        << cfg.trace.arrivals.size() << " arrivals";
    s.finish();
}

} // namespace
} // namespace slinfer

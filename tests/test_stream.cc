/**
 * @file
 * Streaming subsystem tests: the `.strc`/`.strz` codecs (round trips,
 * multi-chunk files, torn-write recovery) and the headline contract —
 * a streaming replay's Report is byte-identical to the materialized
 * oracle across a seeded fuzz matrix (plain and chaos variants).
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
// .strz byte-stream store
// --------------------------------------------------------------------

TEST(Strz, AppendReadAllRoundTrip)
{
    std::string path = tmpPath("strz") + ".strz";
    std::remove(path.c_str());
    std::string err;

    std::string expect;
    {
        stream::StrzWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/true, &err)) << err;
        Rng rng(5);
        for (int i = 0; i < 10; ++i) {
            std::string block = "{\"line\":" + std::to_string(i) + ",";
            for (int j = 0; j < 200; ++j)
                block += static_cast<char>('a' + rng.uniformInt(0, 25));
            block += "}\n";
            ASSERT_TRUE(w.appendBlock(block, &err)) << err;
            expect += block;
        }
    }
    // Reopen for append (crash-resume shape) and add more.
    {
        stream::StrzWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/false, &err)) << err;
        ASSERT_TRUE(w.appendBlock("tail\n", &err)) << err;
        expect += "tail\n";
    }

    std::string out;
    bool torn = false;
    ASSERT_TRUE(stream::strzReadAll(path, out, &err, &torn)) << err;
    EXPECT_FALSE(torn);
    EXPECT_EQ(out, expect);
    std::remove(path.c_str());
}

TEST(Strz, TornTailChunkIsDroppedMissingFileIsEmpty)
{
    std::string path = tmpPath("strz_torn") + ".strz";
    std::remove(path.c_str());
    std::string err, out;
    bool torn = false;

    // Missing file: empty output, ok.
    ASSERT_TRUE(stream::strzReadAll(path, out, &err, &torn));
    EXPECT_TRUE(out.empty());
    EXPECT_FALSE(torn);

    {
        stream::StrzWriter w;
        ASSERT_TRUE(w.open(path, true, &err)) << err;
        ASSERT_TRUE(w.appendBlock("first-block\n", &err));
        ASSERT_TRUE(w.appendBlock("second-block\n", &err));
    }
    std::string full = readFileBytes(path);
    // Tear the last chunk mid-payload: simulate a mid-append crash.
    writeFileBytes(path, full.substr(0, full.size() - 3));

    out.clear();
    ASSERT_TRUE(stream::strzReadAll(path, out, &err, &torn)) << err;
    EXPECT_TRUE(torn);
    EXPECT_EQ(out, "first-block\n");

    // Corrupting a *complete* chunk's payload is real corruption.
    std::string corrupt = full;
    corrupt[full.size() - 4] ^= 0x01;
    writeFileBytes(path, corrupt);
    out.clear();
    EXPECT_FALSE(stream::strzReadAll(path, out, &err, &torn));
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// Streaming replay == materialized oracle
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
    cfg.stream.enabled = true;
    cfg.stream.lookahead = lookahead;
    return runExperiment(cfg);
}

TEST(Streaming, TwentySeedFuzzMatchesMaterialized)
{
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        ExperimentConfig cfg = fuzzConfig(seed);
        Report oracle = runExperiment(cfg);
        // Tiny lookahead stresses window churn; big one approaches the
        // materialized shape. Both must be byte-identical.
        Report tight = runStreaming(cfg, 2);
        Report wide = runStreaming(cfg, 4096);
        ASSERT_EQ(toJson(oracle), toJson(tight)) << "seed " << seed;
        ASSERT_EQ(toJson(oracle), toJson(wide)) << "seed " << seed;
    }
}

TEST(Streaming, MatchesMaterializedUnderChaos)
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
        Report oracle = runExperiment(cfg);
        ASSERT_EQ(toJson(oracle), toJson(runStreaming(cfg, 64)))
            << "seed " << seed;
    }
}

TEST(Streaming, MatchesMaterializedWithTimelineInterventions)
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

    Report oracle = runExperiment(cfg);
    EXPECT_EQ(toJson(oracle), toJson(runStreaming(cfg, 8)));
}

TEST(Streaming, StrcReplayMatchesGeneratedTrace)
{
    // Pack the generated trace (times + models only), replay it from
    // disk, and demand byte-identity with the in-memory run: dataset
    // lengths must come out of lenRng_ in the same order either way.
    ExperimentConfig cfg = fuzzConfig(3);
    Report oracle = runExperiment(cfg);

    std::string path = tmpPath("replay") + ".strc";
    stream::StrcHeader hdr;
    hdr.hasLengths = false;
    hdr.numModels = static_cast<std::uint32_t>(cfg.models.size());
    hdr.duration = cfg.trace.duration;
    std::string err;
    stream::StrcWriter w;
    ASSERT_TRUE(w.open(path, hdr, &err, 512));
    for (const Arrival &a : cfg.trace.arrivals) {
        stream::TraceRecord r;
        r.time = a.time;
        r.model = a.model;
        w.add(r);
    }
    ASSERT_TRUE(w.finish(&err)) << err;

    ExperimentConfig replay = cfg;
    replay.trace = AzureTrace{};
    replay.stream.enabled = true;
    replay.stream.lookahead = 32;
    replay.stream.tracePath = path;
    Report fromDisk = runExperiment(replay);
    EXPECT_EQ(toJson(oracle), toJson(fromDisk));
    std::remove(path.c_str());
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
    cfg.stream.enabled = true;
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

/**
 * @file
 * The bounded-memory contract of streaming replay, on real traces:
 * the live request pool and the resident set must be independent of
 * trace length (ARCHITECTURE.md, "Streaming replay"). Runs in its own
 * binary so process-wide RSS readings are not contaminated by other
 * suites.
 *
 * The CI streaming-smoke job asserts the same contract from the
 * outside on a 1M-request trace: slinfer_run --stream-trace under a
 * hard `ulimit -v` ceiling the trace's requests could not all fit in.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>

#include "common/proc.hh"
#include "harness/session.hh"
#include "stream/codec.hh"
#include "workload/azure_trace.hh"

#if defined(__SANITIZE_ADDRESS__)
#define SLINFER_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SLINFER_TEST_ASAN 1
#endif
#endif

#ifdef SLINFER_TEST_ASAN
/**
 * ASan parks every freed block in a quarantine (256 MB by default)
 * before reusing it, so a replay's steady frees read as resident-set
 * growth, and the longer replay frees more. This binary measures RSS,
 * so it runs with the quarantine off; ASAN_OPTIONS still applies on
 * top. The other test binaries keep ASan's defaults.
 */
extern "C" const char *
__asan_default_options()
{
    return "quarantine_size_mb=0:thread_local_quarantine_size_kb=0";
}
#endif

namespace slinfer
{
namespace
{

std::string
tmpPath(const std::string &stem)
{
    return testing::TempDir() + "slinfer_" + stem + "_" +
           std::to_string(::getpid());
}

/** A dense trace at a FIXED arrival rate (~50 req/s aggregate): trace
 *  length scales with `durationSecs` only. The pool bound is one
 *  scheduled arrival + in-flight, and in-flight scales with rate — so
 *  the length-independence claim is only testable at constant rate. */
AzureTraceConfig
denseTrace(double durationSecs)
{
    AzureTraceConfig tc;
    tc.numModels = 6;
    tc.duration = durationSecs;
    tc.perModelRpm = 500.0;
    tc.seed = 77;
    return tc;
}

/** Pack `trace` to `.strc` (times + models only) in chunks of
 *  `chunkCap` records and return the record count. */
std::uint64_t
packTrace(const AzureTrace &trace, std::uint32_t numModels,
          const std::string &path,
          std::uint32_t chunkCap = stream::kStrcChunkCap)
{
    stream::StrcHeader hdr;
    hdr.hasLengths = false;
    hdr.numModels = numModels;
    hdr.duration = trace.duration;
    std::string err;
    stream::StrcWriter w;
    EXPECT_TRUE(w.open(path, hdr, &err, chunkCap)) << err;
    for (const Arrival &a : trace.arrivals) {
        stream::TraceRecord r;
        r.time = a.time;
        r.model = a.model;
        w.add(r);
    }
    EXPECT_TRUE(w.finish(&err)) << err;
    return trace.arrivals.size();
}

ExperimentConfig
streamConfig(const std::string &tracePath)
{
    ExperimentConfig cfg;
    cfg.system = SystemKind::Slinfer;
    cfg.cluster.cpuNodes = 2;
    cfg.cluster.gpuNodes = 2;
    cfg.models = replicateModel(llama2_7b(), 6);
    cfg.seed = 5;
    cfg.stream.tracePath = tracePath;
    return cfg;
}

struct StreamRun
{
    std::uint64_t replayed = 0;
    std::size_t poolHighWater = 0;
    std::size_t maxRss = 0;
};

StreamRun
replayStreaming(const ExperimentConfig &cfg)
{
    StreamRun run;
    Session session(cfg);
    const Seconds end = session.duration();
    for (int i = 1; i <= 100; ++i) {
        session.advanceTo(end * i / 100);
        run.maxRss = std::max(run.maxRss, currentRssBytes());
    }
    session.finish();
    run.maxRss = std::max(run.maxRss, currentRssBytes());
    EXPECT_NE(session.feed(), nullptr);
    if (session.feed())
        run.replayed = session.feed()->replayed();
    run.poolHighWater = session.streamPoolSize();
    return run;
}

TEST(StreamRss, BoundedMemory)
{
    const std::string small_path = tmpPath("rss_small") + ".strc";
    const std::string big_path = tmpPath("rss_big") + ".strc";
    std::uint64_t small_n =
        packTrace(generateAzureTrace(denseTrace(300.0)), 6, small_path);
    std::uint64_t big_n =
        packTrace(generateAzureTrace(denseTrace(1200.0)), 6, big_path);
    ASSERT_GT(big_n, small_n * 3);

    const std::size_t base = currentRssBytes();

    StreamRun small = replayStreaming(streamConfig(small_path));
    StreamRun big = replayStreaming(streamConfig(big_path));
    std::remove(small_path.c_str());
    std::remove(big_path.c_str());
    EXPECT_EQ(small.replayed, small_n);
    EXPECT_EQ(big.replayed, big_n);

    // The pool holds the one scheduled arrival plus the requests the
    // controller still references: in flight, or settled but not yet
    // purged from a pending queue. At a fixed rate that is bounded by
    // the arrivals of a time span, not by trace length: each run stays
    // below one minute of arrivals, 4x the records or not. (The peak
    // is set by the trace's worst drop burst, which only the longer
    // trace reaches, so the two high-waters are not compared.)
    const std::uint64_t perMinute = big_n * 60 / 1200;
    ASSERT_GT(small.poolHighWater, 0u);
    EXPECT_LT(small.poolHighWater, perMinute);
    EXPECT_LT(big.poolHighWater, perMinute);

    // And neither must the resident set: the 4x replay may not cost
    // even half a vector of every trace Request of extra memory over
    // the 1x one (RSS is unknown/0 on exotic platforms — skip there).
    if (base > 0 && big.maxRss > 0) {
        std::size_t vectorBytes = big_n * sizeof(Request);
        EXPECT_LT(big.maxRss, small.maxRss + vectorBytes / 2)
            << "streaming RSS grew with trace length: "
            << small.maxRss << " -> " << big.maxRss;
    }
}

TEST(StreamRss, StrcReplayMatchesInMemoryTraceAcrossChunks)
{
    // The CI smoke's 10k-prefix trace, in miniature: pack a prefix of
    // the dense trace into many small codec chunks, replay it from
    // disk, and demand a byte-identical Report from the same prefix
    // replayed from memory. Chunk boundaries must be invisible.
    AzureTrace full = generateAzureTrace(denseTrace(600.0));
    constexpr std::size_t kPrefix = 10000;
    ASSERT_GT(full.arrivals.size(), kPrefix);

    AzureTrace prefix;
    prefix.arrivals.assign(full.arrivals.begin(),
                           full.arrivals.begin() + kPrefix);
    prefix.duration = full.duration;

    const std::string path = tmpPath("rss_prefix") + ".strc";
    packTrace(prefix, 6, path, 1000);
    {
        stream::StrcReader rd;
        std::string err;
        ASSERT_TRUE(rd.open(path, &err)) << err;
        EXPECT_EQ(rd.chunkCount(), kPrefix / 1000);
    }

    ExperimentConfig streamed = streamConfig(path);
    Report fromDisk = runExperiment(streamed);

    ExperimentConfig inMemory = streamConfig("");
    inMemory.trace = std::move(prefix);
    Report fromMemory = runExperiment(inMemory);

    EXPECT_EQ(toJson(fromMemory), toJson(fromDisk));
    std::remove(path.c_str());
}

} // namespace
} // namespace slinfer

/**
 * @file
 * Streaming-replay throughput and memory: the perf-trajectory bench
 * for the stream subsystem (DESIGN.md, "Streaming arrivals" and
 * "The .strc codec").
 *
 * Three measurements on one synthetic Azure trace:
 *
 *  1. **codec** — pack the trace to `.strc` and drain it back:
 *     records/sec each way, bytes/record on disk, and the compression
 *     ratio against the raw 12-byte (f64 time + u32 model) encoding.
 *  2. **replay** — the experiment replayed from the packed file
 *     (one scheduled arrival, request recycling): requests/sec
 *     wall, with resident-set size sampled across 200 advance slices.
 *  3. **headline** — requests/sec per GB of peak RSS, the number
 *     multi-million-request replays are sized by.
 *
 * The fleet is deliberately small for the arrival rate, so most
 * requests drop at their TTFT deadline: the bench measures the replay
 * engine (arrival scheduling, request construction, recycling) rather
 * than serving capacity. The bounded-memory contract itself is
 * asserted by StreamRss.BoundedMemory and the CI `ulimit -v` replay.
 *
 * Output: a human table on stdout, optionally
 *   --json=<file>            freeform trajectory doc (BENCH_*.json)
 *   --write-baseline=<file>  machine summary for the CI gate
 *   --compare=<file>         gate the codec compression ratio against
 *                            a baseline via sweep::compare (it is
 *                            host-independent; absolute records/sec
 *                            and RSS are recorded but not gated)
 *   --tolerance=<frac>       allowed ratio drop (default 0.50)
 *   --requests=<n> --models=<m> --window=<s>
 * Exit code: 0 ok, 1 gate failure, 2 usage error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/log.hh"
#include "common/proc.hh"
#include "common/table.hh"
#include "harness/session.hh"
#include "stream/codec.hh"
#include "sweep/compare.hh"
#include "sweep/summary.hh"
#include "workload/azure_trace.hh"

using namespace slinfer;

namespace
{

double
wallSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

sweep::MetricSummary
point(double v)
{
    sweep::MetricSummary m;
    m.n = 1;
    m.mean = m.p50 = m.p99 = m.ciLo = m.ciHi = v;
    return m;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << content;
    out.flush();
    return static_cast<bool>(out);
}

std::uint64_t
fileSizeBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return 0;
    std::fseek(f, 0, SEEK_END);
    long n = std::ftell(f);
    std::fclose(f);
    return n > 0 ? static_cast<std::uint64_t>(n) : 0;
}

/** One replay, advanced in 200 slices with the resident set sampled at
 *  each boundary. Returns {wall seconds, replayed requests, max RSS}. */
struct ReplayResult
{
    double wall = 0.0;
    std::uint64_t requests = 0;
    std::size_t maxRss = 0;
};

ReplayResult
timedReplay(const ExperimentConfig &cfg)
{
    ReplayResult res;
    auto t0 = std::chrono::steady_clock::now();
    Session session(cfg);
    const Seconds end = session.duration();
    constexpr int kSlices = 200;
    for (int i = 1; i <= kSlices; ++i) {
        session.advanceTo(end * i / kSlices);
        res.maxRss = std::max(res.maxRss, currentRssBytes());
    }
    Report rep = session.finish();
    res.maxRss = std::max(res.maxRss, currentRssBytes());
    res.wall = wallSeconds(t0);
    res.requests = rep.totalRequests;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t requests = 200000;
    int numModels = 64;
    double window = 600.0;
    std::string json_path;
    std::string baseline_out;
    std::string compare_path;
    double tolerance = 0.50;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg]() {
            return arg.substr(arg.find('=') + 1);
        };
        if (arg.rfind("--requests=", 0) == 0) {
            requests = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg.rfind("--models=", 0) == 0) {
            numModels = std::atoi(value().c_str());
        } else if (arg.rfind("--window=", 0) == 0) {
            window = std::atof(value().c_str());
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = value();
        } else if (arg.rfind("--write-baseline=", 0) == 0) {
            baseline_out = value();
        } else if (arg.rfind("--compare=", 0) == 0) {
            compare_path = value();
        } else if (arg.rfind("--tolerance=", 0) == 0) {
            tolerance = std::atof(value().c_str());
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return 2;
        }
    }
    if (requests == 0 || numModels <= 0 || window <= 0) {
        std::fprintf(stderr,
                     "--requests/--models/--window must be positive\n");
        return 2;
    }

    setLogLevel(LogLevel::Warn);

    // The trace: `requests` Azure-style arrivals over `window` seconds
    // spread across `numModels` models. Deterministic (fixed seed), so
    // the codec numbers are reproducible bit for bit.
    AzureTraceConfig tc;
    tc.numModels = numModels;
    tc.duration = window;
    tc.perModelRpm = static_cast<double>(requests) * 60.0 /
                     (static_cast<double>(numModels) * window);
    tc.seed = 1234;

    const char *tmp = std::getenv("TMPDIR");
    std::string strc_path = std::string(tmp ? tmp : "/tmp") +
                            "/slinfer_bench_stream_" +
                            std::to_string(::getpid()) + ".strc";

    // ---- codec: pack ------------------------------------------------
    std::uint64_t packed = 0;
    double pack_wall = 0.0;
    {
        AzureTrace trace = generateAzureTrace(tc);
        packed = trace.arrivals.size();
        stream::StrcHeader hdr;
        hdr.hasLengths = false;
        hdr.numModels = static_cast<std::uint32_t>(numModels);
        hdr.duration = trace.duration;
        std::string err;
        stream::StrcWriter w;
        auto t0 = std::chrono::steady_clock::now();
        if (!w.open(strc_path, hdr, &err))
            fatal("bench_stream_throughput: " + err);
        for (const Arrival &a : trace.arrivals) {
            stream::TraceRecord r;
            r.time = a.time;
            r.model = a.model;
            w.add(r);
        }
        if (!w.finish(&err))
            fatal("bench_stream_throughput: " + err);
        pack_wall = wallSeconds(t0);
        // The trace dies here: the streaming run below must not carry
        // the raw vector in its resident set.
    }
    std::uint64_t strc_bytes = fileSizeBytes(strc_path);
    double pack_rps =
        pack_wall > 0 ? static_cast<double>(packed) / pack_wall : 0.0;
    double bytes_per_rec =
        packed > 0
            ? static_cast<double>(strc_bytes) / static_cast<double>(packed)
            : 0.0;
    // Raw columnar encoding of the same records: f64 time + u32 model.
    double compression =
        strc_bytes > 0 ? static_cast<double>(packed) * 12.0 /
                             static_cast<double>(strc_bytes)
                       : 0.0;

    // ---- codec: unpack ----------------------------------------------
    double unpack_wall = 0.0;
    {
        std::string err;
        stream::StrcReader r;
        auto t0 = std::chrono::steady_clock::now();
        if (!r.open(strc_path, &err))
            fatal("bench_stream_throughput: " + err);
        stream::TraceRecord rec;
        std::uint64_t n = 0;
        while (r.next(rec))
            ++n;
        unpack_wall = wallSeconds(t0);
        if (n != packed)
            fatal("bench_stream_throughput: decode count mismatch");
    }
    double unpack_rps =
        unpack_wall > 0 ? static_cast<double>(packed) / unpack_wall : 0.0;

    // ---- replay from disk ------------------------------------------
    ExperimentConfig cfg;
    cfg.system = SystemKind::Slinfer;
    cfg.cluster.cpuNodes = 4;
    cfg.cluster.gpuNodes = 4;
    cfg.models = replicateModel(llama2_7b(), numModels);
    cfg.seed = 99;
    cfg.stream.tracePath = strc_path;
    ReplayResult st = timedReplay(cfg);
    std::remove(strc_path.c_str());

    if (st.requests != packed)
        fatal("bench_stream_throughput: replay count mismatch");

    double stream_rps =
        st.wall > 0 ? static_cast<double>(st.requests) / st.wall : 0.0;
    double rps_per_gb =
        st.maxRss > 0
            ? stream_rps / (static_cast<double>(st.maxRss) / 1e9)
            : 0.0;

    Table t({"metric", "value"});
    t.addRow({"trace records", Table::num(packed, 0)});
    t.addRow({"pack records/sec", Table::num(pack_rps, 0)});
    t.addRow({"unpack records/sec", Table::num(unpack_rps, 0)});
    t.addRow({".strc bytes/record", Table::num(bytes_per_rec, 2)});
    t.addRow({"compression vs raw-12B", Table::num(compression, 2) + "x"});
    t.addRow({"stream replay wall (s)", Table::num(st.wall, 3)});
    t.addRow({"stream requests/sec", Table::num(stream_rps, 0)});
    t.addRow({"stream max RSS (MB)", Table::num(st.maxRss / 1e6, 1)});
    t.addRow({"stream requests/sec/GB", Table::num(rps_per_gb, 0)});
    std::printf("streaming replay throughput (%llu requests, %d models, "
                "%.0f s window)\n",
                static_cast<unsigned long long>(packed), numModels,
                window);
    t.print();

    sweep::SummaryRow row;
    row.scenario = "stream-throughput";
    row.system = "bench";
    row.replicates = 1;
    row.duration = 0.0;
    row.metrics = {
        {"trace_records", point(static_cast<double>(packed))},
        {"pack_records_per_sec", point(pack_rps)},
        {"unpack_records_per_sec", point(unpack_rps)},
        {"strc_bytes_per_record", point(bytes_per_rec)},
        {"strc_compression_ratio", point(compression)},
        {"stream_requests_per_sec", point(stream_rps)},
        {"stream_max_rss_mb", point(st.maxRss / 1e6)},
        {"stream_requests_per_sec_per_gb", point(rps_per_gb)},
    };
    std::vector<sweep::SummaryRow> rows = {row};

    if (!json_path.empty()) {
        char buf[2048];
        std::snprintf(
            buf, sizeof(buf),
            "{\n"
            "  \"bench\": \"stream_throughput\",\n"
            "  \"description\": \"Replay of one synthetic Azure trace "
            "from a .strc file (%llu requests, %d models, %.0f s "
            "window): .strc codec throughput, replay "
            "requests/sec, and sampled peak RSS. Regenerate with: "
            "./build/bench/bench_stream_throughput --requests=%llu "
            "--window=%.0f --json=BENCH_stream_throughput.json\",\n"
            "  \"trace_records\": %llu,\n"
            "  \"pack_records_per_sec\": %.0f,\n"
            "  \"unpack_records_per_sec\": %.0f,\n"
            "  \"strc_bytes_per_record\": %.2f,\n"
            "  \"strc_compression_ratio\": %.2f,\n"
            "  \"stream_wall_s\": %.3f,\n"
            "  \"stream_requests_per_sec\": %.0f,\n"
            "  \"stream_max_rss_mb\": %.1f,\n"
            "  \"stream_requests_per_sec_per_gb\": %.0f\n"
            "}\n",
            static_cast<unsigned long long>(packed), numModels, window,
            static_cast<unsigned long long>(requests), window,
            static_cast<unsigned long long>(packed), pack_rps,
            unpack_rps, bytes_per_rec, compression, st.wall, stream_rps,
            st.maxRss / 1e6, rps_per_gb);
        if (!writeFile(json_path, buf))
            fatal("cannot write " + json_path);
    }

    if (!baseline_out.empty()) {
        if (!writeFile(baseline_out, sweep::summaryToJson(rows)))
            fatal("cannot write " + baseline_out);
        std::printf("baseline written to %s\n", baseline_out.c_str());
    }

    if (!compare_path.empty()) {
        std::ifstream in(compare_path);
        if (!in)
            fatal("cannot read " + compare_path);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        std::vector<sweep::SummaryRow> base;
        std::string err;
        if (!sweep::summaryFromJson(text, base, &err))
            fatal("bad baseline " + compare_path + ": " + err);
        sweep::CompareOptions opts;
        opts.tolerance = tolerance;
        // Gate ONLY the host-independent number:
        // strc_compression_ratio is deterministic given the flags; a
        // codec regression (model gone stale, delta bug) shows up as a
        // ratio drop long before round-trip tests break. Absolute
        // records/sec and RSS depend on the recording host and are
        // recorded ungated.
        opts.metrics = {
            {"strc_compression_ratio", true, 0.5},
        };
        sweep::CompareResult res = sweep::compare(rows, base, opts);
        std::fputs(res.table.c_str(), stdout);
        if (!res.pass)
            return 1;
    }
    return 0;
}

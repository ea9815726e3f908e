/**
 * @file
 * Measurement core of the end-to-end simulator benchmark. run.py builds
 * and drives it; it can also be run by hand:
 *
 *   perfbench pack --out=FILE
 *       Generate the overload trace and pack it as .strc.
 *   perfbench run --workload=W --seed=N --seconds=S --trace=0|1
 *                 [--strc=FILE]
 *       Replay workload W until S host seconds have passed and print
 *       one JSON object of raw per-run samples on stdout.
 *
 * Every layer is timed from outside, through public calls only: the
 * Session constructor, one advanceTo per simulated second, finish(),
 * toJson() and StrcReader::next(). Traced runs also read the phase
 * profiler and the counter block the flight recorder already exposes
 * (ObsConfig::phaseProfile / ObsConfig::counters).
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/proc.hh"
#include "harness/session.hh"
#include "metrics/report.hh"
#include "scenario/scenario.hh"
#include "stream/codec.hh"
#include "sweep/sweep.hh"
#include "workload/azure_trace.hh"

using namespace slinfer;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload
{
    const char *name;
    const char *scenario;
    SystemKind system;
    /** Replay the packed overload trace through the .strc feed. */
    bool strc;
    /** Experiment seeds one untraced round replays (subSeed 0..seeds-1). */
    int seeds;
};

/**
 * Under overload the host time of one replay moves with the experiment
 * seed by far more than the bounds allow (8.9 to 11.9 reference-host
 * seconds over seeds 1-24: up to 11% more shadow runs, each dearer, as
 * the seed's request lengths build longer queues), so an untraced round
 * of the overload workload replays four seeds and run_s averages them.
 * The fleet-640 runs move by under 2% with the seed and replay one.
 */
const Workload kWorkloads[] = {
    {"fleet640-slinfer", "fleet-640", SystemKind::Slinfer, false, 1},
    {"fleet640-sllm", "fleet-640", SystemKind::Sllm, false, 1},
    {"azure64-overload-strc", "azure-64", SystemKind::Slinfer, true, 4},
};

/**
 * Experiment seeds come from a pool: 1..64 less the seeds at which the
 * simulator panics on some workload ("Consolidator: victim still owns
 * requests", a simulator bug this benchmark must not trip). Every pool
 * seed was replayed to completion on every workload, and digests.json
 * pins each report. --seed picks a pool place, so seeds 1..11 replay
 * themselves and --seed 5 is the catalog run; replay i of a round takes
 * the seed a quarter of the pool further on.
 */
constexpr std::uint64_t kPoolEnd = 64;
constexpr std::uint64_t kPanicSeeds[] = {12};

std::uint64_t
subSeed(std::uint64_t seed, int i)
{
    static const std::vector<std::uint64_t> pool = [] {
        std::vector<std::uint64_t> p;
        for (std::uint64_t s = 1; s <= kPoolEnd; ++s) {
            if (std::find(std::begin(kPanicSeeds), std::end(kPanicSeeds),
                          s) == std::end(kPanicSeeds))
                p.push_back(s);
        }
        return p;
    }();
    const std::uint64_t n = pool.size();
    return pool[(seed % n + n - 1 + static_cast<std::uint64_t>(i) * (n / 4)) %
                n];
}

/**
 * Every workload replays its arrivals at the catalog default seed; the
 * benchmark seed picks ExperimentConfig::seed (subSeed), which draws request
 * lengths and the controller's randomness. Arrival traces drawn from
 * other seeds moved host time by up to 2x on the same code (overload
 * run_s spanned 4.0-9.3 s over seeds 1-5), which would bury any change
 * a later PR makes; request lengths vary the inputs without that.
 */
constexpr std::uint64_t kArrivalSeed = 5;

/** A scenario's arrival process with its seed pinned to kArrivalSeed. */
class PinnedArrivals : public scenario::ArrivalProcess
{
  public:
    explicit PinnedArrivals(scenario::ArrivalProcessPtr inner)
        : inner_(std::move(inner))
    {
    }
    const char *kind() const override { return inner_->kind(); }
    AzureTrace generate(std::uint64_t) const override
    {
        return inner_->generate(kArrivalSeed);
    }
    Seconds duration() const override { return inner_->duration(); }
    int numModels() const override { return inner_->numModels(); }
    double targetAggregateRpm() const override
    {
        return inner_->targetAggregateRpm();
    }

  private:
    scenario::ArrivalProcessPtr inner_;
};

/** The overload trace: azure-64's 64 models at ~3.3x the catalog's
 *  2.44 requests/minute per model, over the catalog's 30 minutes. */
AzureTraceConfig
overloadTraceConfig()
{
    AzureTraceConfig tc;
    tc.numModels = 64;
    tc.duration = 1800.0;
    tc.perModelRpm = 8.0;
    tc.seed = kArrivalSeed;
    return tc;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/**
 * A fixed reference kernel that reads the host's current speed. The
 * host is shared: its speed drifts by tens of percent within seconds,
 * which would swamp any change to the simulator. Every call does the
 * same work (binary-heap event churn plus dependent loads over a 64 KiB
 * table) and shares no code with the simulator, so its time moves only
 * with the host. The table is small on purpose: it stays in the core's
 * own caches, so the probe reads core speed rather than how much of its
 * data the simulator evicted just before; a 2 MiB table tracked the
 * host far worse. Runs are cut into slices of about kSliceS host seconds
 * and each slice is rescaled by kNominalS over the mean of the probe
 * times on either side of it: times are reported in reference-host
 * seconds. kNominalS is near the probe's time on the host README.md
 * names (0.85-1.0 ms), so they read close to that host's wall seconds.
 */
class HostProbe
{
  public:
    static constexpr double kSliceS = 0.02;
    static constexpr double kNominalS = 0.001;

    HostProbe() : table_(std::size_t{1} << 14)
    {
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (std::uint32_t &v : table_)
            v = static_cast<std::uint32_t>(next(x));
    }

    /** Host seconds one pass of the kernel takes now. */
    double measure()
    {
        using Item = std::pair<std::uint64_t, std::uint32_t>;
        heap_.clear();
        std::uint64_t x = 88172645463325252ull;
        for (int i = 0; i < 1024; ++i)
            heap_.push_back({next(x) >> 24, static_cast<std::uint32_t>(x)});
        Clock::time_point t0 = Clock::now();
        std::make_heap(heap_.begin(), heap_.end(), std::greater<Item>());
        std::uint32_t idx = 0;
        for (int i = 0; i < kOps; ++i) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<Item>());
            Item e = heap_.back();
            heap_.pop_back();
            idx = table_[(idx ^ e.second) & (table_.size() - 1)];
            heap_.push_back({e.first + (next(x) >> 44), idx ^ e.second});
            std::push_heap(heap_.begin(), heap_.end(), std::greater<Item>());
        }
        double s = secondsSince(t0);
        sink_ += idx;
        return s;
    }

  private:
    static constexpr int kOps = 12000;

    static std::uint64_t next(std::uint64_t &x)
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    std::vector<std::uint32_t> table_;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
    std::uint64_t sink_ = 0;
};

/** Host time of a sequence of timed steps, also rescaled slice by slice
 *  to reference-host seconds with the HostProbe readings around each. */
class SlicedTimer
{
  public:
    explicit SlicedTimer(HostProbe &probe)
        : probe_(probe), before_(probe.measure())
    {
    }

    /** Adds one step of `s` host seconds; probes when a slice is full. */
    void add(double s)
    {
        slice_ += s;
        if (slice_ >= HostProbe::kSliceS)
            close();
    }

    /** Closes the last slice; returns (host s, reference-host s). */
    std::pair<double, double> finish()
    {
        if (slice_ > 0.0)
            close();
        return {raw_, scaled_};
    }

    const std::vector<double> &probes() const { return probes_; }

  private:
    void close()
    {
        double after = probe_.measure();
        probes_.push_back(after);
        scaled_ += slice_ * HostProbe::kNominalS / (0.5 * (before_ + after));
        raw_ += slice_;
        slice_ = 0.0;
        before_ = after;
    }

    HostProbe &probe_;
    double before_;
    double slice_ = 0.0;
    double raw_ = 0.0;
    double scaled_ = 0.0;
    std::vector<double> probes_;
};

/** Nearest-rank percentile of an unsorted sample (copied). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

ExperimentConfig
makeConfig(const Workload &w, std::uint64_t seed, const std::string &strc,
           bool traced)
{
    const scenario::Scenario *sc = scenario::byName(w.scenario);
    if (!sc) {
        std::fprintf(stderr, "scenario %s missing from the catalog\n",
                     w.scenario);
        std::exit(2);
    }
    ExperimentConfig cfg = sc->toExperiment(w.system, seed);
    if (w.strc) {
        // As `slinfer_run --stream-trace=FILE`: the packed trace
        // replaces the scenario's arrivals; models, cluster and SLOs
        // stay the scenario's, the window comes from the header.
        cfg.stream.enabled = true;
        cfg.stream.tracePath = strc;
        cfg.arrivals.reset();
        cfg.trace = AzureTrace{};
        cfg.duration = 0.0;
    } else {
        cfg.arrivals = std::make_shared<PinnedArrivals>(sc->arrivals);
    }
    cfg.obs.counters = traced;
    cfg.obs.phaseProfile = traced;
    return cfg;
}

/** One simulated run, timed from outside; returns its JSON sample. */
std::string
runOnce(const Workload &w, std::uint64_t seed, const std::string &strc,
        bool traced, HostProbe &probe)
{
    ExperimentConfig cfg = makeConfig(w, seed, strc, traced);

    SlicedTimer setup_timer(probe);
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Session> s = Session::create(cfg);
    setup_timer.add(secondsSince(t0));
    auto [setup_wall_s, setup_s] = setup_timer.finish();

    // Construction may already charge phases; only what the advances
    // and finish() add belongs to the run.
    const obs::PhaseProfiler *prof =
        s->flightRecorder() ? s->flightRecorder()->profiler() : nullptr;
    std::array<double, obs::kNumPhases> phase0{};
    for (std::size_t p = 0; prof && p < obs::kNumPhases; ++p)
        phase0[p] = prof->total(static_cast<obs::Phase>(p));

    const Seconds dur = s->duration();
    std::vector<double> adv_ms;
    adv_ms.reserve(static_cast<std::size_t>(dur) + 1);
    SlicedTimer run_timer(probe);
    for (std::uint64_t k = 1;; ++k) {
        Seconds target = std::min(static_cast<Seconds>(k), dur);
        Clock::time_point a = Clock::now();
        s->advanceTo(target);
        double adv_s = secondsSince(a);
        adv_ms.push_back(adv_s * 1e3);
        run_timer.add(adv_s);
        if (target >= dur)
            break;
    }
    Clock::time_point t2 = Clock::now();
    Report r = s->finish();
    double finish_s = secondsSince(t2);
    run_timer.add(finish_s);
    auto [run_wall_s, run_s] = run_timer.finish();

    // Stamped as slinfer_run stamps them: at seed 5 these are the bytes
    // `slinfer_run --scenario=<scenario> --system=<system>` prints.
    r.scenario = w.scenario;
    r.seed = seed;
    Clock::time_point t4 = Clock::now();
    std::string json = toJson(r);
    double json_s = secondsSince(t4);

    std::ostringstream os;
    os << "{\"traced\": " << (traced ? 1 : 0) << ", \"seed\": " << seed
       << ", \"setup_s\": " << num(setup_s)
       << ", \"setup_wall_s\": " << num(setup_wall_s)
       << ", \"run_s\": " << num(run_s)
       << ", \"run_wall_s\": " << num(run_wall_s)
       << ", \"probe_ms_p50\": "
       << num(percentile(run_timer.probes(), 50.0) * 1e3)
       << ", \"finish_s\": " << num(finish_s)
       << ", \"json_s\": " << num(json_s)
       << ", \"report_bytes\": " << json.size() << ", \"digest\": \""
       << hex64(sweep::fnv1aHash(json)) << "\"";
    if (traced) {
        // The traced report minus its counters block must be the
        // untraced report, byte for byte.
        Report bare = r;
        bare.counters.clear();
        os << ", \"digest_uncounted\": \""
           << hex64(sweep::fnv1aHash(toJson(bare))) << "\"";
    }
    os << ", \"total_requests\": " << r.totalRequests
       << ", \"completed\": " << r.completed
       << ", \"dropped\": " << r.dropped
       << ", \"slo_rate\": " << num(r.sloRate)
       << ", \"p95_ttft\": " << num(r.p95Ttft)
       << ", \"avg_gpu_nodes\": " << num(r.avgGpuNodesUsed)
       << ", \"advances\": " << adv_ms.size()
       << ", \"adv_ms_p50\": " << num(percentile(adv_ms, 50.0))
       << ", \"adv_ms_p99\": " << num(percentile(adv_ms, 99.0))
       << ", \"pool_high_water\": " << s->streamPoolSize()
       << ", \"replayed\": " << (s->feed() ? s->feed()->replayed() : 0);
    if (prof) {
        os << ", \"phases\": {";
        for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
            os << (p ? ", " : "") << "\"" << obs::phaseName(p) << "\": "
               << num(prof->total(static_cast<obs::Phase>(p)) - phase0[p]);
        }
        os << "}";
    }
    const obs::Counters *c =
        s->flightRecorder() ? s->flightRecorder()->counters() : nullptr;
    if (c) {
        os << ", \"counters\": {";
        for (std::size_t i = 0; i < obs::kNumCounters; ++i)
            os << (i ? ", " : "") << "\"" << obs::counterName(i)
               << "\": " << c->v[i];
        os << "}";
    }
    os << "}";
    return os.str();
}

/** Time StrcReader::next over the whole file, repeated until at least
 *  0.2 s of decoding has been measured. */
std::string
decodePass(const std::string &path)
{
    std::uint64_t records = 0;
    double seconds = 0.0;
    int passes = 0;
    while (seconds < 0.2 || passes < 3) {
        stream::StrcReader rd;
        std::string err;
        if (!rd.open(path, &err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            std::exit(1);
        }
        stream::TraceRecord rec;
        Clock::time_point t0 = Clock::now();
        while (rd.next(rec))
            ++records;
        seconds += secondsSince(t0);
        ++passes;
    }
    std::ostringstream os;
    os << "{\"passes\": " << passes << ", \"records\": " << records
       << ", \"seconds\": " << num(seconds) << "}";
    return os.str();
}

int
cmdPack(const std::string &out)
{
    AzureTraceConfig tc = overloadTraceConfig();
    AzureTrace trace = generateAzureTrace(tc);
    stream::StrcHeader hdr;
    hdr.numModels = static_cast<std::uint32_t>(tc.numModels);
    hdr.duration = trace.duration;
    std::string err;
    stream::StrcWriter w;
    if (!w.open(out, hdr, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
    }
    for (const Arrival &a : trace.arrivals) {
        stream::TraceRecord rec;
        rec.time = a.time;
        rec.model = a.model;
        w.add(rec);
    }
    if (!w.finish(&err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
    }
    std::printf("{\"generator\": \"azure\", \"models\": %d, "
                "\"duration_s\": %s, \"per_model_rpm\": %s, "
                "\"seed\": %" PRIu64 ", \"records\": %zu}\n",
                tc.numModels, num(tc.duration).c_str(),
                num(tc.perModelRpm).c_str(), tc.seed,
                trace.arrivals.size());
    return 0;
}

int
cmdRun(const Workload &w, std::uint64_t seed, double seconds, bool trace,
       const std::string &strc)
{
    if (w.strc && strc.empty()) {
        std::fprintf(stderr, "%s needs --strc=FILE\n", w.name);
        return 2;
    }
    // Untraced rounds of w.seeds replays, or (trace mode) untraced/traced
    // pairs of the seed itself: a pair gives the tracing overhead and the
    // byte-identity check. At least three untraced replays in whole
    // rounds (two pairs when tracing), then as many rounds as fit.
    const int per_round = trace ? 1 : w.seeds;
    const int min_replays = trace ? 2 : 3;
    HostProbe probe;
    std::vector<std::string> runs;
    int replays = 0;
    Clock::time_point start = Clock::now();
    while (replays < min_replays || secondsSince(start) < seconds) {
        for (int i = 0; i < per_round; ++i, ++replays) {
            runs.push_back(runOnce(w, subSeed(seed, i), strc, false, probe));
            if (trace)
                runs.push_back(runOnce(w, subSeed(seed, i), strc, true, probe));
        }
    }
    // Set-up is short next to a run: sample it on its own until the
    // median rests on at least nine constructions.
    std::vector<double> setup_only;
    for (int i = replays; i < 9; ++i) {
        ExperimentConfig cfg = makeConfig(w, subSeed(seed, 0), strc, false);
        SlicedTimer timer(probe);
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<Session> s = Session::create(cfg);
        timer.add(secondsSince(t0));
        setup_only.push_back(timer.finish().second);
    }

    std::ostringstream os;
    os << "{\"workload\": \"" << w.name << "\", \"scenario\": \""
       << w.scenario << "\", \"system\": \"" << systemName(w.system)
       << "\", \"seed\": " << seed << ", \"setup_only_s\": [";
    for (std::size_t i = 0; i < setup_only.size(); ++i)
        os << (i ? ", " : "") << num(setup_only[i]);
    os << "], \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i)
        os << (i ? ", " : "") << runs[i];
    os << "]";
    if (trace && w.strc)
        os << ", \"decode\": " << decodePass(strc);
    os << ", \"peak_rss_bytes\": " << peakRssBytes() << "}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench pack --out=FILE\n"
                 "       perfbench run --workload=W --seed=N --seconds=S "
                 "--trace=0|1 [--strc=FILE]\n"
                 "workloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

/** A nonnegative finite number, the whole string. */
bool
parseNumber(const std::string &s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && end == s.c_str() + s.size() && out >= 0 &&
           std::isfinite(out);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    setLogLevel(LogLevel::Warn);
    const std::string cmd = argv[1];
    std::string workload, out, strc;
    double seed = -1, seconds = -1, trace = 0;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        std::size_t eq = arg.find('=');
        std::string key = arg.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
        bool ok = true;
        if (key == "--workload")
            workload = val;
        else if (key == "--out")
            out = val;
        else if (key == "--strc")
            strc = val;
        else if (key == "--seed")
            ok = parseNumber(val, seed) && seed == std::floor(seed);
        else if (key == "--seconds")
            ok = parseNumber(val, seconds);
        else if (key == "--trace")
            ok = parseNumber(val, trace) && (trace == 0 || trace == 1);
        else
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "bad argument %s\n", arg.c_str());
            usage();
            return 2;
        }
    }
    if (cmd == "pack" && !out.empty())
        return cmdPack(out);
    if (cmd == "run" && seed >= 0 && seconds >= 0) {
        for (const Workload &w : kWorkloads) {
            if (workload == w.name)
                return cmdRun(w, static_cast<std::uint64_t>(seed), seconds,
                              trace == 1, strc);
        }
    }
    usage();
    return 2;
}

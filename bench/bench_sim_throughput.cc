/**
 * @file
 * Simulator hot-path throughput: the repo's perf-trajectory bench for
 * the event engine (DESIGN.md, "The event arena").
 *
 * Two measurements:
 *
 *  1. **events/sec** — a synthetic schedule/fire/cancel program (a
 *     rolling window of pending timers, nested rescheduling from
 *     callbacks, periodic cancellations: the same shape the serving
 *     simulation produces) run identically against the production
 *     arena `EventQueue` and the preserved pre-arena
 *     `LegacyEventQueue`, so the speedup is an apples-to-apples
 *     number on any host.
 *  2. **requests/sec** — wall-clock of a real catalog experiment
 *     (`azure-64`, the paper's mid-scale evaluation), i.e. what the
 *     event-engine rebuild buys end-to-end.
 *
 * Output: a human table on stdout, optionally
 *   --json=<file>            freeform trajectory doc (BENCH_*.json)
 *   --write-baseline=<file>  machine summary for the CI gate
 *   --compare=<file>         gate the speedup ratios against a
 *                            baseline via sweep::compare (ratios are
 *                            host-comparable; absolute events/sec is
 *                            recorded but not gated)
 *   --tolerance=<frac>       allowed ratio drop (default 0.50)
 *   --events=<n> --repeat=<r>
 * Exit code: 0 ok, 1 gate failure, 2 usage error.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/table.hh"
#include "obs/counters.hh"
#include "scenario/scenario.hh"
#include "sim/event_queue.hh"
#include "sim/legacy_event_queue.hh"
#include "sweep/compare.hh"
#include "sweep/summary.hh"

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

/**
 * The synthetic event program, identical for both queue types: a
 * rolling window of pending timers. Every pop schedules a successor
 * at a pseudo-random offset; periodically a recently parked handle is
 * cancelled and replaced — the keep-alive / proactive-drop pattern
 * the controller produces. Callbacks carry a one-pointer capture, the
 * dominant shape in the simulator (`[this]` iteration callbacks), so
 * both queues use their small-buffer path.
 *
 * The profile is calibrated against instrumented catalog runs (see
 * DESIGN.md, "The event arena"): peak pending events are 62
 * (quickstart), ~3.2K (flash-crowd) and ~4.8K (azure-64), and
 * cancellations occur once per ~800 (flash-crowd) to ~10K
 * (quickstart) schedules. The default window of 4096 with one cancel
 * per 512 pops is therefore the azure-64-class steady state with a
 * still-conservative cancel rate; the fleet window (65536) models the
 * 10x fleet scenarios' backlog.
 */
template <typename Queue, typename Handle>
double
eventsPerSec(std::size_t total, std::size_t window,
             const std::function<void(Queue &)> &setup = {})
{
    constexpr std::size_t kRing = 64;
    constexpr std::size_t kCancelEvery = 512;

    Queue q;
    if (setup)
        setup(q);
    std::vector<Handle> ring(kRing);
    std::size_t ringHead = 0;
    std::size_t scheduled = 0;
    std::size_t fired = 0;
    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>((lcg >> 33) & 0xFFFF) / 65536.0;
    };
    auto cb = [&fired] { ++fired; };

    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < window && i < total; ++i) {
        q.schedule(next() * 1.0, cb);
        ++scheduled;
    }
    std::size_t pops = 0;
    while (!q.empty()) {
        Seconds when = q.popAndRun();
        ++pops;
        if (scheduled < total) {
            Handle h = q.schedule(when + 1e-4 + next() * 1e-2, cb);
            if (++scheduled % 8 == 0) {
                ring[ringHead] = h;
                ringHead = (ringHead + 1) % kRing;
            }
        }
        if (pops % kCancelEvery == 0) {
            // Cancel a recently parked (still-pending) handle and
            // replace it, as the controller does when a keep-alive is
            // re-armed or a queued request is admitted before its
            // drop deadline.
            ring[(ringHead + kRing - 1) % kRing].cancel();
            if (scheduled < total) {
                q.schedule(when + 1e-4 + next() * 1e-2, cb);
                ++scheduled;
            }
        }
    }
    double wall = wallSeconds(t0);
    return wall > 0 ? static_cast<double>(fired) / wall : 0.0;
}

template <typename Queue, typename Handle>
double
bestOf(int repeat, std::size_t total, std::size_t window,
       const std::function<void(Queue &)> &setup = {})
{
    double best = 0.0;
    for (int r = 0; r < repeat; ++r)
        best = std::max(best,
                        eventsPerSec<Queue, Handle>(total, window, setup));
    return best;
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

} // namespace

int
main(int argc, char **argv)
{
    std::size_t events = 2000000;
    int repeat = 3;
    std::string json_path;
    std::string baseline_out;
    std::string compare_path;
    double tolerance = 0.50;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg]() {
            return arg.substr(arg.find('=') + 1);
        };
        if (arg.rfind("--events=", 0) == 0) {
            events = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg.rfind("--repeat=", 0) == 0) {
            repeat = std::atoi(value().c_str());
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
    if (events == 0 || repeat <= 0) {
        std::fprintf(stderr, "--events/--repeat must be positive\n");
        return 2;
    }

    setLogLevel(LogLevel::Warn);

    // Primary profile: azure-64-class steady window. Fleet profile:
    // the 10x scenarios' backlog (see the eventsPerSec comment).
    constexpr std::size_t kSteadyWindow = 4096;
    constexpr std::size_t kFleetWindow = 65536;
    double arena =
        bestOf<EventQueue, EventHandle>(repeat, events, kSteadyWindow);
    double legacy = bestOf<LegacyEventQueue, LegacyEventHandle>(
        repeat, events, kSteadyWindow);
    double speedup = legacy > 0 ? arena / legacy : 0.0;
    double arena_fleet =
        bestOf<EventQueue, EventHandle>(repeat, events, kFleetWindow);
    double legacy_fleet = bestOf<LegacyEventQueue, LegacyEventHandle>(
        repeat, events, kFleetWindow);
    double speedup_fleet =
        legacy_fleet > 0 ? arena_fleet / legacy_fleet : 0.0;
    // The flight-recorder point: the same arena program with hot-path
    // counters attached (obs/counters.hh). `arena` above IS the
    // tracing-off measurement; the ratio bounds what enabling
    // --counters costs on the dispatch loop.
    obs::Counters ctr;
    double arena_counters = bestOf<EventQueue, EventHandle>(
        repeat, events, kSteadyWindow,
        [&ctr](EventQueue &q) { q.attachCounters(&ctr); });
    double counters_ratio = arena > 0 ? arena_counters / arena : 0.0;

    const scenario::Scenario *sc = scenario::byName("azure-64");
    if (!sc)
        fatal("bench_sim_throughput: azure-64 missing from the catalog");
    auto t0 = std::chrono::steady_clock::now();
    Report rep = scenario::runScenario(*sc, SystemKind::Slinfer);
    double exp_wall = wallSeconds(t0);
    double req_per_sec =
        exp_wall > 0 ? static_cast<double>(rep.totalRequests) / exp_wall
                     : 0.0;
    // The anatomy ledger lives on the controller/scheduler hooks, not
    // the dispatch loop, so its cost only shows end-to-end: the same
    // experiment again with the ledger attached. The ratio bounds what
    // --explain / --attribution costs a whole run.
    ExperimentConfig attr_cfg =
        sc->toExperiment(SystemKind::Slinfer, sc->seed);
    attr_cfg.obs.anatomy = true;
    t0 = std::chrono::steady_clock::now();
    Report attr_rep = runExperiment(attr_cfg);
    double attr_wall = wallSeconds(t0);
    double attr_req_per_sec =
        attr_wall > 0
            ? static_cast<double>(attr_rep.totalRequests) / attr_wall
            : 0.0;
    double attribution_ratio =
        req_per_sec > 0 ? attr_req_per_sec / req_per_sec : 0.0;

    Table t({"metric", "value"});
    t.addRow({"events/sec (arena)", Table::num(arena, 0)});
    t.addRow({"events/sec (legacy)", Table::num(legacy, 0)});
    t.addRow({"speedup vs legacy", Table::num(speedup, 2) + "x"});
    t.addRow({"fleet events/sec (arena)", Table::num(arena_fleet, 0)});
    t.addRow({"fleet events/sec (legacy)",
              Table::num(legacy_fleet, 0)});
    t.addRow({"fleet speedup", Table::num(speedup_fleet, 2) + "x"});
    t.addRow({"events/sec (counters on)", Table::num(arena_counters, 0)});
    t.addRow({"counters-on/off ratio", Table::num(counters_ratio, 2) + "x"});
    t.addRow({"azure-64 wall (s)", Table::num(exp_wall, 3)});
    t.addRow({"azure-64 requests/sec", Table::num(req_per_sec, 0)});
    t.addRow({"azure-64 req/sec (attribution)",
              Table::num(attr_req_per_sec, 0)});
    t.addRow({"attribution-on/off ratio",
              Table::num(attribution_ratio, 2) + "x"});
    std::printf("sim hot-path throughput (%zu events, best of %d)\n",
                events, repeat);
    t.print();

    sweep::SummaryRow row;
    row.scenario = "sim-throughput";
    row.system = "bench";
    row.replicates = 1;
    row.duration = 0.0;
    row.metrics = {
        {"events_per_sec", point(arena)},
        {"events_per_sec_legacy", point(legacy)},
        {"speedup_vs_legacy", point(speedup)},
        {"events_per_sec_fleet", point(arena_fleet)},
        {"events_per_sec_fleet_legacy", point(legacy_fleet)},
        {"speedup_vs_legacy_fleet", point(speedup_fleet)},
        {"events_per_sec_counters", point(arena_counters)},
        {"counters_on_off_ratio", point(counters_ratio)},
        {"exp_requests_per_sec", point(req_per_sec)},
        {"exp_requests_per_sec_attribution", point(attr_req_per_sec)},
        {"attribution_on_off_ratio", point(attribution_ratio)},
    };
    std::vector<sweep::SummaryRow> rows = {row};

    if (!json_path.empty()) {
        char buf[2048];
        std::snprintf(
            buf, sizeof(buf),
            "{\n"
            "  \"bench\": \"sim_throughput\",\n"
            "  \"description\": \"Discrete-event hot path: synthetic "
            "schedule/fire/cancel program (%zu events, best of %d) on "
            "the arena EventQueue vs the pre-arena LegacyEventQueue, "
            "plus wall-clock of the azure-64 catalog experiment. "
            "Regenerate with: ./build/bench/bench_sim_throughput "
            "--json=BENCH_sim_throughput.json\",\n"
            "  \"events_per_sec\": %.0f,\n"
            "  \"events_per_sec_legacy\": %.0f,\n"
            "  \"speedup_vs_legacy\": %.2f,\n"
            "  \"events_per_sec_fleet\": %.0f,\n"
            "  \"events_per_sec_fleet_legacy\": %.0f,\n"
            "  \"speedup_vs_legacy_fleet\": %.2f,\n"
            "  \"events_per_sec_counters\": %.0f,\n"
            "  \"counters_on_off_ratio\": %.2f,\n"
            "  \"azure64_wall_s\": %.3f,\n"
            "  \"azure64_requests_per_sec\": %.0f,\n"
            "  \"azure64_requests_per_sec_attribution\": %.0f,\n"
            "  \"attribution_on_off_ratio\": %.2f\n"
            "}\n",
            events, repeat, arena, legacy, speedup, arena_fleet,
            legacy_fleet, speedup_fleet, arena_counters, counters_ratio,
            exp_wall, req_per_sec, attr_req_per_sec, attribution_ratio);
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
        // Gate ONLY same-process ratios: both sides of each ratio run
        // the same program in the same process, so the number is
        // host-comparable, while absolute events/sec depends on the
        // host the baseline was recorded on and would flake on slower
        // CI runners. Absolute numbers are still recorded and shown
        // in the drift table of any baseline that carries them.
        // counters_on_off_ratio guards the flight recorder's
        // zero-overhead-when-off claim from the other side: attaching
        // counters must not crater the dispatch loop, and
        // attribution_on_off_ratio does the same for the anatomy
        // ledger on a whole experiment.
        opts.metrics = {
            {"speedup_vs_legacy", true, 0.5},
            {"speedup_vs_legacy_fleet", true, 0.5},
            {"counters_on_off_ratio", true, 0.5},
            {"attribution_on_off_ratio", true, 0.5},
        };
        sweep::CompareResult res = sweep::compare(rows, base, opts);
        std::fputs(res.table.c_str(), stdout);
        if (!res.pass)
            return 1;
    }
    return 0;
}

/**
 * @file
 * slinfer_run: the unified scenario driver.
 *
 * Runs any serving system on any catalog scenario (optionally sweeping
 * seeds) and emits the Report as JSON or CSV for downstream tooling.
 *
 *   slinfer_run --list
 *   slinfer_run --scenario=flash-crowd                  # system=slinfer
 *   slinfer_run --system=sllm+c+s --scenario=azure-64
 *   slinfer_run --scenario=diurnal-cycle --seeds=1,2,3 --format=csv
 *   slinfer_run --scenario=ramp-up --sweep=5 --out=ramp.json
 *   slinfer_run --scenario=quickstart,poisson-steady --format=csv
 *   slinfer_run --scenario=poisson-steady --timeline=faults.json
 *   slinfer_run --scenario=quickstart --windows=6
 *   slinfer_run --scenario=quickstart --counters
 *   slinfer_run --scenario=fleet-node-failure --trace=trace.json
 *   slinfer_run --scenario=flash-crowd --timeseries=ts.csv \
 *               --sample-every=1s
 *   slinfer_run --scenario=azure-64 --stream-trace=big.strc --progress
 *
 * Multi-scenario invocations emit the CSV header exactly once; --quiet
 * silences per-run logging for sweep-driven use. (For grids, parallel
 * execution and resume, see slinfer_sweep.)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/proc.hh"
#include "harness/session.hh"
#include "scenario/scenario.hh"
#include "scenario/timeline.hh"
#include "sweep/sweep.hh"

using namespace slinfer;

namespace
{

/** --help prints to stdout; error paths print to stderr so the
 *  report stream stays machine-readable. */
void
usage(std::FILE *to)
{
    std::fprintf(to,
        "usage: slinfer_run [options]\n"
        "  --list                 list catalog scenarios and systems\n"
        "  --scenario=<a,b,..>    scenario(s) to run (required unless "
        "--list)\n"
        "  --system=<name>        serving system (default: slinfer)\n"
        "  --seed=<n>             seed override (default: scenario's)\n"
        "  --seeds=<a,b,c|a..b>   run one experiment per seed\n"
        "  --sweep=<n>            shorthand for seeds base..base+n-1\n"
        "  --timeline=<file.json> scripted interventions overriding the\n"
        "                         scenario's own timeline\n"
        "  --chaos=<spec>         stochastic fault processes overriding "
        "the\n"
        "                         scenario's own chaos config; enables "
        "the\n"
        "                         resilience report. Spec: ';'-separated\n"
        "                         kind[:key=val,..] with kinds flap, "
        "blast,\n"
        "                         straggler, brownout and keys nodes, "
        "mtbf,\n"
        "                         mttr, at, for, factor (see "
        "docs/DESIGN.md)\n"
        "  --windows=<n>          per-window TTFT/throughput rows\n"
        "  --counters             flight-recorder counters in the "
        "report\n"
        "  --explain              latency anatomy & SLO attribution: "
        "adds the\n"
        "                         report's attribution block and prints "
        "the\n"
        "                         breakdown to stderr\n"
        "  --trace=<file.json>    Chrome trace_event spans (single "
        "run)\n"
        "  --trace-cats=<a,b,..>  span categories: request, exec, "
        "memory,\n"
        "                         controller, intervention (default: "
        "all)\n"
        "  --timeseries=<file>    live metrics samples, CSV or .json "
        "(single run)\n"
        "  --sample-every=<sec>   timeseries cadence (default: 1s)\n"
        "  --stream-trace=<file>  replay a packed .strc trace (see\n"
        "                         slinfer_tracepack) instead of the\n"
        "                         scenario's arrival process\n"
        "  --progress             live progress on stderr: sim-time %%, "
        "requests\n"
        "                         replayed, RSS, ETA\n"
        "  --format=json|csv      output format (default: json)\n"
        "  --out=<path>           write the report there instead of "
        "stdout\n"
        "  --quiet                suppress per-run logging\n");
}

void
listCatalog()
{
    std::printf("scenarios:\n");
    for (const scenario::Scenario &sc : scenario::all()) {
        std::printf("  %-18s %5.0f s  %3zu models  %s\n", sc.name.c_str(),
                    sc.duration(), sc.models.size(), sc.summary.c_str());
    }
    std::printf("systems:\n ");
    for (SystemKind kind : allSystems())
        std::printf(" %s", systemSlug(kind));
    std::printf("\n");
}

/** Parse a nonnegative integer strictly (sweep::parseCount); exits
 *  naming the flag on malformed input. */
std::uint64_t
parseCount(const std::string &tok, const char *flag)
{
    std::uint64_t v = 0;
    if (!sweep::parseCount(tok, v)) {
        std::fprintf(stderr, "%s: malformed value '%s'\n", flag,
                     tok.c_str());
        std::exit(2);
    }
    return v;
}

/** Parse a positive duration in seconds; an optional trailing 's'
 *  ("1s", "0.5s") is accepted. Exits naming the flag otherwise. */
double
parseSeconds(std::string tok, const char *flag)
{
    std::string shown = tok;
    if (!tok.empty() && tok.back() == 's')
        tok.pop_back();
    double v = 0.0;
    if (!sweep::parseReal(tok, v) || !(v > 0)) {
        std::fprintf(stderr, "%s: malformed value '%s'\n", flag,
                     shown.c_str());
        std::exit(2);
    }
    return v;
}

/** Parse a comma-separated trace-category list into a TraceCat mask;
 *  exits on unknown names. */
unsigned
parseTraceCats(const std::string &arg)
{
    unsigned mask = 0;
    std::istringstream in(arg);
    std::string name;
    while (std::getline(in, name, ',')) {
        if (name.empty())
            continue;
        unsigned bit = 0;
        for (unsigned b = obs::kCatRequest; b <= obs::kCatIntervention;
             b <<= 1) {
            if (name == obs::traceCatName(b)) {
                bit = b;
                break;
            }
        }
        if (!bit) {
            std::fprintf(stderr,
                         "--trace-cats: unknown category '%s' (use "
                         "request, exec, memory, controller, "
                         "intervention)\n",
                         name.c_str());
            std::exit(2);
        }
        mask |= bit;
    }
    if (!mask) {
        std::fprintf(stderr, "--trace-cats: empty category list\n");
        std::exit(2);
    }
    return mask;
}

/** Advance the session to its end in slices, printing one progress
 *  line per slice to stderr: sim-time %, requests replayed, current
 *  RSS and a wall-clock ETA. Slicing is pure observation (the stepped-
 *  advance determinism contract), so the run stays byte-identical to
 *  an unsliced one. */
void
advanceWithProgress(Session &session, const std::string &name)
{
    using Clock = std::chrono::steady_clock;
    const Seconds end = session.duration();
    const int slices = 200;
    const Clock::time_point t0 = Clock::now();
    for (int i = 1; i <= slices; ++i) {
        session.advanceTo(end * i / slices);
        double frac = static_cast<double>(i) / slices;
        double elapsed =
            std::chrono::duration<double>(Clock::now() - t0).count();
        double eta = frac > 0 ? elapsed / frac - elapsed : 0.0;
        std::size_t replayed =
            static_cast<std::size_t>(session.feed()->replayed());
        std::fprintf(stderr,
                     "\r[%s] t=%.0f/%.0fs (%3.0f%%)  replayed=%zu  "
                     "rss=%.0f MB  eta=%.0fs ",
                     name.c_str(), session.now(), end, 100.0 * frac,
                     replayed,
                     static_cast<double>(currentRssBytes()) / 1e6, eta);
        std::fflush(stderr);
    }
    std::fputc('\n', stderr);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenario_arg;
    std::string system_name = "slinfer";
    std::string format = "json";
    std::string out_path;
    std::vector<std::uint64_t> seeds;
    std::string timeline_path;
    std::string chaos_spec;
    bool chaos_set = false;
    int windows = 0;
    int sweep = 0;
    bool list = false;
    bool quiet = false;
    bool seed_set = false;
    std::uint64_t seed = 0;
    bool counters = false;
    bool explain = false;
    std::string trace_path;
    unsigned trace_cats = obs::kAllTraceCats;
    std::string timeseries_path;
    double sample_every = 1.0;
    std::string stream_trace;
    bool progress = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg]() {
            return arg.substr(arg.find('=') + 1);
        };
        if (arg == "--list") {
            list = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg.rfind("--scenario=", 0) == 0) {
            scenario_arg = value();
        } else if (arg.rfind("--system=", 0) == 0) {
            system_name = value();
        } else if (arg.rfind("--seed=", 0) == 0) {
            seed = parseCount(value(), "--seed");
            seed_set = true;
        } else if (arg.rfind("--seeds=", 0) == 0) {
            // Same grammar as slinfer_sweep: "a,b,c" or a range "a..b".
            std::string err;
            if (!sweep::parseSeedList(value(), seeds, &err)) {
                std::fprintf(stderr, "--seeds: %s\n", err.c_str());
                return 2;
            }
        } else if (arg.rfind("--sweep=", 0) == 0) {
            std::uint64_t n = parseCount(value(), "--sweep");
            if (n == 0 || n > 10000) {
                std::fprintf(stderr,
                             "--sweep must be in [1, 10000]\n");
                return 2;
            }
            sweep = static_cast<int>(n);
        } else if (arg.rfind("--timeline=", 0) == 0) {
            timeline_path = value();
        } else if (arg.rfind("--chaos=", 0) == 0) {
            chaos_spec = value();
            chaos_set = true;
        } else if (arg.rfind("--windows=", 0) == 0) {
            std::uint64_t n = parseCount(value(), "--windows");
            if (n == 0 || n > 10000) {
                std::fprintf(stderr, "--windows must be in [1, 10000]\n");
                return 2;
            }
            windows = static_cast<int>(n);
        } else if (arg == "--counters") {
            counters = true;
        } else if (arg == "--explain") {
            explain = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            trace_path = value();
        } else if (arg.rfind("--trace-cats=", 0) == 0) {
            trace_cats = parseTraceCats(value());
        } else if (arg.rfind("--timeseries=", 0) == 0) {
            timeseries_path = value();
        } else if (arg.rfind("--sample-every=", 0) == 0) {
            sample_every = parseSeconds(value(), "--sample-every");
        } else if (arg.rfind("--stream-trace=", 0) == 0) {
            stream_trace = value();
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg.rfind("--format=", 0) == 0) {
            format = value();
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = value();
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    if (list) {
        listCatalog();
        return 0;
    }
    if (scenario_arg.empty()) {
        usage(stderr);
        return 2;
    }
    if (format != "json" && format != "csv") {
        std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
        return 2;
    }

    if (!seeds.empty() && (seed_set || sweep > 0)) {
        std::fprintf(stderr,
                     "--seeds conflicts with --seed/--sweep; use "
                     "--seeds alone or --seed [--sweep]\n");
        return 2;
    }

    if (quiet)
        setLogLevel(LogLevel::Warn);

    // Resolve every scenario before running any: a typo in the second
    // name should not waste the first one's run.
    std::vector<const scenario::Scenario *> scs;
    {
        std::istringstream in(scenario_arg);
        std::string name;
        while (std::getline(in, name, ',')) {
            if (name.empty())
                continue;
            const scenario::Scenario *sc = scenario::byName(name);
            if (!sc) {
                std::fprintf(stderr, "unknown scenario '%s'; --list "
                                     "shows the catalog\n",
                             name.c_str());
                return 2;
            }
            scs.push_back(sc);
        }
    }
    if (scs.empty()) {
        usage(stderr);
        return 2;
    }
    SystemKind system = parseSystem(system_name);

    // Trace / timeseries files describe exactly one run; refuse the
    // ambiguity of multi-scenario or multi-seed invocations.
    std::size_t runs =
        scs.size() *
        (seeds.empty() ? static_cast<std::size_t>(sweep > 0 ? sweep : 1)
                       : seeds.size());
    if ((!trace_path.empty() || !timeseries_path.empty()) && runs != 1) {
        std::fprintf(stderr, "--trace/--timeseries require a single "
                             "scenario and seed (%zu runs requested)\n",
                     runs);
        return 2;
    }

    Timeline timeline;
    bool timeline_set = false;
    if (!timeline_path.empty()) {
        std::string err;
        if (!scenario::loadTimelineFile(timeline_path, timeline, &err)) {
            std::fprintf(stderr, "--timeline: %s\n", err.c_str());
            return 2;
        }
        timeline_set = true;
    }

    chaos::ChaosConfig chaos_cfg;
    if (chaos_set && !chaos_spec.empty()) {
        std::string err;
        if (!chaos::parseChaosSpec(chaos_spec, chaos_cfg, &err)) {
            std::fprintf(stderr, "--chaos: %s\n", err.c_str());
            return 2;
        }
    }

    std::vector<Report> reports;
    for (const scenario::Scenario *sc : scs) {
        std::vector<std::uint64_t> sc_seeds = seeds;
        if (sc_seeds.empty()) {
            std::uint64_t base = seed_set ? seed : sc->seed;
            int n = sweep > 0 ? sweep : 1;
            for (int i = 0; i < n; ++i)
                sc_seeds.push_back(base + static_cast<std::uint64_t>(i));
        }
        for (std::uint64_t s : sc_seeds) {
            ExperimentConfig cfg = sc->toExperiment(system, s);
            if (timeline_set)
                cfg.timeline = timeline;
            if (chaos_set) {
                // Like --timeline: the flag replaces the scenario's
                // own chaos config ("--chaos=" strips it), and a
                // chaos-enabled run always reports resilience.
                cfg.chaos = chaos_cfg;
                cfg.resilienceReport = chaos_cfg.enabled();
            }
            cfg.windows = windows;
            cfg.obs.counters = counters;
            cfg.obs.anatomy = explain;
            cfg.obs.trace = !trace_path.empty();
            cfg.obs.traceCats = trace_cats;
            if (!timeseries_path.empty())
                cfg.obs.sampleEvery = sample_every;
            if (!stream_trace.empty()) {
                // The packed trace replaces the scenario's arrival
                // source; models/datasets/SLOs still come from the
                // scenario, and the metrics window comes from the
                // file's header.
                cfg.stream.tracePath = stream_trace;
                cfg.arrivals.reset();
                cfg.trace = AzureTrace{};
                cfg.duration = 0.0;
            }
            Report report;
            if (progress || cfg.obs.any()) {
                // The stepwise lifecycle keeps the flight recorder
                // alive for the export below and lets --progress slice
                // the advance; the run itself is byte-identical to
                // runExperiment (the PR 5 contract).
                Session session(cfg);
                if (progress)
                    advanceWithProgress(session, sc->name);
                else
                    session.advanceTo(session.duration());
                report = session.finish();
                obs::FlightRecorder *fr = session.flightRecorder();
                if (!trace_path.empty()) {
                    std::ofstream tf(trace_path);
                    if (!tf) {
                        std::fprintf(stderr, "cannot open %s\n",
                                     trace_path.c_str());
                        return 1;
                    }
                    fr->trace()->writeChromeJson(tf);
                    tf.flush();
                    if (!tf) {
                        std::fprintf(stderr, "write to %s failed\n",
                                     trace_path.c_str());
                        return 1;
                    }
                    if (fr->trace()->dropped() > 0) {
                        logf(LogLevel::Warn, "trace ring overflowed: ",
                             fr->trace()->dropped(), " of ",
                             fr->trace()->total(),
                             " events dropped (narrow --trace-cats)");
                    }
                    if (!quiet) {
                        std::fprintf(stderr,
                                     "wrote %s (%zu trace events)\n",
                                     trace_path.c_str(),
                                     fr->trace()->size());
                    }
                }
                if (!timeseries_path.empty()) {
                    bool as_json =
                        timeseries_path.size() >= 5 &&
                        timeseries_path.compare(
                            timeseries_path.size() - 5, 5, ".json") == 0;
                    std::ofstream sf(timeseries_path);
                    if (!sf) {
                        std::fprintf(stderr, "cannot open %s\n",
                                     timeseries_path.c_str());
                        return 1;
                    }
                    sf << (as_json ? fr->timeseries()->toJson()
                                   : fr->timeseries()->toCsv());
                    sf.flush();
                    if (!sf) {
                        std::fprintf(stderr, "write to %s failed\n",
                                     timeseries_path.c_str());
                        return 1;
                    }
                    if (!quiet) {
                        std::fprintf(
                            stderr, "wrote %s (%zu samples)\n",
                            timeseries_path.c_str(),
                            fr->timeseries()->samples().size());
                    }
                }
            } else {
                report = runExperiment(cfg);
            }
            report.scenario = sc->name;
            report.seed = s;
            // The rendered anatomy goes to stderr so stdout stays a
            // machine-readable report stream.
            if (explain && !quiet)
                std::fputs(renderAttribution(report).c_str(), stderr);
            if (report.resilience.enabled && !quiet)
                std::fputs(renderResilience(report).c_str(), stderr);
            reports.push_back(std::move(report));
        }
    }

    std::ostringstream os;
    if (format == "csv") {
        os << toCsv(reports);
    } else if (reports.size() == 1) {
        os << toJson(reports[0]) << "\n";
    } else {
        os << "[\n";
        for (std::size_t i = 0; i < reports.size(); ++i)
            os << toJson(reports[i]) << (i + 1 < reports.size() ? ",\n"
                                                                : "\n");
        os << "]\n";
    }

    if (out_path.empty()) {
        std::fputs(os.str().c_str(), stdout);
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
            return 1;
        }
        out << os.str();
        out.flush();
        if (!out) {
            std::fprintf(stderr, "write to %s failed\n", out_path.c_str());
            return 1;
        }
        if (!quiet) {
            std::fprintf(stderr, "wrote %s (%zu report%s)\n",
                         out_path.c_str(), reports.size(),
                         reports.size() == 1 ? "" : "s");
        }
    }
    return 0;
}

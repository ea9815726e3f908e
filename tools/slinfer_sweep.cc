/**
 * @file
 * slinfer_sweep: parallel experiment orchestration over a declarative
 * grid (scenarios x systems x seeds x override sets).
 *
 *   slinfer_sweep --scenarios=quickstart,poisson-steady \
 *                 --systems=slinfer,sllm --seeds=1..3 --jobs=4 \
 *                 --store=smoke.jsonl --summary-out=summary.json
 *   slinfer_sweep --manifest=sweeps/nightly.manifest --store=n.jsonl
 *   slinfer_sweep ... --compare=bench/baselines/smoke.json   # gate
 *   slinfer_sweep ... --write-baseline=bench/baselines/smoke.json
 *
 * Jobs are independent experiments on a work-stealing pool; finished
 * reports stream into the JSONL store, and re-running a grid against
 * the same store executes only the jobs that are missing (resume).
 * Exit code: 0 ok, 1 regression-gate failure, 2 usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <array>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "obs/phase.hh"
#include "sweep/compare.hh"
#include "sweep/pool.hh"
#include "sweep/summary.hh"
#include "sweep/sweep.hh"

using namespace slinfer;

namespace
{

void
usage(std::FILE *to)
{
    std::fprintf(to,
        "usage: slinfer_sweep [options]\n"
        "grid (flags or --manifest):\n"
        "  --scenarios=<a,b>        catalog scenarios\n"
        "  --systems=<a,b>          serving systems (default: slinfer)\n"
        "  --seeds=<1,2,3|1..5>     replicate seeds (default: 1..3)\n"
        "  --override=<name:k=v;..> config override set (repeatable)\n"
        "  --manifest=<file>        read the grid from a manifest\n"
        "execution:\n"
        "  --jobs=<n>               worker threads (default: all cores)\n"
        "  --store=<file.jsonl>     result store; enables resume\n"
        "  --attribution            run with the latency-anatomy "
        "ledger:\n"
        "                           reports gain an attribution block "
        "and\n"
        "                           the summary gains seg_* metrics\n"
        "output:\n"
        "  --summary-out=<file>     write cross-seed summary there\n"
        "  --format=json|csv        summary format (default: json)\n"
        "  --bootstrap=<n>          bootstrap iterations, 0..1000000 "
        "(default: 1000)\n"
        "  --timing-json=<file>     write wall-clock/jobs-per-sec JSON\n"
        "  --quiet                  no progress, warnings only\n"
        "gate:\n"
        "  --compare=<baseline>     diff summary against a baseline\n"
        "  --tolerance=<frac>       allowed drift in [0, 1] (default: "
        "0.10)\n"
        "  --write-baseline=<file>  save summary as a new baseline\n");
}

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string tok;
    while (std::getline(in, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

/** Parse an integer flag in [lo, hi] strictly (sweep::parseCount);
 *  exits 2 naming the flag otherwise. */
std::uint64_t
parseCountFlag(const std::string &tok, const char *flag, std::uint64_t lo,
               std::uint64_t hi)
{
    std::uint64_t v = 0;
    if (!sweep::parseCount(tok, v) || v < lo || v > hi) {
        std::fprintf(stderr,
                     "%s: malformed value '%s' (expected an integer in "
                     "[%llu, %llu])\n",
                     flag, tok.c_str(), static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi));
        std::exit(2);
    }
    return v;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
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
    sweep::Grid grid;
    std::string manifest_path;
    std::string store_path;
    std::string summary_out;
    std::string format = "json";
    std::string compare_path;
    std::string write_baseline;
    std::string timing_json;
    double tolerance = 0.10;
    int jobs = 0;
    int bootstrap = 1000;
    bool quiet = false;
    bool attribution = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg]() {
            return arg.substr(arg.find('=') + 1);
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg.rfind("--scenarios=", 0) == 0) {
            for (const std::string &s : splitCommas(value()))
                grid.scenarios.push_back(s);
        } else if (arg.rfind("--systems=", 0) == 0) {
            for (const std::string &s : splitCommas(value())) {
                SystemKind kind;
                if (!tryParseSystem(s, kind)) {
                    std::fprintf(stderr, "unknown system '%s'\n",
                                 s.c_str());
                    return 2;
                }
                grid.systems.push_back(kind);
            }
        } else if (arg.rfind("--seeds=", 0) == 0) {
            std::string err;
            if (!sweep::parseSeedList(value(), grid.seeds, &err)) {
                std::fprintf(stderr, "--seeds: %s\n", err.c_str());
                return 2;
            }
        } else if (arg.rfind("--override=", 0) == 0) {
            sweep::OverrideSet ov;
            std::string err;
            if (!sweep::parseOverrideSpec(value(), ov, &err)) {
                std::fprintf(stderr, "--override: %s\n", err.c_str());
                return 2;
            }
            grid.overrides.push_back(std::move(ov));
        } else if (arg.rfind("--manifest=", 0) == 0) {
            manifest_path = value();
        } else if (arg.rfind("--jobs=", 0) == 0) {
            jobs = static_cast<int>(
                parseCountFlag(value(), "--jobs", 1, 1024));
        } else if (arg == "--attribution") {
            attribution = true;
        } else if (arg.rfind("--store=", 0) == 0) {
            store_path = value();
        } else if (arg.rfind("--summary-out=", 0) == 0) {
            summary_out = value();
        } else if (arg.rfind("--format=", 0) == 0) {
            format = value();
        } else if (arg.rfind("--bootstrap=", 0) == 0) {
            bootstrap = static_cast<int>(
                parseCountFlag(value(), "--bootstrap", 0, 1000000));
        } else if (arg.rfind("--timing-json=", 0) == 0) {
            timing_json = value();
        } else if (arg.rfind("--compare=", 0) == 0) {
            compare_path = value();
        } else if (arg.rfind("--tolerance=", 0) == 0) {
            if (!sweep::parseReal(value(), tolerance) || tolerance < 0 ||
                tolerance > 1) {
                std::fprintf(stderr,
                             "--tolerance: malformed value '%s' "
                             "(expected a fraction in [0, 1])\n",
                             value().c_str());
                return 2;
            }
        } else if (arg.rfind("--write-baseline=", 0) == 0) {
            write_baseline = value();
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    if (format != "json" && format != "csv") {
        std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
        return 2;
    }
    // The compressed store layout is gone; refuse its suffix rather
    // than write JSONL under a name that promises something else.
    if (store_path.size() >= 5 &&
        store_path.compare(store_path.size() - 5, 5, ".strz") == 0) {
        std::fprintf(stderr,
                     "--store: the compressed .strz store was removed; "
                     "use a .jsonl store\n");
        return 2;
    }

    if (!manifest_path.empty()) {
        // Flags and a manifest would silently concatenate axes
        // (duplicate jobs, inflated replicate counts); use one or the
        // other.
        if (!grid.scenarios.empty() || !grid.systems.empty() ||
            !grid.seeds.empty() || !grid.overrides.empty()) {
            std::fprintf(stderr, "--manifest cannot be combined with "
                                 "--scenarios/--systems/--seeds/"
                                 "--override\n");
            return 2;
        }
        std::string text;
        if (!readFile(manifest_path, text)) {
            std::fprintf(stderr, "cannot read manifest %s\n",
                         manifest_path.c_str());
            return 2;
        }
        std::string err;
        if (!sweep::parseManifest(text, grid, &err)) {
            std::fprintf(stderr, "%s: %s\n", manifest_path.c_str(),
                         err.c_str());
            return 2;
        }
    }
    if (grid.scenarios.empty()) {
        usage(stderr);
        return 2;
    }
    if (grid.systems.empty())
        grid.systems.push_back(SystemKind::Slinfer);
    if (grid.seeds.empty())
        grid.seeds = {1, 2, 3};

    // "warnings only": torn-store recovery and similar notices must
    // survive --quiet; it silences progress and info, not warnings.
    if (quiet)
        setLogLevel(LogLevel::Warn);

    sweep::RunOptions opts;
    opts.jobs = jobs;
    opts.storePath = store_path;
    // Timing output includes a host-time phase breakdown, so profile
    // exactly when the caller asked for timing (never otherwise: the
    // scoped timers are cheap but not free).
    opts.phaseProfile = !timing_json.empty();
    opts.attribution = attribution;
    if (!quiet) {
        opts.onProgress = [](const sweep::Progress &p) {
            std::fprintf(stderr, "[%zu/%zu] %s %s seed=%llu%s\n", p.done,
                         p.total, p.job->scenario.c_str(),
                         systemSlug(p.job->system),
                         static_cast<unsigned long long>(p.job->seed),
                         p.cached ? " (cached)" : "");
        };
    }

    sweep::RunStats stats;
    std::vector<sweep::Record> records =
        sweep::runGrid(grid, opts, &stats);
    std::vector<sweep::SummaryRow> summary =
        sweep::summarize(records, bootstrap);

    int effective_jobs = jobs > 0 ? jobs : sweep::defaultJobs();
    if (!quiet) {
        std::fprintf(stderr,
                     "%zu jobs (%zu executed, %zu cached) in %.2f s "
                     "with %d worker%s (%.2f jobs/s)\n",
                     records.size(), stats.executed, stats.cached,
                     stats.wallSeconds, effective_jobs,
                     effective_jobs == 1 ? "" : "s",
                     stats.wallSeconds > 0
                         ? static_cast<double>(stats.executed) /
                               stats.wallSeconds
                         : 0.0);
    }

    if (!timing_json.empty()) {
        std::ostringstream os;
        os.precision(6);
        os << "{\"jobs\": " << records.size() << ", \"executed\": "
           << stats.executed << ", \"cached\": " << stats.cached
           << ", \"workers\": " << effective_jobs << ", \"wall_s\": "
           << stats.wallSeconds << ", \"jobs_per_s\": "
           << (stats.wallSeconds > 0
                   ? static_cast<double>(stats.executed) /
                         stats.wallSeconds
                   : 0.0);
        // Host-time phase attribution summed across every executed
        // job (obs/phase.hh); cached jobs contribute nothing.
        std::array<double, obs::kNumPhases> phases =
            obs::phaseTotalsSnapshot();
        os << ", \"phases\": {";
        for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
            os << (i ? ", " : "") << "\"" << obs::phaseName(i)
               << "\": " << phases[i];
        }
        os << "}}\n";
        if (!writeFile(timing_json, os.str())) {
            std::fprintf(stderr, "cannot write %s\n",
                         timing_json.c_str());
            return 2;
        }
    }

    std::string rendered = format == "csv" ? sweep::summaryToCsv(summary)
                                           : sweep::summaryToJson(summary);
    if (summary_out.empty()) {
        std::fputs(rendered.c_str(), stdout);
    } else if (!writeFile(summary_out, rendered)) {
        std::fprintf(stderr, "cannot write %s\n", summary_out.c_str());
        return 2;
    }

    if (!write_baseline.empty()) {
        // Baselines are always the JSON form, whatever --format says.
        if (!writeFile(write_baseline, sweep::summaryToJson(summary))) {
            std::fprintf(stderr, "cannot write %s\n",
                         write_baseline.c_str());
            return 2;
        }
        if (!quiet)
            std::fprintf(stderr, "baseline written to %s\n",
                         write_baseline.c_str());
    }

    if (!compare_path.empty()) {
        std::string text;
        if (!readFile(compare_path, text)) {
            std::fprintf(stderr, "cannot read baseline %s\n",
                         compare_path.c_str());
            return 2;
        }
        std::vector<sweep::SummaryRow> baseline;
        std::string err;
        if (!sweep::summaryFromJson(text, baseline, &err)) {
            std::fprintf(stderr, "%s: %s\n", compare_path.c_str(),
                         err.c_str());
            return 2;
        }
        sweep::CompareOptions copts;
        copts.tolerance = tolerance;
        sweep::CompareResult res =
            sweep::compare(summary, baseline, copts);
        std::fputs(res.table.c_str(), stderr);
        if (!res.pass)
            return 1;
    }
    return 0;
}

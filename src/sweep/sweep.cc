#include "sweep/sweep.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>

#include "common/log.hh"
#include "scenario/scenario.hh"
#include "sweep/pool.hh"
#include "sweep/store.hh"

namespace slinfer
{
namespace sweep
{

std::uint64_t
fnv1aHash(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string tok;
    while (std::getline(in, tok, sep)) {
        tok = trim(tok);
        if (!tok.empty())
            out.push_back(tok);
    }
    return out;
}

double
parseDouble(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size())
        fatal("override " + key + ": malformed number '" + value + "'");
    return v;
}

int
parsePositiveInt(const std::string &key, const std::string &value)
{
    double v = parseDouble(key, value);
    // Check the range before the cast: converting nan, inf or a value
    // outside int's range is undefined behaviour.
    if (!(v >= 0 && v <= std::numeric_limits<int>::max()) ||
        std::trunc(v) != v)
        fatal("override " + key + ": expected a nonnegative integer, "
              "got '" + value + "'");
    return static_cast<int>(v);
}

} // namespace

std::string
OverrideSet::canonical() const
{
    std::string out;
    for (const auto &[k, v] : settings) {
        if (!out.empty())
            out += ';';
        out += k + "=" + v;
    }
    return out;
}

bool
tryParseOverrideSettings(
    const std::string &canonical,
    std::vector<std::pair<std::string, std::string>> &out,
    std::string *err)
{
    for (const std::string &kv : splitList(canonical, ';')) {
        std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
            if (err)
                *err = "override setting '" + kv + "' is not key=value";
            return false;
        }
        out.emplace_back(trim(kv.substr(0, eq)), trim(kv.substr(eq + 1)));
    }
    return true;
}

bool
parseCount(const std::string &tok, std::uint64_t &out)
{
    if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(tok.c_str(), &end, 10);
    return errno != ERANGE && end == tok.c_str() + tok.size();
}

bool
parseReal(const std::string &tok, double &out)
{
    if (tok.empty() || std::isspace(static_cast<unsigned char>(tok[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtod(tok.c_str(), &end);
    return errno != ERANGE && end == tok.c_str() + tok.size() &&
           std::isfinite(out);
}

bool
parseSeedList(const std::string &text, std::vector<std::uint64_t> &out,
              std::string *err)
{
    auto fail = [err, &text](const std::string &what) {
        if (err)
            *err = what + " in seed list '" + text + "'";
        return false;
    };
    std::size_t dots = text.find("..");
    if (dots != std::string::npos) {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        if (!parseCount(trim(text.substr(0, dots)), lo) ||
            !parseCount(trim(text.substr(dots + 2)), hi))
            return fail("malformed range endpoint");
        if (hi < lo || hi - lo >= 100000)
            return fail("bad range");
        for (std::uint64_t s = lo; s <= hi; ++s)
            out.push_back(s);
        return true;
    }
    bool any = false;
    for (const std::string &tok : splitList(text, ',')) {
        std::uint64_t v = 0;
        if (!parseCount(tok, v))
            return fail("malformed seed '" + tok + "'");
        out.push_back(v);
        any = true;
    }
    return any || fail("no seeds");
}

bool
parseOverrideSpec(const std::string &spec, OverrideSet &out,
                  std::string *err)
{
    std::string settings = spec;
    std::size_t colon = spec.find(':');
    if (colon != std::string::npos) {
        out.name = trim(spec.substr(0, colon));
        settings = spec.substr(colon + 1);
    }
    return tryParseOverrideSettings(settings, out.settings, err);
}

bool
parseManifest(const std::string &text, Grid &out, std::string *err)
{
    auto fail = [err](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };

    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return fail("manifest line " + std::to_string(lineno) +
                        ": expected 'key = value'");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key == "scenarios") {
            for (const std::string &name : splitList(value, ','))
                out.scenarios.push_back(name);
        } else if (key == "systems") {
            for (const std::string &name : splitList(value, ',')) {
                SystemKind kind;
                if (!tryParseSystem(name, kind))
                    return fail("manifest line " + std::to_string(lineno) +
                                ": unknown system '" + name + "'");
                out.systems.push_back(kind);
            }
        } else if (key == "seeds") {
            std::string seed_err;
            if (!parseSeedList(value, out.seeds, &seed_err))
                return fail("manifest line " + std::to_string(lineno) +
                            ": " + seed_err);
        } else if (key == "override") {
            OverrideSet ov;
            std::string ov_err;
            if (!parseOverrideSpec(value, ov, &ov_err))
                return fail("manifest line " + std::to_string(lineno) +
                            ": " + ov_err);
            out.overrides.push_back(std::move(ov));
        } else {
            return fail("manifest line " + std::to_string(lineno) +
                        ": unknown key '" + key + "'");
        }
    }
    return true;
}

std::string
JobSpec::key() const
{
    std::ostringstream os;
    os.precision(17); // exact: a duration change must change the hash
    os << scenario << '|' << systemSlug(system) << '|' << seed << '|'
       << overrides.name << '|' << overrides.canonical() << '|'
       << duration;
    return os.str();
}

std::string
JobSpec::hash() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1aHash(key())));
    return buf;
}

std::vector<JobSpec>
expandGrid(const Grid &grid)
{
    if (grid.scenarios.empty())
        fatal("sweep grid: no scenarios");
    if (grid.systems.empty())
        fatal("sweep grid: no systems");
    if (grid.seeds.empty())
        fatal("sweep grid: no seeds");
    std::vector<OverrideSet> overrides = grid.overrides;
    if (overrides.empty())
        overrides.push_back(OverrideSet{});

    std::vector<JobSpec> jobs;
    jobs.reserve(grid.scenarios.size() * grid.systems.size() *
                 overrides.size() * grid.seeds.size());
    for (const std::string &name : grid.scenarios) {
        const scenario::Scenario *sc = scenario::byName(name);
        if (!sc)
            fatal("sweep grid: unknown scenario '" + name + "'");
        for (SystemKind system : grid.systems) {
            for (const OverrideSet &ov : overrides) {
                // Validate override keys once per set, before any job
                // runs, so a typo fails the sweep up front.
                applyOverrides(sc->toExperiment(system, sc->seed), ov);
                for (std::uint64_t seed : grid.seeds) {
                    JobSpec job;
                    job.scenario = name;
                    job.system = system;
                    job.seed = seed;
                    job.overrides = ov;
                    job.duration = sc->duration();
                    jobs.push_back(std::move(job));
                }
            }
        }
    }
    // Duplicate axes (a seed listed twice, a scenario named twice)
    // would run jobs redundantly and inflate replicate counts in the
    // summary; catch them up front.
    std::set<std::string> seen;
    for (const JobSpec &job : jobs) {
        if (!seen.insert(job.hash()).second)
            fatal("sweep grid: duplicate job '" + job.key() +
                  "' (an axis lists the same value twice)");
    }
    return jobs;
}

ExperimentConfig
applyOverrides(ExperimentConfig cfg, const OverrideSet &overrides)
{
    for (const auto &[key, value] : overrides.settings) {
        if (key == "cpu-nodes") {
            cfg.cluster.cpuNodes = parsePositiveInt(key, value);
        } else if (key == "gpu-nodes") {
            cfg.cluster.gpuNodes = parsePositiveInt(key, value);
        } else if (key == "keep-alive") {
            cfg.controller.keepAlive = parseDouble(key, value);
        } else if (key == "watermark") {
            cfg.controller.watermark = parseDouble(key, value);
        } else if (key == "overestimate") {
            cfg.controller.overestimate = parseDouble(key, value);
        } else if (key == "tpot-slo") {
            cfg.controller.slo.tpot = parseDouble(key, value);
        } else {
            fatal("unknown override key '" + key + "' (supported: "
                  "cpu-nodes, gpu-nodes, keep-alive, watermark, "
                  "overestimate, tpot-slo)");
        }
    }
    return cfg;
}

Report
runJob(const JobSpec &job, bool phaseProfile, bool attribution)
{
    const scenario::Scenario *sc = scenario::byName(job.scenario);
    if (!sc)
        fatal("sweep job: unknown scenario '" + job.scenario + "'");
    ExperimentConfig cfg = applyOverrides(
        sc->toExperiment(job.system, job.seed), job.overrides);
    cfg.obs.phaseProfile = phaseProfile;
    cfg.obs.anatomy = attribution;
    Report report = runExperiment(cfg);
    report.scenario = job.scenario;
    report.seed = job.seed;
    return report;
}

std::vector<Record>
runGrid(const Grid &grid, const RunOptions &opts, RunStats *stats)
{
    auto t0 = std::chrono::steady_clock::now();

    std::vector<JobSpec> jobs = expandGrid(grid);
    ResultStore store(opts.storePath);

    std::vector<Record> records(jobs.size());
    std::vector<std::size_t> pending;
    std::size_t done = 0;
    std::mutex progress_mutex;

    auto report_progress = [&](const JobSpec &job, bool cached) {
        // The store append happens before this, so a crash after a job
        // finishes never loses its record.
        std::lock_guard<std::mutex> lock(progress_mutex);
        ++done;
        if (opts.onProgress) {
            Progress p;
            p.done = done;
            p.total = jobs.size();
            p.job = &job;
            p.cached = cached;
            opts.onProgress(p);
        }
    };

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        records[i].job = jobs[i];
        const Report *cached = store.find(jobs[i].hash());
        if (cached) {
            records[i].report = *cached;
            report_progress(jobs[i], true);
        } else {
            pending.push_back(i);
        }
    }
    std::size_t cached_count = jobs.size() - pending.size();

    int workers = opts.jobs > 0 ? opts.jobs : defaultJobs();
    parallelFor(pending.size(), workers, [&](std::size_t k) {
        std::size_t i = pending[k];
        std::ostringstream tag;
        tag << "job " << i + 1 << "/" << jobs.size() << " "
            << jobs[i].hash();
        // Scope the tag over the whole job body (including the store
        // append and progress report) and restore the previous tag on
        // every exit path, so an idle worker's later messages never
        // carry a stale "job N/M" prefix.
        LogTagScope tag_scope(tag.str());
        Report report = runJob(jobs[i], opts.phaseProfile,
                               opts.attribution);
        store.append(jobs[i], report);
        records[i].report = std::move(report);
        report_progress(jobs[i], false);
    });

    // Rewrite the store in grid order: the file's bytes now depend only
    // on the grid and seeds, not on worker count or completion order.
    store.compact(records);

    if (stats) {
        stats->executed = pending.size();
        stats->cached = cached_count;
        stats->wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
    }
    return records;
}

} // namespace sweep
} // namespace slinfer

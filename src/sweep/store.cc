#include "sweep/store.hh"

#include <set>
#include <sstream>

#include "common/log.hh"
#include "harness/systems.hh"
#include "sweep/json.hh"

namespace slinfer
{
namespace sweep
{

namespace
{

/** Rebuild a Report from the parsed "report" object of a record. */
Report
reportFromJson(const JsonValue &v)
{
    Report r;
    r.system = v.string("system");
    r.scenario = v.string("scenario");
    r.seed = static_cast<std::uint64_t>(v.num("seed"));
    r.totalRequests = static_cast<std::size_t>(v.num("total_requests"));
    r.completed = static_cast<std::size_t>(v.num("completed"));
    r.dropped = static_cast<std::size_t>(v.num("dropped"));
    r.sloMet = static_cast<std::size_t>(v.num("slo_met"));
    r.sloRate = v.num("slo_rate");
    r.avgCpuNodesUsed = v.num("avg_cpu_nodes_used");
    r.avgGpuNodesUsed = v.num("avg_gpu_nodes_used");
    r.decodeSpeedCpu = v.num("decode_speed_cpu");
    r.decodeSpeedGpu = v.num("decode_speed_gpu");
    r.p50Ttft = v.num("p50_ttft");
    r.p95Ttft = v.num("p95_ttft");
    r.gpuMemUtilMean = v.num("gpu_mem_util_mean");
    r.batchMean = v.num("batch_mean");
    r.migrationRate = v.num("migration_rate");
    r.kvUtilization = v.num("kv_utilization");
    r.scalingOverhead = v.num("scaling_overhead");
    auto pairs = [](const JsonValue *arr,
                    std::vector<std::pair<double, double>> &out) {
        if (!arr || !arr->isArray())
            return;
        for (const JsonValue &e : arr->array) {
            if (e.isArray() && e.array.size() == 2)
                out.emplace_back(e.array[0].number, e.array[1].number);
        }
    };
    pairs(v.find("ttft_cdf"), r.ttftCdf);
    pairs(v.find("gpu_timeline"), r.gpuTimeline);
    // The attribution block must round-trip: resumed/compacted sweeps
    // aggregate cached reports, and the summary's seg_* metrics have
    // to come out identical to a fresh run's.
    const JsonValue *attr = v.find("attribution");
    if (attr && attr->isObject()) {
        Report::Attribution &a = r.attribution;
        a.enabled = true;
        a.requests = static_cast<std::uint64_t>(attr->num("requests"));
        a.violations =
            static_cast<std::uint64_t>(attr->num("violations"));
        if (const JsonValue *segs = attr->find("segments");
            segs && segs->isArray()) {
            for (const JsonValue &sv : segs->array) {
                Report::Attribution::Segment s;
                s.name = sv.string("name");
                s.count = static_cast<std::uint64_t>(sv.num("count"));
                s.totalS = sv.num("total_s");
                s.p50s = sv.num("p50_s");
                s.p95s = sv.num("p95_s");
                s.p99s = sv.num("p99_s");
                s.blamed = static_cast<std::uint64_t>(sv.num("blamed"));
                a.segments.push_back(std::move(s));
            }
        }
        auto blameRow = [](const JsonValue &arr) {
            std::vector<std::uint64_t> out;
            for (const JsonValue &e : arr.array)
                out.push_back(static_cast<std::uint64_t>(e.number));
            return out;
        };
        if (const JsonValue *pm = attr->find("per_model");
            pm && pm->isArray()) {
            for (const JsonValue &mv : pm->array) {
                Report::Attribution::ModelBlame row;
                row.model = mv.string("model");
                if (const JsonValue *b = mv.find("blamed");
                    b && b->isArray())
                    row.blamed = blameRow(*b);
                a.perModel.push_back(std::move(row));
            }
        }
        a.windowLen = attr->num("window_len");
        if (const JsonValue *pw = attr->find("per_window");
            pw && pw->isArray()) {
            for (const JsonValue &wv : pw->array) {
                if (wv.isArray())
                    a.perWindow.push_back(blameRow(wv));
            }
        }
    }
    // The resilience block round-trips for the same reason: cached
    // chaos runs must summarize identically to fresh ones, or the
    // recovery-metrics gate would flap on resumed sweeps.
    const JsonValue *res = v.find("resilience");
    if (res && res->isObject()) {
        Report::Resilience &rs = r.resilience;
        rs.enabled = true;
        rs.faultEvents =
            static_cast<std::uint64_t>(res->num("fault_events"));
        rs.restores = static_cast<std::uint64_t>(res->num("restores"));
        rs.availability = res->num("availability");
        rs.mttrMeanS = res->num("mttr_mean_s");
        rs.degradedTimeS = res->num("degraded_time_s");
        rs.lostPerFault = res->num("lost_per_fault");
        rs.goodputFaultRpm = res->num("goodput_fault_rpm");
        rs.goodputHealthyRpm = res->num("goodput_healthy_rpm");
        rs.recoveryMeanS = res->num("recovery_mean_s");
    }
    return r;
}

} // namespace

std::string
ResultStore::recordLine(const JobSpec &job, const Report &report)
{
    std::ostringstream os;
    os.precision(17); // exact double round-trip, like toJsonLine
    os << "{\"key\": \"" << job.hash() << "\", \"scenario\": \""
       << jsonEscape(job.scenario) << "\", \"system\": \""
       << systemSlug(job.system) << "\", \"seed\": " << job.seed
       << ", \"override_name\": \"" << jsonEscape(job.overrides.name)
       << "\", \"overrides\": \""
       << jsonEscape(job.overrides.canonical()) << "\", \"duration\": "
       << job.duration << ", \"report\": " << toJsonLine(report) << "}";
    return os.str();
}

bool
ResultStore::parseRecordLine(const std::string &line, JobSpec &job,
                             Report &report, std::string *err)
{
    JsonValue v;
    if (!parseJson(line, v, err))
        return false;
    if (!v.isObject()) {
        if (err)
            *err = "record is not a JSON object";
        return false;
    }
    job.scenario = v.string("scenario");
    if (!tryParseSystem(v.string("system"), job.system)) {
        if (err)
            *err = "unknown system slug '" + v.string("system") + "'";
        return false;
    }
    job.seed = static_cast<std::uint64_t>(v.num("seed"));
    job.overrides.name = v.string("override_name");
    if (!tryParseOverrideSettings(v.string("overrides"),
                                  job.overrides.settings, err))
        return false;
    job.duration = v.num("duration");
    const JsonValue *rep = v.find("report");
    if (!rep || !rep->isObject()) {
        if (err)
            *err = "record has no report object";
        return false;
    }
    report = reportFromJson(*rep);
    // The stored key must agree with the recomputed hash; a mismatch
    // means the file was hand-edited or the hash scheme drifted.
    if (v.string("key") != job.hash()) {
        if (err)
            *err = "record key '" + v.string("key") +
                   "' does not match recomputed hash " + job.hash();
        return false;
    }
    return true;
}

std::vector<std::string>
ResultStore::loadLines(const std::string &content)
{
    std::vector<std::string> valid_lines;
    std::string line;
    int lineno = 0;
    // `complete` distinguishes a newline-terminated record from a
    // final line torn by a mid-append crash: the torn line is the
    // expected interrupt artifact (drop it; the job re-runs), but a
    // complete record that fails to parse means real corruption and
    // should be inspected, not silently recomputed.
    auto flush_line = [&](bool complete) {
        if (line.empty())
            return;
        ++lineno;
        JobSpec job;
        Report report;
        std::string err;
        if (!parseRecordLine(line, job, report, &err)) {
            if (!complete) {
                logf(LogLevel::Warn, "result store ", path_,
                     ": dropping torn final record (interrupted "
                     "write); the job will re-run");
            } else {
                fatal("result store " + path_ + " line " +
                      std::to_string(lineno) + ": " + err);
            }
        } else {
            byHash_.emplace(job.hash(),
                            std::make_unique<Report>(std::move(report)));
            valid_lines.push_back(line);
        }
        line.clear();
    };
    for (char c : content) {
        if (c == '\n')
            flush_line(true);
        else
            line += c;
    }
    flush_line(false);
    return valid_lines;
}

ResultStore::ResultStore(const std::string &path) : path_(path)
{
    if (path_.empty())
        return;
    // Load whatever a previous (possibly interrupted) sweep persisted.
    bool needs_rewrite = false;
    std::vector<std::string> valid_lines;
    if (std::FILE *in = std::fopen(path_.c_str(), "r")) {
        std::string content;
        int c;
        while ((c = std::fgetc(in)) != EOF)
            content += static_cast<char>(c);
        std::fclose(in);
        valid_lines = loadLines(content);
        loaded_ = byHash_.size();
        // Any unterminated tail — torn mid-record (dropped above) or a
        // record that parsed but lost its newline — must come off the
        // file, or the next append concatenates onto it and corrupts a
        // line.
        needs_rewrite = !content.empty() && content.back() != '\n';
    }

    if (needs_rewrite) {
        std::FILE *out = std::fopen(path_.c_str(), "w");
        if (!out)
            fatal("result store: cannot rewrite " + path_);
        for (const std::string &l : valid_lines)
            std::fprintf(out, "%s\n", l.c_str());
        std::fclose(out);
    }

    file_ = std::fopen(path_.c_str(), "a");
    if (!file_)
        fatal("result store: cannot open " + path_ + " for append");
}

ResultStore::~ResultStore()
{
    if (file_)
        std::fclose(file_);
}

const Report *
ResultStore::find(const std::string &hash) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::unique_ptr<Report> *p =
        byHash_.find(std::string_view(hash));
    return p ? p->get() : nullptr;
}

void
ResultStore::append(const JobSpec &job, const Report &report)
{
    std::lock_guard<std::mutex> lock(mutex_);
    byHash_.emplace(job.hash(), std::make_unique<Report>(report));
    if (path_.empty())
        return;
    std::string line = recordLine(job, report);
    std::fprintf(file_, "%s\n", line.c_str());
    std::fflush(file_);
}

void
ResultStore::compact(const std::vector<Record> &ordered)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (path_.empty())
        return;
    // Only rewrite a store that holds exactly this grid's records. A
    // shared store (several grids accumulating into one file) keeps
    // its append-only layout: compaction must never drop results that
    // belong to another sweep.
    std::set<std::string> ours;
    for (const Record &rec : ordered)
        ours.insert(rec.job.hash());
    bool foreign = false;
    byHash_.forEach([&](const std::string &hash,
                        const std::unique_ptr<Report> &) {
        if (!ours.count(hash))
            foreign = true;
    });
    if (foreign) {
        logf(LogLevel::Info, "result store ", path_, ": holds "
             "records outside this grid; skipping grid-order "
             "compaction");
        return;
    }
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    std::FILE *out = std::fopen(path_.c_str(), "w");
    if (!out)
        fatal("result store: cannot rewrite " + path_);
    for (const Record &rec : ordered)
        std::fprintf(out, "%s\n", recordLine(rec.job, rec.report).c_str());
    std::fclose(out);
    file_ = std::fopen(path_.c_str(), "a");
    if (!file_)
        fatal("result store: cannot reopen " + path_);
}

} // namespace sweep
} // namespace slinfer

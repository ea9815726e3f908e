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
    if (!countFromJson(v.num("seed"), job.seed)) {
        if (err)
            *err = "record field 'seed' is not a count";
        return false;
    }
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
    if (!reportFromJson(*rep, report, err))
        return false;
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
            byHash_.emplace(job.hash(), std::move(report));
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
    auto it = byHash_.find(hash);
    return it == byHash_.end() ? nullptr : &it->second;
}

void
ResultStore::append(const JobSpec &job, const Report &report)
{
    std::lock_guard<std::mutex> lock(mutex_);
    byHash_.emplace(job.hash(), report);
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
    for (const auto &[hash, report] : byHash_) {
        if (!ours.count(hash))
            foreign = true;
    }
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

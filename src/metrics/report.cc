#include "metrics/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/table.hh"
#include "metrics/cluster_stats.hh"
#include "metrics/recorder.hh"
#include "sweep/json.hh"

namespace slinfer
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

Report
Report::build(const std::string &system, const Recorder &rec,
              const ClusterStats &stats,
              const std::vector<double> &ttftCdfPoints)
{
    Report r;
    r.system = system;
    r.totalRequests = rec.total();
    r.completed = rec.completed();
    r.dropped = rec.dropped();
    r.sloMet = rec.sloMet();
    r.sloRate = rec.sloRate();

    r.avgCpuNodesUsed = stats.avgNodesUsed(HwKind::Cpu);
    r.avgGpuNodesUsed = stats.avgNodesUsed(HwKind::Gpu);
    r.decodeSpeedCpu = stats.decodeSpeed(HwKind::Cpu);
    r.decodeSpeedGpu = stats.decodeSpeed(HwKind::Gpu);

    r.p50Ttft = rec.ttftCdf().percentile(50.0);
    r.p95Ttft = rec.ttftCdf().percentile(95.0);

    // Normalize by total arrivals: dropped requests keep the CDF from
    // reaching 1.0, matching the presentation of Fig. 22.
    double frac_completed =
        rec.total() ? static_cast<double>(rec.ttftCdf().count()) /
                          static_cast<double>(rec.total())
                    : 0.0;
    for (double x : ttftCdfPoints) {
        r.ttftCdf.emplace_back(x,
                               rec.ttftCdf().fractionBelow(x) *
                                   frac_completed);
    }

    r.gpuMemUtilMean = stats.gpuMemUtilCdf().mean();
    r.batchMean = stats.batchCdf().mean();
    r.migrationRate = rec.migrationRate();
    r.gpuTimeline = stats.gpuTimeline();

    Seconds span = rec.windowSpan();
    for (std::size_t i = 0; i < rec.windows().size(); ++i) {
        const Recorder::WindowStats &w = rec.windows()[i];
        Report::Window row;
        row.start = span * static_cast<double>(i);
        row.end = span * static_cast<double>(i + 1);
        row.arrived = w.arrived;
        row.completed = w.completed;
        row.dropped = w.dropped;
        row.p50Ttft = w.ttft.percentile(50.0);
        row.p95Ttft = w.ttft.percentile(95.0);
        row.completedPerSec = static_cast<double>(w.completed) / span;
        row.tokensPerSec =
            static_cast<double>(w.generatedTokens) / span;
        r.windows.push_back(row);
    }
    return r;
}

namespace
{

using Attribution = Report::Attribution;
using Resilience = Report::Resilience;
using Segment = Report::Attribution::Segment;
using Window = Report::Window;

// Keys that two tables, two writers or a writer and the reader share.
constexpr const char *kSystem = "system";
constexpr const char *kScenario = "scenario";
constexpr const char *kSeed = "seed";
constexpr const char *kCompleted = "completed";
constexpr const char *kDropped = "dropped";
constexpr const char *kP50Ttft = "p50_ttft";
constexpr const char *kP95Ttft = "p95_ttft";
constexpr const char *kTtftCdf = "ttft_cdf";
constexpr const char *kGpuTimeline = "gpu_timeline";
constexpr const char *kWindows = "windows";
constexpr const char *kAttribution = "attribution";
constexpr const char *kResilience = "resilience";
constexpr const char *kViolations = "violations";
constexpr const char *kSegments = "segments";
constexpr const char *kName = "name";
constexpr const char *kPerModel = "per_model";
constexpr const char *kModel = "model";
constexpr const char *kBlamed = "blamed";
constexpr const char *kWindowLen = "window_len";
constexpr const char *kPerWindow = "per_window";
/** A segment's name as a CSV column and a rendered header (JSON calls
 *  it kName). */
constexpr const char *kSegment = "segment";
constexpr const char *kValue = "value";

// The field tables, in emission order. A count prints as an integer
// except in the report's top-level JSON, which prints every scalar as a
// double (see emitJson). A third number is the decimals a rendered table
// shows a real with (default 2).

constexpr Field<Report> kScalarFields[] = {
    {"total_requests", &Report::totalRequests},
    {kCompleted, &Report::completed},
    {kDropped, &Report::dropped},
    {"slo_met", &Report::sloMet},
    {"slo_rate", &Report::sloRate},
    {"avg_cpu_nodes_used", &Report::avgCpuNodesUsed},
    {"avg_gpu_nodes_used", &Report::avgGpuNodesUsed},
    {"decode_speed_cpu", &Report::decodeSpeedCpu},
    {"decode_speed_gpu", &Report::decodeSpeedGpu},
    {kP50Ttft, &Report::p50Ttft},
    {kP95Ttft, &Report::p95Ttft},
    {"gpu_mem_util_mean", &Report::gpuMemUtilMean},
    {"batch_mean", &Report::batchMean},
    {"migration_rate", &Report::migrationRate},
    {"kv_utilization", &Report::kvUtilization},
    {"scaling_overhead", &Report::scalingOverhead},
};

constexpr Field<Window> kWindowFields[] = {
    {"start", &Window::start},
    {"end", &Window::end},
    {"arrived", &Window::arrived},
    {kCompleted, &Window::completed},
    {kDropped, &Window::dropped},
    {kP50Ttft, &Window::p50Ttft},
    {kP95Ttft, &Window::p95Ttft},
    {"completed_per_sec", &Window::completedPerSec},
    {"tokens_per_sec", &Window::tokensPerSec},
};

constexpr Field<Attribution> kAttributionFields[] = {
    {"requests", &Attribution::requests},
    {kViolations, &Attribution::violations},
};

constexpr Field<Segment> kSegmentFields[] = {
    {"count", &Segment::count},
    {"total_s", &Segment::totalS, 3},
    {"p50_s", &Segment::p50s, 4},
    {"p95_s", &Segment::p95s, 4},
    {"p99_s", &Segment::p99s, 4},
    {kBlamed, &Segment::blamed},
};

constexpr Field<Resilience> kResilienceFields[] = {
    {"fault_events", &Resilience::faultEvents},
    {"restores", &Resilience::restores},
    {"availability", &Resilience::availability, 4},
    {"mttr_mean_s", &Resilience::mttrMeanS},
    {"degraded_time_s", &Resilience::degradedTimeS},
    {"lost_per_fault", &Resilience::lostPerFault},
    {"goodput_fault_rpm", &Resilience::goodputFaultRpm},
    {"goodput_healthy_rpm", &Resilience::goodputHealthyRpm},
    {"recovery_mean_s", &Resilience::recoveryMeanS},
};

/** Streams as `"key": `. */
struct JsonKey
{
    const char *key;
};
std::ostream &
operator<<(std::ostream &os, JsonKey k)
{
    return os << '"' << k.key << "\": ";
}

} // namespace

std::vector<std::pair<std::string, double>>
reportScalarMetrics(const Report &r)
{
    std::vector<std::pair<std::string, double>> out;
    for (const Field<Report> &f : kScalarFields)
        out.emplace_back(f.key, f.value(r));
    return out;
}

std::vector<std::pair<std::string, double>>
reportBlockMetrics(const Report &r)
{
    std::vector<std::pair<std::string, double>> out;
    if (r.attribution.enabled) {
        out.emplace_back(std::string("attr_") + kViolations,
                         static_cast<double>(r.attribution.violations));
        // A sweep summarizes three of a segment's fields.
        for (const Segment &s : r.attribution.segments) {
            for (const Field<Segment> &f : kSegmentFields) {
                if (f.real == &Segment::totalS ||
                    f.real == &Segment::p95s || f.count == &Segment::blamed)
                    out.emplace_back("seg_" + s.name + "_" + f.key,
                                     f.value(s));
            }
        }
    }
    if (r.resilience.enabled) {
        for (const Field<Resilience> &f : kResilienceFields)
            out.emplace_back(std::string("res_") + f.key,
                             f.value(r.resilience));
    }
    return out;
}

void
writeAttributionFields(std::ostream &os, const Attribution &a)
{
    writeFields(os, a, kAttributionFields, true);
    os << ", " << JsonKey{kSegments} << "[";
    for (std::size_t i = 0; i < a.segments.size(); ++i) {
        const Segment &s = a.segments[i];
        os << (i ? ", " : "") << "{" << JsonKey{kName} << "\""
           << jsonEscape(s.name) << "\", ";
        writeFields(os, s, kSegmentFields, true);
        os << "}";
    }
    os << "], " << JsonKey{kPerModel} << "[";
    for (std::size_t i = 0; i < a.perModel.size(); ++i) {
        os << (i ? ", " : "") << "{" << JsonKey{kModel} << "\""
           << jsonEscape(a.perModel[i].model) << "\", " << JsonKey{kBlamed}
           << "[";
        const std::vector<std::uint64_t> &b = a.perModel[i].blamed;
        for (std::size_t j = 0; j < b.size(); ++j)
            os << (j ? ", " : "") << b[j];
        os << "]}";
    }
    os << "], " << JsonKey{kWindowLen} << a.windowLen << ", "
       << JsonKey{kPerWindow} << "[";
    for (std::size_t i = 0; i < a.perWindow.size(); ++i) {
        os << (i ? ", " : "") << "[";
        for (std::size_t j = 0; j < a.perWindow[i].size(); ++j)
            os << (j ? ", " : "") << a.perWindow[i][j];
        os << "]";
    }
    os << "]";
}

namespace
{

/** Shared JSON emission; pretty mode uses "\n"/"  ", line mode "". */
std::string
emitJson(const Report &r, const char *nl, const char *indent,
         int precision)
{
    std::ostringstream os;
    os.precision(precision);
    os << "{" << nl;
    os << indent << JsonKey{kSystem} << "\"" << jsonEscape(r.system)
       << "\"," << nl;
    os << indent << JsonKey{kScenario} << "\"" << jsonEscape(r.scenario)
       << "\"," << nl;
    os << indent << JsonKey{kSeed} << r.seed << "," << nl;
    // The scalars print as doubles, counts included (DESIGN.md,
    // "Output field tables").
    for (const Field<Report> &f : kScalarFields)
        os << indent << JsonKey{f.key} << f.value(r) << "," << nl;
    auto pairs = [&os](const std::vector<std::pair<double, double>> &v) {
        os << "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            os << (i ? ", " : "") << "[" << v[i].first << ", "
               << v[i].second << "]";
        }
        os << "]";
    };
    os << indent << JsonKey{kTtftCdf};
    pairs(r.ttftCdf);
    os << "," << nl << indent << JsonKey{kGpuTimeline};
    pairs(r.gpuTimeline);
    // Windowed rows only when the run was windowed, so unwindowed
    // reports stay byte-identical to the pre-window format.
    if (!r.windows.empty()) {
        os << "," << nl << indent << JsonKey{kWindows} << "[";
        for (std::size_t i = 0; i < r.windows.size(); ++i) {
            os << (i ? ", " : "") << "{";
            writeFields(os, r.windows[i], kWindowFields, true);
            os << "}";
        }
        os << "]";
    }
    // The counters block exists only when the run enabled the
    // flight-recorder counter registry; instrumented-off reports stay
    // byte-identical to the pre-obs format.
    if (!r.counters.empty()) {
        os << "," << nl << indent << JsonKey{"counters"} << "{";
        for (std::size_t i = 0; i < r.counters.size(); ++i) {
            os << (i ? ", " : "") << "\""
               << jsonEscape(r.counters[i].first)
               << "\": " << r.counters[i].second;
        }
        os << "}";
    }
    // Attribution only when the run enabled the anatomy ledger, so
    // uninstrumented reports stay byte-identical.
    if (r.attribution.enabled) {
        os << "," << nl << indent << JsonKey{kAttribution} << "{";
        writeAttributionFields(os, r.attribution);
        os << "}";
    }
    // Resilience only when the run attached the chaos probe, so
    // chaos-free reports stay byte-identical.
    if (r.resilience.enabled) {
        os << "," << nl << indent << JsonKey{kResilience} << "{";
        writeFields(os, r.resilience, kResilienceFields, true);
        os << "}";
    }
    os << nl << "}";
    return os.str();
}

} // namespace

std::string
toJson(const Report &r)
{
    return emitJson(r, "\n", "  ", 10);
}

std::string
toJsonLine(const Report &r)
{
    // max_digits10: a stored report must round-trip bit-exactly so a
    // resumed sweep aggregates to byte-identical output.
    return emitJson(r, "", "", 17);
}

bool
countFromJson(double x, std::uint64_t &out)
{
    if (!(std::isfinite(x) && x >= 0 && x <= 0x1p53 && std::trunc(x) == x))
        return false;
    out = static_cast<std::uint64_t>(x);
    return true;
}

bool
reportFromJson(const sweep::JsonValue &v, Report &r, std::string *err)
{
    using sweep::JsonValue;
    if (!v.isObject()) {
        if (err)
            *err = "report is not a JSON object";
        return false;
    }
    r = Report();
    // Counts are stored as JSON numbers; a tampered or corrupt store
    // must fail here instead of reaching an unchecked cast.
    std::string bad;
    auto count = [&bad](double x, const char *key) -> std::uint64_t {
        std::uint64_t n = 0;
        if (!countFromJson(x, n) && bad.empty()) {
            std::ostringstream os;
            os << "report field '" << key << "' is not a count: " << x;
            bad = os.str();
        }
        return n;
    };
    auto readFields = [&count](const JsonValue &obj, const auto &fields,
                               auto &rec) {
        for (const auto &f : fields) {
            if (f.count)
                rec.*f.count = count(obj.num(f.key), f.key);
            else
                rec.*f.real = obj.num(f.key);
        }
    };
    r.system = v.string(kSystem);
    r.scenario = v.string(kScenario);
    r.seed = count(v.num(kSeed), kSeed);
    readFields(v, kScalarFields, r);
    auto pairs = [&v](const char *key,
                      std::vector<std::pair<double, double>> &out) {
        const JsonValue *arr = v.find(key);
        if (!arr || !arr->isArray())
            return;
        for (const JsonValue &e : arr->array) {
            if (e.isArray() && e.array.size() == 2)
                out.emplace_back(e.array[0].number, e.array[1].number);
        }
    };
    pairs(kTtftCdf, r.ttftCdf);
    pairs(kGpuTimeline, r.gpuTimeline);
    if (const JsonValue *ws = v.find(kWindows); ws && ws->isArray()) {
        for (const JsonValue &wv : ws->array) {
            Window w;
            readFields(wv, kWindowFields, w);
            r.windows.push_back(w);
        }
    }
    // The attribution block must round-trip: resumed/compacted sweeps
    // aggregate cached reports, and the summary's seg_* metrics have
    // to come out identical to a fresh run's.
    const JsonValue *attr = v.find(kAttribution);
    if (attr && attr->isObject()) {
        Attribution &a = r.attribution;
        a.enabled = true;
        readFields(*attr, kAttributionFields, a);
        if (const JsonValue *segs = attr->find(kSegments);
            segs && segs->isArray()) {
            for (const JsonValue &sv : segs->array) {
                Segment s;
                s.name = sv.string(kName);
                readFields(sv, kSegmentFields, s);
                a.segments.push_back(std::move(s));
            }
        }
        auto blameRow = [&count](const JsonValue &arr) {
            std::vector<std::uint64_t> out;
            for (const JsonValue &e : arr.array)
                out.push_back(count(e.number, kBlamed));
            return out;
        };
        if (const JsonValue *pm = attr->find(kPerModel);
            pm && pm->isArray()) {
            for (const JsonValue &mv : pm->array) {
                Attribution::ModelBlame row;
                row.model = mv.string(kModel);
                if (const JsonValue *b = mv.find(kBlamed);
                    b && b->isArray())
                    row.blamed = blameRow(*b);
                a.perModel.push_back(std::move(row));
            }
        }
        a.windowLen = attr->num(kWindowLen);
        if (const JsonValue *pw = attr->find(kPerWindow);
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
    const JsonValue *res = v.find(kResilience);
    if (res && res->isObject()) {
        r.resilience.enabled = true;
        readFields(*res, kResilienceFields, r.resilience);
    }
    if (!bad.empty()) {
        if (err)
            *err = bad;
        return false;
    }
    return true;
}

std::string
renderAttribution(const Report &r)
{
    const Attribution &a = r.attribution;
    if (!a.enabled)
        return "";
    std::ostringstream os;
    os << "latency anatomy";
    if (!r.scenario.empty())
        os << ": " << r.scenario << "/" << r.system << " seed " << r.seed;
    os << "\n  requests closed: " << a.requests
       << "   slo violations: " << a.violations << "\n\n";

    std::vector<std::string> header = {kSegment};
    for (const Field<Segment> &f : kSegmentFields)
        header.push_back(f.key);
    Table segs(header);
    for (const Segment &s : a.segments) {
        std::vector<std::string> row = {s.name};
        for (const Field<Segment> &f : kSegmentFields)
            row.push_back(f.cell(s));
        segs.addRow(row);
    }
    segs.print(os);

    auto segLabel = [&](std::size_t s) {
        return s < a.segments.size() ? a.segments[s].name
                                     : "seg_" + std::to_string(s);
    };
    auto blameLine = [&](const std::vector<std::uint64_t> &blamed) {
        std::string out;
        std::size_t best = 0;
        for (std::size_t s = 0; s < blamed.size(); ++s) {
            if (blamed[s] > blamed[best])
                best = s;
            if (blamed[s] == 0)
                continue;
            if (!out.empty())
                out += " ";
            out += segLabel(s) + "=" + std::to_string(blamed[s]);
        }
        if (!out.empty())
            out += "  (dominant: " + segLabel(best) + ")";
        return out;
    };

    if (!a.perModel.empty()) {
        os << "\nviolation blame by model:\n";
        for (const Attribution::ModelBlame &m : a.perModel)
            os << "  " << m.model << ": " << blameLine(m.blamed) << "\n";
    }
    if (!a.perWindow.empty()) {
        os << "\nviolation blame by window (" << a.windowLen << " s):\n";
        for (std::size_t w = 0; w < a.perWindow.size(); ++w) {
            std::string line = blameLine(a.perWindow[w]);
            os << "  [" << static_cast<double>(w) * a.windowLen << ", "
               << static_cast<double>(w + 1) * a.windowLen
               << "): " << (line.empty() ? "-" : line) << "\n";
        }
    }
    return os.str();
}

std::string
renderResilience(const Report &r)
{
    const Resilience &s = r.resilience;
    if (!s.enabled)
        return "";
    std::ostringstream os;
    os << kResilience;
    if (!r.scenario.empty())
        os << ": " << r.scenario << "/" << r.system << " seed " << r.seed;
    os << "\n  fault events: " << s.faultEvents
       << "   restores: " << s.restores << "\n";
    // The counts head the block; the table lists the reals.
    Table t({"metric", kValue});
    for (const Field<Resilience> &f : kResilienceFields) {
        if (f.real)
            t.addRow({f.key, f.cell(s)});
    }
    t.print(os);
    return os.str();
}

std::string
csvField(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
toCsv(const std::vector<Report> &reports)
{
    std::ostringstream os;
    os.precision(10);
    const std::string id =
        std::string(kSystem) + ',' + kScenario + ',' + kSeed + ',';
    auto rowId = [&os](const Report &r) {
        os << csvField(r.system) << ',' << csvField(r.scenario) << ','
           << r.seed << ',';
    };
    auto any = [&reports](auto carries) {
        return std::any_of(reports.begin(), reports.end(), carries);
    };
    os << id << fieldKeys(kScalarFields) << '\n';
    for (const Report &r : reports) {
        rowId(r);
        writeFields(os, r, kScalarFields, false);
        os << '\n';
    }
    if (any([](const Report &r) { return !r.windows.empty(); })) {
        os << '\n' << id << "window," << fieldKeys(kWindowFields) << '\n';
        for (const Report &r : reports) {
            for (std::size_t i = 0; i < r.windows.size(); ++i) {
                rowId(r);
                os << i << ',';
                writeFields(os, r.windows[i], kWindowFields, false);
                os << '\n';
            }
        }
    }
    if (any([](const Report &r) { return !r.counters.empty(); })) {
        os << '\n' << id << "counter," << kValue << '\n';
        for (const Report &r : reports) {
            for (const auto &[name, value] : r.counters) {
                rowId(r);
                os << csvField(name) << ',' << value << '\n';
            }
        }
    }
    if (any([](const Report &r) { return r.attribution.enabled; })) {
        os << '\n' << id << kSegment << ',' << fieldKeys(kSegmentFields)
           << '\n';
        for (const Report &r : reports) {
            for (const Segment &s : r.attribution.segments) {
                rowId(r);
                os << csvField(s.name) << ',';
                writeFields(os, s, kSegmentFields, false);
                os << '\n';
            }
        }
    }
    if (any([](const Report &r) { return r.resilience.enabled; })) {
        os << '\n' << id << fieldKeys(kResilienceFields) << '\n';
        for (const Report &r : reports) {
            if (!r.resilience.enabled)
                continue;
            rowId(r);
            writeFields(os, r.resilience, kResilienceFields, false);
            os << '\n';
        }
    }
    return os.str();
}

} // namespace slinfer

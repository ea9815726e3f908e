#include "metrics/report.hh"

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

std::vector<std::pair<std::string, double>>
reportScalarMetrics(const Report &r)
{
    return {
        {"total_requests", static_cast<double>(r.totalRequests)},
        {"completed", static_cast<double>(r.completed)},
        {"dropped", static_cast<double>(r.dropped)},
        {"slo_met", static_cast<double>(r.sloMet)},
        {"slo_rate", r.sloRate},
        {"avg_cpu_nodes_used", r.avgCpuNodesUsed},
        {"avg_gpu_nodes_used", r.avgGpuNodesUsed},
        {"decode_speed_cpu", r.decodeSpeedCpu},
        {"decode_speed_gpu", r.decodeSpeedGpu},
        {"p50_ttft", r.p50Ttft},
        {"p95_ttft", r.p95Ttft},
        {"gpu_mem_util_mean", r.gpuMemUtilMean},
        {"batch_mean", r.batchMean},
        {"migration_rate", r.migrationRate},
        {"kv_utilization", r.kvUtilization},
        {"scaling_overhead", r.scalingOverhead},
    };
}

std::vector<std::pair<std::string, double>>
reportAttributionMetrics(const Report &r)
{
    std::vector<std::pair<std::string, double>> out;
    if (!r.attribution.enabled)
        return out;
    out.emplace_back("attr_violations",
                     static_cast<double>(r.attribution.violations));
    for (const Report::Attribution::Segment &s : r.attribution.segments) {
        out.emplace_back("seg_" + s.name + "_total_s", s.totalS);
        out.emplace_back("seg_" + s.name + "_p95_s", s.p95s);
        out.emplace_back("seg_" + s.name + "_blamed",
                         static_cast<double>(s.blamed));
    }
    return out;
}

std::vector<std::pair<std::string, double>>
reportResilienceMetrics(const Report &r)
{
    std::vector<std::pair<std::string, double>> out;
    if (!r.resilience.enabled)
        return out;
    const Report::Resilience &s = r.resilience;
    out.emplace_back("res_fault_events",
                     static_cast<double>(s.faultEvents));
    out.emplace_back("res_restores", static_cast<double>(s.restores));
    out.emplace_back("res_availability", s.availability);
    out.emplace_back("res_mttr_mean_s", s.mttrMeanS);
    out.emplace_back("res_degraded_time_s", s.degradedTimeS);
    out.emplace_back("res_lost_per_fault", s.lostPerFault);
    out.emplace_back("res_goodput_fault_rpm", s.goodputFaultRpm);
    out.emplace_back("res_goodput_healthy_rpm", s.goodputHealthyRpm);
    out.emplace_back("res_recovery_mean_s", s.recoveryMeanS);
    return out;
}

void
writeAttributionFields(std::ostream &os, const Report::Attribution &a)
{
    os << "\"requests\": " << a.requests
       << ", \"violations\": " << a.violations << ", \"segments\": [";
    for (std::size_t i = 0; i < a.segments.size(); ++i) {
        const Report::Attribution::Segment &s = a.segments[i];
        os << (i ? ", " : "") << "{\"name\": \"" << jsonEscape(s.name)
           << "\", \"count\": " << s.count << ", \"total_s\": " << s.totalS
           << ", \"p50_s\": " << s.p50s << ", \"p95_s\": " << s.p95s
           << ", \"p99_s\": " << s.p99s << ", \"blamed\": " << s.blamed
           << "}";
    }
    os << "], \"per_model\": [";
    for (std::size_t i = 0; i < a.perModel.size(); ++i) {
        os << (i ? ", " : "") << "{\"model\": \""
           << jsonEscape(a.perModel[i].model) << "\", \"blamed\": [";
        const std::vector<std::uint64_t> &b = a.perModel[i].blamed;
        for (std::size_t j = 0; j < b.size(); ++j)
            os << (j ? ", " : "") << b[j];
        os << "]}";
    }
    os << "], \"window_len\": " << a.windowLen << ", \"per_window\": [";
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
    os << indent << "\"system\": \"" << jsonEscape(r.system) << "\","
       << nl;
    os << indent << "\"scenario\": \"" << jsonEscape(r.scenario) << "\","
       << nl;
    os << indent << "\"seed\": " << r.seed << "," << nl;
    // The integer counters are exact in a double and default ostream
    // formatting prints them without a decimal point, so one loop
    // serializes the whole metric table.
    for (const auto &[key, value] : reportScalarMetrics(r))
        os << indent << "\"" << key << "\": " << value << "," << nl;
    os << indent << "\"ttft_cdf\": [";
    for (std::size_t i = 0; i < r.ttftCdf.size(); ++i) {
        os << (i ? ", " : "") << "[" << r.ttftCdf[i].first << ", "
           << r.ttftCdf[i].second << "]";
    }
    os << "]," << nl;
    os << indent << "\"gpu_timeline\": [";
    for (std::size_t i = 0; i < r.gpuTimeline.size(); ++i) {
        os << (i ? ", " : "") << "[" << r.gpuTimeline[i].first << ", "
           << r.gpuTimeline[i].second << "]";
    }
    os << "]";
    // Windowed rows only when the run was windowed, so unwindowed
    // reports stay byte-identical to the pre-window format.
    if (!r.windows.empty()) {
        os << "," << nl << indent << "\"windows\": [";
        for (std::size_t i = 0; i < r.windows.size(); ++i) {
            const Report::Window &w = r.windows[i];
            os << (i ? ", " : "") << "{\"start\": " << w.start
               << ", \"end\": " << w.end << ", \"arrived\": " << w.arrived
               << ", \"completed\": " << w.completed
               << ", \"dropped\": " << w.dropped
               << ", \"p50_ttft\": " << w.p50Ttft
               << ", \"p95_ttft\": " << w.p95Ttft
               << ", \"completed_per_sec\": " << w.completedPerSec
               << ", \"tokens_per_sec\": " << w.tokensPerSec << "}";
        }
        os << "]";
    }
    // The counters block exists only when the run enabled the
    // flight-recorder counter registry; instrumented-off reports stay
    // byte-identical to the pre-obs format.
    if (!r.counters.empty()) {
        os << "," << nl << indent << "\"counters\": {";
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
        os << "," << nl << indent << "\"attribution\": {";
        writeAttributionFields(os, r.attribution);
        os << "}";
    }
    // Resilience only when the run attached the chaos probe, so
    // chaos-free reports stay byte-identical.
    if (r.resilience.enabled) {
        const Report::Resilience &s = r.resilience;
        os << "," << nl << indent << "\"resilience\": {";
        os << "\"fault_events\": " << s.faultEvents
           << ", \"restores\": " << s.restores
           << ", \"availability\": " << s.availability
           << ", \"mttr_mean_s\": " << s.mttrMeanS
           << ", \"degraded_time_s\": " << s.degradedTimeS
           << ", \"lost_per_fault\": " << s.lostPerFault
           << ", \"goodput_fault_rpm\": " << s.goodputFaultRpm
           << ", \"goodput_healthy_rpm\": " << s.goodputHealthyRpm
           << ", \"recovery_mean_s\": " << s.recoveryMeanS << "}";
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
    r.system = v.string("system");
    r.scenario = v.string("scenario");
    r.seed = count(v.num("seed"), "seed");
    r.totalRequests = count(v.num("total_requests"), "total_requests");
    r.completed = count(v.num("completed"), "completed");
    r.dropped = count(v.num("dropped"), "dropped");
    r.sloMet = count(v.num("slo_met"), "slo_met");
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
    if (const JsonValue *ws = v.find("windows"); ws && ws->isArray()) {
        for (const JsonValue &wv : ws->array) {
            Report::Window w;
            w.start = wv.num("start");
            w.end = wv.num("end");
            w.arrived = count(wv.num("arrived"), "arrived");
            w.completed = count(wv.num("completed"), "completed");
            w.dropped = count(wv.num("dropped"), "dropped");
            w.p50Ttft = wv.num("p50_ttft");
            w.p95Ttft = wv.num("p95_ttft");
            w.completedPerSec = wv.num("completed_per_sec");
            w.tokensPerSec = wv.num("tokens_per_sec");
            r.windows.push_back(w);
        }
    }
    // The attribution block must round-trip: resumed/compacted sweeps
    // aggregate cached reports, and the summary's seg_* metrics have
    // to come out identical to a fresh run's.
    const JsonValue *attr = v.find("attribution");
    if (attr && attr->isObject()) {
        Report::Attribution &a = r.attribution;
        a.enabled = true;
        a.requests = count(attr->num("requests"), "requests");
        a.violations = count(attr->num("violations"), "violations");
        if (const JsonValue *segs = attr->find("segments");
            segs && segs->isArray()) {
            for (const JsonValue &sv : segs->array) {
                Report::Attribution::Segment s;
                s.name = sv.string("name");
                s.count = count(sv.num("count"), "count");
                s.totalS = sv.num("total_s");
                s.p50s = sv.num("p50_s");
                s.p95s = sv.num("p95_s");
                s.p99s = sv.num("p99_s");
                s.blamed = count(sv.num("blamed"), "blamed");
                a.segments.push_back(std::move(s));
            }
        }
        auto blameRow = [&count](const JsonValue &arr) {
            std::vector<std::uint64_t> out;
            for (const JsonValue &e : arr.array)
                out.push_back(count(e.number, "blamed"));
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
        rs.faultEvents = count(res->num("fault_events"), "fault_events");
        rs.restores = count(res->num("restores"), "restores");
        rs.availability = res->num("availability");
        rs.mttrMeanS = res->num("mttr_mean_s");
        rs.degradedTimeS = res->num("degraded_time_s");
        rs.lostPerFault = res->num("lost_per_fault");
        rs.goodputFaultRpm = res->num("goodput_fault_rpm");
        rs.goodputHealthyRpm = res->num("goodput_healthy_rpm");
        rs.recoveryMeanS = res->num("recovery_mean_s");
    }
    if (!bad.empty()) {
        if (err)
            *err = bad;
        return false;
    }
    return true;
}


std::string
reportCsvHeader()
{
    return "system,scenario,seed,total_requests,completed,dropped,"
           "slo_met,slo_rate,avg_cpu_nodes_used,avg_gpu_nodes_used,"
           "decode_speed_cpu,decode_speed_gpu,p50_ttft,p95_ttft,"
           "gpu_mem_util_mean,batch_mean,migration_rate,"
           "kv_utilization,scaling_overhead";
}

std::string
reportWindowsCsvHeader()
{
    return "system,scenario,seed,window,start,end,arrived,completed,"
           "dropped,p50_ttft,p95_ttft,completed_per_sec,tokens_per_sec";
}

std::string
reportCountersCsvHeader()
{
    return "system,scenario,seed,counter,value";
}

std::string
renderAttribution(const Report &r)
{
    const Report::Attribution &a = r.attribution;
    if (!a.enabled)
        return "";
    std::ostringstream os;
    os << "latency anatomy";
    if (!r.scenario.empty())
        os << ": " << r.scenario << "/" << r.system << " seed " << r.seed;
    os << "\n  requests closed: " << a.requests
       << "   slo violations: " << a.violations << "\n\n";

    Table segs({"segment", "count", "total_s", "p50_s", "p95_s", "p99_s",
                "blamed"});
    for (const Report::Attribution::Segment &s : a.segments) {
        segs.addRow({s.name, Table::num((long long)s.count),
                     Table::num(s.totalS, 3), Table::num(s.p50s, 4),
                     Table::num(s.p95s, 4), Table::num(s.p99s, 4),
                     Table::num((long long)s.blamed)});
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
        for (const Report::Attribution::ModelBlame &m : a.perModel)
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
reportAttributionCsvHeader()
{
    return "system,scenario,seed,segment,count,total_s,p50_s,p95_s,"
           "p99_s,blamed";
}

std::string
toAttributionCsvRows(const Report &r)
{
    std::ostringstream os;
    os.precision(10);
    for (const Report::Attribution::Segment &s : r.attribution.segments) {
        os << csvField(r.system) << ',' << csvField(r.scenario) << ','
           << r.seed << ',' << csvField(s.name) << ',' << s.count << ','
           << s.totalS << ',' << s.p50s << ',' << s.p95s << ','
           << s.p99s << ',' << s.blamed << '\n';
    }
    return os.str();
}

std::string
renderResilience(const Report &r)
{
    const Report::Resilience &s = r.resilience;
    if (!s.enabled)
        return "";
    std::ostringstream os;
    os << "resilience";
    if (!r.scenario.empty())
        os << ": " << r.scenario << "/" << r.system << " seed " << r.seed;
    os << "\n  fault events: " << s.faultEvents
       << "   restores: " << s.restores << "\n";
    Table t({"metric", "value"});
    t.addRow({"availability", Table::num(s.availability, 4)});
    t.addRow({"mttr_mean_s", Table::num(s.mttrMeanS, 2)});
    t.addRow({"degraded_time_s", Table::num(s.degradedTimeS, 2)});
    t.addRow({"lost_per_fault", Table::num(s.lostPerFault, 2)});
    t.addRow({"goodput_fault_rpm", Table::num(s.goodputFaultRpm, 2)});
    t.addRow({"goodput_healthy_rpm",
              Table::num(s.goodputHealthyRpm, 2)});
    t.addRow({"recovery_mean_s", Table::num(s.recoveryMeanS, 2)});
    t.print(os);
    return os.str();
}

std::string
reportResilienceCsvHeader()
{
    return "system,scenario,seed,fault_events,restores,availability,"
           "mttr_mean_s,degraded_time_s,lost_per_fault,"
           "goodput_fault_rpm,goodput_healthy_rpm,recovery_mean_s";
}

std::string
toResilienceCsvRows(const Report &r)
{
    if (!r.resilience.enabled)
        return "";
    const Report::Resilience &s = r.resilience;
    std::ostringstream os;
    os.precision(10);
    os << csvField(r.system) << ',' << csvField(r.scenario) << ','
       << r.seed << ',' << s.faultEvents << ',' << s.restores << ','
       << s.availability << ',' << s.mttrMeanS << ','
       << s.degradedTimeS << ',' << s.lostPerFault << ','
       << s.goodputFaultRpm << ',' << s.goodputHealthyRpm << ','
       << s.recoveryMeanS << '\n';
    return os.str();
}

std::string
toCountersCsvRows(const Report &r)
{
    std::ostringstream os;
    for (const auto &[name, value] : r.counters) {
        os << csvField(r.system) << ',' << csvField(r.scenario) << ','
           << r.seed << ',' << csvField(name) << ',' << value << '\n';
    }
    return os.str();
}

std::string
toWindowsCsvRows(const Report &r)
{
    std::ostringstream os;
    os.precision(10);
    for (std::size_t i = 0; i < r.windows.size(); ++i) {
        const Report::Window &w = r.windows[i];
        os << csvField(r.system) << ',' << csvField(r.scenario) << ','
           << r.seed << ',' << i << ',' << w.start << ',' << w.end << ','
           << w.arrived << ',' << w.completed << ',' << w.dropped << ','
           << w.p50Ttft << ',' << w.p95Ttft << ',' << w.completedPerSec
           << ',' << w.tokensPerSec << '\n';
    }
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
toCsvRow(const Report &r)
{
    std::ostringstream os;
    os.precision(10);
    os << csvField(r.system) << ',' << csvField(r.scenario) << ','
       << r.seed << ','
       << r.totalRequests << ',' << r.completed << ',' << r.dropped << ','
       << r.sloMet << ',' << r.sloRate << ',' << r.avgCpuNodesUsed << ','
       << r.avgGpuNodesUsed << ',' << r.decodeSpeedCpu << ','
       << r.decodeSpeedGpu << ',' << r.p50Ttft << ',' << r.p95Ttft << ','
       << r.gpuMemUtilMean << ',' << r.batchMean << ','
       << r.migrationRate << ',' << r.kvUtilization << ','
       << r.scalingOverhead;
    return os.str();
}

} // namespace slinfer

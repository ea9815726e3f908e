#include "sweep/summary.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace slinfer
{
namespace sweep
{

std::string
SummaryRow::key() const
{
    return scenario + "|" + system + "|" + overrideName + "|" + overrides;
}

const MetricSummary *
SummaryRow::metric(const std::string &name) const
{
    for (const auto &[n, m] : metrics) {
        if (n == name)
            return &m;
    }
    return nullptr;
}

MetricSummary
bootstrapSummary(const std::vector<double> &samples, std::uint64_t seed,
                 int iters)
{
    MetricSummary out;
    out.n = samples.size();
    if (samples.empty())
        return out;

    CdfBuilder cdf;
    double sum = 0.0;
    for (double x : samples) {
        cdf.add(x);
        sum += x;
    }
    out.mean = sum / static_cast<double>(samples.size());
    out.p50 = cdf.percentile(50.0);
    out.p99 = cdf.percentile(99.0);

    if (samples.size() == 1 || iters <= 0) {
        out.ciLo = out.ciHi = out.mean;
        return out;
    }

    // Percentile bootstrap on the mean: resample n values with
    // replacement `iters` times and take the 2.5/97.5 percentiles of
    // the resampled means.
    Rng rng(seed);
    CdfBuilder means;
    auto n = static_cast<std::int64_t>(samples.size());
    for (int it = 0; it < iters; ++it) {
        double s = 0.0;
        for (std::int64_t k = 0; k < n; ++k)
            s += samples[rng.uniformInt(0, n - 1)];
        means.add(s / static_cast<double>(n));
    }
    out.ciLo = means.percentile(2.5);
    out.ciHi = means.percentile(97.5);
    return out;
}

std::vector<SummaryRow>
summarize(const std::vector<Record> &records, int bootstrapIters)
{
    // Group in first-appearance order; records arrive in grid order, so
    // the summary inherits the grid's determinism.
    std::vector<SummaryRow> rows;
    std::vector<std::vector<const Record *>> groups;
    for (const Record &rec : records) {
        SummaryRow probe;
        probe.scenario = rec.job.scenario;
        probe.system = systemSlug(rec.job.system);
        probe.overrideName = rec.job.overrides.name;
        probe.overrides = rec.job.overrides.canonical();
        std::size_t g = 0;
        for (; g < rows.size(); ++g) {
            if (rows[g].key() == probe.key())
                break;
        }
        if (g == rows.size()) {
            probe.duration = rec.job.duration;
            rows.push_back(std::move(probe));
            groups.emplace_back();
        }
        groups[g].push_back(&rec);
    }

    for (std::size_t g = 0; g < rows.size(); ++g) {
        SummaryRow &row = rows[g];
        row.replicates = groups[g].size();

        // Metric sample vectors: goodput first, then every report
        // scalar, in reportScalarMetrics() order.
        std::vector<std::pair<std::string, std::vector<double>>> samples;
        samples.emplace_back("goodput_rpm", std::vector<double>{});
        for (const Record *rec : groups[g]) {
            double minutes = rec->job.duration > 0
                                 ? rec->job.duration / 60.0
                                 : 1.0;
            samples[0].second.push_back(
                static_cast<double>(rec->report.sloMet) / minutes);
            auto metrics = reportScalarMetrics(rec->report);
            for (std::size_t m = 0; m < metrics.size(); ++m) {
                if (samples.size() <= m + 1)
                    samples.emplace_back(metrics[m].first,
                                         std::vector<double>{});
                samples[m + 1].second.push_back(metrics[m].second);
            }
            // Attribution and resilience metrics exist only on
            // instrumented runs, so they join by name (a mixed group
            // must not shift the positional scalar columns above).
            for (const auto &[name, value] : reportBlockMetrics(rec->report)) {
                std::size_t idx = 0;
                for (; idx < samples.size(); ++idx) {
                    if (samples[idx].first == name)
                        break;
                }
                if (idx == samples.size())
                    samples.emplace_back(name, std::vector<double>{});
                samples[idx].second.push_back(value);
            }
        }

        for (auto &[name, values] : samples) {
            std::uint64_t seed = fnv1aHash(row.key() + "#" + name);
            row.metrics.emplace_back(
                name, bootstrapSummary(values, seed, bootstrapIters));
        }
    }
    return rows;
}

std::string
summaryToJson(const std::vector<SummaryRow> &rows)
{
    std::ostringstream os;
    os.precision(10);
    os << "{\n  \"sweep_summary\": 1,\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SummaryRow &row = rows[i];
        os << "    {\"scenario\": \"" << jsonEscape(row.scenario)
           << "\", \"system\": \"" << jsonEscape(row.system)
           << "\", \"override_name\": \"" << jsonEscape(row.overrideName)
           << "\", \"overrides\": \"" << jsonEscape(row.overrides)
           << "\", \"replicates\": " << row.replicates
           << ", \"duration\": " << row.duration
           << ", \"metrics\": {\n";
        for (std::size_t m = 0; m < row.metrics.size(); ++m) {
            const auto &[name, s] = row.metrics[m];
            os << "      \"" << name << "\": {\"n\": " << s.n
               << ", \"mean\": " << s.mean << ", \"p50\": " << s.p50
               << ", \"p99\": " << s.p99 << ", \"ci_lo\": " << s.ciLo
               << ", \"ci_hi\": " << s.ciHi << "}"
               << (m + 1 < row.metrics.size() ? "," : "") << "\n";
        }
        os << "    }}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

std::string
summaryToCsv(const std::vector<SummaryRow> &rows)
{
    std::ostringstream os;
    os.precision(10);
    os << "scenario,system,override_name,overrides,replicates,duration,"
          "metric,n,mean,p50,p99,ci_lo,ci_hi\n";
    for (const SummaryRow &row : rows) {
        for (const auto &[name, s] : row.metrics) {
            os << csvField(row.scenario) << ',' << csvField(row.system)
               << ',' << csvField(row.overrideName) << ','
               << csvField(row.overrides) << ',' << row.replicates << ','
               << row.duration << ',' << name << ',' << s.n << ','
               << s.mean << ',' << s.p50 << ',' << s.p99 << ','
               << s.ciLo << ',' << s.ciHi << "\n";
        }
    }
    return os.str();
}

bool
summaryFromJson(const std::string &text, std::vector<SummaryRow> &out,
                std::string *err)
{
    JsonValue v;
    if (!parseJson(text, v, err))
        return false;
    const JsonValue *rows = v.find("rows");
    if (!v.isObject() || !rows || !rows->isArray()) {
        if (err)
            *err = "not a sweep summary (missing \"rows\" array)";
        return false;
    }
    for (const JsonValue &rv : rows->array) {
        SummaryRow row;
        row.scenario = rv.string("scenario");
        row.system = rv.string("system");
        row.overrideName = rv.string("override_name");
        row.overrides = rv.string("overrides");
        row.replicates = static_cast<std::size_t>(rv.num("replicates"));
        row.duration = rv.num("duration");
        const JsonValue *metrics = rv.find("metrics");
        if (metrics && metrics->isObject()) {
            for (const auto &[name, mv] : metrics->object) {
                MetricSummary s;
                s.n = static_cast<std::size_t>(mv.num("n"));
                s.mean = mv.num("mean");
                s.p50 = mv.num("p50");
                s.p99 = mv.num("p99");
                s.ciLo = mv.num("ci_lo");
                s.ciHi = mv.num("ci_hi");
                row.metrics.emplace_back(name, s);
            }
        }
        out.push_back(std::move(row));
    }
    return true;
}

} // namespace sweep
} // namespace slinfer

/**
 * @file
 * Simulator throughput: the repo's perf-trajectory bench for the whole
 * serving simulation (DESIGN.md, "How BENCH_sim_throughput.json points
 * are produced").
 *
 * It times the real `azure-64` catalog experiment (the paper's
 * mid-scale evaluation) three ways: plain, with the flight recorder's
 * hot-path counters, and with the latency-anatomy ledger. Each is
 * best of --repeat runs, reported as requests/sec.
 *
 * Output: a human table on stdout, optionally
 *   --json=<file>            freeform trajectory doc (BENCH_*.json)
 *   --write-baseline=<file>  machine summary for the CI gate
 *   --compare=<file>         gate the on/off ratios against a
 *                            baseline via sweep::compare (ratios are
 *                            host-comparable; absolute requests/sec
 *                            is recorded but not gated)
 *   --tolerance=<frac>       allowed ratio drop (default 0.50)
 *   --repeat=<r>
 * Exit code: 0 ok, 1 gate failure, 2 usage error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/table.hh"
#include "scenario/scenario.hh"
#include "sweep/compare.hh"
#include "sweep/summary.hh"

using namespace slinfer;

namespace
{

/** Requests/sec of the best of `repeat` runs of `cfg`. */
double
requestsPerSec(const ExperimentConfig &cfg, int repeat)
{
    double best = 0.0;
    for (int r = 0; r < repeat; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        Report rep = runExperiment(cfg);
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        if (wall > 0)
            best = std::max(
                best, static_cast<double>(rep.totalRequests) / wall);
    }
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
        if (arg.rfind("--repeat=", 0) == 0) {
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
    if (repeat <= 0) {
        std::fprintf(stderr, "--repeat must be positive\n");
        return 2;
    }

    setLogLevel(LogLevel::Warn);

    const scenario::Scenario *sc = scenario::byName("azure-64");
    if (!sc)
        fatal("bench_sim_throughput: azure-64 missing from the catalog");
    ExperimentConfig cfg = sc->toExperiment(SystemKind::Slinfer, sc->seed);
    double req_per_sec = requestsPerSec(cfg, repeat);
    // The flight-recorder points: the same experiment with hot-path
    // counters attached (obs/counters.hh), then with the anatomy
    // ledger. Each ratio bounds what --counters or --explain costs a
    // whole run.
    ExperimentConfig ctr_cfg = cfg;
    ctr_cfg.obs.counters = true;
    double ctr_req_per_sec = requestsPerSec(ctr_cfg, repeat);
    ExperimentConfig attr_cfg = cfg;
    attr_cfg.obs.anatomy = true;
    double attr_req_per_sec = requestsPerSec(attr_cfg, repeat);
    double counters_ratio =
        req_per_sec > 0 ? ctr_req_per_sec / req_per_sec : 0.0;
    double attribution_ratio =
        req_per_sec > 0 ? attr_req_per_sec / req_per_sec : 0.0;

    Table t({"metric", "value"});
    t.addRow({"azure-64 requests/sec", Table::num(req_per_sec, 0)});
    t.addRow({"azure-64 req/sec (counters)",
              Table::num(ctr_req_per_sec, 0)});
    t.addRow({"counters-on/off ratio", Table::num(counters_ratio, 2) + "x"});
    t.addRow({"azure-64 req/sec (attribution)",
              Table::num(attr_req_per_sec, 0)});
    t.addRow({"attribution-on/off ratio",
              Table::num(attribution_ratio, 2) + "x"});
    std::printf("simulator throughput (azure-64, best of %d)\n", repeat);
    t.print();

    sweep::SummaryRow row;
    row.scenario = "sim-throughput";
    row.system = "bench";
    row.replicates = 1;
    row.duration = 0.0;
    row.metrics = {
        {"exp_requests_per_sec", point(req_per_sec)},
        {"exp_requests_per_sec_counters", point(ctr_req_per_sec)},
        {"counters_on_off_ratio", point(counters_ratio)},
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
            "  \"description\": \"Wall-clock of the azure-64 catalog "
            "experiment under SLINFER (best of %d), plain, with hot-path "
            "counters and with the anatomy ledger. Regenerate with: "
            "./build/bench/bench_sim_throughput "
            "--json=BENCH_sim_throughput.json\",\n"
            "  \"azure64_requests_per_sec\": %.0f,\n"
            "  \"azure64_requests_per_sec_counters\": %.0f,\n"
            "  \"counters_on_off_ratio\": %.2f,\n"
            "  \"azure64_requests_per_sec_attribution\": %.0f,\n"
            "  \"attribution_on_off_ratio\": %.2f\n"
            "}\n",
            repeat, req_per_sec, ctr_req_per_sec, counters_ratio,
            attr_req_per_sec, attribution_ratio);
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
        // the same experiment in the same process, so the number is
        // host-comparable, while absolute requests/sec depends on the
        // host the baseline was recorded on and would flake on slower
        // CI runners. Absolute numbers are still recorded and shown
        // in the drift table of any baseline that carries them.
        // counters_on_off_ratio guards the flight recorder's "cheap
        // when on" claim: attaching counters must not crater a run,
        // and attribution_on_off_ratio does the same for the anatomy
        // ledger.
        opts.metrics = {
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

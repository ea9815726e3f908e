/**
 * @file
 * Quickstart: run the "quickstart" catalog scenario — a handful of
 * private LLMs on a small heterogeneous cluster (1 AMX CPU node +
 * 1 A100) driven by a serverless-style trace — and print the report.
 *
 * The same experiment is available from the command line:
 *   ./build/slinfer_run --scenario=quickstart
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cinttypes>
#include <cstdio>

#include "scenario/scenario.hh"

using namespace slinfer;

int
main()
{
    // Pick a declarative scenario from the catalog and a system.
    const scenario::Scenario *sc = scenario::byName("quickstart");
    if (!sc) {
        std::fprintf(stderr, "catalog is missing 'quickstart'\n");
        return 1;
    }
    Report report = scenario::runScenario(*sc, SystemKind::Slinfer);

    std::printf("scenario:      %s (%s)\n", sc->name.c_str(),
                sc->summary.c_str());
    std::printf("system:        %s\n", report.system.c_str());
    std::printf("requests:      %" PRIu64 " (completed %" PRIu64
                ", dropped %" PRIu64 ")\n",
                report.totalRequests, report.completed, report.dropped);
    std::printf("SLO attainment: %.1f%%\n", report.sloRate * 100.0);
    std::printf("median TTFT:   %.2f s (p95 %.2f s)\n", report.p50Ttft,
                report.p95Ttft);
    std::printf("nodes used:    %.1f CPU + %.1f GPU\n",
                report.avgCpuNodesUsed, report.avgGpuNodesUsed);
    std::printf("decode speed:  %.0f tok/(CPU-node*s), %.0f "
                "tok/(GPU-node*s)\n",
                report.decodeSpeedCpu, report.decodeSpeedGpu);
    return 0;
}

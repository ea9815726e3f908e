/**
 * @file
 * Sweep orchestration: declarative experiment grids executed in
 * parallel with resumable on-disk results.
 *
 * A Grid is the cross product scenarios x systems x seeds x override
 * sets. expandGrid() lowers it into an ordered list of JobSpecs, each
 * an independent experiment identified by a stable config hash.
 * runGrid() executes the jobs on a work-stealing pool (pool.hh) —
 * every job builds its own Simulator/Experiment, so nothing mutable
 * crosses threads — streams each finished Report into the ResultStore
 * (store.hh) and returns the records in grid order, so aggregated
 * output is byte-identical no matter how many workers ran or in what
 * order jobs finished. Re-running a grid against the same store skips
 * jobs whose hash is already present (resume-from-partial).
 *
 * Consumers: the slinfer_sweep CLI (tools/), the cross-seed summary
 * (summary.hh) and the perf-regression gate (compare.hh).
 */

#ifndef SLINFER_SWEEP_SWEEP_HH
#define SLINFER_SWEEP_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "metrics/report.hh"

namespace slinfer
{
namespace sweep
{

/**
 * One named set of config overrides applied on top of a scenario's
 * ExperimentConfig. Supported keys: cpu-nodes, gpu-nodes, keep-alive,
 * watermark, overestimate, tpot-slo. Unknown keys are fatal at
 * expansion time, not silently ignored mid-sweep.
 */
struct OverrideSet
{
    /** Label for reports ("" = the scenario's stock config). */
    std::string name;
    /** (key, value) pairs, applied in order. */
    std::vector<std::pair<std::string, std::string>> settings;

    /** Canonical "k=v;k=v" form (stable hashing / storage). */
    std::string canonical() const;
};

/** Parse the canonical "k=v;k=v" form back into settings; false +
 *  *err on malformed settings. */
bool tryParseOverrideSettings(
    const std::string &canonical,
    std::vector<std::pair<std::string, std::string>> &out,
    std::string *err);

/**
 * Parse a full override spec "name: k=v; k=v" (the name part is
 * optional); used by both the manifest and the CLI --override flag so
 * the two grammars cannot drift. Name and values are trimmed.
 */
bool parseOverrideSpec(const std::string &spec, OverrideSet &out,
                       std::string *err);

/** FNV-1a 64-bit over a string: the sweep subsystem's one stable hash
 *  (job keys in the store, bootstrap seeds in the summary). */
std::uint64_t fnv1aHash(const std::string &s);

/**
 * Strict numeric parsing shared by the manifest and both tools' flags:
 * the whole token must be consumed. parseCount takes plain decimal
 * digits only (no sign, no whitespace) and rejects values that
 * overflow 64 bits; parseReal takes a finite decimal number that does
 * not over- or underflow. False on anything else (`out` unspecified).
 */
bool parseCount(const std::string &tok, std::uint64_t &out);
bool parseReal(const std::string &tok, double &out);

/**
 * Parse a seed list — "1,2,3" or a range "1..5" — strictly: every
 * token must be a plain nonnegative integer and a range must be
 * ascending and < 100000 wide. Shared by the manifest and the CLI
 * --seeds flag. False + *err on malformed input.
 */
bool parseSeedList(const std::string &text,
                   std::vector<std::uint64_t> &out, std::string *err);

/** A declarative sweep grid. */
struct Grid
{
    /** Catalog scenario names (scenario/catalog.cc). */
    std::vector<std::string> scenarios;
    std::vector<SystemKind> systems;
    std::vector<std::uint64_t> seeds;
    /** Override sets; empty means one stock-config set. */
    std::vector<OverrideSet> overrides;
};

/**
 * Parse a sweep manifest: `key = value` lines, '#' comments.
 *
 *   scenarios = quickstart, poisson-steady
 *   systems   = slinfer, sllm
 *   seeds     = 1..3            # or 1,2,3
 *   override  = small: cpu-nodes=2; gpu-nodes=2   # repeatable
 *
 * Returns false with a message in *err on malformed input.
 */
bool parseManifest(const std::string &text, Grid &out, std::string *err);

/** One expanded job: a single independent experiment. */
struct JobSpec
{
    std::string scenario;
    SystemKind system = SystemKind::Slinfer;
    std::uint64_t seed = 0;
    OverrideSet overrides;
    /** Experiment window, stamped from the catalog at expansion. */
    Seconds duration = 0.0;

    /** Canonical spec string (the hash input). */
    std::string key() const;
    /** 16-hex-digit FNV-1a hash of key(): the result-store key. */
    std::string hash() const;
};

/**
 * Expand the grid in deterministic order (scenario-major, then system,
 * override set, seed). Unknown scenario names and empty axes are fatal.
 */
std::vector<JobSpec> expandGrid(const Grid &grid);

/** Apply one override set to an experiment config (fatal: unknown key). */
ExperimentConfig applyOverrides(ExperimentConfig cfg,
                                const OverrideSet &overrides);

/** Run one job to completion (scenario lookup + overrides + harness).
 *  `phaseProfile` turns on wall-clock phase attribution (obs/phase.hh);
 *  it never changes the report's bytes. `attribution` enables the
 *  latency-anatomy ledger (obs/anatomy.hh), which adds the report's
 *  "attribution" block without touching any other byte. */
Report runJob(const JobSpec &job, bool phaseProfile = false,
              bool attribution = false);

/** One finished job: its spec plus the report it produced. */
struct Record
{
    JobSpec job;
    Report report;
};

/** Progress callback payload (invoked under a lock, in completion
 *  order; `done` counts both executed and store-cached jobs). */
struct Progress
{
    std::size_t done = 0;
    std::size_t total = 0;
    const JobSpec *job = nullptr;
    /** True when the result came from the store, not a fresh run. */
    bool cached = false;
};

struct RunOptions
{
    /** Worker threads; <= 0 uses pool.hh's defaultJobs(). */
    int jobs = 0;
    /** JSONL result store path; "" runs in memory (no resume). */
    std::string storePath;
    std::function<void(const Progress &)> onProgress;
    /** Attribute wall-clock time to sim phases (event dispatch,
     *  controller decide, memory ops); read the totals back with
     *  obs::phaseTotalsSnapshot(). Reports are unaffected. */
    bool phaseProfile = false;
    /** Run every job with the latency-anatomy ledger on: reports grow
     *  an "attribution" block and the summary gains seg_* metrics.
     *  All pre-existing report bytes are unchanged. */
    bool attribution = false;
};

/** Execution accounting for progress/perf reporting. */
struct RunStats
{
    std::size_t executed = 0;
    std::size_t cached = 0;
    double wallSeconds = 0.0;
};

/**
 * Run every job of the grid (skipping those already in the store) and
 * return the records in grid order. On success the store file is
 * compacted into that same order, so its bytes are independent of
 * worker count and completion order.
 */
std::vector<Record> runGrid(const Grid &grid, const RunOptions &opts = {},
                            RunStats *stats = nullptr);

} // namespace sweep
} // namespace slinfer

#endif // SLINFER_SWEEP_SWEEP_HH

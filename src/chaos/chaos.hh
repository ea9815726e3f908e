/**
 * @file
 * Chaos engine: stochastic, correlated fault processes compiled into
 * deterministic intervention timelines.
 *
 * A FaultProcess is a parameterized generator of faults — Poisson
 * MTBF/MTTR node flaps, correlated blast-radius failures that take a
 * whole node group out at once, straggler degradation, and PD-network
 * brownouts. generateChaosTimeline() expands a ChaosConfig into a
 * plain Timeline (harness/intervention.hh) *before the run starts*,
 * seeded from the experiment seed: same seed ⇒ the same fault schedule
 * at any sweep `--jobs`, because the events ride the ordinary Session
 * timeline/inject path.
 *
 * The generated timeline is validated like any hand-written one
 * (ExperimentConfig::validate), so processes whose node ranges overlap
 * for fail-kind faults are rejected up front rather than producing
 * duplicate node-fail events.
 */

#ifndef SLINFER_CHAOS_CHAOS_HH
#define SLINFER_CHAOS_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/intervention.hh"

namespace slinfer
{
namespace chaos
{

/** One stochastic fault generator over a node range. */
struct FaultProcess
{
    enum class Kind
    {
        /** Independent Poisson flaps per node in [firstNode,
         *  lastNode]: exponential healthy periods of mean `mtbf`,
         *  exponential repair of mean `mttr` (floored at 1 s). */
        NodeFlap,
        /** Correlated blast radius: every node in the range fails at
         *  `at` and restores together after `hold` seconds. */
        CorrelatedFailure,
        /** Straggler: nodes in the range run `factor` x slower from
         *  `at` for `hold` seconds. */
        Straggler,
        /** PD-network brownout: KV transfers run `factor` x slower
         *  fleet-wide from `at` for `hold` seconds. */
        NetBrownout,
    };

    Kind kind = Kind::NodeFlap;
    /** Inclusive node-id range the process targets (ignored for
     *  NetBrownout, which is fleet-wide). */
    int firstNode = 0;
    int lastNode = 0;
    /** NodeFlap: mean time between failures / to repair, seconds. */
    double mtbf = 600.0;
    double mttr = 60.0;
    /** One-shot kinds: fire time and fault duration, seconds. */
    Seconds at = 0.0;
    Seconds hold = 120.0;
    /** Straggler latency / NetBrownout transfer multiplier. */
    double factor = 4.0;
};

/** Spec slug of the kind ("flap", "blast", "straggler", "brownout"). */
const char *faultKindName(FaultProcess::Kind kind);

struct ChaosConfig
{
    std::vector<FaultProcess> processes;
    bool enabled() const { return !processes.empty(); }
};

/**
 * Expand the config into a time-sorted intervention schedule over
 * [0, duration]. Pure function of its arguments — the generator draws
 * from Rng(seed).fork(kChaosTag) with per-process and per-node
 * sub-forks, so adding a process or widening a range never reshuffles
 * another process's draws. Restores that would land past `duration`
 * clamp to it, keeping every fail/restore pair well-formed.
 */
Timeline generateChaosTimeline(const ChaosConfig &cfg, Seconds duration,
                               std::uint64_t seed);

/**
 * Parse the `--chaos` spec grammar: ';'-separated processes, each
 * `kind[:key=value,...]` with kinds flap|blast|straggler|brownout and
 * keys nodes=<a>-<b>|<a>, mtbf=<s>, mttr=<s>, at=<s>, for=<s>,
 * factor=<x>. Example:
 *   "blast:nodes=4-5,at=300,for=180;straggler:nodes=6,at=100,factor=3"
 * Returns false (and fills *err when non-null) on malformed specs.
 */
bool parseChaosSpec(const std::string &spec, ChaosConfig &out,
                    std::string *err);

} // namespace chaos
} // namespace slinfer

#endif // SLINFER_CHAOS_CHAOS_HH

/**
 * @file
 * Mid-run interventions: scripted or programmatic mutations a Session
 * applies to a live experiment (harness/session.hh).
 *
 * An Intervention is plain data. The Session routes each kind to the
 * right layer when it fires: node failure/restore and model
 * deploy/redeploy/retire go through the ControllerBase intervention
 * hooks (core/controller.hh), arrival scaling and bursts mutate the
 * Session's own arrival schedule. A time-stamped list of interventions
 * forms a *timeline*; ExperimentConfig carries one so scenarios can
 * embed scripted fault/deploy/surge sequences (parse one from JSON
 * with scenario::parseTimeline, or pass `--timeline file.json` to
 * slinfer_run).
 */

#ifndef SLINFER_HARNESS_INTERVENTION_HH
#define SLINFER_HARNESS_INTERVENTION_HH

#include <string>
#include <vector>

#include "hw/model_spec.hh"

namespace slinfer
{

struct Intervention
{
    enum class Kind
    {
        /** Fence a node: its partitions stop accepting placements,
         *  in-flight requests migrate off, residents unload. */
        NodeFail,
        /** Reopen a failed node for placement. */
        NodeRestore,
        /** Append `spec` to the fleet as a new model id. */
        ModelDeploy,
        /** Roll out a new version of model `model` in place: drain its
         *  instances so subsequent requests cold-start fresh ones. */
        ModelRedeploy,
        /** Retire model `model`: cancel its future arrivals, drop its
         *  in-flight requests, unload its instances. */
        ModelRetire,
        /** Scale all future arrivals by `factor` (thin below 1,
         *  clone above 1); `model` >= 0 restricts to one model. */
        ArrivalScale,
        /** Inject a Poisson burst of `rpm` requests/minute for
         *  `model`, lasting `duration` seconds. */
        ArrivalBurst,
        /** Straggler: multiply node `node`'s perf-model iteration
         *  latencies by `factor` (> 1 slows it down). Orthogonal to
         *  NodeFail — a degraded node still accepts placements. */
        NodeDegrade,
        /** Reset node `node`'s degradation multiplier to 1. */
        NodeRecover,
        /** Network brownout: multiply PD KV-transfer times by
         *  `factor` fleet-wide until NetRestore. */
        NetBrownout,
        /** End a network brownout (transfer multiplier back to 1). */
        NetRestore,
    };

    Kind kind = Kind::NodeFail;
    /** Fire time (timeline use; Session::inject applies at now()). */
    Seconds at = 0.0;
    /** Target node (NodeFail / NodeRestore). */
    int node = -1;
    /** Target model (ModelRedeploy / ModelRetire / ArrivalBurst;
     *  optional filter for ArrivalScale). */
    int model = -1;
    /** Deployed model (ModelDeploy). */
    ModelSpec spec;
    /** Arrival multiplier (ArrivalScale), perf-latency multiplier
     *  (NodeDegrade), or KV-transfer multiplier (NetBrownout). */
    double factor = 1.0;
    /** Burst rate, requests/minute (ArrivalBurst). */
    double rpm = 0.0;
    /** Burst length, seconds (ArrivalBurst). */
    Seconds duration = 0.0;
};

/** Most arrivals a burst may expect (rpm / 60 * duration): a burst
 *  materializes them all when it fires, each a 144-byte request plus
 *  an event, so 10^5 stay in the tens of MB (the catalog's expects
 *  180). */
constexpr double kMaxBurstArrivals = 1e5;
/** Fastest burst rate, requests/minute (10^5/s). A burst steps its
 *  clock by exponential gaps; a mean gap near one ulp of the clock
 *  stops it advancing and the burst allocates without bound. 10 us is
 *  about 100 ulps of a clock at 10^9 s. */
constexpr double kMaxBurstRpm = 6e6;

/** Why ArrivalBurst `iv` breaks a burst bound, "" if it does not. */
std::string burstBoundError(const Intervention &iv);

/** Timeline slug of the kind ("node-fail", "model-redeploy", ...). */
const char *interventionKindName(Intervention::Kind kind);

/** Parse a timeline slug; false on unknown names. */
bool tryParseInterventionKind(const std::string &name,
                              Intervention::Kind &out);

/** A scripted intervention sequence, ordered by `at`. */
using Timeline = std::vector<Intervention>;

} // namespace slinfer

#endif // SLINFER_HARNESS_INTERVENTION_HH

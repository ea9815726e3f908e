#include "harness/experiment.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/log.hh"
#include "harness/session.hh"

namespace slinfer
{

std::vector<std::unique_ptr<Node>>
buildCluster(const ClusterSpec &cluster, int partitionsPerNode)
{
    std::vector<std::unique_ptr<Node>> nodes;
    NodeId id = 0;
    for (int i = 0; i < cluster.cpuNodes; ++i) {
        nodes.push_back(std::make_unique<Node>(id++, cluster.cpuSpec,
                                               partitionsPerNode));
    }
    for (int i = 0; i < cluster.gpuNodes; ++i) {
        nodes.push_back(std::make_unique<Node>(id++, cluster.gpuSpec,
                                               partitionsPerNode));
    }
    return nodes;
}

std::vector<ModelSpec>
replicateModel(const ModelSpec &spec, int count)
{
    std::vector<ModelSpec> models;
    models.reserve(count);
    for (int i = 0; i < count; ++i) {
        ModelSpec m = spec;
        m.name = spec.name; // replicas share the profile key
        models.push_back(std::move(m));
    }
    return models;
}

void
ExperimentConfig::checkTimelineHorizon(Seconds horizon) const
{
    for (const Intervention &iv : timeline) {
        if (iv.at > horizon + 1e-9)
            fatal(std::string("ExperimentConfig: timeline '") +
                  interventionKindName(iv.kind) + "' at t=" +
                  std::to_string(iv.at) +
                  " is scheduled past the experiment duration (" +
                  std::to_string(horizon) +
                  " s); it would never fire");
    }
}

void
ExperimentConfig::validate() const
{
    if (models.empty())
        fatal("ExperimentConfig: no models configured");
    if (arrivals && !trace.arrivals.empty())
        fatal("ExperimentConfig: both `arrivals` and `trace` are set");
    if (!stream.tracePath.empty() &&
        (arrivals || !trace.arrivals.empty()))
        fatal("ExperimentConfig: `stream.tracePath` is mutually "
              "exclusive with `arrivals`/`trace`");
    if (stream.lookahead == 0)
        fatal("ExperimentConfig: `stream.lookahead` must be positive");

    // The duration stamped by the arrival process / trace generator is
    // authoritative; an explicitly configured duration must agree.
    // A .strc replay stamps its duration from the file header, which
    // validate() cannot read — Session checks agreement after opening.
    Seconds stamped = arrivals ? arrivals->duration() : trace.duration;
    if (duration > 0 && stamped > 0 &&
        std::abs(duration - stamped) > 1e-9) {
        fatal("ExperimentConfig: `duration` disagrees with the trace "
              "duration; the trace/scenario is the source of truth");
    }
    if (duration <= 0 && stamped <= 0 && stream.tracePath.empty())
        fatal("ExperimentConfig: no duration configured");

    if (!datasetPerModel.empty() && datasetPerModel.size() != models.size())
        fatal("ExperimentConfig: datasetPerModel must have one entry "
              "per model");
    if (windows < 0)
        fatal("ExperimentConfig: negative `windows`");

    // Timeline well-formedness. Events past the metrics window would
    // silently never fire ("dead events"), so they are rejected too.
    // horizon <= 0 only for a .strc replay, whose duration is known
    // once the file opens: Session runs the check then.
    Seconds horizon = duration > 0 ? duration : stamped;
    if (horizon > 0)
        checkTimelineHorizon(horizon);
    int totalNodes = cluster.cpuNodes + cluster.gpuNodes;
    for (const Intervention &iv : timeline) {
        std::string name = interventionKindName(iv.kind);
        if (iv.at < 0)
            fatal("ExperimentConfig: timeline '" + name +
                  "' scheduled before t=0");
        switch (iv.kind) {
          case Intervention::Kind::NodeFail:
          case Intervention::Kind::NodeRestore:
          case Intervention::Kind::NodeDegrade:
          case Intervention::Kind::NodeRecover:
            if (iv.node < 0)
                fatal("ExperimentConfig: timeline '" + name +
                      "' needs `node`");
            if (iv.node >= totalNodes)
                fatal("ExperimentConfig: timeline '" + name +
                      "' references unknown node " +
                      std::to_string(iv.node) + " (cluster has " +
                      std::to_string(totalNodes) + " nodes)");
            break;
          case Intervention::Kind::ModelRedeploy:
          case Intervention::Kind::ModelRetire:
          case Intervention::Kind::ArrivalBurst:
            if (iv.model < 0)
                fatal("ExperimentConfig: timeline '" + name +
                      "' needs `model`");
            break;
          case Intervention::Kind::ModelDeploy:
            if (iv.spec.name.empty())
                fatal("ExperimentConfig: timeline 'model-deploy' needs "
                      "`spec`");
            break;
          case Intervention::Kind::ArrivalScale:
            if (iv.factor < 0)
                fatal("ExperimentConfig: timeline 'arrival-scale' "
                      "needs a nonnegative `factor`");
            break;
          case Intervention::Kind::NetBrownout:
            if (iv.factor <= 0)
                fatal("ExperimentConfig: timeline 'net-brownout' "
                      "needs a positive `factor`");
            break;
          case Intervention::Kind::NetRestore:
            break;
        }
        if (iv.kind == Intervention::Kind::NodeDegrade &&
            iv.factor <= 0) {
            fatal("ExperimentConfig: timeline 'node-degrade' needs a "
                  "positive `factor`");
        }
        if (iv.kind == Intervention::Kind::ArrivalBurst &&
            (iv.rpm <= 0 || iv.duration <= 0)) {
            fatal("ExperimentConfig: timeline 'arrival-burst' needs "
                  "positive `rpm` and `duration`");
        }
    }

    // Per-node fail/restore pairing: replay the fail-kind events in
    // fire order and reject sequences that would hit the hooks' silent
    // no-op path (duplicate fails, restores of healthy nodes) — a
    // scripted timeline doing that is almost certainly a typo'd node
    // id or a missing restore. Equal-time events apply in timeline
    // order, matching how the Session arms them.
    std::vector<std::size_t> order(timeline.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return timeline[a].at < timeline[b].at;
                     });
    std::map<int, bool> nodeFailed;
    for (std::size_t idx : order) {
        const Intervention &iv = timeline[idx];
        if (iv.kind == Intervention::Kind::NodeFail) {
            if (nodeFailed[iv.node])
                fatal("ExperimentConfig: duplicate node-fail on node " +
                      std::to_string(iv.node) + " at t=" +
                      std::to_string(iv.at) +
                      " (it is already failed; missing node-restore?)");
            nodeFailed[iv.node] = true;
        } else if (iv.kind == Intervention::Kind::NodeRestore) {
            if (!nodeFailed[iv.node])
                fatal("ExperimentConfig: node-restore on node " +
                      std::to_string(iv.node) + " at t=" +
                      std::to_string(iv.at) +
                      " without a preceding node-fail");
            nodeFailed[iv.node] = false;
        }
    }
}

Report
runExperiment(const ExperimentConfig &cfg)
{
    Session session(cfg);
    session.advanceTo(session.duration());
    return session.finish();
}

} // namespace slinfer

#include "harness/systems.hh"

#include "baselines/sllm.hh"
#include "common/log.hh"

namespace slinfer
{

const char *
systemName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Sllm: return "sllm";
      case SystemKind::SllmC: return "sllm+c";
      case SystemKind::SllmCS: return "sllm+c+s";
      case SystemKind::Slinfer: return "SLINFER";
      case SystemKind::SlinferNoCpu: return "SLINFER w/o CPU";
      case SystemKind::SlinferNoConsolidation:
        return "SLINFER w/o Consolidation";
      case SystemKind::SlinferNoSharing: return "SLINFER w/o Sharing";
      case SystemKind::SllmCsPD: return "sllm+c+s (PD-disagg)";
      case SystemKind::SlinferPD: return "SLINFER (PD-disagg)";
    }
    return "?";
}

const char *
systemSlug(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Sllm: return "sllm";
      case SystemKind::SllmC: return "sllm+c";
      case SystemKind::SllmCS: return "sllm+c+s";
      case SystemKind::Slinfer: return "slinfer";
      case SystemKind::SlinferNoCpu: return "slinfer-no-cpu";
      case SystemKind::SlinferNoConsolidation:
        return "slinfer-no-consolidation";
      case SystemKind::SlinferNoSharing: return "slinfer-no-sharing";
      case SystemKind::SllmCsPD: return "sllm+c+s-pd";
      case SystemKind::SlinferPD: return "slinfer-pd";
    }
    return "?";
}

const std::vector<SystemKind> &
allSystems()
{
    static const std::vector<SystemKind> kinds = {
        SystemKind::Sllm,
        SystemKind::SllmC,
        SystemKind::SllmCS,
        SystemKind::Slinfer,
        SystemKind::SlinferNoCpu,
        SystemKind::SlinferNoConsolidation,
        SystemKind::SlinferNoSharing,
        SystemKind::SllmCsPD,
        SystemKind::SlinferPD,
    };
    return kinds;
}

SystemKind
parseSystem(const std::string &name)
{
    SystemKind kind;
    if (tryParseSystem(name, kind))
        return kind;
    std::string known;
    for (SystemKind k : allSystems())
        known += std::string(known.empty() ? "" : ", ") + systemSlug(k);
    fatal("unknown system '" + name + "' (try one of: " + known + ")");
}

bool
tryParseSystem(const std::string &name, SystemKind &out)
{
    for (SystemKind kind : allSystems()) {
        if (name == systemSlug(kind) || name == systemName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

int
systemPartitions(SystemKind kind)
{
    switch (kind) {
      case SystemKind::SllmCS:
      case SystemKind::SllmCsPD:
        return 2;
      default:
        return 1;
    }
}

std::unique_ptr<ControllerBase>
makeSystem(SystemKind kind, Simulator &sim, ClusterHandle &cluster,
           std::vector<ModelSpec> modelSpecs,
           std::vector<double> initialAvgOutput, ControllerConfig cfg,
           Recorder &recorder)
{
    std::vector<std::unique_ptr<Node>> &nodes = cluster.nodes;
    ClusterStats *stats = cluster.stats;
    switch (kind) {
      case SystemKind::Sllm: {
        SllmOptions opts;
        cfg.useCpu = false;
        return std::make_unique<SllmController>(
            sim, nodes, std::move(modelSpecs), std::move(initialAvgOutput),
            cfg, recorder, stats, opts);
      }
      case SystemKind::SllmC: {
        SllmOptions opts;
        cfg.useCpu = true;
        return std::make_unique<SllmController>(
            sim, nodes, std::move(modelSpecs), std::move(initialAvgOutput),
            cfg, recorder, stats, opts);
      }
      case SystemKind::SllmCS: {
        SllmOptions opts;
        cfg.useCpu = true;
        opts.staticShare = true;
        return std::make_unique<SllmController>(
            sim, nodes, std::move(modelSpecs), std::move(initialAvgOutput),
            cfg, recorder, stats, opts);
      }
      case SystemKind::SllmCsPD: {
        SllmOptions opts;
        cfg.useCpu = true;
        opts.staticShare = true;
        cfg.pdDisaggregation = true;
        return std::make_unique<SllmController>(
            sim, nodes, std::move(modelSpecs), std::move(initialAvgOutput),
            cfg, recorder, stats, opts);
      }
      case SystemKind::Slinfer:
        break;
      case SystemKind::SlinferNoCpu:
        cfg.useCpu = false;
        break;
      case SystemKind::SlinferNoConsolidation:
        cfg.enableConsolidation = false;
        break;
      case SystemKind::SlinferNoSharing:
        cfg.enableSharing = false;
        break;
      case SystemKind::SlinferPD:
        cfg.pdDisaggregation = true;
        break;
    }
    return std::make_unique<SlinferController>(
        sim, nodes, std::move(modelSpecs), std::move(initialAvgOutput),
        cfg, recorder, stats);
}

} // namespace slinfer

#include "harness/intervention.hh"

namespace slinfer
{

const char *
interventionKindName(Intervention::Kind kind)
{
    switch (kind) {
      case Intervention::Kind::NodeFail: return "node-fail";
      case Intervention::Kind::NodeRestore: return "node-restore";
      case Intervention::Kind::ModelDeploy: return "model-deploy";
      case Intervention::Kind::ModelRedeploy: return "model-redeploy";
      case Intervention::Kind::ModelRetire: return "model-retire";
      case Intervention::Kind::ArrivalScale: return "arrival-scale";
      case Intervention::Kind::ArrivalBurst: return "arrival-burst";
      case Intervention::Kind::NodeDegrade: return "node-degrade";
      case Intervention::Kind::NodeRecover: return "node-recover";
      case Intervention::Kind::NetBrownout: return "net-brownout";
      case Intervention::Kind::NetRestore: return "net-restore";
    }
    return "?";
}

std::string
burstBoundError(const Intervention &iv)
{
    if (iv.kind != Intervention::Kind::ArrivalBurst)
        return "";
    if (iv.rpm > kMaxBurstRpm)
        return "\"rpm\" exceeds the burst rate bound (" +
               std::to_string(static_cast<long long>(kMaxBurstRpm)) +
               " requests/minute)";
    if (iv.rpm / 60.0 * iv.duration > kMaxBurstArrivals)
        return "\"rpm\" over \"duration\" expects more than " +
               std::to_string(static_cast<long long>(kMaxBurstArrivals)) +
               " arrivals";
    return "";
}

bool
tryParseInterventionKind(const std::string &name, Intervention::Kind &out)
{
    static const Intervention::Kind kinds[] = {
        Intervention::Kind::NodeFail,     Intervention::Kind::NodeRestore,
        Intervention::Kind::ModelDeploy,  Intervention::Kind::ModelRedeploy,
        Intervention::Kind::ModelRetire,  Intervention::Kind::ArrivalScale,
        Intervention::Kind::ArrivalBurst, Intervention::Kind::NodeDegrade,
        Intervention::Kind::NodeRecover,  Intervention::Kind::NetBrownout,
        Intervention::Kind::NetRestore,
    };
    for (Intervention::Kind kind : kinds) {
        if (name == interventionKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

} // namespace slinfer

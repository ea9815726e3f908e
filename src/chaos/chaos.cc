#include "chaos/chaos.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/rng.hh"

namespace slinfer
{
namespace chaos
{

namespace
{

/** Rng fork tag reserving the chaos stream against the harness's
 *  other consumers (0xA11CE interventions, 0x1E46 lengths). */
constexpr std::uint64_t kChaosTag = 0xC4A05;

Intervention
make(Intervention::Kind kind, Seconds at, int node, double factor)
{
    Intervention iv;
    iv.kind = kind;
    iv.at = at;
    iv.node = node;
    iv.factor = factor;
    return iv;
}

void
emitPair(Timeline &out, Intervention::Kind fire, Intervention::Kind undo,
         Seconds at, Seconds hold, Seconds duration, int node,
         double factor)
{
    if (at >= duration)
        return;
    out.push_back(make(fire, at, node, factor));
    out.push_back(make(undo, std::min(at + hold, duration), node, 1.0));
}

} // namespace

const char *
faultKindName(FaultProcess::Kind kind)
{
    switch (kind) {
      case FaultProcess::Kind::NodeFlap: return "flap";
      case FaultProcess::Kind::CorrelatedFailure: return "blast";
      case FaultProcess::Kind::Straggler: return "straggler";
      case FaultProcess::Kind::NetBrownout: return "brownout";
    }
    return "?";
}

Timeline
generateChaosTimeline(const ChaosConfig &cfg, Seconds duration,
                      std::uint64_t seed)
{
    Timeline out;
    Rng root = Rng(seed).fork(kChaosTag);
    for (std::size_t i = 0; i < cfg.processes.size(); ++i) {
        const FaultProcess &fp = cfg.processes[i];
        Rng proc = root.fork(i);
        switch (fp.kind) {
          case FaultProcess::Kind::NodeFlap:
            for (int node = fp.firstNode; node <= fp.lastNode; ++node) {
                Rng r = proc.fork(static_cast<std::uint64_t>(node));
                Seconds t = r.exponential(1.0 / fp.mtbf);
                while (t < duration) {
                    // Repairs are floored at 1 s: a zero-length outage
                    // would collide its fail and restore at one
                    // timestamp, which validate() rightly rejects.
                    Seconds repair = std::max<Seconds>(
                        1.0, r.exponential(1.0 / fp.mttr));
                    Seconds restore = std::min(t + repair, duration);
                    out.push_back(make(Intervention::Kind::NodeFail, t,
                                       node, 1.0));
                    out.push_back(make(Intervention::Kind::NodeRestore,
                                       restore, node, 1.0));
                    if (restore >= duration)
                        break;
                    t = restore + r.exponential(1.0 / fp.mtbf);
                }
            }
            break;
          case FaultProcess::Kind::CorrelatedFailure:
            for (int node = fp.firstNode; node <= fp.lastNode; ++node)
                emitPair(out, Intervention::Kind::NodeFail,
                         Intervention::Kind::NodeRestore, fp.at, fp.hold,
                         duration, node, 1.0);
            break;
          case FaultProcess::Kind::Straggler:
            for (int node = fp.firstNode; node <= fp.lastNode; ++node) {
                if (fp.at >= duration)
                    continue;
                out.push_back(make(Intervention::Kind::NodeDegrade,
                                   fp.at, node, fp.factor));
                out.push_back(make(Intervention::Kind::NodeRecover,
                                   std::min(fp.at + fp.hold, duration),
                                   node, 1.0));
            }
            break;
          case FaultProcess::Kind::NetBrownout:
            if (fp.at >= duration)
                break;
            out.push_back(make(Intervention::Kind::NetBrownout, fp.at,
                               -1, fp.factor));
            out.push_back(make(Intervention::Kind::NetRestore,
                               std::min(fp.at + fp.hold, duration), -1,
                               1.0));
            break;
        }
    }
    // Stable: simultaneous events keep generation order (process
    // index, then node), which is itself deterministic.
    std::stable_sort(out.begin(), out.end(),
                     [](const Intervention &a, const Intervention &b) {
                         return a.at < b.at;
                     });
    return out;
}

namespace
{

bool
splitKeyVals(const std::string &body,
             std::vector<std::pair<std::string, std::string>> &kvs,
             std::string *err)
{
    std::size_t pos = 0;
    while (pos < body.size()) {
        std::size_t comma = body.find(',', pos);
        std::string item = body.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0) {
            if (err)
                *err = "chaos: expected key=value, got '" + item + "'";
            return false;
        }
        kvs.emplace_back(item.substr(0, eq), item.substr(eq + 1));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

/** A whole-token finite number: "nan" and "inf" are rejected. */
bool
parseNum(const std::string &s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end && *end == '\0' && !s.empty() && std::isfinite(out);
}

/** A finite node id that fits an int (truncated toward zero). */
bool
parseNodeId(const std::string &s, double &out)
{
    return parseNum(s, out) && out >= 0 &&
           out < static_cast<double>(std::numeric_limits<int>::max()) + 1;
}

bool
parseNodeRange(const std::string &s, int &first, int &last)
{
    std::size_t dash = s.find('-');
    double a = 0, b = 0;
    if (dash == std::string::npos) {
        if (!parseNodeId(s, a))
            return false;
        first = last = static_cast<int>(a);
        return true;
    }
    if (!parseNodeId(s.substr(0, dash), a) ||
        !parseNodeId(s.substr(dash + 1), b) || b < a)
        return false;
    first = static_cast<int>(a);
    last = static_cast<int>(b);
    return true;
}

} // namespace

bool
parseChaosSpec(const std::string &spec, ChaosConfig &out, std::string *err)
{
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t semi = spec.find(';', pos);
        std::string proc = spec.substr(
            pos, semi == std::string::npos ? std::string::npos
                                           : semi - pos);
        if (proc.empty()) {
            if (err)
                *err = "chaos: empty process in spec";
            return false;
        }
        std::size_t colon = proc.find(':');
        std::string kindName = proc.substr(0, colon);
        FaultProcess fp;
        bool haveNodes = false, haveAt = false;
        if (kindName == "flap")
            fp.kind = FaultProcess::Kind::NodeFlap;
        else if (kindName == "blast")
            fp.kind = FaultProcess::Kind::CorrelatedFailure;
        else if (kindName == "straggler")
            fp.kind = FaultProcess::Kind::Straggler;
        else if (kindName == "brownout")
            fp.kind = FaultProcess::Kind::NetBrownout;
        else {
            if (err)
                *err = "chaos: unknown fault kind '" + kindName + "'";
            return false;
        }
        std::vector<std::pair<std::string, std::string>> kvs;
        if (colon != std::string::npos &&
            !splitKeyVals(proc.substr(colon + 1), kvs, err))
            return false;
        for (const auto &kv : kvs) {
            double num = 0;
            if (kv.first == "nodes") {
                if (!parseNodeRange(kv.second, fp.firstNode,
                                    fp.lastNode)) {
                    if (err)
                        *err = "chaos: bad node range '" + kv.second +
                               "'";
                    return false;
                }
                haveNodes = true;
                continue;
            }
            if (!parseNum(kv.second, num) || num < 0) {
                if (err)
                    *err = "chaos: bad value '" + kv.second + "' for " +
                           kv.first;
                return false;
            }
            if (kv.first == "mtbf")
                fp.mtbf = num;
            else if (kv.first == "mttr")
                fp.mttr = num;
            else if (kv.first == "at") {
                fp.at = num;
                haveAt = true;
            } else if (kv.first == "for")
                fp.hold = num;
            else if (kv.first == "factor")
                fp.factor = num;
            else {
                if (err)
                    *err = "chaos: unknown key '" + kv.first + "'";
                return false;
            }
        }
        bool oneShot = fp.kind != FaultProcess::Kind::NodeFlap;
        if (fp.kind != FaultProcess::Kind::NetBrownout && !haveNodes) {
            if (err)
                *err = std::string("chaos: ") + faultKindName(fp.kind) +
                       " requires nodes=";
            return false;
        }
        if (oneShot && !haveAt) {
            if (err)
                *err = std::string("chaos: ") + faultKindName(fp.kind) +
                       " requires at=";
            return false;
        }
        if (fp.mtbf <= 0 || fp.mttr <= 0 || fp.hold <= 0 ||
            fp.factor <= 0) {
            if (err)
                *err = "chaos: mtbf/mttr/for/factor must be > 0";
            return false;
        }
        out.processes.push_back(fp);
        if (semi == std::string::npos)
            break;
        pos = semi + 1;
    }
    if (out.processes.empty()) {
        if (err)
            *err = "chaos: empty spec";
        return false;
    }
    return true;
}

} // namespace chaos
} // namespace slinfer

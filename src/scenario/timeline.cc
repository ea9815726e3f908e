#include "scenario/timeline.hh"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "sweep/json.hh"

namespace slinfer
{
namespace scenario
{

namespace
{

bool
fail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

bool
parseEntry(const sweep::JsonValue &v, std::size_t index, Intervention &iv,
           std::string *err)
{
    std::string where = "timeline[" + std::to_string(index) + "]";
    if (!v.isObject())
        return fail(err, where + ": expected an object");

    std::string kind = v.string("kind");
    if (kind.empty())
        return fail(err, where + ": missing \"kind\"");
    if (!tryParseInterventionKind(kind, iv.kind))
        return fail(err, where + ": unknown kind '" + kind + "'");

    const sweep::JsonValue *at = v.find("at");
    if (!at || !at->isNumber())
        return fail(err, where + ": missing numeric \"at\"");

    // An infinite "rpm" would generate arrivals without bound, and an
    // index outside int range has no defined cast, so both are refused
    // here rather than at run time. So is a key of the wrong JSON type:
    // read as absent, "factor": "2.5" would run at the default factor.
    auto finite = [&](const char *key, double value, double &out) {
        if (!std::isfinite(value))
            return fail(err, where + ": \"" + key + "\" must be finite");
        out = value;
        return true;
    };
    auto number = [&](const char *key, double dflt, double &out) {
        const sweep::JsonValue *f = v.find(key);
        if (!f) {
            out = dflt;
            return true;
        }
        if (!f->isNumber())
            return fail(err, where + ": \"" + key + "\" must be a number");
        return finite(key, f->number, out);
    };
    auto intField = [&](const char *key, int &out) {
        double d = 0.0;
        if (!number(key, -1, d))
            return false;
        if (d < std::numeric_limits<int>::min() ||
            d > std::numeric_limits<int>::max())
            return fail(err, where + ": \"" + key + "\" is out of range");
        out = static_cast<int>(d);
        return true;
    };
    if (!finite("at", at->number, iv.at) || !intField("node", iv.node) ||
        !intField("model", iv.model) ||
        !number("factor", 1.0, iv.factor) ||
        !number("rpm", 0.0, iv.rpm) ||
        !number("duration", 0.0, iv.duration))
        return false;

    const sweep::JsonValue *specv = v.find("spec");
    if (specv && !specv->isString())
        return fail(err, where + ": \"spec\" must be a string");
    std::string spec = v.string("spec");
    if (!spec.empty() && !tryModelPreset(spec, iv.spec))
        return fail(err, where + ": unknown model preset '" + spec + "'");
    if (iv.kind == Intervention::Kind::ModelDeploy && spec.empty())
        return fail(err, where + ": model-deploy needs \"spec\"");
    std::string bound = burstBoundError(iv);
    if (!bound.empty())
        return fail(err, where + ": " + bound);
    return true;
}

} // namespace

bool
parseTimeline(const std::string &text, Timeline &out, std::string *err)
{
    sweep::JsonValue doc;
    if (!parseJson(text, doc, err))
        return false;
    const sweep::JsonValue *list = &doc;
    if (doc.isObject()) {
        list = doc.find("timeline");
        if (!list)
            return fail(err, "no \"timeline\" member in the document");
    }
    if (!list->isArray())
        return fail(err, "timeline must be a JSON array");

    Timeline parsed;
    parsed.reserve(list->array.size());
    for (std::size_t i = 0; i < list->array.size(); ++i) {
        Intervention iv;
        if (!parseEntry(list->array[i], i, iv, err))
            return false;
        parsed.push_back(std::move(iv));
    }
    out = std::move(parsed);
    return true;
}

bool
loadTimelineFile(const std::string &path, Timeline &out, std::string *err)
{
    std::ifstream in(path);
    if (!in)
        return fail(err, "cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseTimeline(buf.str(), out, err);
}

} // namespace scenario
} // namespace slinfer

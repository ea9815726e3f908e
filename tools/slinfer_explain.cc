/**
 * @file
 * slinfer_explain: render the latency anatomy & SLO attribution of a
 * run — which segment of each request's life the time went to, and
 * what the violated deadlines blame.
 *
 *   slinfer_explain report.json            # from slinfer_run --explain
 *
 * It reads the report's "attribution" block (the exact integer-ns
 * anatomy recorded live by obs/anatomy.hh) and prints the same table
 * `slinfer_run --explain` shows.
 *
 * CI assertion (exit 1 on failure):
 *   slinfer_explain report.json --assert-blame=cold_start,queue_wait \
 *                   --at=450
 * passes iff the blame window containing t=450s has at least one
 * violation and its dominant cause is one of the listed segments
 * (without --at, the whole run's dominant cause is checked).
 *
 * Exit code: 0 ok, 1 failed assertion or invalid input, 2 usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/report.hh"
#include "sweep/json.hh"

using namespace slinfer;
using sweep::JsonValue;
using sweep::parseJson;

namespace
{

void
usage(std::FILE *to)
{
    std::fprintf(to,
        "usage: slinfer_explain <report.json> [options]\n"
        "  <report.json>          report from slinfer_run --explain\n"
        "  --json                 emit the attribution as JSON, not a "
        "table\n"
        "  --out=<path>           write there instead of stdout\n"
        "  --assert-blame=<a,b>   fail unless the dominant violation "
        "cause\n"
        "                         is one of the listed segments\n"
        "  --at=<sec>             scope --assert-blame to the blame "
        "window\n"
        "                         containing this time\n");
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Read a single-run report that carries an attribution block. */
bool
loadReport(const std::string &path, Report &r, std::string *err)
{
    std::string text;
    if (!readFile(path, text)) {
        *err = "cannot open " + path;
        return false;
    }
    JsonValue v;
    if (!parseJson(text, v, err))
        return false;
    if (!v.isObject()) {
        *err = "root is not an object (multi-run reports are arrays; "
               "pass a single-run report)";
        return false;
    }
    if (!reportFromJson(v, r, err))
        return false;
    if (!r.attribution.enabled) {
        *err = "report has no attribution block (re-run with "
               "slinfer_run --explain)";
        return false;
    }
    return true;
}

std::string
attributionJson(const Report &r)
{
    // The report's "attribution" block, standalone, plus its identity.
    std::ostringstream os;
    os.precision(17);
    os << "{\"system\": \"" << jsonEscape(r.system)
       << "\", \"scenario\": \"" << jsonEscape(r.scenario)
       << "\", \"seed\": " << r.seed << ", ";
    writeAttributionFields(os, r.attribution);
    os << "}\n";
    return os.str();
}

/** The dominant blame cause of a count vector ("" when all zero). */
std::string
dominantCause(const Report::Attribution &a,
              const std::vector<std::uint64_t> &blamed)
{
    std::size_t best = 0;
    bool any = false;
    for (std::size_t s = 0; s < blamed.size(); ++s) {
        if (blamed[s] > blamed[best])
            best = s;
        any = any || blamed[s] != 0;
    }
    if (!any)
        return "";
    return best < a.segments.size() ? a.segments[best].name
                                    : std::to_string(best);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string report_path;
    std::string out_path;
    std::string assert_blame;
    bool as_json = false;
    bool at_set = false;
    double at = 0.0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg]() {
            return arg.substr(arg.find('=') + 1);
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--json") {
            as_json = true;
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = value();
        } else if (arg.rfind("--assert-blame=", 0) == 0) {
            assert_blame = value();
        } else if (arg.rfind("--at=", 0) == 0) {
            char *end = nullptr;
            at = std::strtod(value().c_str(), &end);
            if (value().empty() || *end || at < 0) {
                std::fprintf(stderr, "--at: malformed value '%s'\n",
                             value().c_str());
                return 2;
            }
            at_set = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(stderr);
            return 2;
        } else if (report_path.empty()) {
            report_path = arg;
        } else {
            std::fprintf(stderr, "more than one report file given\n");
            return 2;
        }
    }
    if (report_path.empty()) {
        usage(stderr);
        return 2;
    }

    Report r;
    std::string err;
    if (!loadReport(report_path, r, &err)) {
        std::fprintf(stderr, "%s: %s\n", report_path.c_str(),
                     err.c_str());
        return 1;
    }

    std::string rendered =
        as_json ? attributionJson(r) : renderAttribution(r);
    if (out_path.empty()) {
        std::fputs(rendered.c_str(), stdout);
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
            return 1;
        }
        out << rendered;
        out.flush();
        if (!out) {
            std::fprintf(stderr, "write to %s failed\n",
                         out_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    }

    if (!assert_blame.empty()) {
        const Report::Attribution &a = r.attribution;
        std::vector<std::uint64_t> scope(a.segments.size(), 0);
        std::string where = "overall";
        if (at_set) {
            if (a.perWindow.empty() || a.windowLen <= 0) {
                std::fprintf(stderr, "--at: the input has no blame "
                                     "windows (run with --windows)\n");
                return 1;
            }
            std::size_t w = std::min(
                a.perWindow.size() - 1,
                static_cast<std::size_t>(at / a.windowLen));
            scope = a.perWindow[w];
            std::ostringstream ws;
            ws << "window [" << static_cast<double>(w) * a.windowLen
               << ", " << static_cast<double>(w + 1) * a.windowLen
               << ")";
            where = ws.str();
        } else {
            for (std::size_t s = 0; s < a.segments.size(); ++s)
                scope[s] = a.segments[s].blamed;
        }
        std::string dom = dominantCause(a, scope);
        if (dom.empty()) {
            std::fprintf(stderr,
                         "ASSERT FAIL: no violations in %s, expected "
                         "blame on %s\n",
                         where.c_str(), assert_blame.c_str());
            return 1;
        }
        bool matched = false;
        std::istringstream in(assert_blame);
        std::string cause;
        while (std::getline(in, cause, ','))
            matched = matched || cause == dom;
        if (!matched) {
            std::fprintf(stderr,
                         "ASSERT FAIL: dominant cause in %s is '%s', "
                         "expected one of %s\n",
                         where.c_str(), dom.c_str(),
                         assert_blame.c_str());
            return 1;
        }
        std::fprintf(stderr, "assert ok: dominant cause in %s is '%s'\n",
                     where.c_str(), dom.c_str());
    }
    return 0;
}

/**
 * @file
 * Golden output formats (DESIGN.md, "Golden reports").
 *
 * tests/golden/reports.txt pins pretty JSON of unwindowed reports. This
 * test pins every other way a report leaves the program, on one chaos
 * scenario whose report carries every optional block (windows,
 * counters, attribution, resilience) plus a timeseries. Every row of
 * tests/golden/formats.txt reads
 *
 *     <scenario> <system> <seed> <surface> <fnv64-hex>
 *
 * and holds sweep::fnv1aHash of one surface of the run
 *
 *     slinfer_run --scenario=S --system=Y --seed=N --windows=9 \
 *                 --counters --explain --timeseries=F \
 *                 --sample-every=70
 *
 * rebuilt in-process. The surfaces are:
 *
 *   csv               toCsv, the `--format=csv` stdout (all five tables)
 *   json              toJson
 *   json_line         toJsonLine (the sweep store's report)
 *   json_roundtrip    toJson(reportFromJson(toJsonLine(r)))
 *   render_attr       renderAttribution (--explain on stderr)
 *   render_res        renderResilience
 *   timeseries_csv    Timeseries::toCsv
 *   timeseries_json   Timeseries::toJson
 *
 * A moved digest prints the row and the line that replaces it.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/session.hh"
#include "scenario/scenario.hh"
#include "sweep/json.hh"
#include "sweep/sweep.hh"

namespace slinfer
{
namespace
{

constexpr const char *kScenario = "fleet-chaos-correlated";
constexpr int kWindows = 9;
constexpr double kSampleEvery = 70.0;

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** formats.txt as "<scenario> <system> <seed> <surface>" -> digest;
 *  false + *err names the first bad or duplicate line. */
bool
readFormats(std::map<std::string, std::string> &out, std::string *err)
{
    std::ifstream in(SLINFER_GOLDEN_FORMATS_FILE);
    if (!in) {
        *err = std::string("cannot read ") + SLINFER_GOLDEN_FORMATS_FILE;
        return false;
    }
    std::string text;
    for (int lineno = 1; std::getline(in, text); ++lineno) {
        std::istringstream fields(text);
        std::string scenario, system, seed, surface, digest, extra;
        fields >> scenario >> system >> seed >> surface >> digest;
        std::uint64_t seedValue = 0;
        bool ok = !(fields >> extra) && digest.size() == 16 &&
                  digest.find_first_not_of("0123456789abcdef") ==
                      std::string::npos &&
                  sweep::parseCount(seed, seedValue);
        std::string key = scenario + " " + system + " " + seed + " " +
                          surface;
        if (!ok || !out.emplace(key, digest).second) {
            *err = std::string(SLINFER_GOLDEN_FORMATS_FILE) + " line " +
                   std::to_string(lineno) + ": '" + text +
                   "' is not a new '<scenario> <system> <seed> "
                   "<surface> <fnv64-hex>' line";
            return false;
        }
    }
    return true;
}

class GoldenFormats : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GoldenFormats, Match)
{
    setLogLevel(LogLevel::Warn);
    const scenario::Scenario *sc = scenario::byName(kScenario);
    ASSERT_NE(sc, nullptr);
    SystemKind system;
    ASSERT_TRUE(tryParseSystem(GetParam(), system));

    std::map<std::string, std::string> pinned;
    std::string err;
    ASSERT_TRUE(readFormats(pinned, &err)) << err;

    ExperimentConfig cfg = sc->toExperiment(system, sc->seed);
    cfg.windows = kWindows;
    cfg.obs.counters = true;
    cfg.obs.anatomy = true;
    cfg.obs.sampleEvery = kSampleEvery;
    Session session(cfg);
    session.advanceTo(session.duration());
    Report r = session.finish();
    r.scenario = sc->name;
    r.seed = sc->seed;
    ASSERT_EQ(r.windows.size(), static_cast<std::size_t>(kWindows));
    ASSERT_FALSE(r.counters.empty());
    ASSERT_TRUE(r.attribution.enabled);
    ASSERT_TRUE(r.resilience.enabled);
    const obs::Timeseries *ts = session.flightRecorder()->timeseries();
    ASSERT_NE(ts, nullptr);

    sweep::JsonValue parsed;
    ASSERT_TRUE(sweep::parseJson(toJsonLine(r), parsed, &err)) << err;
    Report back;
    ASSERT_TRUE(reportFromJson(parsed, back, &err)) << err;

    const std::vector<std::pair<const char *, std::string>> surfaces = {
        {"csv", toCsv({r})},
        {"json", toJson(r)},
        {"json_line", toJsonLine(r)},
        {"json_roundtrip", toJson(back)},
        {"render_attr", renderAttribution(r)},
        {"render_res", renderResilience(r)},
        {"timeseries_csv", ts->toCsv()},
        {"timeseries_json", ts->toJson()},
    };
    std::string prefix = sc->name + " " + GetParam() + " " +
                         std::to_string(sc->seed) + " ";
    for (const auto &[surface, text] : surfaces) {
        EXPECT_FALSE(text.empty()) << surface;
        std::string key = prefix + surface;
        std::string got = hex64(sweep::fnv1aHash(text));
        auto want = pinned.find(key);
        if (want == pinned.end()) {
            ADD_FAILURE() << "no golden row for " << key
                          << "; add:\n  " << key << " " << got;
            continue;
        }
        EXPECT_EQ(got, want->second)
            << "golden format digest moved:\n  " << key << " "
            << want->second << "\nreplacement line:\n  " << key << " "
            << got;
    }
}

INSTANTIATE_TEST_SUITE_P(Systems, GoldenFormats,
                         ::testing::Values("slinfer", "sllm"));

/** Every row names a surface some instantiation checks. */
TEST(GoldenFormatsFile, NoStrayRows)
{
    std::map<std::string, std::string> pinned;
    std::string err;
    ASSERT_TRUE(readFormats(pinned, &err)) << err;
    EXPECT_EQ(pinned.size(), 16u)
        << "formats.txt holds 8 surfaces for each of 2 systems";
    for (const auto &[key, digest] : pinned) {
        EXPECT_EQ(key.rfind(std::string(kScenario) + " ", 0), 0u)
            << "row for another scenario: " << key;
    }
}

} // namespace
} // namespace slinfer

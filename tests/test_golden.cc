/**
 * @file
 * Golden report digests (DESIGN.md, "Golden reports").
 *
 * Every row of tests/golden/reports.txt reads
 *
 *     <scenario> <system> <seed> <fnv64-hex>
 *
 * and pins sweep::fnv1aHash of the exact bytes that
 *
 *     slinfer_run --quiet --scenario=S --system=Y --seed=N \
 *                 --counters --explain
 *
 * writes to stdout. The test rebuilds that run in-process (same
 * config, same Session lifecycle, same rendering) and compares. Each
 * row is its own ctest entry (see CMakeLists.txt), so `ctest -j`
 * spreads the runs across cores. A moved digest prints the row and
 * the line that replaces it; an intentional re-baseline pastes the
 * printed lines into the file.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/session.hh"
#include "scenario/scenario.hh"
#include "sweep/sweep.hh"

namespace slinfer
{
namespace
{

struct GoldenRow
{
    std::string scenario;
    std::string system;
    std::uint64_t seed = 0;
    std::string digest;

    std::string
    line(const std::string &hex) const
    {
        return scenario + " " + system + " " + std::to_string(seed) +
               " " + hex;
    }
};

/** gtest prints a failing row as its line, not as raw bytes. */
void
PrintTo(const GoldenRow &row, std::ostream *os)
{
    *os << row.line(row.digest);
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Parse the golden file; false + *err names the first bad line. */
bool
readGolden(std::vector<GoldenRow> &rows, std::string *err)
{
    std::ifstream in(SLINFER_GOLDEN_FILE);
    if (!in) {
        *err = std::string("cannot read ") + SLINFER_GOLDEN_FILE;
        return false;
    }
    std::string text;
    for (int lineno = 1; std::getline(in, text); ++lineno) {
        std::istringstream fields(text);
        GoldenRow row;
        std::string seed, extra;
        fields >> row.scenario >> row.system >> seed >> row.digest;
        bool ok = !(fields >> extra) && row.digest.size() == 16 &&
                  row.digest.find_first_not_of("0123456789abcdef") ==
                      std::string::npos &&
                  sweep::parseCount(seed, row.seed);
        if (!ok) {
            *err = "line " + std::to_string(lineno) + ": '" + text +
                   "' is not '<scenario> <system> <seed> <fnv64-hex>'";
            return false;
        }
        rows.push_back(std::move(row));
    }
    return true;
}

std::vector<GoldenRow>
goldenRows()
{
    std::vector<GoldenRow> rows;
    std::string err;
    readGolden(rows, &err); // GoldenFile.WellFormed reports the error
    return rows;
}

/** The stdout bytes of the slinfer_run invocation in the file comment. */
std::string
reportBytes(const scenario::Scenario &sc, SystemKind system,
            std::uint64_t seed)
{
    ExperimentConfig cfg = sc.toExperiment(system, seed);
    cfg.obs.counters = true;
    cfg.obs.anatomy = true;
    Session session(cfg);
    session.advanceTo(session.duration());
    Report report = session.finish();
    report.scenario = sc.name;
    report.seed = seed;
    return toJson(report) + "\n";
}

class GoldenReport : public ::testing::TestWithParam<GoldenRow>
{
};

TEST_P(GoldenReport, Matches)
{
    setLogLevel(LogLevel::Warn);
    const GoldenRow &row = GetParam();
    const scenario::Scenario *sc = scenario::byName(row.scenario);
    ASSERT_NE(sc, nullptr) << "unknown scenario '" << row.scenario << "'";
    SystemKind system;
    ASSERT_TRUE(tryParseSystem(row.system, system))
        << "unknown system '" << row.system << "'";

    std::string got =
        hex64(sweep::fnv1aHash(reportBytes(*sc, system, row.seed)));
    EXPECT_EQ(got, row.digest)
        << "golden row moved:\n  " << row.line(row.digest)
        << "\nreplacement line:\n  " << row.line(got);
}

/** gtest parameter names: the row's first three fields, with every
 *  non-alphanumeric byte mapped to '_' (CMakeLists.txt derives the
 *  same name for each row's ctest filter). */
std::string
rowName(const ::testing::TestParamInfo<GoldenRow> &info)
{
    std::string name = info.param.line("");
    name.pop_back();
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(Catalog, GoldenReport,
                         ::testing::ValuesIn(goldenRows()), rowName);

TEST(GoldenFile, WellFormed)
{
    std::vector<GoldenRow> rows;
    std::string err;
    ASSERT_TRUE(readGolden(rows, &err)) << err;
    std::set<std::string> keys;
    for (const GoldenRow &row : rows) {
        EXPECT_TRUE(keys.insert(row.line("")).second)
            << "duplicate row " << row.line(row.digest);
    }
}

/** Every catalog scenario but fleet-6400 (kept out for time) has a
 *  slinfer and an sllm row at its default seed. */
TEST(GoldenFile, CoversTheCatalog)
{
    std::vector<GoldenRow> rows;
    std::string err;
    ASSERT_TRUE(readGolden(rows, &err)) << err;
    std::set<std::string> keys;
    for (const GoldenRow &row : rows)
        keys.insert(row.line(""));
    for (const scenario::Scenario &sc : scenario::all()) {
        if (sc.name == "fleet-6400")
            continue;
        for (const char *system : {"slinfer", "sllm"}) {
            GoldenRow want{sc.name, system, sc.seed, ""};
            EXPECT_TRUE(keys.count(want.line("")))
                << "no golden row for " << sc.name << " " << system
                << " " << sc.seed;
        }
    }
}

} // namespace
} // namespace slinfer

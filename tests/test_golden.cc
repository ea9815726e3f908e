/**
 * @file
 * Golden reports (DESIGN.md, "Golden reports").
 *
 * Every row of tests/golden/reports.txt reads
 *
 *     <scenario> <system> <seed> <results-fnv64-hex>
 *
 * and pins the report that
 *
 *     slinfer_run --quiet --scenario=S --system=Y --seed=N \
 *                 --counters --explain
 *
 * writes to stdout, in two parts. The results digest is
 * sweep::fnv1aHash of toJson() of the report with its counters block
 * cleared (perfbench's digest_uncounted); the attribution block stays
 * in it. tests/golden/counters.txt holds the counters block itself as
 * literal text, one line per row:
 *
 *     <scenario> <system> <seed> <key>=<value> <key>=<value> ...
 *
 * in registry order. Together they cover every byte the run prints, so
 * a change that only moves work counters shows in `git diff` as those
 * counters, with the results column unchanged.
 *
 * The test rebuilds that run in-process (same config, same Session
 * lifecycle, same rendering) and compares both parts. Each row is its
 * own ctest entry (see CMakeLists.txt), so `ctest -j` spreads the runs
 * across cores. A moved digest prints the row and the line that
 * replaces it; moved counters are named with their old and new values,
 * followed by the replacement counters line. An intentional
 * re-baseline pastes the printed lines into the files.
 *
 * tests/golden/nightly.txt holds rows in the same format whose runs
 * take minutes (fleet-6400); their counters lines are in counters.txt
 * too. They instantiate as Nightly/..., which no ctest entry filters
 * for; the nightly CI job runs them with
 * `test_golden --gtest_filter='Nightly*'`.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
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
    key() const
    {
        return scenario + " " + system + " " + std::to_string(seed);
    }

    std::string
    line(const std::string &hex) const
    {
        return key() + " " + hex;
    }
};

/** One row's counters block: (name, value) in registry order. */
using CounterList = std::vector<std::pair<std::string, std::uint64_t>>;

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

/** Parse a golden file; false + *err names the first bad line. */
bool
readGolden(const char *path, std::vector<GoldenRow> &rows, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = std::string("cannot read ") + path;
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
            *err = std::string(path) + " line " + std::to_string(lineno) +
                   ": '" + text +
                   "' is not '<scenario> <system> <seed> "
                   "<results-fnv64-hex>'";
            return false;
        }
        rows.push_back(std::move(row));
    }
    return true;
}

/** The counters.txt line for `key`. */
std::string
countersLine(const std::string &key, const CounterList &counters)
{
    std::string line = key;
    for (const auto &[name, value] : counters)
        line += " " + name + "=" + std::to_string(value);
    return line;
}

/** Parse counters.txt into row key -> counters; false + *err names the
 *  first bad or duplicate line. */
bool
readCounters(const char *path, std::map<std::string, CounterList> &out,
             std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = std::string("cannot read ") + path;
        return false;
    }
    std::string text;
    for (int lineno = 1; std::getline(in, text); ++lineno) {
        std::istringstream fields(text);
        std::string scenario, system, seed, kv;
        fields >> scenario >> system >> seed;
        std::uint64_t seedValue = 0;
        bool ok = !system.empty() && sweep::parseCount(seed, seedValue);
        CounterList counters;
        while (ok && fields >> kv) {
            std::size_t eq = kv.find('=');
            std::uint64_t value = 0;
            ok = eq != std::string::npos && eq > 0 &&
                 sweep::parseCount(kv.substr(eq + 1), value);
            if (ok)
                counters.emplace_back(kv.substr(0, eq), value);
        }
        std::string key =
            scenario + " " + system + " " + std::to_string(seedValue);
        if (!ok || counters.empty() ||
            !out.emplace(key, std::move(counters)).second) {
            *err = std::string(path) + " line " + std::to_string(lineno) +
                   ": '" + text +
                   "' is not a new '<scenario> <system> <seed> "
                   "<key>=<value> ...' line";
            return false;
        }
    }
    return true;
}

/** Every counter that differs between `want` and `got`, one per line:
 *  moved values, and counters only one side has. */
std::string
counterMoves(const CounterList &want, const CounterList &got)
{
    std::map<std::string, std::uint64_t> was(want.begin(), want.end());
    std::map<std::string, std::uint64_t> now(got.begin(), got.end());
    std::ostringstream os;
    for (const auto &[name, value] : want) {
        auto it = now.find(name);
        if (it == now.end())
            os << "  " << name << ": " << value << " -> (removed)\n";
        else if (it->second != value)
            os << "  " << name << ": " << value << " -> " << it->second
               << "\n";
    }
    for (const auto &[name, value] : got) {
        if (!was.count(name))
            os << "  " << name << ": (added) -> " << value << "\n";
    }
    if (os.str().empty())
        os << "  (same values, different order)\n";
    return os.str();
}

std::vector<GoldenRow>
goldenRows(const char *path)
{
    std::vector<GoldenRow> rows;
    std::string err;
    readGolden(path, rows, &err); // GoldenFile.WellFormed reports it
    return rows;
}

/** Both files' rows; false + *err names the first bad line. */
bool
readAllGolden(std::vector<GoldenRow> &rows, std::string *err)
{
    return readGolden(SLINFER_GOLDEN_FILE, rows, err) &&
           readGolden(SLINFER_GOLDEN_NIGHTLY_FILE, rows, err);
}

/** The report of the slinfer_run invocation in the file comment. */
Report
goldenReport(const scenario::Scenario &sc, SystemKind system,
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
    return report;
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

    std::map<std::string, CounterList> pinned;
    std::string err;
    ASSERT_TRUE(readCounters(SLINFER_GOLDEN_COUNTERS_FILE, pinned, &err))
        << err;
    auto want = pinned.find(row.key());
    ASSERT_NE(want, pinned.end()) << "no counters line for " << row.key();

    Report report = goldenReport(*sc, system, row.seed);
    CounterList counters = std::move(report.counters);
    report.counters.clear();
    std::string got = hex64(sweep::fnv1aHash(toJson(report)));
    EXPECT_EQ(got, row.digest)
        << "golden results digest moved:\n  " << row.line(row.digest)
        << "\nreplacement line:\n  " << row.line(got);
    EXPECT_TRUE(counters == want->second)
        << "golden counters moved for " << row.key() << ":\n"
        << counterMoves(want->second, counters)
        << "replacement counters line:\n  "
        << countersLine(row.key(), counters);
}

/** gtest parameter names: the row's first three fields, with every
 *  non-alphanumeric byte mapped to '_' (CMakeLists.txt derives the
 *  same name for each row's ctest filter). */
std::string
rowName(const ::testing::TestParamInfo<GoldenRow> &info)
{
    std::string name = info.param.key();
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, GoldenReport,
    ::testing::ValuesIn(goldenRows(SLINFER_GOLDEN_FILE)), rowName);
INSTANTIATE_TEST_SUITE_P(
    Nightly, GoldenReport,
    ::testing::ValuesIn(goldenRows(SLINFER_GOLDEN_NIGHTLY_FILE)), rowName);

TEST(GoldenFile, WellFormed)
{
    std::vector<GoldenRow> rows;
    std::map<std::string, CounterList> counters;
    std::string err;
    ASSERT_TRUE(readAllGolden(rows, &err)) << err;
    ASSERT_TRUE(readCounters(SLINFER_GOLDEN_COUNTERS_FILE, counters, &err))
        << err;
    std::set<std::string> keys;
    for (const GoldenRow &row : rows) {
        EXPECT_TRUE(keys.insert(row.key()).second)
            << "duplicate row " << row.line(row.digest);
        EXPECT_TRUE(counters.count(row.key()))
            << "no counters line for " << row.key();
    }
    for (const auto &[key, list] : counters) {
        EXPECT_TRUE(keys.count(key))
            << "counters line without a golden row: " << key;
    }
}

/** Every catalog scenario has a slinfer and an sllm row at its
 *  default seed, in one of the two files. */
TEST(GoldenFile, CoversTheCatalog)
{
    std::vector<GoldenRow> rows;
    std::string err;
    ASSERT_TRUE(readAllGolden(rows, &err)) << err;
    std::set<std::string> keys;
    for (const GoldenRow &row : rows)
        keys.insert(row.key());
    for (const scenario::Scenario &sc : scenario::all()) {
        for (const char *system : {"slinfer", "sllm"}) {
            GoldenRow want{sc.name, system, sc.seed, ""};
            EXPECT_TRUE(keys.count(want.key()))
                << "no golden row for " << sc.name << " " << system
                << " " << sc.seed;
        }
    }
}

} // namespace
} // namespace slinfer

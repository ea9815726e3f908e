/**
 * @file
 * ASCII table printer used by the bench harness to emit the rows/series
 * that correspond to the paper's tables and figures, and the field
 * tables that declare each output record's numeric fields once for
 * every format (JSON, CSV, rendered tables).
 */

#ifndef SLINFER_COMMON_TABLE_HH
#define SLINFER_COMMON_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace slinfer
{

/**
 * A simple column-aligned table. Cells are strings; numeric helpers
 * format with a fixed precision.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a fully formed row; must match the header width. */
    void addRow(std::vector<std::string> cells);

    /** Format a double with the given number of decimals. */
    static std::string num(double v, int decimals = 2);

    /** Format an integer. */
    static std::string num(long long v);

    /** Format a percentage (0..1 input) with one decimal. */
    static std::string pct(double frac);

    /** Render to a stream. */
    void print(std::ostream &os) const;

    /** Render to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Print a section banner for bench output. */
void printBanner(const std::string &title);

/**
 * One numeric field of an output record `R`: its key (JSON key, CSV
 * column and rendered label) and its member, a count or a real. A record
 * declares its fields once, as an array of these, and every writer and
 * reader loops over it (DESIGN.md, "Output field tables").
 */
template <class R>
struct Field
{
    constexpr Field(const char *k, std::uint64_t R::*c) : key(k), count(c) {}
    constexpr Field(const char *k, double R::*x, int places = 2)
        : key(k), real(x), decimals(places) {}

    const char *key;
    std::uint64_t R::*count = nullptr;
    double R::*real = nullptr;
    int decimals = 0; ///< a real's decimals in a rendered Table

    double value(const R &r) const { return count ? r.*count : r.*real; }

    std::string
    cell(const R &r) const
    {
        return count ? Table::num(static_cast<long long>(r.*count))
                     : Table::num(r.*real, decimals);
    }
};

/** The fields' keys joined by ',' (a CSV header). */
template <class Fields>
std::string
fieldKeys(const Fields &fields)
{
    std::string out;
    for (const auto &f : fields)
        out += (out.empty() ? "" : ",") + std::string(f.key);
    return out;
}

/** Write `r`'s fields as CSV cells joined by ',', or (`json`) as
 *  `"key": value` members joined by ", ". Counts print as integers,
 *  reals at the stream's precision. */
template <class R, class Fields>
void
writeFields(std::ostream &os, const R &r, const Fields &fields, bool json)
{
    const char *sep = "";
    for (const Field<R> &f : fields) {
        os << sep;
        if (json)
            os << '"' << f.key << "\": ";
        if (f.count)
            os << r.*f.count;
        else
            os << r.*f.real;
        sep = json ? ", " : ",";
    }
}

} // namespace slinfer

#endif // SLINFER_COMMON_TABLE_HH

#include "core/quantifier.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"

namespace slinfer
{

void
Quantifier::profile(const HardwareSpec &hw, const ModelSpec &m)
{
    ProfileTable t;
    for (Tokens len = 16; len <= m.maxContext; len *= 2)
        t.lenGrid.push_back(len);
    if (t.lenGrid.empty() || t.lenGrid.back() != m.maxContext)
        t.lenGrid.push_back(m.maxContext);
    for (int b = 1; b <= kMaxBatch; b *= 2)
        t.batchGrid.push_back(b);

    // "Measure" the grid. In the real system each point is a short
    // on-hardware run; here the analytic model plays the hardware.
    for (Tokens len : t.lenGrid)
        t.prefill.push_back(PerfModel::prefillTime(hw, m, len));
    t.decode.resize(t.batchGrid.size());
    for (std::size_t bi = 0; bi < t.batchGrid.size(); ++bi) {
        for (Tokens len : t.lenGrid) {
            t.decode[bi].push_back(
                PerfModel::decodeTime(hw, m, t.batchGrid[bi], len));
        }
    }
    checkDoubling(t);
    checkMonotone(t);
    ++generation_;
    // A re-profile overwrites its entry in place, so a reference
    // tableFor() handed out stays valid and sees the refreshed grid.
    for (Entry &e : entries_) {
        if (e.hw == hw.name && e.model == m.name) {
            e.table = std::move(t);
            return;
        }
    }
    entries_.push_back(Entry{hw.name, m.name, std::move(t)});
}

const Quantifier::ProfileTable *
Quantifier::find(const HardwareSpec &hw, const ModelSpec &m) const
{
    for (const Entry &e : entries_) {
        if (e.hw == hw.name && e.model == m.name)
            return &e.table;
    }
    return nullptr;
}

namespace
{

/** Panic unless `grid` is checkDoubling()'s shape. */
template <typename T>
void
checkGridDoubles(const std::vector<T> &grid, const char *what)
{
    bool ok = !grid.empty() && grid.front() > 0 &&
              (grid.front() & (grid.front() - 1)) == 0;
    for (std::size_t i = 1; ok && i + 1 < grid.size(); ++i)
        ok = grid[i] == static_cast<std::int64_t>(grid[i - 1]) * 2;
    if (ok && grid.size() >= 2)
        ok = grid.back() > grid[grid.size() - 2];
    if (!ok)
        panic(std::string("Quantifier: ") + what + " grid does not double");
}

} // namespace

void
Quantifier::checkDoubling(const ProfileTable &t)
{
    checkGridDoubles(t.lenGrid, "length");
    checkGridDoubles(t.batchGrid, "batch");
}

void
Quantifier::checkMonotone(const ProfileTable &t)
{
    auto check = [&t](const std::vector<Seconds> &row, const char *what) {
        for (std::size_t li = 0; li < row.size(); ++li) {
            if (row[li] >= (li ? row[li - 1] : 0.0))
                continue;
            panic(std::string("Quantifier: decode ") + what +
                  " falls at length " + std::to_string(t.lenGrid[li]));
        }
    };
    for (const std::vector<Seconds> &row : t.decode)
        check(row, "row");
    std::size_t n = t.batchGrid.size();
    if (n < 2)
        return;
    std::vector<Seconds> slope(t.lenGrid.size());
    for (std::size_t li = 0; li < slope.size(); ++li)
        slope[li] = (t.decode[n - 1][li] - t.decode[n - 2][li]) /
                    static_cast<double>(t.batchGrid[n - 1] -
                                        t.batchGrid[n - 2]);
    check(slope, "extrapolation slope");
}

bool
Quantifier::profiled(const HardwareSpec &hw, const ModelSpec &m) const
{
    return find(hw, m) != nullptr;
}

const Quantifier::ProfileTable &
Quantifier::tableFor(const HardwareSpec &hw, const ModelSpec &m) const
{
    const ProfileTable *t = find(hw, m);
    if (!t)
        panic("Quantifier: pair not profiled: " + hw.name + "|" + m.name);
    return *t;
}

namespace
{

/**
 * Find the bracketing indices (lo, hi) and interpolation weight for
 * `x` in `grid`, a grid of checkDoubling()'s shape. Clamps outside the
 * grid. Below the top, grid[i] = grid[0] * 2^i, so an interior x lies
 * in (grid[hi - 1], grid[hi]] for hi = bit_width(ceil(x / grid[0]) - 1),
 * capped at the top index: the first point at or above x, in O(1).
 * grid[0] is a power of two, so the division is a shift.
 */
template <typename T>
void
bracket(const std::vector<T> &grid, std::int64_t x, std::size_t &lo,
        std::size_t &hi, double &w)
{
    if (x <= grid.front()) {
        lo = hi = 0;
        w = 0.0;
        return;
    }
    if (x >= grid.back()) {
        lo = hi = grid.size() - 1;
        w = 0.0;
        return;
    }
    // ceil(x / g) - 1 == (x - 1) / g == (x - 1) >> log2(g) for positive
    // x and power-of-two g; it is >= 1 here because x > grid[0].
    const auto steps = static_cast<unsigned long long>(x - 1) >>
                       __builtin_ctzll(static_cast<unsigned long long>(
                           grid.front()));
    hi = std::min<std::size_t>(64 - __builtin_clzll(steps),
                               grid.size() - 1);
    lo = hi - 1;
    double g_lo = static_cast<double>(grid[lo]);
    double g_hi = static_cast<double>(grid[hi]);
    w = (static_cast<double>(x) - g_lo) / (g_hi - g_lo);
}

} // namespace

Seconds
Quantifier::prefillEstimate(const ProfileTable &t, Tokens inputLen)
{
    std::size_t lo, hi;
    double w;
    bracket(t.lenGrid, inputLen, lo, hi, w);
    return t.prefill[lo] * (1.0 - w) + t.prefill[hi] * w;
}

Seconds
Quantifier::decodeEstimate(const ProfileTable &t, int batchSize,
                           Tokens avgLen)
{
    std::size_t bl, bh, ll, lh;
    double wb, wl;
    bracket(t.batchGrid, batchSize, bl, bh, wb);
    bracket(t.lenGrid, avgLen, ll, lh, wl);
    double v00 = t.decode[bl][ll];
    double v01 = t.decode[bl][lh];
    double v10 = t.decode[bh][ll];
    double v11 = t.decode[bh][lh];
    double v0 = v00 * (1.0 - wl) + v01 * wl;
    double v1 = v10 * (1.0 - wl) + v11 * wl;
    double est = v0 * (1.0 - wb) + v1 * wb;
    // Batch sizes beyond the profiled grid extrapolate linearly on the
    // per-request marginal cost of the last grid interval.
    if (batchSize > t.batchGrid.back() && t.batchGrid.size() >= 2) {
        int top = t.batchGrid.back();
        int prev = t.batchGrid[t.batchGrid.size() - 2];
        double slope =
            (t.decode[t.batchGrid.size() - 1][ll] -
             t.decode[t.batchGrid.size() - 2][ll]) /
            static_cast<double>(top - prev);
        est += slope * static_cast<double>(batchSize - top);
    }
    return est;
}

} // namespace slinfer

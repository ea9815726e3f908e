#include "core/quantifier.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/log.hh"

namespace slinfer
{

void
Quantifier::profile(const HardwareSpec &hw, const ModelSpec &m,
                    int maxBatch)
{
    ProfileTable t;
    for (Tokens len = 16; len <= m.maxContext; len *= 2)
        t.lenGrid.push_back(len);
    if (t.lenGrid.empty() || t.lenGrid.back() != m.maxContext)
        t.lenGrid.push_back(m.maxContext);
    for (int b = 1; b <= maxBatch; b *= 2)
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
 * value `x` in the sorted grid `grid`. Clamps outside the grid.
 */
template <typename T>
void
bracket(const std::vector<T> &grid, double x, std::size_t &lo,
        std::size_t &hi, double &w)
{
    if (x <= static_cast<double>(grid.front())) {
        lo = hi = 0;
        w = 0.0;
        return;
    }
    if (x >= static_cast<double>(grid.back())) {
        lo = hi = grid.size() - 1;
        w = 0.0;
        return;
    }
    std::size_t i = 1;
    while (static_cast<double>(grid[i]) < x)
        ++i;
    lo = i - 1;
    hi = i;
    double g_lo = static_cast<double>(grid[lo]);
    double g_hi = static_cast<double>(grid[hi]);
    w = (x - g_lo) / (g_hi - g_lo);
}

/**
 * Bilinear interpolation of the decode grid on brackets (bl, bh, wb)
 * over batch sizes and (ll, lh, wl) over lengths.
 */
Seconds
interpolateDecode(const Quantifier::ProfileTable &t, int batchSize,
                  std::size_t bl, std::size_t bh, double wb,
                  std::size_t ll, std::size_t lh, double wl)
{
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

} // namespace

Seconds
Quantifier::prefillEstimate(const HardwareSpec &hw, const ModelSpec &m,
                            Tokens inputLen) const
{
    return prefillEstimate(tableFor(hw, m), inputLen);
}

Seconds
Quantifier::prefillEstimate(const ProfileTable &t, Tokens inputLen)
{
    std::size_t lo, hi;
    double w;
    bracket(t.lenGrid, static_cast<double>(inputLen), lo, hi, w);
    return t.prefill[lo] * (1.0 - w) + t.prefill[hi] * w;
}

Seconds
Quantifier::decodeEstimate(const HardwareSpec &hw, const ModelSpec &m,
                           int batchSize, Tokens avgLen) const
{
    return decodeEstimate(tableFor(hw, m), batchSize, avgLen);
}

Seconds
Quantifier::decodeEstimate(const ProfileTable &t, int batchSize,
                           Tokens avgLen)
{
    std::size_t bl, bh, ll, lh;
    double wb, wl;
    bracket(t.batchGrid, static_cast<double>(batchSize), bl, bh, wb);
    bracket(t.lenGrid, static_cast<double>(avgLen), ll, lh, wl);
    return interpolateDecode(t, batchSize, bl, bh, wb, ll, lh, wl);
}

void
Quantifier::DecodeCursor::reset(const ProfileTable &t)
{
    *this = DecodeCursor();
    t_ = &t;
}

Seconds
Quantifier::DecodeCursor::estimate(int batchSize, Tokens avgLen)
{
    const ProfileTable &t = *t_;
    if (batchSize != batch_) {
        bracket(t.batchGrid, static_cast<double>(batchSize), bl_, bh_,
                wb_);
        batch_ = batchSize;
    }
    double x = static_cast<double>(avgLen);
    double wl;
    if (x > gLo_ && x <= lenMax_) {
        // bracket()'s interior case, on the cached interval.
        wl = (x - gLo_) / (gHi_ - gLo_);
    } else {
        bracket(t.lenGrid, x, ll_, lh_, wl);
        gLo_ = static_cast<double>(t.lenGrid[ll_]);
        gHi_ = static_cast<double>(t.lenGrid[lh_]);
        // A clamped length (ll_ == lh_) caches nothing. The top
        // interval excludes the grid top, which clamps.
        lenMax_ = ll_ == lh_ ? gLo_
                  : lh_ + 1 == t.lenGrid.size()
                      ? std::nextafter(gHi_, gLo_)
                      : gHi_;
    }
    return interpolateDecode(t, batchSize, bl_, bh_, wb_, ll_, lh_, wl);
}

std::size_t
Quantifier::sampleCount(const HardwareSpec &hw, const ModelSpec &m) const
{
    const ProfileTable &t = tableFor(hw, m);
    return t.prefill.size() + t.batchGrid.size() * t.lenGrid.size();
}

} // namespace slinfer

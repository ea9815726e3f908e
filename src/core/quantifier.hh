/**
 * @file
 * Performance quantifier (paper §VI-B).
 *
 * SLINFER never consults the analytic performance model directly at
 * scheduling time; instead it *profiles* each (hardware, model) pair in
 * advance on a power-of-two grid — O(log Lmax) TTFT samples and
 * O(log Lmax * log Bmax) TPOT samples — and answers queries with linear
 * (prefill) and bilinear (decode) interpolation between the closest
 * grid points. The paper reports 5.9% / 3.9% average relative deviation
 * for TTFT / TPOT; the core unit tests assert the same magnitude against
 * the noisy ground truth.
 */

#ifndef SLINFER_CORE_QUANTIFIER_HH
#define SLINFER_CORE_QUANTIFIER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "hw/perf_model.hh"

namespace slinfer
{

class Quantifier
{
  public:
    /** Largest profiled batch size; larger batches extrapolate. */
    static constexpr int kMaxBatch = 256;

    /**
     * Profile one (hardware, model) pair. Idempotent; call again to
     * refresh. Sampling covers lengths up to the model's max context
     * and batch sizes up to kMaxBatch.
     */
    void profile(const HardwareSpec &hw, const ModelSpec &m);

    /** True once the pair has been profiled. */
    bool profiled(const HardwareSpec &hw, const ModelSpec &m) const;

    /**
     * One pair's profiled grid. Both grids double from a power-of-two
     * front below the top: lenGrid is 16 * 2^i then maxContext,
     * batchGrid 1..kMaxBatch. The estimates bracket a query in O(1) on that
     * shape (DESIGN.md, "Shadow validation fast path").
     */
    struct ProfileTable
    {
        std::vector<Tokens> lenGrid;
        std::vector<int> batchGrid;
        std::vector<Seconds> prefill;          ///< indexed like lenGrid
        std::vector<std::vector<Seconds>> decode; ///< [batch][len]
    };

    /**
     * Panic unless both grids of `t` have the shape the O(1) bracket
     * needs: a front that is a power of two, every point below the top
     * equal to the front times 2^i, and a top above the point before
     * it. profile() checks every table it builds.
     */
    static void checkDoubling(const ProfileTable &t);

    /**
     * Panic unless `t` is monotone the way the cached admission bounds
     * need (DESIGN.md, "Cached admission bounds"): at every profiled
     * batch size, and on the extrapolation slope between the top two
     * batch sizes, the decode cost is nonnegative and nondecreasing
     * along lenGrid. profile() checks every table it builds.
     */
    static void checkMonotone(const ProfileTable &t);

    /**
     * The pair's table; panics when the pair was never profiled. The
     * reference stays valid for the quantifier's lifetime (a re-profile
     * refreshes it in place), so hot loops resolve it once and call the
     * estimates below.
     */
    const ProfileTable &tableFor(const HardwareSpec &hw,
                                 const ModelSpec &m) const;

    /** Interpolated prefill (TTFT-producing) iteration time. */
    static Seconds prefillEstimate(const ProfileTable &t, Tokens inputLen);

    /** Interpolated decode iteration time; batches beyond the grid
     *  extrapolate on the top interval's per-request cost. */
    static Seconds decodeEstimate(const ProfileTable &t, int batchSize,
                                  Tokens avgLen);

    /** Bumped by every profile() call: results cached against table
     *  contents are stale once it moves. */
    std::uint64_t generation() const { return generation_; }

  private:
    /** One profiled (hardware, model) pair. */
    struct Entry
    {
        std::string hw, model;
        ProfileTable table;
    };

    /** Linear scan of entries_ in profiling order (DESIGN.md,
     *  "Profile-table lookup"). */
    const ProfileTable *find(const HardwareSpec &hw,
                             const ModelSpec &m) const;

    /** A run profiles 2 to 8 pairs, so find() scans. push_back never
     *  moves existing deque elements, which keeps the tableFor()
     *  reference contract without a heap cell per table. */
    std::deque<Entry> entries_;
    std::uint64_t generation_ = 0;
};

} // namespace slinfer

#endif // SLINFER_CORE_QUANTIFIER_HH

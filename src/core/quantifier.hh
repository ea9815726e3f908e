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
    /**
     * Profile one (hardware, model) pair. Idempotent; call again to
     * refresh. Sampling covers lengths up to the model's max context
     * and batch sizes up to `maxBatch`.
     */
    void profile(const HardwareSpec &hw, const ModelSpec &m,
                 int maxBatch = 256);

    /** True once the pair has been profiled. */
    bool profiled(const HardwareSpec &hw, const ModelSpec &m) const;

    /** Interpolated prefill (TTFT-producing) iteration time. */
    Seconds prefillEstimate(const HardwareSpec &hw, const ModelSpec &m,
                            Tokens inputLen) const;

    /** Interpolated decode iteration time. */
    Seconds decodeEstimate(const HardwareSpec &hw, const ModelSpec &m,
                           int batchSize, Tokens avgLen) const;

    /** Number of profiled samples held for the pair (test aid). */
    std::size_t sampleCount(const HardwareSpec &hw,
                            const ModelSpec &m) const;

    /** One pair's profiled grid. */
    struct ProfileTable
    {
        std::vector<Tokens> lenGrid;
        std::vector<int> batchGrid;
        std::vector<Seconds> prefill;          ///< indexed like lenGrid
        std::vector<std::vector<Seconds>> decode; ///< [batch][len]
    };

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
     * table-taking estimates below.
     */
    const ProfileTable &tableFor(const HardwareSpec &hw,
                                 const ModelSpec &m) const;

    /** Interpolated prefill iteration time from a resolved table. */
    static Seconds prefillEstimate(const ProfileTable &t, Tokens inputLen);

    /** Interpolated decode iteration time from a resolved table. */
    static Seconds decodeEstimate(const ProfileTable &t, int batchSize,
                                  Tokens avgLen);

    /**
     * decodeEstimate over one table for a caller whose queries move
     * slowly. A shadow fast-forward changes the batch size only when a
     * prefill joins, and grows the mean length by one token per decode
     * step, so the cursor keeps its last two brackets: the batch
     * bracket until the batch size changes, and the length bracket
     * while the length stays inside the grid interval (g_lo, g_hi]
     * below the grid top. Any other query takes the full bracket
     * search. estimate() returns exactly decodeEstimate(table, batch,
     * len): both run the same interpolation on the same brackets.
     */
    class DecodeCursor
    {
      public:
        /** Point at `t`, forgetting any cached bracket. */
        void reset(const ProfileTable &t);

        Seconds estimate(int batchSize, Tokens avgLen);

      private:
        const ProfileTable *t_ = nullptr;
        /** Batch bracket of batch_. The zero state is bracket(0): a
         *  batch at or below the grid front clamps to index 0. */
        int batch_ = 0;
        std::size_t bl_ = 0, bh_ = 0;
        double wb_ = 0.0;
        /** Length bracket: indices and grid values of the interval a
         *  length in (gLo_, lenMax_] falls in. The zero state holds no
         *  length; lenMax_ is just below gHi_ for the top interval,
         *  where the grid top itself clamps. */
        std::size_t ll_ = 0, lh_ = 0;
        double gLo_ = 0.0, gHi_ = 0.0, lenMax_ = 0.0;
    };

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

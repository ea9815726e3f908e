/**
 * @file
 * Deterministic random-number facility.
 *
 * All stochastic components of the simulator draw from an Rng seeded
 * explicitly by the experiment, so every bench and test is reproducible.
 * Sub-streams are derived with SplitMix64 so that adding a consumer does
 * not perturb the draws seen by the others.
 */

#ifndef SLINFER_COMMON_RNG_HH
#define SLINFER_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace slinfer
{

/**
 * The standard's mt19937_64: the same seeding and the same outputs as
 * std::mt19937_64, with a twist that selects the xor mask without a
 * branch. It meets UniformRandomBitGenerator, so a std distribution
 * drawing from it draws what it drew from std::mt19937_64.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;
    static constexpr result_type default_seed = 5489u;

    explicit Mt19937_64(result_type seed = default_seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Words per block: one twist regenerates this many outputs. */
    static constexpr int kBlockWords = 312;

    result_type
    operator()()
    {
        if (pos_ == kN)
            twist();
        return temper(state_[pos_++]);
    }

    /** True when the next output starts a block, i.e. the next call
     *  twists. */
    bool atBlockStart() const { return pos_ == kN; }

    /**
     * The next kBlockWords outputs, in order, as kBlockWords calls of
     * operator() would return them: one twist, then every word
     * tempered. Only at a block start (atBlockStart()); the engine is
     * at the next one afterwards.
     */
    void nextBlock(result_type (&out)[kBlockWords]);

  private:
    static constexpr int kN = kBlockWords;
    static constexpr int kM = 156;

    /** The standard's tempering of one state word into an output. */
    static result_type
    temper(result_type y)
    {
        y ^= (y >> 29) & 0x5555555555555555ULL;
        y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
        y ^= (y << 37) & 0xFFF7EEE000000000ULL;
        return y ^ (y >> 43);
    }

    /** Regenerate all kN state words (the standard's transition). */
    void twist();

    result_type state_[kN];
    /** Next state word to temper; kN once the state is used up. */
    int pos_ = kN;
};

/**
 * static_cast<double>(x), correctly rounded, without the branch x86-64
 * needs to convert an unsigned 64-bit word: both 32-bit halves convert
 * exactly, the scaling by 2^32 is exact, and the sum rounds once.
 */
inline double
wordToDouble(std::uint64_t x)
{
    return static_cast<double>(static_cast<std::uint32_t>(x >> 32)) *
               0x1p32 +
           static_cast<double>(static_cast<std::uint32_t>(x));
}

/**
 * A uniform double in [0, 1) from one 64-bit engine word, as
 * libstdc++'s generate_canonical<double, 53> makes it: x / 2^64, with a
 * result that rounds up to 1.0 clamped to nextafter(1.0, 0.0).
 * Multiplying by 2^-64 is exact, so it equals the division.
 */
inline double
wordToUnit(std::uint64_t x)
{
    const double u = wordToDouble(x) * 0x1p-64;
    return u >= 1.0 ? 0x1.fffffffffffffp-1 : u;
}

/**
 * One candidate pair of libstdc++'s polar method: x = 2u - 1 and
 * y = 2u - 1 from two consecutive engine words, and r2 = x^2 + y^2.
 * Rng::normal() and Rng::logNormalBlock() both build their pairs here,
 * so both round the same way.
 */
struct PolarPair
{
    double y;
    double r2;
};

inline PolarPair
polarPair(std::uint64_t wordX, std::uint64_t wordY)
{
    const double x = 2.0 * wordToUnit(wordX) - 1.0;
    const double y = 2.0 * wordToUnit(wordY) - 1.0;
    return {y, x * x + y * y};
}

/** The polar method retries a pair outside the unit disc or at its
 *  centre (`r2 > 1.0 || r2 == 0.0`, evaluated without a branch). */
inline bool
polarRejects(double r2)
{
    return (r2 > 1.0) | (r2 == 0.0);
}

/** The normal draw of an accepted pair, given log(r2):
 *  y * sqrt(-2 * log(r2) / r2) * 1.0 + 0.0, libstdc++'s expression. */
inline double
polarNormal(double y, double r2, double logR2)
{
    const double mult = std::sqrt(-2 * logR2 / r2);
    return y * mult * 1.0 + 0.0;
}

/**
 * A seeded random stream with the distributions the workload generators
 * and performance models need.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed);

    /** Derive an independent child stream; deterministic in (seed, tag). */
    Rng fork(std::uint64_t tag) const;

    /** Uniform double in [0, 1). */
    double uniform() { return wordToUnit(engine_()); }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Exponential with the given rate (mean = 1/rate). */
    double exponential(double rate);

    /**
     * Lognormal parameterized by its median and the sigma of the
     * underlying normal. mean = median * exp(sigma^2 / 2).
     */
    double logNormalMedian(double median, double sigma);

    /** Gamma with the given shape and scale (mean = shape * scale). */
    double gamma(double shape, double scale);

    /**
     * Bounded Pareto on [lo, hi] with tail index alpha. Smaller alpha
     * means heavier tail.
     */
    double boundedPareto(double lo, double hi, double alpha);

    /** Standard normal draw. */
    double normal();

    /** Candidate pairs, hence at most this many draws, in one engine
     *  block. */
    static constexpr int kBlockPairs = Mt19937_64::kBlockWords / 2;

    /**
     * Fill `out` with exp(sigma * normal()) for the successive normal()
     * draws whose pairs the engine's next block holds, in draw order,
     * and return how many (about 122). The draws are the ones that
     * many normal() calls would make, bit for bit (DESIGN.md, "Noise
     * draws"). Draws nothing and returns 0 unless the engine is at a
     * block start, where no draw straddles a twist; it also returns 0
     * in the rare block that rejects all of its pairs. Either way the
     * stream's next draw is then normal()'s.
     */
    int logNormalBlock(double sigma, double (&out)[kBlockPairs]);

    /** Bernoulli with probability p of true. */
    bool chance(double p);

  private:
    Mt19937_64 engine_;
    std::uint64_t seed_;
};

/** SplitMix64 step, used for seed derivation. */
std::uint64_t splitMix64(std::uint64_t &state);

inline double
Rng::normal()
{
    // libstdc++'s polar method for a fresh normal_distribution(0, 1),
    // term for term, so every draw keeps its bits (DESIGN.md, "Noise
    // draws"). A fresh distribution discards its spare x * mult.
    PolarPair p;
    do {
        const std::uint64_t wordX = engine_();
        p = polarPair(wordX, engine_());
    } while (polarRejects(p.r2));
    return polarNormal(p.y, p.r2, std::log(p.r2));
}

} // namespace slinfer

#endif // SLINFER_COMMON_RNG_HH

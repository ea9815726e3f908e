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

#include <cstdint>
#include <random>

namespace slinfer
{

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
    double uniform();

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

    /** Bernoulli with probability p of true. */
    bool chance(double p);

  private:
    std::mt19937_64 engine_;
    std::uint64_t seed_;
};

/** SplitMix64 step, used for seed derivation. */
std::uint64_t splitMix64(std::uint64_t &state);

} // namespace slinfer

#endif // SLINFER_COMMON_RNG_HH

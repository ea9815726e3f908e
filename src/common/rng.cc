#include "common/rng.hh"

#include <cmath>
#include <random>

namespace slinfer
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

Mt19937_64::Mt19937_64(result_type seed)
{
    state_[0] = seed;
    for (int i = 1; i < kN; ++i) {
        const result_type prev = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) +
                    static_cast<result_type>(i);
    }
}

void
Mt19937_64::twist()
{
    constexpr result_type kUpper = ~result_type(0) << 31;
    constexpr result_type kLower = ~kUpper;
    constexpr result_type kA = 0xB5026F5AA96619E9ULL;
    // 0 - (y & 1) is all ones when y is odd: the mask replaces the
    // branch on the low bit, which mispredicts half the time.
    auto next = [](result_type cur, result_type succ, result_type far) {
        const result_type y = (cur & kUpper) | (succ & kLower);
        return far ^ (y >> 1) ^ (kA & (0 - (y & 1)));
    };
    int i = 0;
    for (; i < kN - kM; ++i)
        state_[i] = next(state_[i], state_[i + 1], state_[i + kM]);
    for (; i < kN - 1; ++i)
        state_[i] = next(state_[i], state_[i + 1], state_[i + kM - kN]);
    state_[kN - 1] = next(state_[kN - 1], state_[0], state_[kM - 1]);
    pos_ = 0;
}

void
Mt19937_64::nextBlock(result_type (&out)[kBlockWords])
{
    twist();
    for (int i = 0; i < kN; ++i)
        out[i] = temper(state_[i]);
    pos_ = kN;
}

namespace
{

/** Expand a user seed through SplitMix64 so nearby seeds give
 *  uncorrelated streams. */
std::uint64_t
engineSeed(std::uint64_t seed)
{
    return splitMix64(seed);
}

} // namespace

Rng::Rng(std::uint64_t seed) : engine_(engineSeed(seed)), seed_(seed)
{
}

Rng
Rng::fork(std::uint64_t tag) const
{
    std::uint64_t s = seed_ ^ (tag * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL);
    return Rng(splitMix64(s));
}

double
Rng::uniform(double lo, double hi)
{
    // std::uniform_real_distribution(lo, hi)'s expression.
    return uniform() * (hi - lo) + lo;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double
Rng::exponential(double rate)
{
    return std::exponential_distribution<double>(rate)(engine_);
}

double
Rng::logNormalMedian(double median, double sigma)
{
    return std::lognormal_distribution<double>(std::log(median),
                                               sigma)(engine_);
}

double
Rng::gamma(double shape, double scale)
{
    return std::gamma_distribution<double>(shape, scale)(engine_);
}

double
Rng::boundedPareto(double lo, double hi, double alpha)
{
    // Inverse-CDF sampling of the bounded Pareto distribution.
    double u = uniform();
    double la = std::pow(lo, alpha);
    double ha = std::pow(hi, alpha);
    double x = -(u * ha - u * la - ha) / (ha * la);
    return std::pow(x, -1.0 / alpha);
}

int
Rng::logNormalBlock(double sigma, double (&out)[kBlockPairs])
{
    if (!engine_.atBlockStart())
        return 0;
    std::uint64_t words[Mt19937_64::kBlockWords];
    engine_.nextBlock(words);
    // Every candidate is written at the next free place and kept by
    // advancing k, so the accepted pairs stay in draw order and a
    // rejected one is overwritten without a branch.
    double r2s[kBlockPairs];
    int k = 0;
    for (int i = 0; i < kBlockPairs; ++i) {
        const PolarPair p = polarPair(words[2 * i], words[2 * i + 1]);
        out[k] = p.y;
        r2s[k] = p.r2;
        k += !polarRejects(p.r2);
    }
    // normal()'s operations in three passes, so the libm calls run
    // back to back and the arithmetic between them vectorises; each
    // element goes through the same operations on the same operands.
    double logs[kBlockPairs];
    for (int j = 0; j < k; ++j)
        logs[j] = std::log(r2s[j]);
    for (int j = 0; j < k; ++j)
        out[j] = sigma * polarNormal(out[j], r2s[j], logs[j]);
    for (int j = 0; j < k; ++j)
        out[j] = std::exp(out[j]);
    return k;
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

} // namespace slinfer

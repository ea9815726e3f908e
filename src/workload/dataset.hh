/**
 * @file
 * Request length datasets.
 *
 * The paper samples input/output lengths from the Azure LLM traces
 * (Splitwise) and, for the sensitivity study (Fig. 34/35), from
 * HumanEval, ShareGPT and LongBench. We do not ship the raw traces;
 * instead each dataset is a truncated-lognormal sampler whose median,
 * spread and clamps are matched to the published CDFs (Fig. 34) —
 * a substitution documented in DESIGN.md. The scheduler only ever
 * consumes the sampled lengths.
 */

#ifndef SLINFER_WORKLOAD_DATASET_HH
#define SLINFER_WORKLOAD_DATASET_HH

#include <cstddef>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"

namespace slinfer
{

enum class DatasetKind
{
    AzureConv,
    AzureCode,
    HumanEval,
    ShareGPT,
    LongBench,
};

/** Number of DatasetKind values (LongBench is the last). */
constexpr std::size_t kDatasetKinds =
    static_cast<std::size_t>(DatasetKind::LongBench) + 1;

/** One request's input and target output length. */
struct LengthSample
{
    Tokens input = 0;
    Tokens output = 0;
};

/**
 * A length sampler for one dataset.
 */
class Dataset
{
  public:
    explicit Dataset(DatasetKind kind);

    DatasetKind kind() const { return kind_; }
    const char *name() const;

    /** Draw a request's lengths. */
    LengthSample sample(Rng &rng) const;

    /** Analytic mean output length (for Eq. 2's historical average). */
    double meanOutput() const;

    /** Analytic mean input length. */
    double meanInput() const;

    /** Largest input length the sampler can produce. */
    Tokens maxInput() const;

  private:
    struct Params
    {
        double inMedian, inSigma;
        Tokens inLo, inHi;
        double outMedian, outSigma;
        Tokens outLo, outHi;
    };

    static Params paramsFor(DatasetKind kind);

    DatasetKind kind_;
    Params p_;
};

} // namespace slinfer

#endif // SLINFER_WORKLOAD_DATASET_HH

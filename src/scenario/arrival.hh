/**
 * @file
 * Composable arrival processes.
 *
 * Every workload the harness can drive — the paper's Azure serverless
 * trace, BurstGPT, and the synthetic what-if loads (steady Poisson,
 * diurnal envelopes, MMPP flash crowds, ramp/step transitions) — sits
 * behind one interface: a deterministic generator from a seed to a
 * sorted, duration-stamped trace. Scenarios
 * (scenario.hh) bundle an ArrivalProcess with a model fleet, dataset,
 * cluster and SLO; the harness consumes the generated trace unchanged.
 */

#ifndef SLINFER_SCENARIO_ARRIVAL_HH
#define SLINFER_SCENARIO_ARRIVAL_HH

#include <memory>
#include <vector>

#include "workload/azure_trace.hh"
#include "workload/burstgpt.hh"

namespace slinfer
{
namespace scenario
{

/**
 * An arrival process: deterministically expands a seed into a full
 * invocation trace over `numModels()` models and `duration()` seconds.
 *
 * Invariants every implementation guarantees:
 *  - arrivals are sorted by time and lie in [0, duration());
 *  - arrival.model < numModels();
 *  - the trace's `duration` field is stamped with duration();
 *  - generate(s) == generate(s) (bitwise deterministic in the seed).
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /** Short kind tag ("poisson", "diurnal", "azure", ...). */
    virtual const char *kind() const = 0;

    /** Generate the trace for this seed. */
    virtual AzureTrace generate(std::uint64_t seed) const = 0;

    /** Trace window, seconds. */
    virtual Seconds duration() const = 0;

    /** Number of models the arrivals reference. */
    virtual int numModels() const = 0;

    /**
     * Configured mean aggregate load in requests/minute over the whole
     * window (the calibration target the rate tests check against).
     */
    virtual double targetAggregateRpm() const = 0;
};

using ArrivalProcessPtr = std::shared_ptr<const ArrivalProcess>;

// ------------------------------------------------------------------
// Synthetic processes.
// ------------------------------------------------------------------

/**
 * Popularity split of an aggregate stream across models.
 * `zipfS == 0` is a uniform split; larger values concentrate load on
 * the low model ids (weight of model m is (m+1)^-zipfS).
 */
struct PopularitySplit
{
    double zipfS = 0.0;

    /** Normalized per-model weights. */
    std::vector<double> weights(int numModels) const;
};

/** Steady-state Poisson load split across the fleet. */
struct PoissonConfig
{
    int numModels = 32;
    Seconds duration = 1800.0;
    /** Aggregate mean arrival rate, requests/minute. */
    double aggregateRpm = 80.0;
    PopularitySplit split;
};

/**
 * Sinusoidal diurnal envelope: a non-homogeneous Poisson process with
 * rate(t) = mean * (1 + amplitude * sin(2*pi*t/period + phase)),
 * sampled by thinning. Models a day/night load cycle compressed into
 * the trace window.
 */
struct DiurnalConfig
{
    int numModels = 32;
    Seconds duration = 3600.0;
    /** Mean aggregate rate, requests/minute. */
    double aggregateRpm = 80.0;
    /** Peak-to-mean excursion in [0, 1). */
    double amplitude = 0.7;
    /** Seconds per full day/night cycle. */
    Seconds period = 3600.0;
    /** Phase offset, radians (default starts at the rising edge). */
    double phase = 0.0;
    PopularitySplit split;
};

/**
 * Two-state MMPP flash crowd: a quiet Poisson baseline that is
 * episodically interrupted by flash states with `flashFactor` times
 * the baseline rate. Flash arrivals concentrate on one "viral" model
 * per episode; quiet arrivals follow the popularity split.
 */
struct FlashCrowdConfig
{
    int numModels = 32;
    Seconds duration = 1800.0;
    /** Quiet-state aggregate rate, requests/minute. */
    double baselineRpm = 60.0;
    /** Flash-state rate multiplier. */
    double flashFactor = 12.0;
    /** Mean quiet-state dwell, seconds. */
    Seconds meanQuiet = 240.0;
    /** Mean flash-state dwell, seconds. */
    Seconds meanFlash = 30.0;
    PopularitySplit split;
};

/**
 * Ramp or step load transition from startRpm to endRpm. Linear shape
 * interpolates over the whole window; Step switches at stepAt.
 */
struct RampConfig
{
    enum class Shape { Linear, Step };

    int numModels = 32;
    Seconds duration = 1800.0;
    /** Aggregate rate at t = 0, requests/minute. */
    double startRpm = 20.0;
    /** Aggregate rate at t = duration, requests/minute. */
    double endRpm = 200.0;
    Shape shape = Shape::Linear;
    /** Switch time for Shape::Step (fraction of duration). */
    double stepAtFrac = 0.5;
    PopularitySplit split;
};

ArrivalProcessPtr makePoisson(const PoissonConfig &cfg);
ArrivalProcessPtr makeDiurnal(const DiurnalConfig &cfg);
ArrivalProcessPtr makeFlashCrowd(const FlashCrowdConfig &cfg);
ArrivalProcessPtr makeRamp(const RampConfig &cfg);

// ------------------------------------------------------------------
// Paper traces behind the same interface.
// ------------------------------------------------------------------

/** The Azure-serverless generator (workload/azure_trace.hh). The seed
 *  passed to generate() overrides cfg.seed, so
 *  makeAzure(cfg)->generate(cfg.seed) == generateAzureTrace(cfg). */
ArrivalProcessPtr makeAzure(const AzureTraceConfig &cfg);

/** The BurstGPT generator (workload/burstgpt.hh); same seed contract. */
ArrivalProcessPtr makeBurstGpt(const BurstGptConfig &cfg);

// ------------------------------------------------------------------
// Composition.
// ------------------------------------------------------------------

/**
 * Superpose several arrival processes over the same model space.
 *
 * Each component generates with an independent sub-seed derived from
 * the composite seed, the traces are merged by time (stable: equal
 * stamps keep component order), the duration is the longest
 * component's, and per-model rates add. All components must agree on
 * numModels. This is how long-duration fleet composites are built —
 * e.g. a diurnal baseline with an MMPP flash-crowd layer on top
 * (catalog entry `fleet-diurnal-surge`).
 */
ArrivalProcessPtr makeComposite(std::vector<ArrivalProcessPtr> parts);

} // namespace scenario
} // namespace slinfer

#endif // SLINFER_SCENARIO_ARRIVAL_HH

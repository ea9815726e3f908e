#include "scenario/arrival.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

#include "common/log.hh"

namespace slinfer
{
namespace scenario
{
namespace
{

/** Sort, clip to [0, duration), and derive realized per-model rates. */
AzureTrace
finalize(std::vector<Arrival> arrivals, int numModels, Seconds duration)
{
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival &a, const Arrival &b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  return a.model < b.model;
              });
    AzureTrace trace;
    trace.duration = duration;
    trace.perModelRpm.assign(numModels, 0.0);
    trace.arrivals.reserve(arrivals.size());
    for (const Arrival &a : arrivals) {
        if (a.time < 0 || a.time >= duration)
            continue;
        if (a.model >= static_cast<ModelId>(numModels))
            fatal("ArrivalProcess: arrival references unknown model");
        trace.arrivals.push_back(a);
        trace.perModelRpm[a.model] += 1.0;
    }
    for (double &rpm : trace.perModelRpm)
        rpm /= duration / 60.0;
    return trace;
}

/** Categorical draw from normalized weights via their running sum. */
class ModelPicker
{
  public:
    explicit ModelPicker(const std::vector<double> &weights)
        : cum_(weights.size())
    {
        std::partial_sum(weights.begin(), weights.end(), cum_.begin());
    }

    ModelId pick(Rng &rng) const
    {
        double u = rng.uniform(0.0, cum_.back());
        auto it = std::lower_bound(cum_.begin(), cum_.end(), u);
        return static_cast<ModelId>(it - cum_.begin());
    }

  private:
    std::vector<double> cum_;
};

/**
 * Non-homogeneous Poisson sampler by thinning: candidate arrivals at
 * `maxRps`, each kept with probability rate(t)/maxRps.
 */
template <typename RateFn>
std::vector<Arrival>
thinnedPoisson(Rng &rng, Seconds duration, double maxRps, RateFn rate,
               const ModelPicker &picker)
{
    std::vector<Arrival> arrivals;
    if (maxRps <= 0)
        return arrivals;
    Rng pick_rng = rng.fork(0x9A0DE1);
    Seconds t = rng.exponential(maxRps);
    while (t < duration) {
        if (rng.chance(rate(t) / maxRps))
            arrivals.push_back({t, picker.pick(pick_rng)});
        t += rng.exponential(maxRps);
    }
    return arrivals;
}

// ------------------------------------------------------------------
// Poisson.
// ------------------------------------------------------------------

class PoissonProcess final : public ArrivalProcess
{
  public:
    explicit PoissonProcess(const PoissonConfig &cfg) : cfg_(cfg)
    {
        if (cfg.numModels <= 0 || cfg.duration <= 0)
            fatal("PoissonProcess: bad configuration");
    }

    const char *kind() const override { return "poisson"; }
    Seconds duration() const override { return cfg_.duration; }
    int numModels() const override { return cfg_.numModels; }
    double targetAggregateRpm() const override { return cfg_.aggregateRpm; }

    AzureTrace generate(std::uint64_t seed) const override
    {
        Rng rng = Rng(seed).fork(0x90155);
        ModelPicker picker(cfg_.split.weights(cfg_.numModels));
        double rps = cfg_.aggregateRpm / 60.0;
        auto rate = [rps](Seconds) { return rps; };
        return finalize(
            thinnedPoisson(rng, cfg_.duration, rps, rate, picker),
            cfg_.numModels, cfg_.duration);
    }

  private:
    PoissonConfig cfg_;
};

// ------------------------------------------------------------------
// Diurnal.
// ------------------------------------------------------------------

class DiurnalProcess final : public ArrivalProcess
{
  public:
    explicit DiurnalProcess(const DiurnalConfig &cfg) : cfg_(cfg)
    {
        if (cfg.numModels <= 0 || cfg.duration <= 0 || cfg.period <= 0 ||
            cfg.amplitude < 0 || cfg.amplitude >= 1)
            fatal("DiurnalProcess: bad configuration");
    }

    const char *kind() const override { return "diurnal"; }
    Seconds duration() const override { return cfg_.duration; }
    int numModels() const override { return cfg_.numModels; }
    double targetAggregateRpm() const override
    {
        // Mean of rate(t) = R*(1 + A*sin(2*pi*t/P + phi)) over [0, D]:
        // the sinusoid's integral contributes A*(cos(phi) - cos(wD+phi))
        // * P/(2*pi*D); it vanishes when D is a whole number of periods.
        double w_end = 2.0 * M_PI * cfg_.duration / cfg_.period;
        double envelope = cfg_.amplitude *
                          (std::cos(cfg_.phase) -
                           std::cos(w_end + cfg_.phase)) /
                          w_end;
        return cfg_.aggregateRpm * (1.0 + envelope);
    }

    AzureTrace generate(std::uint64_t seed) const override
    {
        Rng rng = Rng(seed).fork(0xD1C4A1);
        ModelPicker picker(cfg_.split.weights(cfg_.numModels));
        double mean_rps = cfg_.aggregateRpm / 60.0;
        double max_rps = mean_rps * (1.0 + cfg_.amplitude);
        auto rate = [this, mean_rps](Seconds t) {
            double phase =
                2.0 * M_PI * t / cfg_.period + cfg_.phase;
            return mean_rps * (1.0 + cfg_.amplitude * std::sin(phase));
        };
        return finalize(
            thinnedPoisson(rng, cfg_.duration, max_rps, rate, picker),
            cfg_.numModels, cfg_.duration);
    }

  private:
    DiurnalConfig cfg_;
};

// ------------------------------------------------------------------
// MMPP flash crowd.
// ------------------------------------------------------------------

class FlashCrowdProcess final : public ArrivalProcess
{
  public:
    explicit FlashCrowdProcess(const FlashCrowdConfig &cfg) : cfg_(cfg)
    {
        if (cfg.numModels <= 0 || cfg.duration <= 0 ||
            cfg.baselineRpm <= 0 || cfg.flashFactor < 1 ||
            cfg.meanQuiet <= 0 || cfg.meanFlash <= 0)
            fatal("FlashCrowdProcess: bad configuration");
    }

    const char *kind() const override { return "flash-crowd"; }
    Seconds duration() const override { return cfg_.duration; }
    int numModels() const override { return cfg_.numModels; }
    double targetAggregateRpm() const override
    {
        double flash_frac =
            cfg_.meanFlash / (cfg_.meanQuiet + cfg_.meanFlash);
        return cfg_.baselineRpm *
               (1.0 + flash_frac * (cfg_.flashFactor - 1.0));
    }

    AzureTrace generate(std::uint64_t seed) const override
    {
        Rng rng = Rng(seed).fork(0xF1A54);
        ModelPicker picker(cfg_.split.weights(cfg_.numModels));

        // Background: quiet-state Poisson over the whole window.
        Rng bg_rng = rng.fork(1);
        Rng bg_pick = rng.fork(2);
        double base_rps = cfg_.baselineRpm / 60.0;
        std::vector<Arrival> arrivals;
        Seconds t = bg_rng.exponential(base_rps);
        while (t < cfg_.duration) {
            arrivals.push_back({t, picker.pick(bg_pick)});
            t += bg_rng.exponential(base_rps);
        }

        // Flash episodes: alternate quiet/flash dwells; each episode
        // pours the excess rate onto one "viral" model. flashFactor 1
        // degenerates to the plain baseline (no episodes).
        Rng ep_rng = rng.fork(3);
        double flash_rps = base_rps * (cfg_.flashFactor - 1.0);
        if (flash_rps <= 0)
            return finalize(std::move(arrivals), cfg_.numModels,
                            cfg_.duration);
        Seconds now = ep_rng.exponential(1.0 / cfg_.meanQuiet);
        while (now < cfg_.duration) {
            Seconds flash_end =
                now + ep_rng.exponential(1.0 / cfg_.meanFlash);
            flash_end = std::min(flash_end, cfg_.duration);
            ModelId viral = picker.pick(ep_rng);
            Seconds at = now + ep_rng.exponential(flash_rps);
            while (at < flash_end) {
                arrivals.push_back({at, viral});
                at += ep_rng.exponential(flash_rps);
            }
            now = flash_end + ep_rng.exponential(1.0 / cfg_.meanQuiet);
        }
        return finalize(std::move(arrivals), cfg_.numModels, cfg_.duration);
    }

  private:
    FlashCrowdConfig cfg_;
};

// ------------------------------------------------------------------
// Ramp / step.
// ------------------------------------------------------------------

class RampProcess final : public ArrivalProcess
{
  public:
    explicit RampProcess(const RampConfig &cfg) : cfg_(cfg)
    {
        if (cfg.numModels <= 0 || cfg.duration <= 0 || cfg.startRpm < 0 ||
            cfg.endRpm < 0 || cfg.stepAtFrac < 0 || cfg.stepAtFrac > 1)
            fatal("RampProcess: bad configuration");
    }

    const char *kind() const override
    {
        return cfg_.shape == RampConfig::Shape::Step ? "step" : "ramp";
    }
    Seconds duration() const override { return cfg_.duration; }
    int numModels() const override { return cfg_.numModels; }
    double targetAggregateRpm() const override
    {
        if (cfg_.shape == RampConfig::Shape::Step) {
            return cfg_.startRpm * cfg_.stepAtFrac +
                   cfg_.endRpm * (1.0 - cfg_.stepAtFrac);
        }
        return 0.5 * (cfg_.startRpm + cfg_.endRpm);
    }

    AzureTrace generate(std::uint64_t seed) const override
    {
        Rng rng = Rng(seed).fork(0x4A3F);
        ModelPicker picker(cfg_.split.weights(cfg_.numModels));
        double start_rps = cfg_.startRpm / 60.0;
        double end_rps = cfg_.endRpm / 60.0;
        double max_rps = std::max(start_rps, end_rps);
        Seconds step_at = cfg_.stepAtFrac * cfg_.duration;
        auto rate = [this, start_rps, end_rps, step_at](Seconds t) {
            if (cfg_.shape == RampConfig::Shape::Step)
                return t < step_at ? start_rps : end_rps;
            double f = t / cfg_.duration;
            return start_rps + f * (end_rps - start_rps);
        };
        return finalize(
            thinnedPoisson(rng, cfg_.duration, max_rps, rate, picker),
            cfg_.numModels, cfg_.duration);
    }

  private:
    RampConfig cfg_;
};

// ------------------------------------------------------------------
// Paper generators behind the interface.
// ------------------------------------------------------------------

class AzureProcess final : public ArrivalProcess
{
  public:
    explicit AzureProcess(const AzureTraceConfig &cfg) : cfg_(cfg) {}

    const char *kind() const override { return "azure"; }
    Seconds duration() const override { return cfg_.duration; }
    int numModels() const override { return cfg_.numModels; }
    double targetAggregateRpm() const override
    {
        return cfg_.perModelRpm * cfg_.numModels;
    }

    AzureTrace generate(std::uint64_t seed) const override
    {
        AzureTraceConfig cfg = cfg_;
        cfg.seed = seed;
        return generateAzureTrace(cfg);
    }

  private:
    AzureTraceConfig cfg_;
};

class BurstGptProcess final : public ArrivalProcess
{
  public:
    explicit BurstGptProcess(const BurstGptConfig &cfg) : cfg_(cfg) {}

    const char *kind() const override { return "burstgpt"; }
    Seconds duration() const override { return cfg_.duration; }
    int numModels() const override { return cfg_.numModels; }
    double targetAggregateRpm() const override
    {
        return cfg_.aggregateRps * 60.0;
    }

    AzureTrace generate(std::uint64_t seed) const override
    {
        BurstGptConfig cfg = cfg_;
        cfg.seed = seed;
        return generateBurstGpt(cfg);
    }

  private:
    BurstGptConfig cfg_;
};

// ------------------------------------------------------------------
// Composition.
// ------------------------------------------------------------------

class CompositeProcess final : public ArrivalProcess
{
  public:
    explicit CompositeProcess(std::vector<ArrivalProcessPtr> parts)
        : parts_(std::move(parts))
    {
    }

    const char *kind() const override { return "composite"; }

    Seconds
    duration() const override
    {
        Seconds d = 0.0;
        for (const auto &p : parts_)
            d = std::max(d, p->duration());
        return d;
    }

    int numModels() const override { return parts_[0]->numModels(); }

    double
    targetAggregateRpm() const override
    {
        // A component's arrivals all lie inside its own window, so
        // over the composite window its rate dilutes by the duration
        // ratio.
        Seconds window = duration();
        double rpm = 0.0;
        for (const auto &p : parts_)
            rpm += p->targetAggregateRpm() * (p->duration() / window);
        return rpm;
    }

    AzureTrace
    generate(std::uint64_t seed) const override
    {
        AzureTrace out;
        out.duration = duration();
        out.perModelRpm.assign(numModels(), 0.0);
        for (std::size_t i = 0; i < parts_.size(); ++i) {
            // Independent sub-seed per component (splitmix64 of the
            // composite seed and the component index).
            std::uint64_t sub =
                (seed + 0x9E3779B97F4A7C15ull * (i + 1));
            sub = (sub ^ (sub >> 30)) * 0xBF58476D1CE4E5B9ull;
            sub = (sub ^ (sub >> 27)) * 0x94D049BB133111EBull;
            sub ^= sub >> 31;
            AzureTrace part = parts_[i]->generate(sub);
            // Stable merge: equal times keep earlier components
            // first, so the composite is deterministic.
            std::vector<Arrival> merged;
            merged.reserve(out.arrivals.size() + part.arrivals.size());
            std::merge(out.arrivals.begin(), out.arrivals.end(),
                       part.arrivals.begin(), part.arrivals.end(),
                       std::back_inserter(merged),
                       [](const Arrival &a, const Arrival &b) {
                           return a.time < b.time;
                       });
            out.arrivals = std::move(merged);
            for (std::size_t m = 0; m < part.perModelRpm.size(); ++m)
                out.perModelRpm[m] += part.perModelRpm[m];
        }
        return out;
    }

  private:
    std::vector<ArrivalProcessPtr> parts_;
};

} // namespace

std::vector<double>
PopularitySplit::weights(int numModels) const
{
    if (numModels <= 0)
        fatal("PopularitySplit: numModels must be positive");
    std::vector<double> w(numModels);
    double sum = 0.0;
    for (int m = 0; m < numModels; ++m) {
        w[m] = zipfS == 0.0 ? 1.0 : std::pow(m + 1.0, -zipfS);
        sum += w[m];
    }
    for (double &x : w)
        x /= sum;
    return w;
}

ArrivalProcessPtr
makePoisson(const PoissonConfig &cfg)
{
    return std::make_shared<PoissonProcess>(cfg);
}

ArrivalProcessPtr
makeDiurnal(const DiurnalConfig &cfg)
{
    return std::make_shared<DiurnalProcess>(cfg);
}

ArrivalProcessPtr
makeFlashCrowd(const FlashCrowdConfig &cfg)
{
    return std::make_shared<FlashCrowdProcess>(cfg);
}

ArrivalProcessPtr
makeRamp(const RampConfig &cfg)
{
    return std::make_shared<RampProcess>(cfg);
}

ArrivalProcessPtr
makeAzure(const AzureTraceConfig &cfg)
{
    return std::make_shared<AzureProcess>(cfg);
}

ArrivalProcessPtr
makeBurstGpt(const BurstGptConfig &cfg)
{
    return std::make_shared<BurstGptProcess>(cfg);
}

ArrivalProcessPtr
makeComposite(std::vector<ArrivalProcessPtr> parts)
{
    if (parts.empty())
        fatal("makeComposite: no components");
    for (const auto &p : parts) {
        if (!p)
            fatal("makeComposite: null component");
        if (p->numModels() != parts[0]->numModels())
            fatal("makeComposite: components disagree on numModels");
    }
    return std::make_shared<CompositeProcess>(std::move(parts));
}

} // namespace scenario
} // namespace slinfer

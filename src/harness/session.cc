#include "harness/session.hh"

#include <algorithm>
#include <cmath>

#include "chaos/probe.hh"
#include "common/log.hh"

namespace slinfer
{

// --------------------------------------------------------------------
// Construction
// --------------------------------------------------------------------

Session::Session(const ExperimentConfig &cfg)
    : cfg_(cfg), lenRng_(Rng(cfg.seed).fork(0x1E46)),
      ivRng_(Rng(cfg.seed).fork(0xA11CE))
{
    // Chaos expands into ordinary timeline entries *before* validation,
    // so generated schedules obey the same well-formedness rules as
    // hand-written ones (and overlapping fail ranges are rejected, not
    // silently no-op'd). Generation is a pure function of (config,
    // duration, seed): the same faults fire at any sweep --jobs.
    if (cfg_.chaos.enabled()) {
        Seconds dur =
            cfg_.arrivals ? cfg_.arrivals->duration() : cfg_.trace.duration;
        if (cfg_.duration > 0)
            dur = cfg_.duration;
        if (!cfg_.stream.tracePath.empty() && dur <= 0)
            fatal("Session: chaos with a .strc replay needs an "
                  "explicit `duration` (the file header is read after "
                  "chaos expansion)");
        Timeline extra =
            chaos::generateChaosTimeline(cfg_.chaos, dur, cfg_.seed);
        cfg_.timeline.insert(cfg_.timeline.end(), extra.begin(),
                             extra.end());
    }
    cfg_.validate();

    // The flight recorder exists only when something is enabled; its
    // sinks are nullable pointers, so a disabled run pays nothing.
    if (cfg_.obs.any()) {
        obs_ = std::make_unique<obs::FlightRecorder>(cfg_.obs);
        sim_.attachObs(obs_->counters(), obs_->profiler());
    }

    // The arrival source. Generators produce a full AzureTrace (the
    // vector source owns it, and a pre-generated cfg_.trace moves
    // instead of being copied); a .strc replay reads chunk-at-a-time
    // from disk, which is the fully bounded-memory path.
    if (!cfg_.stream.tracePath.empty()) {
        std::string err;
        source_ = stream::makeStrcSource(cfg_.stream.tracePath, &err);
        if (!source_)
            fatal("Session: " + err);
        duration_ = source_->duration();
        if (cfg_.duration > 0) {
            if (duration_ > 0 &&
                std::abs(cfg_.duration - duration_) > 1e-9)
                fatal("Session: `duration` disagrees with the .strc "
                      "header duration; the trace is the source of "
                      "truth");
            duration_ = cfg_.duration;
        }
        if (duration_ <= 0)
            fatal("Session: .strc replay with no duration (header "
                  "unstamped and cfg.duration unset)");
        // validate() could not see the header's duration.
        cfg_.checkTimelineHorizon(duration_);
    } else {
        AzureTrace trace = cfg_.arrivals
                               ? cfg_.arrivals->generate(cfg_.seed)
                               : std::move(cfg_.trace);
        duration_ = trace.duration;
        if (cfg_.duration > 0)
            duration_ = cfg_.duration; // agreement checked by validate()
        source_ = stream::makeVectorSource(std::move(trace));
    }

    cluster_.nodes =
        buildCluster(cfg_.cluster, systemPartitions(cfg_.system));
    stats_ = std::make_unique<ClusterStats>(sim_, cluster_.nodes);
    cluster_.stats = stats_.get();
    if (cfg_.windows > 0)
        recorder_.enableWindows(duration_, cfg_.windows);
    // Anatomy blame windows share the Recorder's window grid so the
    // report's per-window attribution lines up with its TTFT rows.
    if (obs_ && obs_->anatomy() && cfg_.windows > 0)
        obs_->anatomy()->configureWindows(duration_, cfg_.windows);
    stats_->start(duration_);

    if (cfg_.datasetPerModel.empty()) {
        datasets_.assign(cfg_.models.size(), Dataset(cfg_.dataset));
    } else {
        for (DatasetKind kind : cfg_.datasetPerModel)
            datasets_.emplace_back(kind);
    }

    // TTFT samples: 8 B / completion. A source that cannot size
    // itself (sizeHint 0, e.g. a torn .strc read by a scan) grows the
    // recorder on demand.
    const std::uint64_t hint = source_->sizeHint();
    if (hint > 0)
        recorder_.reserve(hint);

    std::vector<double> avg_out(cfg_.models.size());
    for (std::size_t m = 0; m < cfg_.models.size(); ++m)
        avg_out[m] = meanOutput(datasets_[m].kind());
    ControllerConfig ctl_cfg = cfg_.controller;
    ctl_cfg.seed = cfg_.seed;
    controller_ = makeSystem(cfg_.system, sim_, cluster_, cfg_.models,
                             avg_out, ctl_cfg, recorder_);
    // Attach before any event runs: schedulers and memory subsystems
    // are created lazily at first dispatch, so all of them inherit the
    // sinks wired here.
    if (obs_)
        controller_->attachObs(obs_.get());

    // Arrival scheduling. The feed reserves its seq band here, before
    // the timeline arms, so trace arrival k carries tie-breaking
    // sequence number base + k whenever it is scheduled, and a trace
    // arrival at time T fires before an intervention at T
    // (stream/feed.hh).
    controller_->setReclaimHook([this](Request *r) {
        if (r->poolSlot != kRequestNotPooled)
            freeList_.push_back(r);
    });
    feed_ = std::make_unique<stream::StreamingArrivalFeed>(
        sim_, *source_,
        [this](const stream::TraceRecord &rec) {
            return acquirePooled(rec);
        },
        [this](Request *r) { arrive(r, 0); },
        [this](Request *r) { freeList_.push_back(r); });
    feed_->start();

    // Periodically sample KV utilization while the run is live
    // (Fig. 31); the timeline arms last so interventions at time T run
    // after the ordinary events scheduled for T at creation.
    sim_.schedule(1.0, [this] { sampleKv(); });
    for (const Intervention &iv : cfg_.timeline)
        sim_.scheduleAt(iv.at, [this, iv] { applyIntervention(iv); });

    // The resilience probe arms its window-close event here, after the
    // timeline: equal-time intervention events keep firing before it.
    if (cfg_.resilienceReport) {
        probe_ = std::make_unique<chaos::ResilienceProbe>(
            sim_, cluster_.nodes, *controller_, recorder_, duration_);
    }

    // Timeseries sampling starts with a t=0 row; later rows are taken
    // by chopping advances at the sample cadence (advanceSampled).
    if (obs_ && obs_->timeseries()) {
        recordSample();
        nextSample_ = obs_->timeseries()->sampleEvery();
    }
}

Session::~Session() = default;

std::unique_ptr<Session>
Session::create(const ExperimentConfig &cfg)
{
    return std::make_unique<Session>(cfg);
}

Request
Session::fillRequest(ModelId model, const ModelSpec &spec, Seconds at,
                     Tokens input, Tokens output)
{
    Request req;
    req.id = nextId_++;
    req.model = model;
    req.arrival = at;
    req.inputLen = std::clamp<Tokens>(input, 1, spec.maxContext - 64);
    req.targetOutput = std::clamp<Tokens>(
        output, 1, spec.maxContext - req.inputLen - 1);
    req.ttftSlo = cfg_.controller.slo.ttft(req.inputLen);
    req.tpotSlo = cfg_.controller.slo.tpot;
    return req;
}

Request
Session::materializeRequest(ModelId model, const ModelSpec &spec,
                            Seconds at, Rng &lenRng)
{
    LengthSample len = datasets_[model].sample(lenRng);
    return fillRequest(model, spec, at, len.input, len.output);
}

Request
Session::buildRequest(const stream::TraceRecord &rec)
{
    if (rec.model >= cfg_.models.size())
        fatal("Session: trace references unknown model");
    const ModelSpec &spec = cfg_.models[rec.model];
    if (source_->hasLengths())
        return fillRequest(rec.model, spec, rec.time,
                           static_cast<Tokens>(rec.inputLen),
                           static_cast<Tokens>(rec.targetOutput));
    return materializeRequest(rec.model, spec, rec.time, lenRng_);
}

Request *
Session::acquirePooled(const stream::TraceRecord &rec)
{
    Request *r;
    if (!freeList_.empty()) {
        r = freeList_.back();
        freeList_.pop_back();
    } else {
        pool_.emplace_back();
        r = &pool_.back();
    }
    *r = buildRequest(rec); // full reset: ids/refs never leak across
                            // pool generations
    r->poolSlot = 0; // pool-owned: the reclaim hook recycles it
    return r;
}

void
Session::sampleKv()
{
    double u = controller_->clusterIndex().kvUtilizationNow();
    if (u > 0) {
        kvSampling_.sum += u;
        ++kvSampling_.n;
    }
    if (sim_.now() + 2.0 <= duration_)
        sim_.schedule(2.0, [this] { sampleKv(); });
}

// --------------------------------------------------------------------
// Lifecycle
// --------------------------------------------------------------------

Seconds
Session::now() const
{
    return sim_.now();
}

void
Session::advanceTo(Seconds t)
{
    if (finished_)
        fatal("Session::advanceTo after finish()");
    if (t < sim_.now())
        fatal("Session::advanceTo into the past");
    advanceSampled(t);
    sim_.runUntil(t);
}

void
Session::advanceSampled(Seconds t)
{
    if (!obs_ || !obs_->timeseries())
        return;
    const Seconds every = obs_->timeseries()->sampleEvery();
    Seconds end = std::min(t, duration_);
    while (nextSample_ <= end) {
        sim_.runUntil(nextSample_);
        recordSample();
        nextSample_ += every;
    }
}

double
Session::meanOutput(DatasetKind kind)
{
    // Each value is a 4096-step integration; fleets share one kind.
    double &mean = meanOutput_[static_cast<std::size_t>(kind)];
    if (mean == 0)
        mean = Dataset(kind).meanOutput();
    return mean;
}

void
Session::recordSample()
{
    obs_->timeseries()->record(sample());
}

void
Session::advanceBy(Seconds dt)
{
    if (dt < 0)
        fatal("Session::advanceBy with negative delta");
    advanceTo(sim_.now() + dt);
}

Report
Session::finish()
{
    if (finished_)
        fatal("Session::finish called twice");
    // Take the sample points the caller never stepped across before
    // the final drain runs past the metrics window.
    advanceSampled(duration_);
    // Close the timeseries with a row at duration() when the run ends
    // inside a partial cadence window (no duplicate when the duration
    // is an exact multiple — the loop above already sampled it).
    if (obs_ && obs_->timeseries() &&
        nextSample_ - obs_->timeseries()->sampleEvery() < duration_) {
        if (sim_.now() < duration_)
            sim_.runUntil(duration_);
        recordSample();
    }
    // Drain: requests admitted inside the window complete past its
    // end, exactly as the one-shot driver always ran them.
    sim_.run();
    finished_ = true;

    Report report = Report::build(systemName(cfg_.system), recorder_,
                                  *stats_, cfg_.ttftCdfPoints);
    report.kvUtilization =
        kvSampling_.n ? kvSampling_.sum / kvSampling_.n : 0.0;
    report.scalingOverhead =
        controller_->clusterIndex().scalingOverheadFraction(sim_.now());
    if (obs_ && obs_->counters()) {
        const obs::Counters &c = *obs_->counters();
        report.counters.reserve(obs::kNumCounters);
        for (std::size_t i = 0; i < obs::kNumCounters; ++i)
            report.counters.emplace_back(obs::counterName(i), c.v[i]);
        // Ring-overwrite visibility: how many trace events were lost.
        // Appended past the registry so counters-only runs keep the
        // exact registry-order snapshot.
        if (obs_->trace())
            report.counters.emplace_back("trace_dropped",
                                         obs_->trace()->dropped());
    }
    if (obs_ && obs_->profiler())
        obs::addPhaseTotals(*obs_->profiler());
    if (obs_ && obs_->anatomy()) {
        obs::AnatomyLedger &led = *obs_->anatomy();
        led.finalize(sim_.now());
        Report::Attribution &a = report.attribution;
        a.enabled = true;
        a.requests = led.closedCount();
        a.violations = led.violationCount();
        a.segments.reserve(obs::kNumSegs);
        for (std::size_t s = 0; s < obs::kNumSegs; ++s) {
            obs::AnatomyLedger::SegAggregate agg = led.segment(s);
            Report::Attribution::Segment row;
            row.name = obs::segName(s);
            row.count = agg.count;
            row.totalS = static_cast<double>(agg.totalNs) * 1e-9;
            row.p50s = agg.p50s;
            row.p95s = agg.p95s;
            row.p99s = agg.p99s;
            row.blamed = agg.blamed;
            a.segments.push_back(std::move(row));
        }
        const std::vector<std::vector<std::uint64_t>> &per_model =
            led.perModel();
        for (std::size_t m = 0; m < per_model.size(); ++m) {
            bool any = false;
            for (std::uint64_t v : per_model[m])
                any = any || v != 0;
            if (!any)
                continue; // only models that blamed something
            Report::Attribution::ModelBlame row;
            // "m<id>:<name>": fleet scenarios deploy many models with
            // the same spec name, so the id keeps rows unambiguous.
            row.model = "m" + std::to_string(m) +
                        (m < controller_->models().size()
                             ? ":" + controller_->models()[m].spec.name
                             : "");
            row.blamed = per_model[m];
            a.perModel.push_back(std::move(row));
        }
        a.windowLen = led.windowLength();
        a.perWindow = led.perWindow();
    }
    if (probe_)
        probe_->finalize(report.resilience);
    return report;
}

MetricsView
Session::sample() const
{
    MetricsView v;
    v.time = sim_.now();
    v.arrived = recorder_.total();
    v.completed = recorder_.completed();
    v.dropped = recorder_.dropped();
    v.inFlight = v.arrived - v.completed - v.dropped;
    v.queueDepthPerModel = controller_->pendingPerModel();
    for (std::size_t depth : v.queueDepthPerModel)
        v.queueDepth += depth;
    const ClusterIndex &index = controller_->clusterIndex();
    v.instancesLive = index.activeInstances().size();
    v.instancesCreated = controller_->instancesCreated();
    v.kvUtilization = index.kvUtilizationNow();
    v.busySecondsCpu = index.busySeconds(HwKind::Cpu);
    v.busySecondsGpu = index.busySeconds(HwKind::Gpu);
    v.scalingOverhead = index.scalingOverheadFraction(sim_.now());
    return v;
}

// --------------------------------------------------------------------
// Interventions
// --------------------------------------------------------------------

void
Session::inject(const Intervention &iv)
{
    if (finished_)
        fatal("Session::inject after finish()");
    applyIntervention(iv);
}

ModelId
Session::checkedModel(const Intervention &iv) const
{
    if (iv.model < 0 ||
        static_cast<std::size_t>(iv.model) >= controller_->models().size())
        fatal(std::string("Session: intervention '") +
              interventionKindName(iv.kind) + "' references unknown model " +
              std::to_string(iv.model));
    return static_cast<ModelId>(iv.model);
}

void
Session::applyIntervention(const Intervention &iv)
{
    if (obs_ && obs_->trace() &&
        obs_->trace()->wants(obs::kCatIntervention)) {
        obs_->trace()->instant(obs::kCatIntervention,
                               interventionKindName(iv.kind), sim_.now(),
                               obs::kPidController, 0);
    }
    // The probe observes fail/restore *before* the controller hook:
    // it needs the pre-fault pending depth (failNode evicts the node's
    // requests into the queue) and the pre-event node state to reject
    // no-op duplicates.
    if (probe_ && (iv.kind == Intervention::Kind::NodeFail ||
                   iv.kind == Intervention::Kind::NodeRestore))
        probe_->onNodeEvent(iv);
    switch (iv.kind) {
      case Intervention::Kind::NodeFail:
        controller_->failNode(static_cast<NodeId>(iv.node));
        break;
      case Intervention::Kind::NodeRestore:
        controller_->restoreNode(static_cast<NodeId>(iv.node));
        break;
      case Intervention::Kind::NodeDegrade:
        controller_->degradeNode(static_cast<NodeId>(iv.node),
                                 iv.factor);
        break;
      case Intervention::Kind::NodeRecover:
        controller_->recoverNode(static_cast<NodeId>(iv.node));
        break;
      case Intervention::Kind::NetBrownout:
        controller_->setNetFactor(iv.factor);
        break;
      case Intervention::Kind::NetRestore:
        controller_->setNetFactor(1.0);
        break;
      case Intervention::Kind::ModelDeploy: {
        // The deployed model samples lengths from the scenario's
        // shared dataset; its arrivals come from later bursts.
        datasets_.emplace_back(cfg_.dataset);
        controller_->deployModel(iv.spec, meanOutput(cfg_.dataset));
        break;
      }
      case Intervention::Kind::ModelRedeploy:
        controller_->redeployModel(checkedModel(iv));
        break;
      case Intervention::Kind::ModelRetire: {
        ModelId m = checkedModel(iv);
        cancelFutureArrivals(m);
        controller_->retireModel(m);
        break;
      }
      case Intervention::Kind::ArrivalScale:
        if (iv.model >= 0)
            checkedModel(iv); // a typo'd filter must not silently no-op
        // Recorded, not applied: every arrival that fires from now on
        // passes through the rule (arrive). Factor 1 is a no-op.
        if (iv.factor != 1.0)
            scaleRules_.push_back(ScaleRule{iv.factor, iv.model});
        break;
      case Intervention::Kind::ArrivalBurst:
        injectBurst(checkedModel(iv), iv.rpm, iv.duration);
        break;
    }
}

void
Session::addExtraArrival(ModelId model, Seconds t, std::size_t firstRule)
{
    const ModelSpec &spec = controller_->models()[model].spec;
    extra_.push_back(materializeRequest(model, spec, t, ivRng_));
    Request *req = &extra_.back();
    extraEvents_.push_back(sim_.scheduleAt(
        t, [this, req, firstRule] { arrive(req, firstRule); }));
}

void
Session::arrive(Request *r, std::size_t firstRule)
{
    // A rule registered at T sees exactly the arrivals that fire after
    // it: every arrival with time > T (trace arrivals at T fire first,
    // their seq band predates the timeline). Draws come from ivRng_ in
    // fire order.
    for (std::size_t i = firstRule; i < scaleRules_.size(); ++i) {
        const ScaleRule rule = scaleRules_[i];
        if (rule.model >= 0 && r->model != static_cast<ModelId>(rule.model))
            continue;
        if (rule.factor < 1.0) {
            if (ivRng_.uniform() >= rule.factor) {
                if (r->poolSlot != kRequestNotPooled)
                    freeList_.push_back(r); // thinned: never submitted
                return;
            }
            continue;
        }
        // factor > 1: clone the arrival, jittered up to 1 s later so
        // copies do not land as simultaneous duplicates. A clone is
        // subject only to the rules after the one that made it.
        double surplus = rule.factor - 1.0;
        int clones = static_cast<int>(surplus);
        if (ivRng_.uniform() < surplus - clones)
            ++clones;
        for (int c = 0; c < clones; ++c) {
            // The max only bites for a record past the window (a .strc
            // may carry some): its clones land at its own time.
            Seconds t = std::min<Seconds>(r->arrival + ivRng_.uniform(),
                                          duration_);
            addExtraArrival(r->model, std::max(t, sim_.now()), i + 1);
        }
    }
    controller_->submit(r);
}

void
Session::cancelFutureArrivals(ModelId model)
{
    // The feed cancels its scheduled arrival and recycles future
    // records of the model at pump time; pending() is definitive for
    // the injected arrivals: fired and already-cancelled ones are
    // skipped, everything still scheduled is revoked.
    feed_->retireModel(model);
    for (std::size_t i = 0; i < extra_.size(); ++i) {
        if (extra_[i].model == model && extraEvents_[i].pending())
            extraEvents_[i].cancel();
    }
}

void
Session::injectBurst(ModelId model, double rpm, Seconds burstLen)
{
    if (rpm <= 0 || burstLen <= 0)
        return;
    double rate = rpm / 60.0;
    Seconds end = std::min(sim_.now() + burstLen, duration_);
    Seconds t = sim_.now();
    for (;;) {
        t += ivRng_.exponential(rate);
        if (t >= end)
            break;
        addExtraArrival(model, t, scaleRules_.size());
    }
}

} // namespace slinfer

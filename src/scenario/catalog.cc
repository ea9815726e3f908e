/**
 * @file
 * The built-in scenario catalog.
 *
 * Each entry is a complete, named experiment: workload shape, fleet,
 * datasets, cluster and SLO. The first entries mirror the paper's
 * Azure-serverless evaluation; the rest are the what-if loads the
 * ROADMAP asks for (steady state, diurnal cycles, flash crowds,
 * ramp/step transitions, multi-tenant Zipf mixes, long-context hubs,
 * and the timeline-driven fault/deploy/surge family at the bottom).
 * Add new scenarios here; tests/test_scenario.cc checks every entry's
 * determinism, rate calibration and registry round-trip automatically.
 */

#include "scenario/scenario.hh"

namespace slinfer
{
namespace scenario
{
namespace
{

Scenario
quickstart()
{
    Scenario sc;
    sc.name = "quickstart";
    sc.summary = "4 private 7B models on 1 CPU + 1 GPU node, 5-minute "
                 "serverless trace";
    AzureTraceConfig tc;
    tc.numModels = 4;
    tc.duration = 300.0;
    sc.arrivals = makeAzure(tc);
    sc.models = fleet({{llama2_7b(), 4}});
    sc.cluster.cpuNodes = 1;
    sc.cluster.gpuNodes = 1;
    sc.seed = 42;
    return sc;
}

Scenario
azure64()
{
    Scenario sc;
    sc.name = "azure-64";
    sc.summary = "the paper's mid-scale evaluation: 64 7B models, "
                 "30-minute Azure serverless trace";
    AzureTraceConfig tc;
    tc.numModels = 64;
    tc.duration = 1800.0;
    sc.arrivals = makeAzure(tc);
    sc.models = fleet({{llama2_7b(), 64}});
    return sc;
}

Scenario
azure128()
{
    Scenario sc;
    sc.name = "azure-128";
    sc.summary = "the paper's large-scale evaluation: 128 7B models on "
                 "an 8+8 cluster";
    AzureTraceConfig tc;
    tc.numModels = 128;
    tc.duration = 1800.0;
    sc.arrivals = makeAzure(tc);
    sc.models = fleet({{llama2_7b(), 128}});
    sc.cluster.cpuNodes = 8;
    sc.cluster.gpuNodes = 8;
    return sc;
}

Scenario
poissonSteady()
{
    Scenario sc;
    sc.name = "poisson-steady";
    sc.summary = "steady-state Poisson load, 32 7B models, uniform "
                 "popularity";
    PoissonConfig pc;
    pc.numModels = 32;
    pc.duration = 1800.0;
    pc.aggregateRpm = 80.0;
    sc.arrivals = makePoisson(pc);
    sc.models = fleet({{llama2_7b(), 32}});
    sc.cluster.cpuNodes = 2;
    sc.cluster.gpuNodes = 2;
    return sc;
}

Scenario
diurnalCycle()
{
    Scenario sc;
    sc.name = "diurnal-cycle";
    sc.summary = "one sinusoidal day/night cycle compressed into an "
                 "hour, 64 7B models";
    DiurnalConfig dc;
    dc.numModels = 64;
    dc.duration = 3600.0;
    dc.period = 3600.0;
    dc.aggregateRpm = 160.0;
    dc.amplitude = 0.7;
    dc.split.zipfS = 1.05;
    sc.arrivals = makeDiurnal(dc);
    sc.models = fleet({{llama2_7b(), 64}});
    return sc;
}

Scenario
flashCrowd()
{
    Scenario sc;
    sc.name = "flash-crowd";
    sc.summary = "MMPP bursts: quiet baseline with 12x flash episodes "
                 "concentrated on one viral model";
    FlashCrowdConfig fc;
    fc.numModels = 32;
    fc.duration = 1800.0;
    fc.baselineRpm = 60.0;
    fc.flashFactor = 12.0;
    fc.split.zipfS = 1.1;
    sc.arrivals = makeFlashCrowd(fc);
    sc.models = fleet({{llama2_7b(), 32}});
    sc.cluster.cpuNodes = 3;
    sc.cluster.gpuNodes = 3;
    return sc;
}

Scenario
rampUp()
{
    Scenario sc;
    sc.name = "ramp-up";
    sc.summary = "linear load ramp from 20 to 200 requests/minute over "
                 "30 minutes";
    RampConfig rc;
    rc.numModels = 32;
    rc.duration = 1800.0;
    rc.startRpm = 20.0;
    rc.endRpm = 200.0;
    sc.arrivals = makeRamp(rc);
    sc.models = fleet({{llama2_7b(), 32}});
    sc.cluster.cpuNodes = 3;
    sc.cluster.gpuNodes = 3;
    return sc;
}

Scenario
stepSurge()
{
    Scenario sc;
    sc.name = "step-surge";
    sc.summary = "6x step surge halfway through the window (capacity "
                 "reaction test)";
    RampConfig rc;
    rc.numModels = 32;
    rc.duration = 1800.0;
    rc.startRpm = 40.0;
    rc.endRpm = 240.0;
    rc.shape = RampConfig::Shape::Step;
    rc.stepAtFrac = 0.5;
    sc.arrivals = makeRamp(rc);
    sc.models = fleet({{llama2_7b(), 32}});
    sc.cluster.cpuNodes = 3;
    sc.cluster.gpuNodes = 3;
    return sc;
}

Scenario
zipfMultitenant()
{
    Scenario sc;
    sc.name = "zipf-multitenant";
    sc.summary = "48-tenant Zipf(1.2) mix of 3B/7B/8B/13B models with "
                 "per-tenant datasets";
    PoissonConfig pc;
    pc.numModels = 48;
    pc.duration = 1800.0;
    pc.aggregateRpm = 120.0;
    pc.split.zipfS = 1.2;
    sc.arrivals = makePoisson(pc);
    sc.models = fleet({{llama32_3b(), 16},
                       {llama2_7b(), 16},
                       {llama31_8b(), 8},
                       {llama2_13b(), 8}});
    // Dataset mix: chat tenants on the conversation trace, the 8B
    // group serving code, the 13B group long-form ShareGPT.
    sc.datasetPerModel.assign(16, DatasetKind::AzureConv);
    sc.datasetPerModel.insert(sc.datasetPerModel.end(), 16,
                              DatasetKind::AzureConv);
    sc.datasetPerModel.insert(sc.datasetPerModel.end(), 8,
                              DatasetKind::AzureCode);
    sc.datasetPerModel.insert(sc.datasetPerModel.end(), 8,
                              DatasetKind::ShareGPT);
    return sc;
}

Scenario
mixedFleet()
{
    Scenario sc;
    sc.name = "mixed-fleet";
    sc.summary = "heterogeneous 7B/13B/34B fleet on a 6+6 cluster, "
                 "Azure arrivals";
    AzureTraceConfig tc;
    tc.numModels = 36;
    tc.duration = 1800.0;
    sc.arrivals = makeAzure(tc);
    sc.models = fleet({{llama2_7b(), 24},
                       {llama2_13b(), 8},
                       {codellama_34b(), 4}});
    sc.cluster.cpuNodes = 6;
    sc.cluster.gpuNodes = 6;
    return sc;
}

Scenario
burstGptSteady()
{
    Scenario sc;
    sc.name = "burstgpt";
    sc.summary = "BurstGPT gamma inter-arrivals (2 rps aggregate) over "
                 "64 7B models";
    BurstGptConfig bc;
    bc.numModels = 64;
    bc.duration = 1800.0;
    bc.aggregateRps = 2.0;
    sc.arrivals = makeBurstGpt(bc);
    sc.models = fleet({{llama2_7b(), 64}});
    return sc;
}

Scenario
longContextHub()
{
    Scenario sc;
    sc.name = "longcontext-hub";
    sc.summary = "16 long-context 8B models fed 32K-token LongBench "
                 "requests";
    PoissonConfig pc;
    pc.numModels = 16;
    pc.duration = 1800.0;
    pc.aggregateRpm = 24.0;
    sc.arrivals = makePoisson(pc);
    sc.models = fleet({{llama31_8b(), 16}});
    sc.dataset = DatasetKind::LongBench;
    sc.cluster.cpuNodes = 2;
    sc.cluster.gpuNodes = 2;
    return sc;
}

Scenario
tightSloFlash()
{
    Scenario sc = flashCrowd();
    sc.name = "flash-crowd-tight";
    sc.summary = "the flash-crowd load under a 0.1 s TPOT SLO "
                 "(latency-critical tenants)";
    sc.controller.slo = tightSlo(0.1);
    return sc;
}

// ------------------------------------------------------------------
// The fleet family: 10x/100x the paper's model counts plus
// long-duration composites — the loads the event-arena rebuild of
// the simulator core exists to make routine (see DESIGN.md, "The
// event arena"). fleet-640 is part of the CI smoke grid
// (sweeps/smoke.manifest).
// ------------------------------------------------------------------

Scenario
fleet640()
{
    Scenario sc;
    sc.name = "fleet-640";
    sc.summary = "10x the paper's mid-scale fleet: 640 7B models on a "
                 "40+40 cluster, Azure serverless arrivals";
    AzureTraceConfig tc;
    tc.numModels = 640;
    tc.duration = 1800.0;
    sc.arrivals = makeAzure(tc);
    sc.models = fleet({{llama2_7b(), 640}});
    sc.cluster.cpuNodes = 40;
    sc.cluster.gpuNodes = 40;
    return sc;
}

Scenario
fleet6400()
{
    Scenario sc;
    sc.name = "fleet-6400";
    sc.summary = "100x scale: 6400 7B models on a 400+400 cluster "
                 "(sized for the arena core; minutes of wall-clock)";
    AzureTraceConfig tc;
    tc.numModels = 6400;
    tc.duration = 1800.0;
    sc.arrivals = makeAzure(tc);
    sc.models = fleet({{llama2_7b(), 6400}});
    sc.cluster.cpuNodes = 400;
    sc.cluster.gpuNodes = 400;
    return sc;
}

Scenario
fleetDiurnalSurge()
{
    Scenario sc;
    sc.name = "fleet-diurnal-surge";
    sc.summary = "1-hour composite over 320 models: a diurnal cycle "
                 "with an MMPP flash-crowd layer on top";
    DiurnalConfig dc;
    dc.numModels = 320;
    dc.duration = 3600.0;
    dc.period = 3600.0;
    dc.aggregateRpm = 480.0;
    dc.amplitude = 0.7;
    dc.split.zipfS = 1.05;
    FlashCrowdConfig fc;
    fc.numModels = 320;
    fc.duration = 3600.0;
    fc.baselineRpm = 96.0;
    fc.flashFactor = 12.0;
    fc.split.zipfS = 1.1;
    sc.arrivals = makeComposite({makeDiurnal(dc), makeFlashCrowd(fc)});
    sc.models = fleet({{llama2_7b(), 320}});
    sc.cluster.cpuNodes = 24;
    sc.cluster.gpuNodes = 24;
    return sc;
}

// ------------------------------------------------------------------
// Timeline-driven scenarios: the Session lifecycle's scripted
// interventions (harness/intervention.hh) expressed as catalog
// entries — node failures, rolling deploys and arrival surges that a
// config-then-run-to-completion driver could not describe.
// ------------------------------------------------------------------

Intervention
at(Seconds when, Intervention::Kind kind)
{
    Intervention iv;
    iv.at = when;
    iv.kind = kind;
    return iv;
}

Scenario
fleetNodeFailure()
{
    Scenario sc;
    sc.name = "fleet-node-failure";
    sc.summary = "steady Poisson fleet losing a GPU node at 300 s "
                 "(restored at 600 s)";
    PoissonConfig pc;
    pc.numModels = 32;
    pc.duration = 900.0;
    pc.aggregateRpm = 80.0;
    sc.arrivals = makePoisson(pc);
    sc.models = fleet({{llama2_7b(), 32}});
    sc.cluster.cpuNodes = 3;
    sc.cluster.gpuNodes = 3;
    // Node ids: CPUs first, so node 4 is the middle GPU node.
    Intervention failGpu = at(300.0, Intervention::Kind::NodeFail);
    failGpu.node = 4;
    Intervention restoreGpu = at(600.0, Intervention::Kind::NodeRestore);
    restoreGpu.node = 4;
    sc.timeline = {failGpu, restoreGpu};
    return sc;
}

Scenario
fleetRollingDeploy()
{
    Scenario sc;
    sc.name = "fleet-rolling-deploy";
    sc.summary = "rolling redeploy wave: one model drained and "
                 "cold-restarted every 60 s from t=300";
    PoissonConfig pc;
    pc.numModels = 32;
    pc.duration = 1800.0;
    pc.aggregateRpm = 80.0;
    sc.arrivals = makePoisson(pc);
    sc.models = fleet({{llama2_7b(), 32}});
    sc.cluster.cpuNodes = 3;
    sc.cluster.gpuNodes = 3;
    for (int m = 0; m < 8; ++m) {
        Intervention roll =
            at(300.0 + 60.0 * m, Intervention::Kind::ModelRedeploy);
        roll.model = m;
        sc.timeline.push_back(roll);
    }
    return sc;
}

Scenario
fleetSurgeScale()
{
    Scenario sc;
    sc.name = "fleet-surge-scale";
    sc.summary = "arrival rate doubles at 600 s with a hot-model burst "
                 "on top, then halves back at 1200 s";
    PoissonConfig pc;
    pc.numModels = 32;
    pc.duration = 1800.0;
    pc.aggregateRpm = 60.0;
    pc.split.zipfS = 1.05;
    sc.arrivals = makePoisson(pc);
    sc.models = fleet({{llama2_7b(), 32}});
    sc.cluster.cpuNodes = 3;
    sc.cluster.gpuNodes = 3;
    Intervention up = at(600.0, Intervention::Kind::ArrivalScale);
    up.factor = 2.0;
    Intervention burst = at(900.0, Intervention::Kind::ArrivalBurst);
    burst.model = 0;
    burst.rpm = 90.0;
    burst.duration = 120.0;
    Intervention down = at(1200.0, Intervention::Kind::ArrivalScale);
    down.factor = 0.5;
    sc.timeline = {up, burst, down};
    return sc;
}

// ------------------------------------------------------------------
// Chaos scenarios: stochastic fault processes (chaos/chaos.hh)
// expanded into the timeline from the run seed, paired with the
// controller resilience policies and the resilience-metrics probe.
// fleet-chaos-correlated is part of the CI smoke grid and the
// recovery-metrics gate (sweeps/smoke.manifest, sweep/compare.cc).
// ------------------------------------------------------------------

/** The shared chaos base: the fleet-node-failure load (3+3 cluster,
 *  node ids 3-5 are the GPUs) with the resilience policies on. */
Scenario
chaosBase()
{
    Scenario sc;
    PoissonConfig pc;
    pc.numModels = 32;
    pc.duration = 900.0;
    pc.aggregateRpm = 80.0;
    sc.arrivals = makePoisson(pc);
    sc.models = fleet({{llama2_7b(), 32}});
    sc.cluster.cpuNodes = 3;
    sc.cluster.gpuNodes = 3;
    sc.controller.resilience.backoff = true;
    sc.controller.resilience.failoverExclusion = 30.0;
    sc.resilienceReport = true;
    return sc;
}

Scenario
fleetChaosFlaky()
{
    Scenario sc = chaosBase();
    sc.name = "fleet-chaos-flaky";
    sc.summary = "Poisson MTBF/MTTR flaps on every GPU node, with "
                 "backoff, failover exclusion and batch-first shedding";
    chaos::FaultProcess flap;
    flap.kind = chaos::FaultProcess::Kind::NodeFlap;
    flap.firstNode = 3;
    flap.lastNode = 5;
    flap.mtbf = 250.0;
    flap.mttr = 40.0;
    sc.chaos.processes.push_back(flap);
    // Long-input requests (TTFT SLO >= 4 s, i.e. >= 2K input tokens)
    // count as batch class and shed first while nodes are down.
    sc.controller.resilience.shedBatchFirst = true;
    sc.controller.resilience.batchSloCutoff = 4.0;
    return sc;
}

Scenario
fleetChaosCorrelated()
{
    Scenario sc = chaosBase();
    sc.name = "fleet-chaos-correlated";
    sc.summary = "correlated blast radius: both spare GPU nodes fail "
                 "together at 300 s for 180 s (recovery-gate scenario)";
    chaos::FaultProcess blast;
    blast.kind = chaos::FaultProcess::Kind::CorrelatedFailure;
    blast.firstNode = 4;
    blast.lastNode = 5;
    blast.at = 300.0;
    blast.hold = 180.0;
    sc.chaos.processes.push_back(blast);
    return sc;
}

Scenario
fleetChaosStraggler()
{
    Scenario sc = chaosBase();
    sc.name = "fleet-chaos-straggler";
    sc.summary = "one GPU node runs 3x slower from 200 s, then a "
                 "fleet-wide 4x PD-transfer brownout from 500 s";
    chaos::FaultProcess slow;
    slow.kind = chaos::FaultProcess::Kind::Straggler;
    slow.firstNode = 5;
    slow.lastNode = 5;
    slow.at = 200.0;
    slow.hold = 300.0;
    slow.factor = 3.0;
    sc.chaos.processes.push_back(slow);
    chaos::FaultProcess brownout;
    brownout.kind = chaos::FaultProcess::Kind::NetBrownout;
    brownout.at = 500.0;
    brownout.hold = 200.0;
    brownout.factor = 4.0;
    sc.chaos.processes.push_back(brownout);
    return sc;
}

} // namespace

const std::vector<Scenario> &
all()
{
    static const std::vector<Scenario> catalog = {
        quickstart(),   azure64(),     azure128(),
        poissonSteady(), diurnalCycle(), flashCrowd(),
        rampUp(),       stepSurge(),   zipfMultitenant(),
        mixedFleet(),   burstGptSteady(), longContextHub(),
        tightSloFlash(), fleet640(),   fleet6400(),
        fleetDiurnalSurge(),
        fleetNodeFailure(), fleetRollingDeploy(), fleetSurgeScale(),
        fleetChaosFlaky(), fleetChaosCorrelated(),
        fleetChaosStraggler(),
    };
    return catalog;
}

} // namespace scenario
} // namespace slinfer

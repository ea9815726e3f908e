/**
 * @file
 * Cluster-index consistency tests (DESIGN.md, "Cluster indices"): the
 * incremental indices must agree with scans of the instance pool
 * after every transition of a randomized serverless churn, across 20
 * seeds.
 */

#include <gtest/gtest.h>

#include "core/controller.hh"
#include "harness/experiment.hh"
#include "metrics/recorder.hh"

namespace slinfer
{
namespace
{

struct IndexHarness
{
    void
    build(int cpus, int gpus, std::vector<ModelSpec> model_specs,
          ControllerConfig cfg = {})
    {
        cluster.cpuNodes = cpus;
        cluster.gpuNodes = gpus;
        nodes = buildCluster(cluster, 1);
        models = std::move(model_specs);
        std::vector<double> avg(models.size(), 250.0);
        ctl = std::make_unique<SlinferController>(sim, nodes, models, avg,
                                                  cfg, recorder, nullptr);
    }

    Request &
    submitAt(ModelId model, Seconds arrival, Tokens in, Tokens out)
    {
        auto r = std::make_unique<Request>();
        r->id = nextReq++;
        r->model = model;
        r->arrival = arrival;
        r->inputLen = in;
        r->targetOutput = out;
        r->ttftSlo = std::min(std::max(0.5, in / 512.0), 8.0);
        r->tpotSlo = 0.25;
        Request *p = r.get();
        reqs.push_back(std::move(r));
        sim.scheduleAt(arrival, [this, p] { ctl->submit(p); });
        return *p;
    }

    ClusterSpec cluster;
    Simulator sim;
    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<ModelSpec> models;
    Recorder recorder;
    std::unique_ptr<SlinferController> ctl;
    std::vector<std::unique_ptr<Request>> reqs;
    RequestId nextReq = 1;
};

/** One audit point: every index must match a scan of the pool. */
void
expectIndexMatchesPoolScans(IndexHarness &h)
{
    const ClusterIndex &idx = h.ctl->clusterIndex();
    const auto &pool = h.ctl->instancePool();

    // Structural audit: committed totals, free-set keys, active set.
    EXPECT_EQ(idx.auditAgainst(pool), "");

    // Cached partition views vs a fresh scan.
    std::vector<Partition *> cpu, gpu;
    for (const auto &node : h.nodes) {
        for (const auto &part : node->partitions())
            (node->isCpu() ? cpu : gpu).push_back(part.get());
    }
    std::vector<Partition *> cpuFirst = cpu;
    cpuFirst.insert(cpuFirst.end(), gpu.begin(), gpu.end());
    EXPECT_EQ(idx.partitions(true), cpuFirst);
    EXPECT_EQ(idx.partitions(false), gpu);

    // KV utilization walks the same elements in the same order as a
    // pool scan, so the double must be bit-identical.
    double kv_sum = 0.0;
    std::size_t kv_n = 0;
    for (const auto &inst : pool) {
        if (inst->state == InstanceState::Active && inst->loadSize() > 0) {
            kv_sum += inst->kv.utilization();
            ++kv_n;
        }
    }
    EXPECT_EQ(h.ctl->kvUtilizationNow(),
              kv_n ? kv_sum / static_cast<double>(kv_n) : 0.0);

    // Running FP aggregates accumulate in event order rather than pool
    // order, so compare with a relative tolerance.
    for (HwKind kind : {HwKind::Cpu, HwKind::Gpu}) {
        double busy = 0.0;
        for (const auto &inst : pool) {
            if (inst->execSpec.kind == kind)
                busy += inst->busyTime;
        }
        EXPECT_NEAR(h.ctl->totalBusySeconds(kind), busy,
                    1e-9 * std::max(1.0, busy));
    }

    // The report-path query is an exact pool scan; the O(1) running
    // aggregate must track it to rounding error.
    double scaling = 0.0;
    double uptime = 0.0;
    for (const auto &inst : pool) {
        if (inst->activeAt < 0)
            continue;
        Seconds end = inst->state == InstanceState::Reclaimed
                          ? inst->activeAt + inst->busyTime +
                                inst->scalingTime
                          : h.sim.now();
        scaling += inst->scalingTime;
        uptime += std::max<Seconds>(end - inst->activeAt, 1e-9);
    }
    double fraction = uptime > 0 ? scaling / uptime : 0.0;
    EXPECT_EQ(h.ctl->scalingOverheadFraction(), fraction);
    EXPECT_NEAR(idx.scalingOverheadFraction(h.sim.now()), fraction,
                1e-9 * std::max(1.0, fraction));
}

/**
 * 20-seed fuzz: a random serverless churn (bursty arrivals over more
 * models than the cluster holds, long and short outputs, so loads,
 * unloads, resizes, evictions and demand-reclaims all fire) on a
 * small fleet, audited against pool scans at every 250 ms of
 * simulated time and at the end. Placement decisions themselves are
 * pinned end to end by the golden report digests (test_golden.cc).
 */
TEST(ClusterIndexFuzz, MatchesPoolScansThroughRandomChurn)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        IndexHarness h;
        ControllerConfig cfg;
        cfg.seed = seed;
        h.build(1, 2, {llama2_7b(), llama2_7b(), llama32_3b(),
                       llama31_8b()},
                cfg);

        Seconds t = 0.0;
        int n = static_cast<int>(rng.uniformInt(40, 90));
        for (int i = 0; i < n; ++i) {
            t += rng.exponential(2.0);
            ModelId m = static_cast<ModelId>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      h.models.size() - 1)));
            Tokens in = static_cast<Tokens>(rng.uniformInt(32, 3000));
            Tokens out = static_cast<Tokens>(
                rng.chance(0.2) ? rng.uniformInt(600, 1500)
                                : rng.uniformInt(10, 300));
            h.submitAt(m, t, in, out);
        }

        Seconds horizon = t + 30.0;
        for (Seconds at = 0.25; at < horizon; at += 0.25) {
            h.sim.runUntil(at);
            expectIndexMatchesPoolScans(h);
        }
        h.sim.run();
        expectIndexMatchesPoolScans(h);
    }
}

/** The cached views never reallocate and survive repeated queries. */
TEST(ClusterIndexView, StableAcrossQueries)
{
    IndexHarness h;
    h.build(2, 3, {llama2_7b()});
    const auto &v1 = h.ctl->clusterIndex().partitions(true);
    const auto &v2 = h.ctl->clusterIndex().partitions(true);
    EXPECT_EQ(&v1, &v2);
    EXPECT_EQ(v1.size(), 5u);
    // CPU partitions lead, each viewPos maps back to its partition.
    EXPECT_EQ(v1[0]->spec.kind, HwKind::Cpu);
    EXPECT_EQ(v1[4]->spec.kind, HwKind::Gpu);
    for (std::uint32_t i = 0; i < v1.size(); ++i) {
        EXPECT_EQ(v1[i]->viewPos, i);
        EXPECT_EQ(h.ctl->clusterIndex().partitionAt(i), v1[i]);
    }
    EXPECT_EQ(h.ctl->clusterIndex().partitions(false).size(), 3u);
}

/** Free-capacity keys shrink when budget is pledged and recover on
 *  reclamation. */
TEST(ClusterIndexFree, TracksPlacementBudget)
{
    IndexHarness h;
    h.build(0, 2, {llama2_7b()});
    const ClusterIndex &idx = h.ctl->clusterIndex();
    Partition *p0 = idx.partitions(false)[0];
    Bytes cap = p0->mem.capacity();
    auto &fs = idx.freeSet(HwKind::Gpu);
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs.begin()->first, cap);

    // Place one instance; its partition's key must drop by the
    // pledged footprint.
    h.submitAt(0, 0.0, 512, 32);
    h.sim.runUntil(0.5);
    ASSERT_EQ(h.ctl->models()[0].instances.size(), 1u);
    const Instance *inst = h.ctl->models()[0].instances[0];
    Bytes pledged = inst->model.weightBytes() + inst->kvTarget;
    EXPECT_EQ(inst->primary->committedBytes, pledged);
    EXPECT_TRUE(fs.count({cap - pledged, inst->primary->viewPos}));
    EXPECT_EQ(idx.auditAgainst(h.ctl->instancePool()), "");

    // Run to completion + keep-alive reclamation: the key recovers.
    h.sim.run();
    EXPECT_EQ(p0->committedBytes, 0u);
    EXPECT_EQ(fs.begin()->first, cap);
    EXPECT_EQ(idx.auditAgainst(h.ctl->instancePool()), "");
}

} // namespace
} // namespace slinfer

/**
 * @file
 * Fig. 25: GPU memory-utilization CDF and decode batch-size CDF when
 * serving a 2:2:2 mix of 3B/7B/13B models. Paper: SLINFER reaches
 * near-1.0 memory utilization while sllm / sllm+c+s show a three-tier
 * pattern below 0.5; SLINFER's average batch is ~74% higher than
 * sllm's.
 */

#include "bench_util.hh"

using namespace slinfer;

namespace
{

struct Measured
{
    std::string name;
    CdfBuilder mem;
    CountCdf batch;
};

Measured
runWithStats(SystemKind sys)
{
    ExperimentConfig cfg;
    cfg.system = sys;
    ModelSpec sizes[3] = {llama32_3b(), llama2_7b(), llama2_13b()};
    for (int i = 0; i < 48; ++i)
        cfg.models.push_back(sizes[i % 3]);
    AzureTraceConfig tc;
    tc.numModels = 48;
    tc.seed = bench::kSeed;
    cfg.trace = generateAzureTrace(tc);

    Simulator sim;
    ClusterHandle cluster{buildCluster(cfg.cluster, systemPartitions(sys)),
                          nullptr};
    auto &nodes = cluster.nodes;
    Recorder recorder;
    ClusterStats stats(sim, nodes);
    cluster.stats = &stats;
    stats.start(cfg.trace.duration);
    Dataset dataset(cfg.dataset);
    Rng len_rng = Rng(cfg.seed).fork(0x1E46);
    std::deque<Request> requests;
    RequestId next_id = 1;
    for (const Arrival &a : cfg.trace.arrivals) {
        const ModelSpec &spec = cfg.models[a.model];
        LengthSample len = dataset.sample(len_rng);
        Request req;
        req.id = next_id++;
        req.model = a.model;
        req.arrival = a.time;
        req.inputLen = std::clamp<Tokens>(len.input, 1,
                                          spec.maxContext - 64);
        req.targetOutput = std::clamp<Tokens>(
            len.output, 1, spec.maxContext - req.inputLen - 1);
        req.ttftSlo = cfg.controller.slo.ttft(req.inputLen);
        req.tpotSlo = cfg.controller.slo.tpot;
        requests.push_back(req);
    }
    std::vector<double> avg(cfg.models.size(), dataset.meanOutput());
    auto ctl = makeSystem(sys, sim, cluster, cfg.models, avg,
                          cfg.controller, recorder);
    for (Request &req : requests)
        sim.scheduleAt(req.arrival, [&ctl, &req] { ctl->submit(&req); });
    sim.run();

    Measured m;
    m.name = systemName(sys);
    m.mem = stats.gpuMemUtilCdf();
    m.batch = stats.batchCdf();
    return m;
}

} // namespace

int
main()
{
    printBanner("Fig. 25 - GPU efficiency (3B:7B:13B = 2:2:2)");
    std::vector<Measured> ms;
    for (SystemKind sys : {SystemKind::Sllm, SystemKind::SllmCS,
                           SystemKind::Slinfer})
        ms.push_back(runWithStats(sys));

    Table t({"system", "mem p25", "mem p50", "mem p75", "mem mean",
             "batch p50", "batch p90", "batch mean"});
    for (Measured &m : ms) {
        t.addRow({m.name, Table::pct(m.mem.percentile(25.0)),
                  Table::pct(m.mem.percentile(50.0)),
                  Table::pct(m.mem.percentile(75.0)),
                  Table::pct(m.mem.mean()),
                  Table::num(m.batch.percentile(50.0), 1),
                  Table::num(m.batch.percentile(90.0), 1),
                  Table::num(m.batch.mean(), 1)});
    }
    t.print();
    std::printf("SLINFER / sllm mean batch ratio: %.2fx (paper: ~1.74x)\n",
                ms[2].batch.mean() / std::max(ms[0].batch.mean(), 1e-9));
    return 0;
}

/**
 * @file
 * Fig. 33: SLINFER's own scheduling overhead, measured on this
 * implementation with google-benchmark — shadow validation per arrival
 * and the token-level scheduling decision per iteration, as the
 * cluster grows from 2 to 8 nodes. Paper: both stay well under a
 * millisecond; validation grows mildly with candidate count, the
 * token-level decision is scale-independent (per node).
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "core/shadow_validator.hh"
#include "core/token_scheduler.hh"

using namespace slinfer;

namespace
{

struct Setup
{
    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<std::unique_ptr<Instance>> instances;
    std::vector<std::unique_ptr<Request>> requests;
    Quantifier quant;
    std::unique_ptr<ShadowValidator> validator;
    Request candidate;

    explicit Setup(int num_nodes)
    {
        quant.profile(a100_80g(), llama2_7b());
        validator = std::make_unique<ShadowValidator>(
            quant, ShadowConfig{1.10, 0.25, 500});
        InstanceId iid = 1;
        RequestId rid = 1;
        for (int n = 0; n < num_nodes; ++n) {
            nodes.push_back(
                std::make_unique<Node>(n, a100_80g(), 1));
            Partition *part = nodes.back()->partitions()[0].get();
            for (int i = 0; i < 4; ++i) {
                auto inst = std::make_unique<Instance>(
                    iid++, 0, llama2_7b(), part, a100_80g(),
                    Bytes{8'000'000'000});
                inst->setState(InstanceState::Active);
                for (int j = 0; j < 4; ++j) {
                    auto r = std::make_unique<Request>();
                    r->id = rid++;
                    r->arrival = 0.0;
                    r->inputLen = 1024;
                    r->targetOutput = 200;
                    r->generated = 10 + j;
                    r->ttftSlo = 2.0;
                    r->tpotSlo = 0.25;
                    r->state = RequestState::Decode;
                    inst->joinDecode(r.get());
                    requests.push_back(std::move(r));
                }
                instances.push_back(std::move(inst));
                part->addInstance(instances.back().get());
            }
        }
        candidate.id = rid;
        candidate.arrival = 10.0;
        candidate.inputLen = 1024;
        candidate.targetOutput = 200;
        candidate.ttftSlo = 2.0;
        candidate.tpotSlo = 0.25;
    }
};

void
BM_ShadowValidation(benchmark::State &state)
{
    Setup setup(static_cast<int>(state.range(0)));
    Partition *part = setup.nodes[0]->partitions()[0].get();
    Instance *target = part->instances[0];
    for (auto _ : state) {
        benchmark::DoNotOptimize(setup.validator->canAdmit(
            *part, target, setup.candidate, 10.0, 10.0));
    }
}

void
BM_TokenLevelDecision(benchmark::State &state)
{
    Setup setup(static_cast<int>(state.range(0)));
    const Partition &part = *setup.nodes[0]->partitions()[0];
    std::vector<Instance *> shortages;
    for (auto _ : state) {
        shortages.clear();
        benchmark::DoNotOptimize(TokenScheduler::pickNext(
            part, SchedPolicy::Headroom, 10.0, shortages));
    }
}

} // namespace

BENCHMARK(BM_ShadowValidation)->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK(BM_TokenLevelDecision)->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK_MAIN();

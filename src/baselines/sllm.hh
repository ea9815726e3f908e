/**
 * @file
 * The ServerlessLLM-family baselines (paper §IX-A).
 *
 *  - `sllm`: exclusive GPU allocation per instance; requests queue when
 *    no GPU is free; per-model-class concurrency caps (conservatively
 *    tailored, as the paper does, because the stock limit of 2 is
 *    uselessly low).
 *  - `sllm+c`: additionally uses CPU nodes, preferring them.
 *  - `sllm+c+s`: static time-sharing — every node is split into two
 *    half-partitions, each hosting one instance with halved resources
 *    and correspondingly lower caps. Exception (the paper's): 13B
 *    instances on a CPU keep the whole node.
 *
 * All baselines share SLINFER's cold-start loader, keep-alive policy
 * and proactive TTFT drops; they use vLLM-style prefill-first FIFO
 * iteration scheduling and size the KV cache statically to everything
 * left on the partition.
 */

#ifndef SLINFER_BASELINES_SLLM_HH
#define SLINFER_BASELINES_SLLM_HH

#include "core/controller.hh"

namespace slinfer
{

/** CPU nodes are used (the +c variants) when ControllerConfig::useCpu
 *  is set. */
struct SllmOptions
{
    /** Static half-node sharing (the +s variant); requires nodes to be
     *  built with two partitions. */
    bool staticShare = false;
};

class SllmController : public ControllerBase
{
  public:
    SllmController(Simulator &sim,
                   std::vector<std::unique_ptr<Node>> &nodes,
                   std::vector<ModelSpec> modelSpecs,
                   std::vector<double> initialAvgOutput,
                   ControllerConfig cfg, Recorder &recorder,
                   ClusterStats *stats, SllmOptions opts);

    /** The tailored per-instance concurrency caps (§IX-A). */
    static int concurrencyCap(ModelClass klass, HwKind kind, bool shared);

  protected:
    bool tryDispatch(Request *req) override;
    bool tryDispatchDecode(Request *req) override;
    SchedPolicy schedPolicy() const override;
    void handleKvShortage(Instance *inst) override;
    void doUnload(Instance *inst) override;

  private:
    bool cpuServable(const ModelSpec &spec) const;
    bool admitIfRoom(Request *req, Instance *inst, bool asDecode);
    /** Place a new instance for `model`; nullptr when no room. */
    Instance *createInstanceFor(ModelId model, InstanceRole role);

    SllmOptions opts_;
};

} // namespace slinfer

#endif // SLINFER_BASELINES_SLLM_HH

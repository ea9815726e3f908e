/**
 * @file
 * Cluster-level time-series metrics: average nodes used (per hardware
 * kind), memory utilization CDF of in-use GPU nodes, decode batch-size
 * CDF, decode throughput per node, and a GPU-usage timeline (for the
 * ablation figure). Sampling is periodic on the simulator clock; the
 * batch-size CDF keeps exact counts per batch size, so a decode
 * iteration costs one increment and the CDF's memory grows with the
 * largest batch, not with the number of iterations.
 */

#ifndef SLINFER_METRICS_CLUSTER_STATS_HH
#define SLINFER_METRICS_CLUSTER_STATS_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "engine/node.hh"
#include "sim/simulator.hh"

namespace slinfer
{

class ClusterStats
{
  public:
    ClusterStats(Simulator &sim,
                 const std::vector<std::unique_ptr<Node>> &nodes,
                 Seconds sampleInterval = 0.5);

    /** Begin periodic sampling, ending at `until`. */
    void start(Seconds until);

    /** Called by the token scheduler at every decode iteration. */
    void onDecodeIteration(HwKind kind, int batchSize, Tokens tokens);

    /** Average number of in-use nodes of the given kind. */
    double avgNodesUsed(HwKind kind) const;

    /** Total node-seconds during which nodes of `kind` were in use. */
    double nodeSecondsUsed(HwKind kind) const;

    /** Decode tokens emitted on nodes of `kind`. */
    Tokens decodeTokens(HwKind kind) const;

    /** Decode tokens per in-use-node-second (the paper's Decode Speed). */
    double decodeSpeed(HwKind kind) const;

    /** Memory utilization samples of in-use GPU nodes (Figs. 5, 25). */
    const CdfBuilder &gpuMemUtilCdf() const { return gpuMemUtil_; }

    /** Batch sizes observed at decode iterations (Fig. 25). */
    const CountCdf &batchCdf() const { return batch_; }

    /** (time, GPUs in use) timeline for the ablation figure. */
    const std::vector<std::pair<Seconds, double>> &gpuTimeline() const
    {
        return gpuTimeline_;
    }

  private:
    void sample();

    Simulator &sim_;
    const std::vector<std::unique_ptr<Node>> &nodes_;
    Seconds interval_;
    Seconds until_ = 0.0;

    std::size_t samples_ = 0;
    double usedSum_[2] = {0.0, 0.0};   // indexed by HwKind
    Tokens tokens_[2] = {0, 0};
    CdfBuilder gpuMemUtil_;
    CountCdf batch_;
    std::vector<std::pair<Seconds, double>> gpuTimeline_;
};

} // namespace slinfer

#endif // SLINFER_METRICS_CLUSTER_STATS_HH

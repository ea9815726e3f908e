#include "metrics/cluster_stats.hh"

namespace slinfer
{

namespace
{

int
kindIndex(HwKind kind)
{
    return kind == HwKind::Cpu ? 0 : 1;
}

} // namespace

ClusterStats::ClusterStats(Simulator &sim,
                           const std::vector<std::unique_ptr<Node>> &nodes,
                           Seconds sampleInterval)
    : sim_(sim), nodes_(nodes), interval_(sampleInterval)
{
}

void
ClusterStats::start(Seconds until)
{
    until_ = until;
    // Reserve-ahead: the number of samples is known exactly, and the
    // GPU memory-utilization CDF collects at most one point per GPU
    // node per sample. Growing these mid-run is avoidable churn.
    std::size_t nsamples =
        interval_ > 0
            ? static_cast<std::size_t>(until / interval_) + 2
            : 0;
    std::size_t gpu_nodes = 0;
    for (const auto &node : nodes_)
        if (node->spec().kind == HwKind::Gpu)
            ++gpu_nodes;
    gpuTimeline_.reserve(nsamples);
    gpuMemUtil_.reserve(nsamples * gpu_nodes);
    sim_.schedule(0.0, [this] { sample(); });
}

void
ClusterStats::sample()
{
    double used[2] = {0.0, 0.0};
    double gpus_used = 0.0;
    for (const auto &node : nodes_) {
        if (!node->inUse())
            continue;
        used[kindIndex(node->spec().kind)] += 1.0;
        if (node->spec().kind == HwKind::Gpu) {
            gpus_used += 1.0;
            Bytes live = 0;
            for (const auto &part : node->partitions())
                live += part->liveBytes();
            gpuMemUtil_.add(static_cast<double>(live) /
                            static_cast<double>(node->memCapacity()));
        }
    }
    usedSum_[0] += used[0];
    usedSum_[1] += used[1];
    gpuTimeline_.emplace_back(sim_.now(), gpus_used);
    ++samples_;

    if (sim_.now() + interval_ <= until_)
        sim_.schedule(interval_, [this] { sample(); });
}

void
ClusterStats::onDecodeIteration(HwKind kind, int batchSize, Tokens tokens)
{
    tokens_[kindIndex(kind)] += tokens;
    batch_.add(batchSize);
}

double
ClusterStats::avgNodesUsed(HwKind kind) const
{
    if (samples_ == 0)
        return 0.0;
    return usedSum_[kindIndex(kind)] / static_cast<double>(samples_);
}

double
ClusterStats::nodeSecondsUsed(HwKind kind) const
{
    return usedSum_[kindIndex(kind)] * interval_;
}

Tokens
ClusterStats::decodeTokens(HwKind kind) const
{
    return tokens_[kindIndex(kind)];
}

double
ClusterStats::decodeSpeed(HwKind kind) const
{
    double node_seconds = nodeSecondsUsed(kind);
    if (node_seconds <= 0)
        return 0.0;
    return static_cast<double>(decodeTokens(kind)) / node_seconds;
}

} // namespace slinfer

/**
 * @file
 * Roofline performance model: iteration latency as a function of
 * (hardware, model, input length, batch size, average context length).
 *
 * Prefill: max(compute, weight-streaming) + fixed overhead, where the
 * compute term includes the quadratic attention FLOPs.
 *
 * Decode (one token for every request in a batch of size B with average
 * context length L):
 *     (weights + B * L * kv_per_token) / effective_bandwidth
 *   + B * flops_per_token / (peak * eff_decode)
 *   + iter_overhead + B * per_request_overhead
 * The weights are read once per iteration regardless of B, which is why
 * batching is sub-linear (paper Fig. 7).
 *
 * Calibration: the hw unit tests assert that this model reproduces the
 * paper's Table I (Llama-2-7B on 3rd/4th-gen Xeon) within 10%.
 */

#ifndef SLINFER_HW_PERF_MODEL_HH
#define SLINFER_HW_PERF_MODEL_HH

#include <algorithm>

#include "common/log.hh"
#include "hw/hardware_spec.hh"
#include "hw/model_spec.hh"

namespace slinfer
{

/**
 * Pure (deterministic) latency model. Ground-truth execution multiplies
 * these by lognormal noise in the engine; SLINFER's quantifier only sees
 * sampled grid points of this model.
 */
class PerfModel
{
  public:
    /** Time of a prefill iteration over `inputLen` tokens. */
    static Seconds prefillTime(const HardwareSpec &hw, const ModelSpec &m,
                               Tokens inputLen);

    /**
     * Time of one decode iteration for a batch of `batchSize` requests
     * whose average context (input + generated) length is `avgLen`.
     */
    static Seconds decodeTime(const HardwareSpec &hw, const ModelSpec &m,
                              int batchSize, Tokens avgLen);

    /**
     * Largest batch size whose decode iteration stays within
     * `tpotSlo` at average length `avgLen`; 0 when even batch 1 misses.
     */
    static int maxBatchWithinTpot(const HardwareSpec &hw,
                                  const ModelSpec &m, Tokens avgLen,
                                  Seconds tpotSlo);

    /**
     * Effective spec for a tensor-parallel deployment over `tpDegree`
     * devices: aggregated compute/bandwidth with a communication
     * efficiency penalty.
     */
    static HardwareSpec tensorParallel(const HardwareSpec &hw,
                                       int tpDegree);
};

inline Seconds
PerfModel::prefillTime(const HardwareSpec &hw, const ModelSpec &m,
                       Tokens inputLen)
{
    if (inputLen <= 0)
        panic("prefillTime: non-positive input length");
    double flops = m.flopsPerToken() * static_cast<double>(inputLen) +
                   m.attnFlops(inputLen);
    double t_compute = flops / (hw.peakFlops * hw.effPrefill);
    double t_mem = static_cast<double>(m.weightBytes()) / hw.effectiveBw();
    return std::max(t_compute, t_mem) + hw.prefillOverhead;
}

inline Seconds
PerfModel::decodeTime(const HardwareSpec &hw, const ModelSpec &m,
                      int batchSize, Tokens avgLen)
{
    if (batchSize <= 0)
        panic("decodeTime: non-positive batch size");
    avgLen = std::max<Tokens>(avgLen, 1);
    double kv_bytes = static_cast<double>(batchSize) *
                      static_cast<double>(avgLen) *
                      static_cast<double>(m.kvBytesPerToken());
    // KV reads may be served by auxiliary (CPU-offload) bandwidth in
    // parallel with device memory (the NEO baseline); weights always
    // stream from device memory.
    double t_mem =
        static_cast<double>(m.weightBytes()) / hw.effectiveBw() +
        kv_bytes / (hw.effectiveBw() + hw.auxKvBandwidth);
    double t_compute = static_cast<double>(batchSize) * m.flopsPerToken() /
                       (hw.peakFlops * hw.effDecodeCompute);
    return t_mem + t_compute + hw.iterOverhead +
           static_cast<double>(batchSize) * hw.perRequestOverhead;
}

} // namespace slinfer

#endif // SLINFER_HW_PERF_MODEL_HH

/**
 * @file
 * Hardware catalog: CPU and GPU node types with the peak rates and
 * efficiency factors used by the roofline performance model.
 *
 * Efficiency factors are calibrated so the model reproduces the paper's
 * published latencies (Table I and Figs. 6-8); see perf_model.hh and the
 * hw unit tests for the calibration targets.
 */

#ifndef SLINFER_HW_HARDWARE_SPEC_HH
#define SLINFER_HW_HARDWARE_SPEC_HH

#include <string>

#include "common/types.hh"

namespace slinfer
{

/** Broad device class. */
enum class HwKind { Cpu, Gpu };

/**
 * Static description of one node type.
 */
struct HardwareSpec
{
    std::string name;
    HwKind kind = HwKind::Gpu;
    /** Peak BF16 matrix throughput, FLOP/s. */
    double peakFlops = 0.0;
    /** Peak memory bandwidth, bytes/s. */
    double memBandwidth = 0.0;
    /** Memory capacity available for weights + KV-cache. */
    Bytes memCapacity = 0;
    /** Physical cores (CPU) or host cores (GPU node). */
    int cores = 0;
    /** True when the CPU has a matrix acceleration block (AMX). */
    bool hasMatrixAccel = true;
    /** Sustained bandwidth of the ServerlessLLM-style weight loader. */
    double weightLoadBandwidth = 14e9;

    /** Fraction of peakFlops achieved during prefill GEMMs. */
    double effPrefill = 0.5;
    /** Fraction of peakFlops achieved by decode-stage GEMV/GEMM. */
    double effDecodeCompute = 0.3;
    /** Fraction of memBandwidth achieved by streaming reads. */
    double effMemBw = 0.65;
    /** Fixed per-iteration launch/framework overhead, seconds. */
    Seconds iterOverhead = 1e-3;
    /** Additional per-batched-request overhead per decode step. */
    Seconds perRequestOverhead = 0.0;
    /** Fixed prefill overhead (tokenization, graph dispatch). */
    Seconds prefillOverhead = 0.0;
    /** Multiplier on the KV-resize cost model (GPU = 1.0). */
    double kvScaleCostFactor = 1.0;

    /**
     * CPU-assisted decoding (the NEO baseline): extra bandwidth that
     * serves KV-cache reads in parallel with device memory, and extra
     * host-DRAM KV capacity. Zero for ordinary nodes.
     */
    double auxKvBandwidth = 0.0;
    Bytes auxKvCapacity = 0;

    /** Effective streaming bandwidth, bytes/s. */
    double effectiveBw() const { return memBandwidth * effMemBw; }
};

/** 3rd-Gen Xeon 8369B, 32 cores @2.7 GHz, no AMX (Table I). */
HardwareSpec xeon8369b();
/** 4th-Gen Xeon 6462C, 32 cores @3.3 GHz, AMX (the paper's CPU node). */
HardwareSpec xeon6462c();
/** 6th-Gen Xeon, 96 cores, AMX (the paper's forward-looking Discussion). */
HardwareSpec xeon6_96c();
/** NVIDIA A100-80GB (the paper's GPU node). */
HardwareSpec a100_80g();

/**
 * A static fraction of a node (the `sllm+c+s` baseline splits nodes in
 * half). Scales compute, bandwidth, capacity and cores; keeps
 * efficiencies and overheads.
 */
HardwareSpec scaledPartition(const HardwareSpec &base, double fraction);

} // namespace slinfer

#endif // SLINFER_HW_HARDWARE_SPEC_HH

#include "hw/perf_model.hh"

namespace slinfer
{

int
PerfModel::maxBatchWithinTpot(const HardwareSpec &hw, const ModelSpec &m,
                              Tokens avgLen, Seconds tpotSlo)
{
    if (decodeTime(hw, m, 1, avgLen) > tpotSlo)
        return 0;
    // Decode time is monotone in batch size; binary search the boundary.
    int lo = 1;
    int hi = 2;
    while (hi < 1 << 16 && decodeTime(hw, m, hi, avgLen) <= tpotSlo) {
        lo = hi;
        hi *= 2;
    }
    while (lo + 1 < hi) {
        int mid = (lo + hi) / 2;
        if (decodeTime(hw, m, mid, avgLen) <= tpotSlo)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

HardwareSpec
PerfModel::tensorParallel(const HardwareSpec &hw, int tpDegree)
{
    if (tpDegree <= 1)
        return hw;
    // All-reduce after every layer costs efficiency; NVLink-class links
    // keep the penalty modest for TP=2.
    const double comm_eff = 0.85;
    HardwareSpec out = hw;
    out.name = hw.name + " xTP" + std::to_string(tpDegree);
    out.peakFlops *= tpDegree * comm_eff;
    out.memBandwidth *= tpDegree * comm_eff;
    out.memCapacity *= tpDegree;
    return out;
}

} // namespace slinfer

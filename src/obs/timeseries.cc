#include "obs/timeseries.hh"

#include <sstream>

#include "common/table.hh"

namespace slinfer
{
namespace obs
{

namespace
{

using S = TimeseriesSample;

/** The sample's fields in column order. */
constexpr Field<S> kFields[] = {
    {"time", &S::time},
    {"arrived", &S::arrived},
    {"completed", &S::completed},
    {"dropped", &S::dropped},
    {"in_flight", &S::inFlight},
    {"queue_depth", &S::queueDepth},
    {"instances_live", &S::instancesLive},
    {"instances_created", &S::instancesCreated},
    {"kv_utilization", &S::kvUtilization},
    {"busy_cpu_s", &S::busySecondsCpu},
    {"busy_gpu_s", &S::busySecondsGpu},
    {"scaling_overhead_s", &S::scalingOverhead},
};

} // namespace

std::string
Timeseries::toCsv() const
{
    std::ostringstream os;
    os.precision(10);
    os << fieldKeys(kFields) << "\n";
    for (const TimeseriesSample &s : samples_) {
        writeFields(os, s, kFields, false);
        os << "\n";
    }
    return os.str();
}

std::string
Timeseries::toJson() const
{
    std::ostringstream os;
    os.precision(10);
    os << "[\n";
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        os << "  {";
        writeFields(os, samples_[i], kFields, true);
        os << "}" << (i + 1 < samples_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return os.str();
}

} // namespace obs
} // namespace slinfer

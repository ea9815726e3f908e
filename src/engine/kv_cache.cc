#include "engine/kv_cache.hh"

#include "common/log.hh"

namespace slinfer
{

PagedKvCache::PagedKvCache(Bytes bytesPerToken, Bytes allocBytes)
    : bytesPerToken_(bytesPerToken), allocBytes_(allocBytes)
{
    if (bytesPerToken == 0)
        panic("PagedKvCache: zero bytes per token");
}

double
PagedKvCache::utilization() const
{
    if (allocBytes_ == 0)
        return 0.0;
    return static_cast<double>(usedBytes()) /
           static_cast<double>(allocBytes_);
}

void
PagedKvCache::setAllocBytes(Bytes bytes)
{
    allocBytes_ = bytes;
}

} // namespace slinfer

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

Tokens
PagedKvCache::capacityTokens() const
{
    return static_cast<Tokens>(allocBytes_ / bytesPerToken_);
}

Bytes
PagedKvCache::usedBytes() const
{
    return static_cast<Bytes>(usedTokens_) * bytesPerToken_;
}

double
PagedKvCache::utilization() const
{
    if (allocBytes_ == 0)
        return 0.0;
    return static_cast<double>(usedBytes()) /
           static_cast<double>(allocBytes_);
}

bool
PagedKvCache::canFit(Tokens extra) const
{
    return usedTokens_ + extra <= capacityTokens();
}

bool
PagedKvCache::reserve(Tokens tokens)
{
    if (!canFit(tokens))
        return false;
    usedTokens_ += tokens;
    return true;
}

void
PagedKvCache::release(Tokens tokens)
{
    if (tokens > usedTokens_)
        panic("PagedKvCache: releasing more than reserved");
    usedTokens_ -= tokens;
}

void
PagedKvCache::setAllocBytes(Bytes bytes)
{
    allocBytes_ = bytes;
}

} // namespace slinfer

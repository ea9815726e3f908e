/**
 * @file
 * Paged KV-cache accounting for one instance.
 *
 * Mirrors vLLM's paged-attention allocator at the accounting level:
 * space is granted in fixed-size blocks of tokens, usage is tracked in
 * tokens, and the allocation (capacity) can be resized, which in the
 * real engine means allocating new block tensors and copying live pages
 * (the latency of that is modeled by MemCostModel and orchestrated by
 * the memory subsystem — this class only tracks the book-keeping).
 */

#ifndef SLINFER_ENGINE_KV_CACHE_HH
#define SLINFER_ENGINE_KV_CACHE_HH

#include "common/types.hh"

namespace slinfer
{

class PagedKvCache
{
  public:
    /** Tokens per block, vLLM's default. */
    static constexpr Tokens kBlockTokens = 16;

    PagedKvCache(Bytes bytesPerToken, Bytes allocBytes);

    Bytes bytesPerToken() const { return bytesPerToken_; }
    Bytes allocBytes() const { return allocBytes_; }
    Tokens capacityTokens() const;
    Tokens usedTokens() const { return usedTokens_; }
    Bytes usedBytes() const;
    /** Fraction of the allocation occupied by live tokens. */
    double utilization() const;

    /** Tokens of block-rounded footprint for a context of `len`. */
    static Tokens roundedTokens(Tokens len)
    {
        if (len <= 0)
            return 0;
        return (len + kBlockTokens - 1) / kBlockTokens * kBlockTokens;
    }

    /** True if `extra` more tokens fit (block-rounded). */
    bool canFit(Tokens extra) const;

    /**
     * Reserve `tokens` more tokens; returns false (and reserves
     * nothing) on overflow.
     */
    bool reserve(Tokens tokens);

    /** Release `tokens` previously reserved. */
    void release(Tokens tokens);

    /** Change the allocation size (book-keeping only). */
    void setAllocBytes(Bytes bytes);

  private:
    Bytes bytesPerToken_;
    Bytes allocBytes_;
    Tokens usedTokens_ = 0;
};

} // namespace slinfer

#endif // SLINFER_ENGINE_KV_CACHE_HH

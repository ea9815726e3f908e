#include "sim/event_queue.hh"

#include <algorithm>

#include "common/log.hh"

namespace slinfer
{

void
EventHandle::cancel()
{
    if (queue_)
        queue_->cancelSlot(slot_, gen_);
}

bool
EventHandle::pending() const
{
    return queue_ && queue_->slotPending(slot_, gen_);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    cbs_[slot].reset();
    SlotMeta &m = meta_[slot];
    ++m.gen;
    m.nextFree = freeHead_;
    freeHead_ = slot;
}

// The near heap is 4-ary: half the levels of a binary heap, and the
// four children of a node are contiguous, so one sift level costs
// roughly one cache line instead of two scattered ones. Determinism
// only requires that the root is the (when, seq) minimum, which any
// d-ary sift maintains.

void
EventQueue::heapPush(const Entry &e)
{
    std::size_t pos = near_.size();
    near_.push_back(e);
    while (pos > 0) {
        std::size_t parent = (pos - 1) / 4;
        if (!e.fires_before(near_[parent]))
            break;
        near_[pos] = near_[parent];
        pos = parent;
    }
    near_[pos] = e;
}

void
EventQueue::siftDown(std::size_t pos) const
{
    const std::size_t n = near_.size();
    Entry e = near_[pos];
    for (;;) {
        std::size_t first = 4 * pos + 1;
        if (first >= n)
            break;
        std::size_t last = first + 4 < n ? first + 4 : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (near_[c].fires_before(near_[best]))
                best = c;
        }
        if (!near_[best].fires_before(e))
            break;
        near_[pos] = near_[best];
        pos = best;
    }
    near_[pos] = e;
}

void
EventQueue::heapify() const
{
    if (near_.size() < 2)
        return;
    for (std::size_t i = (near_.size() - 2) / 4 + 1; i-- > 0;)
        siftDown(i);
}

void
EventQueue::popRoot() const
{
    near_[0] = near_.back();
    near_.pop_back();
    if (!near_.empty())
        siftDown(0);
}

void
EventQueue::promoteNextBucket() const
{
    // Find-first-set over the occupancy bitmap, starting at the
    // current bucket.
    std::size_t word = curBucket_ / 64;
    std::uint64_t bits =
        word < occupied_.size()
            ? occupied_[word] & (~0ull << (curBucket_ % 64))
            : 0;
    while (bits == 0) {
        if (++word >= occupied_.size())
            panic("EventQueue: wheel count out of sync");
        bits = occupied_[word];
    }
    curBucket_ = word * 64 +
                 static_cast<std::size_t>(__builtin_ctzll(bits));
    occupied_[word] &= ~(1ull << (curBucket_ % 64));
    obs::bump(ctr_, obs::kBucketPromotions);
    // Swap, filter, heapify: the drained near vector's capacity is
    // recycled into the bucket, and stale (cancelled) entries never
    // reach the heap at all.
    std::vector<Entry> &bucket = buckets_[curBucket_];
    wheelCount_ -= bucket.size();
    near_.swap(bucket);
    bucket.clear();
    if (tombstones_ > 0) {
        std::size_t before = near_.size();
        near_.erase(std::remove_if(
                        near_.begin(), near_.end(),
                        [this](const Entry &e) { return stale(e); }),
                    near_.end());
        tombstones_ -= before - near_.size();
    }
    ++curBucket_;
    horizon_ = wheelBase_ +
               static_cast<double>(curBucket_) * bucketWidth_;
    heapify();
}

void
EventQueue::rebase() const
{
    if (tombstones_ > 0) {
        std::size_t before = overflow_.size();
        overflow_.erase(std::remove_if(overflow_.begin(),
                                       overflow_.end(),
                                       [this](const Entry &e) {
                                           return stale(e);
                                       }),
                        overflow_.end());
        tombstones_ -= before - overflow_.size();
    }
    if (overflow_.empty())
        return;
    if (buckets_.empty()) {
        buckets_.resize(kBuckets);
        occupied_.assign(kBuckets / 64, 0);
    }
    // overflowLo_/Hi_ were tracked at push time and may include
    // since-cancelled entries; a slightly loose span only loosens
    // the bucket width, never ordering.
    wheelBase_ = overflowLo_;
    bucketWidth_ =
        overflowHi_ > overflowLo_
            ? (overflowHi_ - overflowLo_) /
                  static_cast<double>(kBuckets - 1)
            : 1.0;
    invBucketWidth_ = 1.0 / bucketWidth_;
    curBucket_ = 0;
    horizon_ = wheelBase_;
    wheelEnd_ = wheelBase_ +
                static_cast<double>(kBuckets) * bucketWidth_;
    for (const Entry &e : overflow_) {
        std::size_t idx = bucketIndexFor(e.when);
        if (buckets_[idx].empty())
            occupied_[idx / 64] |= 1ull << (idx % 64);
        buckets_[idx].push_back(e);
    }
    wheelCount_ += overflow_.size();
    obs::add(ctr_, obs::kEventsRebased, overflow_.size());
    overflow_.clear();
}

bool
EventQueue::ensureNearHead() const
{
    for (;;) {
        if (!near_.empty()) {
            if (tombstones_ == 0 || !stale(near_[0]))
                return true;
            popRoot();
            --tombstones_;
            continue;
        }
        if (wheelCount_ > 0) {
            promoteNextBucket();
            continue;
        }
        if (!overflow_.empty()) {
            rebase();
            continue;
        }
        return false;
    }
}

void
EventQueue::cancelSlot(std::uint32_t slot, std::uint32_t gen)
{
    if (!slotPending(slot, gen))
        return;
    // O(1): free the slot now; the ordering entry becomes a tombstone
    // discarded when it surfaces at the near-heap head, at bucket
    // promotion, or at wheel rebase (its generation no longer matches
    // the slot's).
    freeSlot(slot);
    --live_;
    ++tombstones_;
    obs::bump(ctr_, obs::kEventsCancelled);
}

Seconds
EventQueue::nextTime() const
{
    if (!ensureNearHead())
        panic("EventQueue::nextTime on empty queue");
    return near_[0].when;
}

Seconds
EventQueue::popAndRun()
{
    if (!ensureNearHead())
        panic("EventQueue::popAndRun on empty queue");
    std::uint32_t slot = near_[0].slot;
    Seconds when = near_[0].when;
    popRoot();
    // Move the callback out and release the slot *before* invoking:
    // the callback may schedule (growing the arena and invalidating
    // payload references) or cancel, and must see its own handle as
    // already non-pending.
    InlineCallback cb = std::move(cbs_[slot]);
    freeSlot(slot);
    --live_;
    obs::bump(ctr_, obs::kEventsFired);
    cb.consume();
    return when;
}

void
EventQueue::reserve(std::size_t n)
{
    meta_.reserve(n);
    cbs_.reserve(n);
    // Bulk-scheduled backlogs (experiment arrivals) land in the
    // overflow list first; the near heap never exceeds a bucket's
    // occupancy plus the below-horizon churn.
    overflow_.reserve(n);
}

} // namespace slinfer

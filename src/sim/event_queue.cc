#include "sim/event_queue.hh"

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

// The heap is 4-ary: half the levels of a binary heap, and the four
// children of a node are contiguous, so one sift level costs roughly
// one cache line instead of two scattered ones. Determinism only
// requires that the root is the (when, seq) minimum, which any d-ary
// sift maintains.

void
EventQueue::heapPush(const Entry &e)
{
    std::size_t pos = heap_.size();
    heap_.push_back(e);
    while (pos > 0) {
        std::size_t parent = (pos - 1) / 4;
        if (!e.fires_before(heap_[parent]))
            break;
        heap_[pos] = heap_[parent];
        pos = parent;
    }
    heap_[pos] = e;
}

namespace
{

/** 1 when `a` fires before `b`, computed without a branch: the fire
 *  order (when, seq) as bitwise arithmetic on the two compares. */
template <typename E>
std::size_t
firesBefore(const E &a, const E &b)
{
    return static_cast<std::size_t>((a.when < b.when) |
                                    ((a.when == b.when) & (a.seq < b.seq)));
}

} // namespace

void
EventQueue::siftDown(std::size_t pos)
{
    const std::size_t n = heap_.size();
    const Entry *h = heap_.data();
    Entry e = heap_[pos];
    for (;;) {
        std::size_t first = 4 * pos + 1;
        std::size_t best;
        if (first + 4 <= n) {
            // A full group: a two-level tournament whose selects are
            // arithmetic, because which child wins is close to random
            // and a branch on it mispredicts. seq is unique, so the
            // earliest child is unique and any tournament finds the
            // one the scan below would.
            const std::size_t a = first + firesBefore(h[first + 1], h[first]);
            const std::size_t b =
                first + 2 + firesBefore(h[first + 3], h[first + 2]);
            best = a + (b - a) * firesBefore(h[b], h[a]);
        } else {
            if (first >= n)
                break;
            best = first;
            for (std::size_t c = first + 1; c < n; ++c) {
                if (h[c].fires_before(h[best]))
                    best = c;
            }
        }
        if (!h[best].fires_before(e))
            break;
        heap_[pos] = h[best];
        pos = best;
    }
    heap_[pos] = e;
}

void
EventQueue::popRoot()
{
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);
}

bool
EventQueue::liveHead()
{
    while (tombstones_ > 0 && !heap_.empty() && stale(heap_[0])) {
        popRoot();
        --tombstones_;
    }
    return !heap_.empty();
}

void
EventQueue::cancelSlot(std::uint32_t slot, std::uint32_t gen)
{
    if (!slotPending(slot, gen))
        return;
    // O(1): free the slot now; the ordering entry becomes a tombstone
    // discarded when it surfaces at the heap head (its generation no
    // longer matches the slot's).
    freeSlot(slot);
    --live_;
    ++tombstones_;
    obs::bump(ctr_, obs::kEventsCancelled);
}

Seconds
EventQueue::nextTime()
{
    if (!liveHead())
        panic("EventQueue::nextTime on empty queue");
    return heap_[0].when;
}

Seconds
EventQueue::popAndRun()
{
    if (!liveHead())
        panic("EventQueue::popAndRun on empty queue");
    std::uint32_t slot = heap_[0].slot;
    Seconds when = heap_[0].when;
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

} // namespace slinfer

/**
 * @file
 * Priority event queue for the discrete-event simulator — the hot path
 * of every experiment.
 *
 * Events are (time, sequence, callback) triples; ties on time are
 * broken by insertion order so the simulation is fully deterministic.
 * Events can be cancelled via the handle returned at scheduling time;
 * cancellation is lazy (the entry is skipped when it surfaces at the
 * heap head), exactly as in the original queue.
 *
 * Implementation: a pooled callback arena plus one 4-ary heap.
 *
 *  - Callback slots are recycled through a free-list, so steady-state
 *    scheduling performs **zero allocations**: no `shared_ptr` control
 *    block per event, and no `std::function` at all — callbacks are
 *    type-erased into a small-buffer payload stored inline in the slot
 *    (`InlineCallback`); callables larger than the buffer fall back to
 *    one heap allocation. The arena grows on demand; a catalog run
 *    peaks at ~10^2 concurrent events, because the arrival feed keeps
 *    exactly one trace arrival scheduled (stream/feed.hh).
 *  - Ordering entries are 24 bytes of plain data — (when, seq, slot,
 *    generation) — so compares and moves are local and never
 *    dereference the arena, where the original queue sifted 64-byte
 *    entries dragging a `std::function` and a `shared_ptr` along.
 *  - Every entry lives in one **4-ary heap**, key-inline. At ~10^2
 *    entries the whole heap stays L1-resident, so a pop is a handful
 *    of sift levels over contiguous children.
 *  - Cancellation uses **generation counters**: a handle is
 *    (slot, generation) and is live only while the slot's generation
 *    matches. Cancelling bumps the generation and frees the slot in
 *    O(1); the ordering entry remains as a tombstone discarded when
 *    it surfaces at the heap head. Stale handles — including handles
 *    to events that already fired — are detected in O(1) with no
 *    shared ownership.
 *
 * Determinism: the global fire order is exactly ascending (when, seq),
 * ties FIFO by schedule order; the heap compares the full key.
 *
 * The design and its performance methodology are documented in
 * DESIGN.md ("The event arena"); `bench/bench_sim_throughput.cc`
 * measures the queue, and `tests/test_sim.cc` fuzzes it against a
 * sorted-vector reference of the (when, seq) order.
 *
 * Lifetime contract: an EventHandle must not be used after its
 * EventQueue is destroyed. Every handle in this codebase lives inside
 * an object (instance, controller) destroyed before the Simulator.
 */

#ifndef SLINFER_SIM_EVENT_QUEUE_HH
#define SLINFER_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/counters.hh"

namespace slinfer
{

/**
 * Type-erased nullary callable with inline small-buffer storage.
 *
 * Move-only. Callables whose size/alignment fit `N` bytes are stored
 * in place (the common case: lambdas capturing a few pointers, or a
 * `std::function` wrapper); larger ones are boxed on the heap.
 *
 * `InlineCallback` (N = 64) is the event arena's payload type; the
 * memory subsystem stores its per-op completion callbacks in the
 * 16-byte instantiation, sized for the controller's `[this, inst]`
 * lambdas, so a parked load/unload op carries its callback with no
 * allocation and still fits — together with the op's other captures —
 * inside the arena's 64-byte inline window when it is rescheduled.
 */
template <std::size_t N>
class BasicInlineCallback
{
  public:
    static constexpr std::size_t kInlineBytes = N;

    BasicInlineCallback() = default;
    /** Explicit "no callback" (call sites that used to take a null
     *  std::function). */
    BasicInlineCallback(std::nullptr_t) {}
    BasicInlineCallback(const BasicInlineCallback &) = delete;
    BasicInlineCallback &operator=(const BasicInlineCallback &) = delete;

    BasicInlineCallback(BasicInlineCallback &&other) noexcept
    {
        moveFrom(other);
    }

    BasicInlineCallback &
    operator=(BasicInlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    /** Construct directly from any callable (non-template overloads
     *  can then accept `BasicInlineCallback` by value while callers
     *  keep passing raw lambdas). */
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, BasicInlineCallback>>>
    BasicInlineCallback(F &&f)
    {
        set(std::forward<F>(f));
    }

    ~BasicInlineCallback() { reset(); }

    /** Install a callable, destroying any previous one. */
    template <typename F>
    void
    set(F &&f)
    {
        using Fn = std::decay_t<F>;
        reset();
        if constexpr (fitsInline<Fn>()) {
            new (buf_) Fn(std::forward<F>(f));
            vtable_ = &kInlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            vtable_ = &kHeapOps<Fn>;
        }
    }

    void operator()() { vtable_->invoke(buf_); }

    /** Invoke and destroy in one indirect call, leaving this empty —
     *  the pop hot path's last touch of the payload. */
    void
    consume()
    {
        const Ops *v = vtable_;
        vtable_ = nullptr;
        v->run(buf_);
    }

    explicit operator bool() const { return vtable_ != nullptr; }

    void
    reset()
    {
        if (vtable_) {
            vtable_->destroy(buf_);
            vtable_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst's payload from src's and destroy src's. */
        void (*relocate)(void *src, void *dst);
        void (*destroy)(void *);
        /** Invoke, then destroy (consume()). */
        void (*run)(void *);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn> static const Ops kInlineOps;
    template <typename Fn> static const Ops kHeapOps;

    void
    moveFrom(BasicInlineCallback &other) noexcept
    {
        vtable_ = other.vtable_;
        if (vtable_)
            vtable_->relocate(other.buf_, buf_);
        other.vtable_ = nullptr;
    }

    const Ops *vtable_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

template <std::size_t N>
template <typename Fn>
const typename BasicInlineCallback<N>::Ops
    BasicInlineCallback<N>::kInlineOps = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *src, void *dst) {
            Fn *s = static_cast<Fn *>(src);
            new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
        [](void *p) {
            Fn *f = static_cast<Fn *>(p);
            (*f)();
            f->~Fn();
        },
};

template <std::size_t N>
template <typename Fn>
const typename BasicInlineCallback<N>::Ops
    BasicInlineCallback<N>::kHeapOps = {
        [](void *p) { (**static_cast<Fn **>(p))(); },
        [](void *src, void *dst) {
            *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
        },
        [](void *p) { delete *static_cast<Fn **>(p); },
        [](void *p) {
            Fn *f = *static_cast<Fn **>(p);
            (*f)();
            delete f;
        },
};

/** The event arena's payload type. Sized for the engine's largest
 *  real capture — the memory subsystem's `[this, &inst, footprint,
 *  done]` completion callbacks carry a 32 B inline done-callback plus
 *  three words (56 B) — which a 16 B std::function SBO would spill
 *  to the heap on every load/unload/resize event. */
using InlineCallback = BasicInlineCallback<64>;

class EventQueue;

/**
 * Opaque handle allowing a scheduled event to be cancelled.
 *
 * A handle is (queue, slot, generation); it is *pending* while the
 * slot's generation still matches, which ends the moment the event
 * fires or is cancelled. Copies share the same identity: cancelling
 * through one makes all of them non-pending. Default-constructed
 * handles are never pending and are safe to cancel.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Cancel the event if it has not fired yet. Safe to call twice. */
    void cancel();

    /** True if the handle refers to a still-pending event. */
    bool pending() const;

  private:
    friend class EventQueue;
    EventHandle(EventQueue *q, std::uint32_t slot, std::uint32_t gen)
        : queue_(q), slot_(slot), gen_(gen)
    {
    }

    EventQueue *queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * Time-ordered queue of callbacks (see the file comment for the
 * arena design).
 */
class EventQueue
{
  public:
    /** Schedule `cb` at absolute time `when`. */
    template <typename F>
    EventHandle
    schedule(Seconds when, F &&cb)
    {
        return scheduleAtSeq(when, nextSeq_++, std::forward<F>(cb));
    }

    /**
     * Reserve a contiguous band of `width` sequence numbers and return
     * its base. Later schedule() calls draw from *after* the band, so
     * entries placed into it via scheduleAtSeq() tie-break exactly as
     * if they had all been scheduled here — the arrival feed
     * (stream/feed.hh) reserves one band while the Session is built,
     * then schedules one arrival at a time from it, so a trace arrival
     * fires before any runtime event at the same timestamp.
     */
    std::uint64_t
    reserveSeqBand(std::uint64_t width)
    {
        std::uint64_t base = nextSeq_;
        nextSeq_ += width;
        return base;
    }

    /** Schedule `cb` at `when` with an explicit sequence number from a
     *  previously reserved band (never a fresh nextSeq_). The caller
     *  owns band discipline: seqs must be unique and, per equal
     *  timestamp, assigned in the intended fire order. */
    template <typename F>
    EventHandle
    scheduleAtSeq(Seconds when, std::uint64_t seq, F &&cb)
    {
        std::uint32_t slot = allocSlot();
        cbs_[slot].set(std::forward<F>(cb));
        std::uint32_t gen = meta_[slot].gen;
        heapPush(Entry{when, seq, slot, gen});
        ++live_;
        return EventHandle(this, slot, gen);
    }

    /** True if no live events remain. O(1): tombstones are counted,
     *  not swept, so this never touches the heap or the arena. */
    bool empty() const { return live_ == 0; }

    /** Time of the earliest live event; panics when empty. */
    Seconds nextTime();

    /**
     * Pop and run the earliest live event, returning its time. The
     * slot is released *before* the callback runs, so the callback
     * observes its own handle as non-pending and may freely schedule
     * new events. Panics when empty.
     */
    Seconds popAndRun();

    /** Number of live (non-cancelled, non-fired) events — exact. */
    std::size_t size() const { return live_; }

    /**
     * Attach a flight-recorder counter sink (nullptr detaches). The
     * disabled cost is one null test per hot-path site; counters are
     * write-only from the queue's perspective, so attaching one cannot
     * change event order.
     */
    void attachCounters(obs::Counters *c) { ctr_ = c; }

  private:
    friend class EventHandle;

    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    /** One pending-or-tombstoned heap element; plain data so sift
     *  operations never touch the slot arena. */
    struct Entry
    {
        Seconds when;
        std::uint64_t seq;
        std::uint32_t slot;
        /** Slot generation at schedule time; a mismatch at pop time
         *  marks the entry as a cancelled tombstone. */
        std::uint32_t gen;

        bool
        fires_before(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            return seq < o.seq;
        }
    };

    /**
     * Slot bookkeeping, split from the callback payload so that the
     * hot probes — generation checks from handles and tombstone pops,
     * free-list pushes/pops — walk a dense 8-byte-per-slot array that
     * stays cache-resident, while the 80-byte payloads are only
     * touched twice per event (install and move-out).
     */
    struct SlotMeta
    {
        /** Bumped every time the slot is freed (fire or cancel);
         *  handles and ordering entries carry the schedule-time
         *  value. */
        std::uint32_t gen = 0;
        /** Free-list link while the slot is on the free-list. */
        std::uint32_t nextFree = kNone;
    };

    /** Pop a slot off the free-list, growing the arena if dry.
     *  Header-inline: one of the two calls on every schedule. */
    std::uint32_t
    allocSlot()
    {
        std::uint32_t slot;
        if (freeHead_ != kNone) {
            slot = freeHead_;
            freeHead_ = meta_[slot].nextFree;
        } else {
            slot = static_cast<std::uint32_t>(meta_.size());
            meta_.emplace_back();
            cbs_.emplace_back();
        }
        return slot;
    }

    void freeSlot(std::uint32_t slot);

    void heapPush(const Entry &e);
    /** Remove the heap root (no slot bookkeeping). */
    void popRoot();
    void siftDown(std::size_t pos);
    /** Drop cancelled entries off the heap head. Returns false iff no
     *  live event remains. */
    bool liveHead();

    void cancelSlot(std::uint32_t slot, std::uint32_t gen);
    bool
    slotPending(std::uint32_t slot, std::uint32_t gen) const
    {
        return slot < meta_.size() && meta_[slot].gen == gen;
    }
    bool
    stale(const Entry &e) const
    {
        return meta_[e.slot].gen != e.gen;
    }

    std::vector<SlotMeta> meta_;
    /** Callback payloads, parallel to meta_. */
    std::vector<InlineCallback> cbs_;
    std::uint32_t freeHead_ = kNone;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
    /** Cancelled entries still in the heap. When zero, the head is
     *  live by construction and the pop path skips the generation
     *  probe entirely. */
    std::size_t tombstones_ = 0;

    /** Every pending or tombstoned entry, heap-ordered by (when, seq). */
    std::vector<Entry> heap_;
    /** Optional counter sink. */
    obs::Counters *ctr_ = nullptr;
};

} // namespace slinfer

#endif // SLINFER_SIM_EVENT_QUEUE_HH

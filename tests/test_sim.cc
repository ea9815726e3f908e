/**
 * @file
 * Unit tests for the discrete-event simulator core.
 *
 * The arena EventQueue (sim/event_queue.hh) must fire events in
 * (time, schedule order) order, honor cancellation, and report handle
 * state faithfully. Besides the directed cases, a fuzz-style
 * schedule/cancel/pop interleaving runs the same program against the
 * arena and a sorted-vector reference and requires identical fire
 * sequences.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "sim/simulator.hh"

namespace slinfer
{
namespace
{

TEST(EventQueue, OrdersByTime)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(2.0, [&] { order.push_back(2); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(3.0, [&] { order.push_back(3); });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesAreFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(1.0, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSkipsEvent)
{
    EventQueue q;
    int fired = 0;
    EventHandle h = q.schedule(1.0, [&] { ++fired; });
    q.schedule(2.0, [&] { ++fired; });
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelTwiceIsSafe)
{
    EventQueue q;
    EventHandle h = q.schedule(1.0, [] {});
    h.cancel();
    h.cancel();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DefaultHandleNotPending)
{
    EventHandle h;
    EXPECT_FALSE(h.pending());
    h.cancel(); // no-op
}

TEST(EventQueue, HandleNotPendingAfterRun)
{
    EventQueue q;
    EventHandle h = q.schedule(1.0, [] {});
    q.popAndRun();
    EXPECT_FALSE(h.pending());
}

TEST(EventQueue, CancelAfterFireIsNoOp)
{
    EventQueue q;
    int fired = 0;
    EventHandle h = q.schedule(1.0, [&] { ++fired; });
    q.schedule(2.0, [&] { ++fired; });
    q.popAndRun(); // fires h's event
    EXPECT_FALSE(h.pending());
    h.cancel(); // must not disturb the remaining event
    EXPECT_EQ(q.size(), 1u);
    q.popAndRun();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, HandleGenerationsDistinguishSlotReuse)
{
    // Cancelling frees the slot for reuse; the old handle must stay
    // dead even after another event recycles the slot.
    EventQueue q;
    int a_fired = 0;
    int b_fired = 0;
    EventHandle a = q.schedule(1.0, [&] { ++a_fired; });
    a.cancel();
    EventHandle b = q.schedule(2.0, [&] { ++b_fired; });
    EXPECT_FALSE(a.pending());
    EXPECT_TRUE(b.pending());
    a.cancel(); // stale handle: must NOT cancel b
    EXPECT_TRUE(b.pending());
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(a_fired, 0);
    EXPECT_EQ(b_fired, 1);
}

TEST(EventQueue, HandleReuseAcrossManyGenerations)
{
    EventQueue q;
    // Burn many generations of the same slot, keeping the first
    // handle around; it must never come back to life.
    EventHandle first = q.schedule(1.0, [] {});
    first.cancel();
    for (int i = 0; i < 100; ++i) {
        EventHandle h = q.schedule(1.0 + i, [] {});
        EXPECT_FALSE(first.pending());
        h.cancel();
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeIsExactUnderCancellation)
{
    EventQueue q;
    std::vector<EventHandle> hs;
    for (int i = 0; i < 5; ++i)
        hs.push_back(q.schedule(1.0 + i, [] {}));
    EXPECT_EQ(q.size(), 5u);
    hs[1].cancel();
    hs[3].cancel();
    EXPECT_EQ(q.size(), 3u);
    int fired = 0;
    while (!q.empty()) {
        q.popAndRun();
        ++fired;
    }
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CancelAllLeavesQueueEmpty)
{
    EventQueue q;
    std::vector<EventHandle> hs;
    for (int i = 0; i < 100; ++i)
        hs.push_back(q.schedule(i * 0.5, [] {}));
    for (EventHandle &h : hs)
        h.cancel();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CancelOtherEventFromCallback)
{
    EventQueue q;
    int fired = 0;
    EventHandle victim;
    q.schedule(1.0, [&] { victim.cancel(); });
    victim = q.schedule(2.0, [&] { ++fired; });
    q.schedule(3.0, [&] { ++fired; });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, LargeCaptureSpillsToHeapAndStillFires)
{
    // Captures beyond InlineCallback::kInlineBytes take the boxed
    // path; behavior must be identical.
    EventQueue q;
    std::array<double, 32> payload{};
    payload[0] = 1.0;
    payload[31] = 2.0;
    double sum = 0.0;
    EventHandle h = q.schedule(1.0, [payload, &sum] {
        sum = payload[0] + payload[31];
    });
    EXPECT_TRUE(h.pending());
    q.popAndRun();
    EXPECT_DOUBLE_EQ(sum, 3.0);

    // And a cancelled boxed callback must be released cleanly.
    EventHandle h2 = q.schedule(1.0, [payload, &sum] { sum = 0.0; });
    h2.cancel();
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(sum, 3.0);
}

TEST(EventQueue, BulkBacklogDrainsInOrder)
{
    // Tens of thousands of entries scheduled up front: a heap far
    // deeper than any catalog run's drains in time order.
    EventQueue q;
    Seconds last = -1.0;
    bool monotone = true;
    std::uint64_t lcg = 12345;
    for (int i = 0; i < 50000; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        Seconds t = static_cast<double>((lcg >> 33) % 1800000) / 1000.0;
        q.schedule(t, [&, t] {
            if (t < last)
                monotone = false;
            last = t;
        });
    }
    std::size_t fired = 0;
    while (!q.empty()) {
        q.popAndRun();
        ++fired;
    }
    EXPECT_TRUE(monotone);
    EXPECT_EQ(fired, 50000u);
}

// ------------------------------------------------------------------
// Fuzz: the arena queue vs a reference queue on identical programs.
// ------------------------------------------------------------------

/** The reference semantics in a few lines: every scheduled entry
 *  stays in a vector, and a pop runs the live entry with the least
 *  (time, seq). */
class RefQueue
{
  public:
    struct Entry
    {
        Seconds when;
        std::function<void()> cb;
        bool live;
    };

    class Handle
    {
      public:
        Handle() = default;
        Handle(std::vector<Entry> *entries, std::size_t i)
            : entries_(entries), i_(i)
        {
        }
        void
        cancel()
        {
            if (entries_)
                (*entries_)[i_].live = false;
        }
        bool pending() const { return entries_ && (*entries_)[i_].live; }

      private:
        std::vector<Entry> *entries_ = nullptr;
        std::size_t i_ = 0;
    };

    Handle
    schedule(Seconds when, std::function<void()> cb)
    {
        entries_.push_back({when, std::move(cb), true});
        return Handle(&entries_, entries_.size() - 1);
    }

    bool
    empty() const
    {
        for (const Entry &e : entries_) {
            if (e.live)
                return false;
        }
        return true;
    }

    Seconds
    popAndRun()
    {
        // seq is the vector index, so a strict < keeps the earliest.
        std::size_t best = entries_.size();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].live &&
                (best == entries_.size() ||
                 entries_[i].when < entries_[best].when))
                best = i;
        }
        entries_[best].live = false;
        std::function<void()> cb = entries_[best].cb;
        cb(); // may schedule, reallocating entries_
        return entries_[best].when;
    }

  private:
    std::vector<Entry> entries_;
};

/**
 * Run a deterministic schedule/cancel/pop interleaving against a
 * queue type and return the fire sequence (event ids in fire order).
 * The program mixes arbitrary times (including times earlier than
 * already-fired events' — pure queue semantics, no simulator clock),
 * cancellations of random outstanding handles, stale cancels, and a
 * nested-scheduling drain phase.
 */
template <typename Queue, typename Handle>
std::vector<int>
fuzzProgram(std::uint64_t seed)
{
    Queue q;
    std::vector<Handle> handles;
    std::vector<int> fired;
    int next_id = 0;
    std::uint64_t lcg = seed * 2654435761u + 1;
    auto rnd = [&lcg](std::uint64_t mod) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::size_t>((lcg >> 33) % mod);
    };

    for (int step = 0; step < 4000; ++step) {
        switch (rnd(8)) {
        case 0:
        case 1:
        case 2:
        case 3: { // schedule (ties are common: coarse time grid)
            Seconds t = static_cast<double>(rnd(64)) * 0.25;
            int id = next_id++;
            handles.push_back(
                q.schedule(t, [&fired, id] { fired.push_back(id); }));
            break;
        }
        case 4: { // cancel a random outstanding handle (maybe stale)
            if (!handles.empty())
                handles[rnd(handles.size())].cancel();
            break;
        }
        case 5: { // pending() probe must not disturb anything
            if (!handles.empty())
                (void)handles[rnd(handles.size())].pending();
            break;
        }
        default: { // pop
            if (!q.empty())
                q.popAndRun();
            break;
        }
        }
    }

    // Drain with nested scheduling: every 3rd fire spawns a child at
    // a deterministic time derived from its id.
    std::size_t spawned = 0;
    while (!q.empty()) {
        q.popAndRun();
        if (!fired.empty() && fired.size() % 3 == 0 && spawned < 500) {
            ++spawned;
            int id = next_id++;
            Seconds t = static_cast<double>((id * 7919) % 97) * 0.5;
            handles.push_back(
                q.schedule(t, [&fired, id] { fired.push_back(id); }));
        }
    }
    return fired;
}

TEST(EventQueueFuzz, MatchesReferenceSemantics)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        std::vector<int> arena =
            fuzzProgram<EventQueue, EventHandle>(seed);
        std::vector<int> reference =
            fuzzProgram<RefQueue, RefQueue::Handle>(seed);
        ASSERT_EQ(arena, reference) << "seed " << seed;
        ASSERT_FALSE(arena.empty()) << "seed " << seed;
    }
}

TEST(Simulator, ClockVisibleInsideCallback)
{
    Simulator sim;
    Seconds seen = -1.0;
    sim.schedule(5.0, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(seen, 5.0);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, NestedScheduling)
{
    Simulator sim;
    std::vector<Seconds> times;
    sim.schedule(1.0, [&] {
        times.push_back(sim.now());
        sim.schedule(1.5, [&] { times.push_back(sim.now()); });
    });
    sim.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    EXPECT_DOUBLE_EQ(times[1], 2.5);
}

TEST(Simulator, RunUntilLeavesLaterEvents)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1.0, [&] { ++fired; });
    sim.schedule(10.0, [&] { ++fired; });
    sim.runUntil(5.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);
    EXPECT_FALSE(sim.idle());
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAtAbsoluteTime)
{
    Simulator sim;
    Seconds seen = -1.0;
    sim.scheduleAt(3.0, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(seen, 3.0);
}

TEST(Simulator, EventsRunCounter)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.schedule(i, [] {});
    sim.run();
    EXPECT_EQ(sim.eventsRun(), 7u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(1.0, [&] {
        order.push_back(1);
        sim.schedule(0.0, [&] { order.push_back(2); });
    });
    sim.schedule(1.0, [&] { order.push_back(3); });
    sim.run();
    // The zero-delay event lands at t=1 but after the already-queued
    // same-time event (FIFO by insertion).
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, ManyEventsStressOrdering)
{
    Simulator sim;
    Seconds last = -1.0;
    bool monotone = true;
    for (int i = 0; i < 10000; ++i) {
        Seconds t = (i * 7919) % 1000;
        sim.scheduleAt(t, [&, t] {
            if (t < last)
                monotone = false;
            last = t;
        });
    }
    sim.run();
    EXPECT_TRUE(monotone);
}

} // namespace
} // namespace slinfer

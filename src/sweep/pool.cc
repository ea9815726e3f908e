#include "sweep/pool.hh"

#include <algorithm>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace slinfer
{
namespace sweep
{

int
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

namespace
{

/** One worker's deque of task indices, guarded by its own mutex. */
struct WorkerQueue
{
    std::mutex mutex;
    std::deque<std::size_t> tasks;

    bool popFront(std::size_t &out)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (tasks.empty())
            return false;
        out = tasks.front();
        tasks.pop_front();
        return true;
    }

    bool stealBack(std::size_t &out)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (tasks.empty())
            return false;
        out = tasks.back();
        tasks.pop_back();
        return true;
    }
};

} // namespace

void
parallelFor(std::size_t n, int threads,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    std::size_t workers = std::max(1, threads);
    workers = std::min(workers, n);
    if (workers == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Shard indices contiguously so worker w starts on its "own" range
    // and stealing only happens once a shard drains.
    std::vector<WorkerQueue> queues(workers);
    for (std::size_t i = 0; i < n; ++i)
        queues[i * workers / n].tasks.push_back(i);

    auto work = [&](std::size_t self) {
        std::size_t task;
        while (true) {
            if (queues[self].popFront(task)) {
                fn(task);
                continue;
            }
            // Own queue dry: scan the others (starting past self so
            // workers fan out over distinct victims) and steal from
            // the back.
            bool stole = false;
            for (std::size_t k = 1; k < queues.size() && !stole; ++k) {
                std::size_t victim = (self + k) % queues.size();
                stole = queues[victim].stealBack(task);
            }
            if (!stole)
                return; // every queue empty: batch finished
            fn(task);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w)
        pool.emplace_back(work, w);
    work(0);
    for (std::thread &t : pool)
        t.join();
}

} // namespace sweep
} // namespace slinfer

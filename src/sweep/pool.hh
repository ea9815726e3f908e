/**
 * @file
 * Work-stealing execution of a fixed batch of independent tasks.
 *
 * Sweep jobs are embarrassingly parallel (each builds its own
 * Simulator/Experiment; nothing mutable crosses threads), so the pool
 * is deliberately simple: the task list is known up front, each worker
 * gets a contiguous shard of indices in its own deque, drains it from
 * the front, and steals from the *back* of a victim's deque when it
 * runs dry. Stealing from the opposite end keeps contention on a
 * victim's mutex to a single CAS-sized critical section and preserves
 * rough locality of the original sharding.
 *
 * Tasks must not throw; a task that needs to report failure records it
 * in its own result slot. fatal()/panic() still work (they terminate
 * the process, which is their contract).
 */

#ifndef SLINFER_SWEEP_POOL_HH
#define SLINFER_SWEEP_POOL_HH

#include <cstddef>
#include <functional>

namespace slinfer
{
namespace sweep
{

/**
 * Number of workers to use for `--jobs 0` / unspecified: the hardware
 * concurrency, with a floor of 1 (hardware_concurrency may return 0).
 */
int defaultJobs();

/**
 * Run fn(0) .. fn(n-1), each exactly once, on `threads` workers with
 * work stealing. Blocks until every task has finished. `threads <= 1`
 * (or n <= 1) degrades to an inline loop in the calling thread — the
 * execution order is then exactly 0..n-1, which keeps single-job runs
 * trivially deterministic and debuggable.
 */
void parallelFor(std::size_t n, int threads,
                 const std::function<void(std::size_t)> &fn);

} // namespace sweep
} // namespace slinfer

#endif // SLINFER_SWEEP_POOL_HH

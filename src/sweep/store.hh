/**
 * @file
 * On-disk sweep result store: one record per finished job, keyed by
 * the job's config hash.
 *
 * The layout is plain JSONL: one line per record, greppable.
 *
 * Opening a store loads every existing record, so a re-run of the same
 * grid skips completed jobs (resume-from-partial after an interrupt).
 * append() is thread-safe and flushes per record — a job that finished
 * is durable even if the process dies mid-sweep; a record torn by the
 * crash (unterminated line) is dropped with a warning and the job
 * simply re-runs. compact() rewrites the file in grid order once a
 * sweep completes, making the bytes independent of worker count and
 * completion order.
 */

#ifndef SLINFER_SWEEP_STORE_HH
#define SLINFER_SWEEP_STORE_HH

#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sweep/sweep.hh"

namespace slinfer
{
namespace sweep
{

class ResultStore
{
  public:
    /** Open (creating if absent) the store at `path`; "" = in-memory
     *  only. Unreadable records in an existing file are fatal — a
     *  corrupt store should be inspected, not silently recomputed. */
    explicit ResultStore(const std::string &path);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** Report cached under this config hash, or nullptr. */
    const Report *find(const std::string &hash) const;

    /** Number of records loaded from disk at open. */
    std::size_t loaded() const { return loaded_; }

    /** Append one record and flush (thread-safe). */
    void append(const JobSpec &job, const Report &report);

    /** Rewrite the file as exactly `ordered`, in order. No-op for
     *  in-memory stores. */
    void compact(const std::vector<Record> &ordered);

    /** Serialize one record as a single JSONL line (no newline). */
    static std::string recordLine(const JobSpec &job, const Report &report);

    /** Parse a recordLine(); false + *err on malformed input. */
    static bool parseRecordLine(const std::string &line, JobSpec &job,
                                Report &report, std::string *err);

  private:
    /** Load `content` (split on '\n') into byHash_, dropping a torn
     *  final line; fatal on a complete line that fails to parse.
     *  Returns the kept lines. */
    std::vector<std::string> loadLines(const std::string &content);

    std::string path_;
    /** JSONL append handle (null in in-memory mode). */
    std::FILE *file_ = nullptr;
    mutable std::mutex mutex_;
    /** find() hands out raw pointers; unordered_map nodes never move
     *  on insert, so they stay valid. */
    std::unordered_map<std::string, Report> byHash_;
    std::size_t loaded_ = 0;
};

} // namespace sweep
} // namespace slinfer

#endif // SLINFER_SWEEP_STORE_HH

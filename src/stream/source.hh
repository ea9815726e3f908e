/**
 * @file
 * Incremental request sources for streaming replay.
 *
 * A RequestSource yields trace records one at a time in nondecreasing
 * time order. The Session consumes it through a StreamingArrivalFeed
 * (stream/feed.hh), the one arrival path, which keeps only a bounded
 * lookahead window of future arrivals alive: peak memory is
 * independent of trace length.
 *
 * Two implementations:
 *  - VectorSource wraps an in-memory AzureTrace (any ArrivalProcess
 *    generator); it owns the vector, so memory is bounded by the trace
 *    itself — 16 bytes per arrival — not by materialized Requests.
 *  - StrcSource pulls from an on-disk `.strc` compressed trace
 *    (stream/codec.hh), decoding one chunk at a time; this is the
 *    fully bounded path for multi-million-request traces.
 */

#ifndef SLINFER_STREAM_SOURCE_HH
#define SLINFER_STREAM_SOURCE_HH

#include <memory>
#include <string>

#include "stream/codec.hh"
#include "workload/azure_trace.hh"

namespace slinfer
{
namespace stream
{

/** Streaming-replay knobs on the experiment config. */
struct StreamConfig
{
    /** Ignored. Every run streams its arrivals; the field remains
     *  only so existing callers that still assign it keep compiling.
     *  Nothing reads it. */
    bool enabled = false;

    /** Maximum arrivals scheduled-but-unfired at any instant; bounds
     *  the live Request pool together with the in-flight set. A value
     *  at least the trace length schedules the whole trace at start. */
    std::uint32_t lookahead = 4096;

    /** Replay from this `.strc` file instead of generating a trace
     *  ("" = generate from cfg.arrivals / cfg.trace as usual). */
    std::string tracePath;
};

/**
 * One-pass cursor over a trace. Implementations guarantee records come
 * out in nondecreasing time order (the feed checks fatally).
 */
class RequestSource
{
  public:
    virtual ~RequestSource() = default;

    /** Pull the next record; false at end-of-trace. */
    virtual bool next(TraceRecord &rec) = 0;

    /** Metrics window, seconds (the trace's stamped duration). */
    virtual Seconds duration() const = 0;

    /** True when records carry token lengths (inputLen/targetOutput);
     *  false means the session samples lengths from its dataset. */
    virtual bool hasLengths() const = 0;

    /** Total records when known up front, 0 when unknown. Used only to
     *  pre-size buffers — never for correctness (unknown-size sources
     *  degrade to chunked growth). */
    virtual std::uint64_t sizeHint() const = 0;
};

using RequestSourcePtr = std::unique_ptr<RequestSource>;

/** Wrap a generated in-memory trace (takes ownership). */
RequestSourcePtr makeVectorSource(AzureTrace trace);

/** Open a `.strc` trace file. Null + `*err` on failure; a torn file
 *  opens fine with its salvageable prefix (StrcReader recovery). */
RequestSourcePtr makeStrcSource(const std::string &path,
                                std::string *err);

} // namespace stream
} // namespace slinfer

#endif // SLINFER_STREAM_SOURCE_HH

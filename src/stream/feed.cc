#include "stream/feed.hh"

#include <utility>

#include "common/log.hh"

namespace slinfer
{
namespace stream
{

StreamingArrivalFeed::StreamingArrivalFeed(
    Simulator &sim, RequestSource &src, std::uint32_t lookahead,
    Materialize mat, Submit submit, Recycle recycle)
    : sim_(sim), src_(src), lookahead_(lookahead),
      mat_(std::move(mat)), submit_(std::move(submit)),
      recycle_(std::move(recycle))
{
    if (lookahead_ == 0)
        fatal("StreamingArrivalFeed: lookahead must be positive");
}

void
StreamingArrivalFeed::start()
{
    if (started_)
        fatal("StreamingArrivalFeed::start called twice");
    started_ = true;
    seqBase_ = sim_.reserveSeqBand(kBandWidth);
    pump();
}

void
StreamingArrivalFeed::pump()
{
    while (!exhausted_ && liveWindow_ < lookahead_) {
        TraceRecord rec;
        if (!src_.next(rec)) {
            exhausted_ = true;
            break;
        }
        if (pulled_ > 0 && rec.time < lastTime_)
            fatal("StreamingArrivalFeed: source records out of time "
                  "order");
        lastTime_ = rec.time;
        if (pulled_ >= kBandWidth)
            fatal("StreamingArrivalFeed: arrival seq band exhausted");
        std::uint64_t seq = seqBase_ + pulled_++;
        // Build in trace order even when the record will never be
        // scheduled: the length RNG stays independent of the window.
        Request *r = mat_(rec);
        if (rec.model < retired_.size() && retired_[rec.model]) {
            recycle_(r);
            continue; // the seq is consumed, as schedule-then-cancel
                      // would have consumed it
        }
        window_.push_back(Entry{});
        Entry &e = window_.back();
        e.req = r;
        e.ev = sim_.scheduleAtSeq(rec.time, seq,
                                  [this, r] { fired(r); });
        ++liveWindow_;
    }
}

void
StreamingArrivalFeed::fired(Request *r)
{
    // Cancelled (retired) entries never fire; drop their husks so the
    // front is the arrival that is firing right now — events in the
    // band fire in strictly ascending seq = window order.
    while (!window_.empty() && window_.front().req == nullptr)
        window_.pop_front();
    if (window_.empty() || window_.front().req != r)
        fatal("StreamingArrivalFeed: arrival fired out of window "
              "order");
    window_.pop_front();
    --liveWindow_;
    ++fired_;
    submit_(r);
    pump();
}

void
StreamingArrivalFeed::retireModel(ModelId m)
{
    if (m >= retired_.size())
        retired_.resize(m + 1, false);
    retired_[m] = true;
    for (Entry &e : window_) {
        if (e.req && e.req->model == m) {
            e.ev.cancel();
            recycle_(e.req);
            e.req = nullptr;
            --liveWindow_;
        }
    }
    // The cancellations freed window slots: refill so the lookahead
    // horizon never shrinks below later models' arrivals.
    if (started_)
        pump();
}

} // namespace stream
} // namespace slinfer

#include "stream/feed.hh"

#include <utility>

#include "common/log.hh"

namespace slinfer
{
namespace stream
{

StreamingArrivalFeed::StreamingArrivalFeed(Simulator &sim,
                                           RequestSource &src,
                                           Materialize mat, Submit submit,
                                           Recycle recycle)
    : sim_(sim), src_(src), mat_(std::move(mat)),
      submit_(std::move(submit)), recycle_(std::move(recycle))
{
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
    while (!exhausted_ && pending_ == nullptr) {
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
        // scheduled: the length RNG sees every record.
        Request *r = mat_(rec);
        if (rec.model < retired_.size() && retired_[rec.model]) {
            recycle_(r);
            continue; // the seq is consumed, as schedule-then-cancel
                      // would have consumed it
        }
        pending_ = r;
        pendingEv_ = sim_.scheduleAtSeq(rec.time, seq,
                                        [this, r] { fired(r); });
    }
}

void
StreamingArrivalFeed::fired(Request *r)
{
    if (pending_ != r)
        fatal("StreamingArrivalFeed: fired arrival is not the "
              "scheduled one");
    pending_ = nullptr;
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
    if (pending_ && pending_->model == m) {
        pendingEv_.cancel();
        recycle_(pending_);
        pending_ = nullptr;
    }
    // Schedule the next arrival of a model still serving.
    if (started_)
        pump();
}

} // namespace stream
} // namespace slinfer

#include "engine/instance.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace slinfer
{

Instance::Instance(InstanceId id_, ModelId model_id, const ModelSpec &m,
                   Partition *primary_, HardwareSpec exec_spec,
                   Bytes kv_alloc)
    : id(id_), modelId(model_id), model(m), primary(primary_),
      execSpec(std::move(exec_spec)), kv(m.kvBytesPerToken(), kv_alloc),
      kvTarget(kv_alloc)
{
}

void
Instance::bumpEpoch()
{
    ++primary->admitEpoch;
}

void
Instance::setState(InstanceState s)
{
    state_ = s;
    bumpEpoch();
}

void
Instance::enqueuePrefill(Request *req)
{
    prefillQueue_.push_back(req);
    prefillCtx_ += req->contextLen();
    bumpEpoch();
}

void
Instance::joinDecode(Request *req)
{
    decodeBatch_.push_back(req);
    decodeCtx_ += req->contextLen();
    bumpEpoch();
}

void
Instance::notePrefillToken(Request *req, Seconds t)
{
    req->noteToken(t);
    ++prefillCtx_;
}

void
Instance::noteDecodeToken(Request *req, Seconds t)
{
    req->noteToken(t);
    ++decodeCtx_;
}

Tokens
Instance::avgContextLen() const
{
    if (decodeBatch_.empty())
        return 1;
    return std::max<Tokens>(
        1, decodeCtx_ / static_cast<Tokens>(decodeBatch_.size()));
}

bool
Instance::runnable() const
{
    if (state_ != InstanceState::Active || resizeInFlight)
        return false;
    return !prefillQueue_.empty() || !decodeBatch_.empty();
}

Request *
Instance::mostUrgent(Seconds now, bool &is_prefill) const
{
    Request *best = nullptr;
    Seconds best_h = std::numeric_limits<Seconds>::infinity();
    is_prefill = false;
    for (Request *r : prefillQueue_) {
        Seconds h = r->headroom(now);
        if (h < best_h) {
            best_h = h;
            best = r;
            is_prefill = true;
        }
    }
    for (Request *r : decodeBatch_) {
        Seconds h = r->headroom(now);
        if (h < best_h) {
            best_h = h;
            best = r;
            is_prefill = false;
        }
    }
    return best;
}

Seconds
Instance::minHeadroom(Seconds now) const
{
    bool is_prefill = false;
    Request *r = mostUrgent(now, is_prefill);
    return r ? r->headroom(now)
             : std::numeric_limits<Seconds>::infinity();
}

void
Instance::removeRequest(Request *req)
{
    auto erase_from = [req](std::vector<Request *> &v) {
        auto it = std::find(v.begin(), v.end(), req);
        if (it == v.end())
            return false;
        v.erase(it);
        return true;
    };
    if (erase_from(prefillQueue_))
        prefillCtx_ -= req->contextLen();
    else if (erase_from(decodeBatch_))
        decodeCtx_ -= req->contextLen();
    else
        panic("Instance::removeRequest: request not found");
    bumpEpoch();
}

} // namespace slinfer

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
Instance::foldPrefill(Request *req)
{
    Seconds d = req->deadlineForNextToken();
    if (d < prefillMin_) {
        prefillSecond_ = prefillMin_;
        prefillMin_ = d;
        urgentPrefill_ = req;
    } else if (d > prefillMin_ && d < prefillSecond_) {
        prefillSecond_ = d;
    }
    if (!earliestPrefill_ || req->arrival < earliestPrefill_->arrival)
        earliestPrefill_ = req;
}

void
Instance::rescanPrefill()
{
    urgentPrefill_ = nullptr;
    earliestPrefill_ = nullptr;
    prefillMin_ = prefillSecond_ = std::numeric_limits<Seconds>::infinity();
    for (Request *r : prefillQueue_)
        foldPrefill(r);
}

void
Instance::enqueuePrefill(Request *req)
{
    prefillQueue_.push_back(req);
    prefillCtx_ += req->contextLen();
    foldPrefill(req);
    bumpEpoch();
}

void
Instance::joinDecode(Request *req)
{
    decodeBatch_.push_back(req);
    decodeCtx_ += req->contextLen();
    decodeGrowth_ += tokenGrowth(*req);
    if (!decodeMinDirty_)
        decodeMin_ = std::min(decodeMin_, req->deadlineForNextToken());
    bumpEpoch();
}

void
Instance::notePrefillToken(Request *req, Seconds t)
{
    req->noteToken(t);
    ++prefillCtx_;
    rescanPrefill();
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
    if (erase_from(prefillQueue_)) {
        prefillCtx_ -= req->contextLen();
        rescanPrefill();
    } else if (erase_from(decodeBatch_)) {
        decodeCtx_ -= req->contextLen();
        decodeGrowth_ -= tokenGrowth(*req);
        if (req->deadlineForNextToken() <= decodeMin_)
            decodeMinDirty_ = true;
    } else {
        panic("Instance::removeRequest: request not found");
    }
    bumpEpoch();
}

} // namespace slinfer

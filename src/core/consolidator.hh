/**
 * @file
 * Efficiency-oriented consolidation (paper §VIII).
 *
 * Proactive: when no existing instance of a model can absorb a new
 * request, an instance may preempt colocated *smaller-batch* neighbors
 * (smallest first) to scale up in place — but only when shadow
 * validation shows the preempted requests still meet their SLOs after
 * rescheduling to other instances. Idle keep-alive neighbors are the
 * cheapest victims.
 *
 * Reactive: when several instances of one model exist, new requests are
 * routed to the largest-batch instance first (bin-packing), letting the
 * small fragments drain and be reclaimed at keep-alive expiry. The
 * ordering helper here is used by the controller's dispatch path.
 */

#ifndef SLINFER_CORE_CONSOLIDATOR_HH
#define SLINFER_CORE_CONSOLIDATOR_HH

#include <vector>

#include "engine/instance.hh"

namespace slinfer
{

class SlinferController;
class Request;

class Consolidator
{
  public:
    explicit Consolidator(SlinferController &ctl);

    /**
     * Proactive path: try to admit `req` to an existing instance of its
     * model by preempting smaller-batch neighbors. Returns true when
     * the request was admitted.
     */
    bool tryPreemptFor(Request *req);

    /** Reactive bin-packing order: largest decode batch first. */
    static void orderLargestBatchFirst(std::vector<Instance *> &insts);

  private:
    struct VictimPlan
    {
        std::vector<Instance *> victims;
        /** (request, destination) assignments for the victims' load. */
        std::vector<std::pair<Request *, Instance *>> moves;
    };

    bool planVictims(Instance *grower, Request *req, VictimPlan &plan);
    void execute(Instance *grower, Request *req, const VictimPlan &plan);

    SlinferController &ctl_;
};

} // namespace slinfer

#endif // SLINFER_CORE_CONSOLIDATOR_HH

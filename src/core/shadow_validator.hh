/**
 * @file
 * Shadow validation (paper §VI-C).
 *
 * Before a request is dispatched to an instance, SLINFER virtually adds
 * it and fast-forwards the partition's token-level schedule using the
 * quantifier's estimates, each inflated by 10%. Admission is rejected
 * when the simulation exhibits any of the paper's three cases:
 *   (1) the new request's prefill lands after its TTFT deadline;
 *   (2) an existing request's next token slips past its cumulative
 *       deadline because of the new prefill;
 *   (3) the aggregate single-decode-iteration time across all colocated
 *       instances exceeds the TPOT SLO (steady-state saturation).
 */

#ifndef SLINFER_CORE_SHADOW_VALIDATOR_HH
#define SLINFER_CORE_SHADOW_VALIDATOR_HH

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "core/quantifier.hh"
#include "engine/instance.hh"
#include "engine/node.hh"
#include "obs/counters.hh"

namespace slinfer
{

class TokenScheduler;

struct ShadowConfig
{
    double overestimate = 1.10;
    Seconds tpotSlo = 0.25;
    int maxSteps = 500;
};

class ShadowValidator
{
  public:
    ShadowValidator(const Quantifier &quant, ShadowConfig cfg);

    /**
     * Can `req` join existing instance `target` on its partition
     * without violating any colocated request's SLO? `partBusyUntil`
     * is the completion time of the partition's in-flight iteration.
     * Instances in `exclude` are treated as already removed (used by
     * the consolidator to evaluate preemption).
     */
    bool canAdmit(const Partition &part, const Instance *target,
                  const Request &req, Seconds now, Seconds partBusyUntil,
                  const std::set<const Instance *> &exclude = {}) const;

    /**
     * Can `req` be served by a *new* instance of `model` placed on
     * `part`, whose weights become resident at `readyAt`?
     */
    bool canAdmitNew(const Partition &part, const ModelSpec &model,
                     const HardwareSpec &execSpec, const Request &req,
                     Seconds now, Seconds partBusyUntil,
                     Seconds readyAt) const;

    /**
     * Case-3 only: steady-state aggregate decode fits in one TPOT.
     * canAdmitNew's two case-3 sums are cached per partition as lower
     * bounds (DESIGN.md, "Cached admission bounds"): they only grow
     * while tokens decode, so a bound that already clears the SLO by
     * a rounding margin answers a reject in O(1) until the partition's
     * admitEpoch or the quantifier's generation moves.
     */
    bool aggregateDecodeFits(const Partition &part, const Instance *target,
                             int extraOnTarget, Tokens extraLen,
                             const std::set<const Instance *> &exclude =
                                 {}) const;

    /** Cumulative full validations run (twoPass() calls, memo hits
     *  included); tests read it beside the shadow_memo_hits counter. */
    std::uint64_t evaluations() const { return evals_; }

    /**
     * Attach the Session's counter block (nullable; null = off). The
     * validator bumps the memo-hit and rejection-reason counters; a
     * null block costs one test per bump and never changes a verdict.
     */
    void attachCounters(obs::Counters *c) { ctr_ = c; }

  private:
    /** The instance's profile table, resolved on first use and kept
     *  by instance id (ids are unique for a validator's lifetime; a
     *  re-profile refreshes tables in place). */
    const Quantifier::ProfileTable &tableOf(const Instance &inst) const;

    /** aggregateDecodeFits' sum, ending as soon as it passes tpotSlo
     *  (the verdict is `sum <= tpotSlo` either way). */
    Seconds aggregateDecode(const Partition &part, const Instance *target,
                            int extraOnTarget, Tokens extraLen,
                            const std::set<const Instance *> &exclude)
        const;

    struct SimReq
    {
        Seconds deadline;
        Tokens ctx;
        bool isCandidate;
        int id; ///< stable identity across the two passes (-1: candidate)
    };
    struct SimDecode
    {
        /** Current as of decode step `epoch` of its instance; each
         *  later step adds one tpotSlo (see simulate). */
        Seconds deadline;
        int id;
        int epoch = 0;
    };
    struct SimInst
    {
        /** Resolved once per validation; the pair's estimates read
         *  nothing else of the model or hardware. */
        const Quantifier::ProfileTable *table = nullptr;
        Seconds availAt = 0.0;
        std::vector<SimReq> prefills;
        std::vector<SimDecode> decodeDeadlines;
        double avgLen = 1.0;
        bool decodedSinceCandidate = false;
        /** simulate()'s running minima: the earliest prefill deadline
         *  and the first index holding it, and the earliest decode
         *  deadline (infinity when the queue is empty). */
        Seconds pfMin = 0.0;
        std::size_t pfIdx = 0;
        Seconds decMin = 0.0;
        /** simulate()'s decode steps so far (the current epoch). */
        int decodeSteps = 0;

        /** Recompute pfMin / pfIdx over `prefills`. */
        void scanPrefills();

        bool
        hasWork() const
        {
            return !prefills.empty() || !decodeDeadlines.empty();
        }

        /** Still keeps simulate() from settling: a prefill to run, or
         *  a batch not yet decoded. */
        bool
        unsettled() const
        {
            return !prefills.empty() ||
                   (!decodeDeadlines.empty() && !decodedSinceCandidate);
        }
    };

    /**
     * Rebuild the validation state for `part` into the first slots of
     * `state_`, returning the live-instance count. All validation
     * scratch (`state_`, `baseline_`, `doomed_`, the memo) is
     * per-validator storage recycled across calls — admission
     * validation runs a few hundred times per simulated second at
     * fleet scale. The validator is therefore not reentrant, which is
     * fine: one controller owns one validator on one simulator thread.
     */
    std::size_t buildState(const Partition &part, Seconds now,
                           const std::set<const Instance *> &exclude)
        const;

    /** A recycled `state_` slot, inner vectors cleared. */
    SimInst &slotAt(std::size_t i) const;

    /**
     * Fast-forward the token-level schedule over `v[0..count)`,
     * consuming it. Each step runs the most urgent request of the
     * runnable instance whose earliest deadline is smallest (first
     * instance on ties, earliest-queued prefill on ties, prefill
     * before decode on ties). With `collectDoomed == false`, returns
     * false on the first violation by a request not in the sorted
     * `doomed_` scratch. With `collectDoomed == true`, never fails;
     * instead it records the ids of requests that violate into
     * `doomed_` (used as the baseline pass: requests that are late
     * even without the candidate cannot be protected and must not
     * veto admissions). Every decode entry of `v` must be at epoch 0.
     * A pass whose demand bound holds (see demandBoundHolds) ends
     * there with the horizon's verdict, true.
     */
    bool simulate(std::vector<SimInst> &v, std::size_t count,
                  Seconds start, bool collectDoomed) const;

    /**
     * The processor-demand bound of DESIGN.md, "Ending a pass early":
     * true when no step of simulate()'s fast-forward over
     * `v[0..count)` from clock `t`, with `stepsLeft` steps left, can
     * violate a deadline. Every instance with work must be available
     * by `t`; each one's decode steps, costed at its largest batch and
     * length, must sum to at most tpotSlo; and at every jump point y,
     * the work due by t + y must fit in y.
     */
    bool demandBoundHolds(const std::vector<SimInst> &v,
                          std::size_t count, Seconds t,
                          int stepsLeft) const;

    /** Two-pass validation over `state_[0..count)`: the baseline pass
     *  (without the candidate) marks the doomed, then the real pass
     *  checks only protectable requests. `now` is the true wall clock
     *  (start may be later when the partition is mid-iteration). */
    bool twoPass(std::size_t count, Seconds start, Seconds now) const;

    /** Fill `key_` with every input the baseline pass over
     *  `state_[0..count)` reads (see memo_). */
    void baselineKey(std::size_t count, Seconds start) const;

    const Quantifier &quant_;
    ShadowConfig cfg_;
    /** Tags this validator's entries in Partition::admitBounds. */
    std::uint64_t id_;
    /** tableOf's cache, indexed by InstanceId. */
    mutable std::vector<const Quantifier::ProfileTable *> tables_;

    /** Recycled validation scratch (see buildState). */
    mutable std::vector<SimInst> state_;
    mutable std::vector<SimInst> baseline_;
    /** Ids that violate even without the candidate; sorted between
     *  the two passes, membership via binary search. */
    mutable std::vector<int> doomed_;
    /** demandBoundHolds scratch: one entry per pending prefill (a
     *  one-shot job) and per instance with work (its decode stream),
     *  at the offset from the clock where its demand starts. */
    struct Jump
    {
        Seconds y;
        Seconds cost;
        bool stream;
    };
    mutable std::vector<Jump> jumps_;

    /**
     * Baseline-pass memo. The baseline is a pure function of its
     * inputs, flattened into a key of 64-bit words: the start time,
     * the quantifier's profile generation, and, for every instance
     * with work, its profile table, availability, mean context length
     * and each request's deadline, context and id (doubles by bit
     * pattern). Instances without work never run and are left out. A
     * hit reuses the recorded doomed ids instead of simulating; a key
     * that differs in any bit misses. Admission retries re-validate
     * unchanged partitions back to back, so a small FIFO ring catches
     * nearly all repeats.
     */
    struct MemoEntry
    {
        std::vector<std::uint64_t> key;
        std::vector<int> doomed; ///< baseline doomed ids, as collected
    };
    static constexpr std::size_t kMemoSlots = 8;
    mutable std::array<MemoEntry, kMemoSlots> memo_;
    mutable std::size_t memoNext_ = 0;
    mutable std::vector<std::uint64_t> key_;

    mutable std::uint64_t evals_ = 0;
    obs::Counters *ctr_ = nullptr;
};

} // namespace slinfer

#endif // SLINFER_CORE_SHADOW_VALIDATOR_HH

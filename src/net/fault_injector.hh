/**
 * @file
 * Deterministic transport-level fault injection.
 *
 * The simulator injects hardware faults (sim/fault_injector.hh); the
 * serving layer gets the same treatment at the transport: frames can be
 * dropped, bit-flipped, delayed, or torn mid-write on a seeded schedule,
 * so the client's whole recovery spine -- CRC rejection, request
 * timeouts, reconnection, idempotent retry with backoff -- is exercised
 * deterministically in tests and the soak harness instead of waiting
 * for a flaky network to do it.
 *
 * The injector sits on the *sending* side of a transport (the client
 * wraps its frame writes through it).  Each outgoing frame draws one
 * fate from a seeded xoshiro stream; with an all-zero plan the draw is
 * skipped entirely and the transport is byte-transparent, matching the
 * sim injector's "attached but disabled == absent" contract.
 */

#ifndef REACT_NET_FAULT_INJECTOR_HH
#define REACT_NET_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace react {
namespace net {

/** Per-frame fault probabilities; all-zero disables injection. */
struct FaultPlan
{
    /** P[frame is silently swallowed]. */
    double dropRate = 0.0;
    /** P[one seeded bit of the frame is flipped]. */
    double corruptRate = 0.0;
    /** P[the send is delayed by delayMs]. */
    double delayRate = 0.0;
    /** P[only a seeded prefix is written, then the connection dies]. */
    double partialRate = 0.0;
    /** Delay applied to delayed frames, milliseconds. */
    double delayMs = 20.0;
    /** Seed of the fate stream. */
    uint64_t seed = 0x5eedull;

    /** Whether any fault class is active. */
    bool enabled() const
    {
        return dropRate > 0.0 || corruptRate > 0.0 || delayRate > 0.0 ||
            partialRate > 0.0;
    }

    /** The all-zero plan (explicit spelling of the default). */
    static FaultPlan none() { return FaultPlan(); }

    /**
     * Parse a "key=value,key=value" spec, e.g.
     * "drop=0.05,corrupt=0.05,delay=0.1,delayms=25,partial=0.02,seed=7".
     * Unknown keys, unparsable numbers, and out-of-range rates fail.
     *
     * @param error Filled with a diagnostic on failure (may be null).
     * @return true on success.
     */
    static bool fromSpec(const std::string &spec, FaultPlan *out,
                         std::string *error);
};

/** What the injector decided to do with one outgoing frame. */
enum class FaultAction : uint8_t
{
    Deliver = 0,
    Drop,
    Corrupt,
    Delay,
    PartialWrite,
};

/** Counters of injected faults (for soak reporting). */
struct FaultCounters
{
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    uint64_t corrupted = 0;
    uint64_t delayed = 0;
    uint64_t partialWrites = 0;

    uint64_t injected() const
    {
        return dropped + corrupted + delayed + partialWrites;
    }
};

/** Seeded per-frame fate stream; see file comment. */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan_in);

    /** Draw the fate of the next outgoing frame (counts it). */
    FaultAction nextAction();

    /** Flip one seeded bit of @p frame (used after a Corrupt draw). */
    void corruptInPlace(std::vector<uint8_t> *frame);

    /** Seeded prefix length for a PartialWrite of a @p full-byte frame
     *  (at least 1 byte short of full, at least 1 byte written when
     *  possible). */
    size_t partialLength(size_t full);

    /** Delay to apply to a Delay draw, seconds. */
    double delaySeconds() const { return plan.delayMs / 1000.0; }

    const FaultPlan &faultPlan() const { return plan; }
    const FaultCounters &counters() const { return stats; }

  private:
    FaultPlan plan;
    Rng rng;
    FaultCounters stats;
};

} // namespace net
} // namespace react

#endif // REACT_NET_FAULT_INJECTOR_HH

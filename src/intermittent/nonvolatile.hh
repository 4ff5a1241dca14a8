/**
 * @file
 * Crash-consistent non-volatile storage (FRAM model).
 *
 * The paper's platform (MSP430FR5994) executes intermittently: power
 * fails mid-computation and the program resumes from non-volatile state
 * (S 2).  Its benchmarks implicitly rely on FRAM semantics -- the PF
 * packet queue survives brown-outs, SC's timekeeper state persists.
 * This module provides the storage substrate those semantics need: a
 * key-value store with *atomic, double-buffered commits*, so a power
 * failure during a write never exposes a torn record.
 *
 * Each record keeps two versioned slots with checksums; a commit writes
 * the inactive slot and only then bumps the version, mirroring how
 * intermittent runtimes (Alpaca, Mementos) double-buffer task-shared
 * state.  Power failures are modelled by failInFlightWrites().
 */

#ifndef REACT_INTERMITTENT_NONVOLATILE_HH
#define REACT_INTERMITTENT_NONVOLATILE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/fault_injector.hh"

namespace react {
namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}
namespace intermittent {

/** Double-buffered, checksummed non-volatile key-value store. */
class NonVolatileStore
{
  public:
    NonVolatileStore() = default;

    /**
     * Attach (or detach with nullptr) a hardware fault injector.  While
     * attached, failInFlightWrites() models the physical tear: a power
     * loss that lands mid-write leaves corrupted bytes in the slot being
     * written.  Because commits are double-buffered, the tear only ever
     * hits the *inactive* slot -- committed data stays readable, which
     * is exactly the crash-consistency property the tests verify.
     */
    void attachFaultInjector(sim::FaultInjector *injector);

    /**
     * Stage a write.  The data does not become visible to read() until
     * commit(); a power failure before then leaves the old value.
     *
     * @param key Record name.
     * @param data Bytes to store.
     */
    void stage(const std::string &key, std::vector<uint8_t> data);

    /** Atomically publish every staged write. */
    void commit();

    /** Drop every staged (uncommitted) write -- a power failure. */
    void failInFlightWrites();

    /**
     * Read the last committed value.
     *
     * @param key Record name.
     * @param out Filled with the committed bytes.
     * @return false when the key has never been committed or the record
     *         fails its checksum.
     */
    bool read(const std::string &key, std::vector<uint8_t> *out) const;

    /** Whether a committed record exists for the key. */
    bool contains(const std::string &key) const;

    /** Number of committed records. */
    size_t size() const;

    /** Total committed payload bytes (FRAM budget tracking). */
    size_t storageBytes() const;

    /** Corrupt a committed record (fault-injection hook for tests). */
    void corrupt(const std::string &key);

    /** Serialize the full store (records, staged writes, version
     *  counter); the fault-injector attachment is not part of the state
     *  and must be re-established by the owner after restore(). */
    void save(snapshot::SnapshotWriter &w) const;
    void restore(snapshot::SnapshotReader &r);

  private:
    struct Slot
    {
        std::vector<uint8_t> data;
        uint32_t checksum = 0;
        uint64_t version = 0;
    };

    struct Record
    {
        Slot slots[2];
        /** Index of the slot holding the latest committed value. */
        int active = -1;
    };

    static uint32_t checksumOf(const std::vector<uint8_t> &data);

    std::map<std::string, Record> records;
    std::map<std::string, std::vector<uint8_t>> staged;
    uint64_t nextVersion = 1;
    sim::FaultInjector *faults = nullptr;
    /** "nvstore": the FRAM array's torn-write component. */
    sim::FaultHandle framId;
};

} // namespace intermittent
} // namespace react

#endif // REACT_INTERMITTENT_NONVOLATILE_HH

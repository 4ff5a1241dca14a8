#include "nonvolatile.hh"

#include "sim/fault_injector.hh"
#include "snapshot/snapshot.hh"
#include "util/crc32.hh"

namespace react {
namespace intermittent {

uint32_t
NonVolatileStore::checksumOf(const std::vector<uint8_t> &data)
{
    // CRC-32, shared with the FRAM config record and the snapshot
    // format: guaranteed detection of any burst error up to 32 bits,
    // the signature a torn FRAM row write leaves.
    return crc32(data.data(), data.size());
}

void
NonVolatileStore::stage(const std::string &key, std::vector<uint8_t> data)
{
    staged[key] = std::move(data);
}

void
NonVolatileStore::commit()
{
    for (auto &entry : staged) {
        Record &record = records[entry.first];
        const int target = record.active == 0 ? 1 : 0;
        Slot &slot = record.slots[target];
        slot.data = std::move(entry.second);
        slot.checksum = checksumOf(slot.data);
        slot.version = nextVersion++;
        // The version/active flip is the atomic publish point.
        record.active = target;
    }
    staged.clear();
}

void
NonVolatileStore::attachFaultInjector(sim::FaultInjector *injector)
{
    faults = injector;
    if (faults != nullptr)
        framId = faults->intern("nvstore");
}

void
NonVolatileStore::failInFlightWrites()
{
    if (faults != nullptr) {
        // The power loss may have caught a staged record mid-write: the
        // torn bytes land in the slot the commit was writing -- always
        // the inactive one -- and the tear stops before the checksum and
        // version update, so the slot keeps stale metadata and can never
        // be mistaken for a committed value.
        for (auto &entry : staged) {
            std::vector<uint8_t> partial = entry.second;
            if (!faults->maybeCorruptOnPowerLoss(framId, &partial))
                continue;
            Record &record = records[entry.first];
            const int target = record.active == 0 ? 1 : 0;
            record.slots[target].data = std::move(partial);
        }
    }
    staged.clear();
}

bool
NonVolatileStore::read(const std::string &key,
                       std::vector<uint8_t> *out) const
{
    const auto it = records.find(key);
    if (it == records.end() || it->second.active < 0)
        return false;
    const Slot &slot = it->second.slots[it->second.active];
    if (checksumOf(slot.data) != slot.checksum) {
        // Active slot corrupted: fall back to the previous version if
        // it is intact (the double-buffer's whole purpose).
        const Slot &other = it->second.slots[it->second.active ^ 1];
        if (other.version > 0 && checksumOf(other.data) == other.checksum) {
            if (out)
                *out = other.data;
            return true;
        }
        return false;
    }
    if (out)
        *out = slot.data;
    return true;
}

bool
NonVolatileStore::contains(const std::string &key) const
{
    return read(key, nullptr);
}

size_t
NonVolatileStore::size() const
{
    size_t n = 0;
    for (const auto &entry : records)
        n += entry.second.active >= 0 ? 1 : 0;
    return n;
}

size_t
NonVolatileStore::storageBytes() const
{
    size_t bytes = 0;
    for (const auto &entry : records) {
        for (const auto &slot : entry.second.slots)
            bytes += slot.data.size();
    }
    return bytes;
}

void
NonVolatileStore::save(snapshot::SnapshotWriter &w) const
{
    w.u64(nextVersion);
    w.u32(static_cast<uint32_t>(records.size()));
    for (const auto &entry : records) {
        w.str(entry.first);
        w.i64(entry.second.active);
        for (const auto &slot : entry.second.slots) {
            w.bytes(slot.data);
            w.u32(slot.checksum);
            w.u64(slot.version);
        }
    }
    w.u32(static_cast<uint32_t>(staged.size()));
    for (const auto &entry : staged) {
        w.str(entry.first);
        w.bytes(entry.second);
    }
}

void
NonVolatileStore::restore(snapshot::SnapshotReader &r)
{
    records.clear();
    staged.clear();
    nextVersion = r.u64();
    const uint32_t record_count = r.u32();
    for (uint32_t i = 0; i < record_count; ++i) {
        const std::string key = r.str();
        Record &record = records[key];
        record.active = static_cast<int>(r.i64());
        for (auto &slot : record.slots) {
            slot.data = r.bytes();
            slot.checksum = r.u32();
            slot.version = r.u64();
        }
    }
    const uint32_t staged_count = r.u32();
    for (uint32_t i = 0; i < staged_count; ++i) {
        const std::string key = r.str();
        staged[key] = r.bytes();
    }
}

void
NonVolatileStore::corrupt(const std::string &key)
{
    auto it = records.find(key);
    if (it == records.end() || it->second.active < 0)
        return;
    Slot &slot = it->second.slots[it->second.active];
    if (!slot.data.empty())
        slot.data[0] ^= 0xff;
}

} // namespace intermittent
} // namespace react

/**
 * @file
 * Versioned, CRC-32-guarded binary snapshots of simulator state.
 *
 * The paper's systems survive power failure by persisting state in FRAM;
 * the simulator itself gets the same property here so a long sweep that
 * dies mid-run can resume per-cell instead of starting over.  Every
 * stateful component implements save(SnapshotWriter&) / restore
 * (SnapshotReader&) against this format, and determinism (PR 3's
 * bit-identical cells) makes correctness checkable: a run restored from
 * any checkpoint must finish bit-identical to an uninterrupted run,
 * which the crash_fuzz harness enforces.
 *
 * ## Wire format
 *
 * A snapshot is a header followed by a sequence of named sections:
 *
 *     header : u32 magic "RSNP" (0x52534e50, little-endian)
 *              u32 format version (kFormatVersion)
 *              u32 section count (patched when the writer finishes)
 *     section: u8  name length
 *              ... name bytes
 *              u64 payload length (little-endian)
 *              ... payload
 *              u32 CRC-32 of the section record above (name length,
 *                  name, payload length, payload; BIG-endian)
 *
 * All other integers are little-endian; doubles are stored as their
 * IEEE-754 bit pattern (bit-exact round trip).  The CRC trailer is
 * big-endian on purpose: with a little-endian trailer, the CRC-32 of a
 * record followed by its own CRC is a constant (the CRC residue), so a
 * CRC over a whole image -- ExperimentResult::stateDigest -- would
 * depend only on the header and the section lengths, not on the state.
 * Format version 1 had that trailer; its files are rejected with a
 * version diagnostic and the caller cold-starts.
 *
 * Each section's CRC covers its entire record -- a flipped byte
 * anywhere but the header is a CRC mismatch -- and the header's section
 * count makes a file truncated at a clean section boundary detectable
 * too.  SnapshotReader validates the whole image in its constructor and
 * throws SnapshotError on any damage, before any component sees a byte
 * of it.
 *
 * ## Atomic file protocol
 *
 * saveSnapshotFile() never overwrites the last good snapshot in place:
 * it writes `path.tmp`, rotates any existing `path` to `path.prev`, and
 * renames the temp file into place.  A crash at any point leaves either
 * the new snapshot, the previous one, or both on disk; loadSnapshotFile()
 * falls back from `path` to `path.prev` with a diagnostic, and reports
 * cleanly when neither validates (callers then cold-start, which is
 * always correct -- just slower).
 */

#ifndef REACT_SNAPSHOT_SNAPSHOT_HH
#define REACT_SNAPSHOT_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace react {

class Rng;

namespace snapshot {

/** Format magic: "RSNP" read as a little-endian u32. */
constexpr uint32_t kMagic = 0x504e5352u;
/** Bumped on any incompatible wire-format change (2: big-endian
 *  section CRC trailer). */
constexpr uint32_t kFormatVersion = 2;

/** Raised on any validation failure (bad magic, wrong version, CRC
 *  mismatch, truncation, section-order or read-size mismatch).  Always
 *  catchable: a damaged snapshot degrades to a cold start, never UB. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/** Serializes primitives into named, CRC-framed sections. */
class SnapshotWriter
{
  public:
    SnapshotWriter();

    /** Open a section.  Sections cannot nest (programmer error). */
    void beginSection(const std::string &name);

    /** Close the open section: patches its length, appends its CRC. */
    void endSection();

    /** @name Primitive encoders (valid only inside an open section). @{ */
    void u8(uint8_t v);
    void b(bool v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i64(int64_t v);
    /** Stored as the IEEE-754 bit pattern: bit-exact round trip. */
    void f64(double v);
    void str(const std::string &v);
    void bytes(const std::vector<uint8_t> &v);
    /** @} */

    /** Finish the snapshot and take the image (writer is spent). */
    std::vector<uint8_t> finish();

  private:
    void put(const void *data, size_t size);

    std::vector<uint8_t> image;
    /** Offset of the open section's length field; npos when closed. */
    size_t lengthPos = SIZE_MAX;
    /** Offset of the open section's first payload byte. */
    size_t payloadPos = 0;
    /** Offset of the open section's name-length byte (CRC start). */
    size_t sectionPos = 0;
    /** Sections closed so far; patched into the header by finish(). */
    uint32_t sectionCount = 0;
};

/** Validates a snapshot image up front, then replays its sections. */
class SnapshotReader
{
  public:
    /**
     * Parse and fully validate the image: header, every section's
     * framing, every section's CRC.  @throws SnapshotError on damage.
     */
    explicit SnapshotReader(std::vector<uint8_t> image_bytes);

    /**
     * Open the next section; its name must match (sections are replayed
     * in the order they were written).  @throws SnapshotError otherwise.
     */
    void beginSection(const std::string &name);

    /** Close the section; throws unless every payload byte was read. */
    void endSection();

    /** @name Primitive decoders (bounds-checked; throw on overrun). @{ */
    uint8_t u8();
    bool b();
    uint32_t u32();
    uint64_t u64();
    int64_t i64();
    double f64();
    std::string str();
    std::vector<uint8_t> bytes();
    /** @} */

    /** Number of sections in the image. */
    size_t sectionCount() const { return sections.size(); }

  private:
    struct Section
    {
        std::string name;
        size_t payloadStart = 0;
        size_t payloadSize = 0;
    };

    void take(void *out, size_t size);

    std::vector<uint8_t> image;
    std::vector<Section> sections;
    /** Index of the next section beginSection() will open. */
    size_t nextSection = 0;
    /** Read cursor / end of the open section; cursor == SIZE_MAX when
     *  no section is open. */
    size_t cursor = SIZE_MAX;
    size_t payloadEnd = 0;
};

/** Serialize a full RNG stream (xoshiro words + the Box-Muller cached
 *  normal -- omitting the cache would desynchronize normal() draws). */
void saveRng(SnapshotWriter &w, const Rng &rng);
void restoreRng(SnapshotReader &r, Rng *rng);

/** Validate an image without constructing a reader.
 *  @param error Filled with a diagnostic on failure (may be null).
 *  @return true when the image parses and every CRC checks out. */
bool validateImage(const std::vector<uint8_t> &image, std::string *error);

/**
 * Write a snapshot image atomically: `path.tmp` -> rotate existing
 * `path` to `path.prev` -> rename into place.  A power failure at any
 * point leaves at least one valid snapshot on disk.
 *
 * @return false (with a diagnostic in @p error, may be null) on I/O
 *         failure; never throws.
 */
bool saveSnapshotFile(const std::string &path,
                      const std::vector<uint8_t> &image,
                      std::string *error = nullptr);

/** Outcome of loadSnapshotFile(). */
struct SnapshotLoad
{
    /** The validated image (empty when ok == false). */
    std::vector<uint8_t> image;
    /** Whether any snapshot loaded. */
    bool ok = false;
    /** True when `path` was damaged/missing and `path.prev` was used. */
    bool usedFallback = false;
    /** Human-readable account of what happened (always filled). */
    std::string diagnostic;
};

/**
 * Load `path`, falling back to `path.prev` when the primary file is
 * missing, truncated, or fails CRC validation.  Never throws: a result
 * with ok == false means the caller must cold-start.
 */
SnapshotLoad loadSnapshotFile(const std::string &path);

} // namespace snapshot
} // namespace react

#endif // REACT_SNAPSHOT_SNAPSHOT_HH

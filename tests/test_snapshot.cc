/**
 * @file
 * Tests for the snapshot subsystem: wire-format round trips, whole-image
 * validation (corruption, truncation, reordering), the atomic file
 * protocol with its `.prev` fallback, RNG stream serialization,
 * checkpoint/restore transparency of a full experiment run, and the
 * finished checkpoint's result section as untrusted input.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/grid.hh"
#include "harness/paper_setup.hh"
#include "harvest/frontend.hh"
#include "snapshot/snapshot.hh"
#include "trace/power_trace.hh"
#include "util/crc32.hh"
#include "util/rng.hh"

/**
 * A length lie must not cost memory: this binary refuses any single
 * allocation over 256 MiB, so a decoder that sizes a buffer from an
 * untrusted count throws std::bad_alloc (and fails its test) instead of
 * passing after a multi-gigabyte allocation.
 */
void *
operator new(std::size_t size)
{
    if (size <= (std::size_t{256} << 20)) {
        if (void *p = std::malloc(size == 0 ? 1 : size))
            return p;
    }
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace react {
namespace snapshot {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t>
sampleImage()
{
    SnapshotWriter w;
    w.beginSection("alpha");
    w.u8(7);
    w.b(true);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.f64(3.141592653589793);
    w.str("hello");
    w.bytes({1, 2, 3});
    w.endSection();
    w.beginSection("beta");
    w.u32(99);
    w.endSection();
    return w.finish();
}

TEST(SnapshotFormat, RoundTripsEveryPrimitive)
{
    SnapshotReader r(sampleImage());
    EXPECT_EQ(r.sectionCount(), 2u);
    r.beginSection("alpha");
    EXPECT_EQ(r.u8(), 7);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.bytes(), (std::vector<uint8_t>{1, 2, 3}));
    r.endSection();
    r.beginSection("beta");
    EXPECT_EQ(r.u32(), 99u);
    r.endSection();
}

TEST(SnapshotFormat, NegativeZeroAndNanRoundTripBitExactly)
{
    SnapshotWriter w;
    w.beginSection("f");
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.f64(std::numeric_limits<double>::infinity());
    w.endSection();
    SnapshotReader r(w.finish());
    r.beginSection("f");
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_TRUE(std::isinf(r.f64()));
    r.endSection();
}

TEST(SnapshotFormat, DetectsEveryFlippedByte)
{
    // The whole image is covered by header checks plus per-section CRCs:
    // no single-byte flip may survive construction.
    const auto image = sampleImage();
    for (size_t i = 0; i < image.size(); ++i) {
        auto damaged = image;
        damaged[i] ^= 0x01;
        EXPECT_THROW(SnapshotReader{damaged}, SnapshotError)
            << "flip at byte " << i << " went undetected";
    }
}

TEST(SnapshotFormat, DetectsEveryTruncationPoint)
{
    const auto image = sampleImage();
    for (size_t keep = 0; keep < image.size(); ++keep) {
        std::vector<uint8_t> damaged(image.begin(),
                                     image.begin() +
                                         static_cast<long>(keep));
        EXPECT_THROW(SnapshotReader{damaged}, SnapshotError)
            << "truncation to " << keep << " bytes went undetected";
    }
}

TEST(SnapshotFormat, RejectsWrongMagicAndVersion)
{
    auto image = sampleImage();
    image[0] ^= 0xff;
    EXPECT_THROW(SnapshotReader{image}, SnapshotError);
    image = sampleImage();
    image[4] ^= 0xff;  // version word
    EXPECT_THROW(SnapshotReader{image}, SnapshotError);
}

TEST(SnapshotFormat, ImageDigestSeesThePayload)
{
    // Images with one layout (names, lengths) but different payloads
    // must hash apart under a CRC over the whole image -- the way
    // ExperimentResult::stateDigest is computed.  A little-endian CRC
    // trailer would collapse them all to one value (the CRC residue).
    std::set<uint32_t> digests;
    for (uint64_t v = 0; v < 64; ++v) {
        SnapshotWriter w;
        w.beginSection("state");
        w.u64(v);
        w.f64(static_cast<double>(v) * 0.25);
        w.endSection();
        w.beginSection("tail");
        w.u32(static_cast<uint32_t>(v));
        w.endSection();
        const std::vector<uint8_t> image = w.finish();
        digests.insert(crc32(image.data(), image.size()));
    }
    EXPECT_EQ(digests.size(), 64u);
}

TEST(SnapshotFormat, ValidateImageMatchesReaderVerdict)
{
    std::string error;
    EXPECT_TRUE(validateImage(sampleImage(), &error));
    EXPECT_TRUE(error.empty());
    auto damaged = sampleImage();
    damaged[damaged.size() / 2] ^= 0x10;
    EXPECT_FALSE(validateImage(damaged, &error));
    EXPECT_FALSE(error.empty());
}

TEST(SnapshotFormat, ReaderEnforcesSectionDiscipline)
{
    {
        SnapshotReader r(sampleImage());
        EXPECT_THROW(r.beginSection("beta"), SnapshotError);  // order
    }
    {
        SnapshotReader r(sampleImage());
        EXPECT_THROW(r.u32(), SnapshotError);  // read outside any section
    }
    {
        SnapshotReader r(sampleImage());
        r.beginSection("alpha");
        r.u8();
        EXPECT_THROW(r.endSection(), SnapshotError);  // unread payload
    }
    {
        SnapshotReader r(sampleImage());
        r.beginSection("alpha");
        r.u8();
        r.b();
        r.u32();
        r.u64();
        r.i64();
        r.f64();
        r.str();
        r.bytes();
        EXPECT_THROW(r.u64(), SnapshotError);  // overrun
    }
}

TEST(SnapshotRng, SaveRestoreDrawIsBitIdentical)
{
    Rng original(12345);
    // Burn in, leaving a cached Box-Muller deviate pending.
    for (int i = 0; i < 7; ++i)
        (void)original.normal();
    (void)original.uniform();

    SnapshotWriter w;
    w.beginSection("rng");
    saveRng(w, original);
    w.endSection();
    SnapshotReader r(w.finish());
    r.beginSection("rng");
    Rng restored(999);  // seed must not matter
    restoreRng(r, &restored);
    r.endSection();

    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(original.next(), restored.next());
        EXPECT_DOUBLE_EQ(original.normal(), restored.normal());
    }
}

TEST(StateDigest, DiffersBetweenCellsWithDifferentFinalState)
{
    const harness::ExperimentResult small = harness::runGridCell(
        harness::BufferKind::Static770uF,
        harness::BenchmarkKind::DataEncryption, trace::PaperTrace::RfCart);
    const harness::ExperimentResult large = harness::runGridCell(
        harness::BufferKind::Static10mF,
        harness::BenchmarkKind::DataEncryption, trace::PaperTrace::RfCart);
    ASSERT_NE(small.residualEnergy, large.residualEnergy);
    EXPECT_NE(small.stateDigest, large.stateDigest);
}

class SnapshotFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // ctest runs each case as its own process, possibly in parallel:
        // a per-test, per-process directory keeps them from sharing (and
        // deleting) one another's files.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = fs::temp_directory_path() /
            ("react_snapshot_test." + std::string(info->name()) + "." +
             std::to_string(::getpid()));
        fs::create_directories(dir);
        path = (dir / "state.snap").string();
    }

    void TearDown() override
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    fs::path dir;
    std::string path;
};

TEST_F(SnapshotFileTest, SaveLoadRoundTrip)
{
    ASSERT_TRUE(saveSnapshotFile(path, sampleImage()));
    const SnapshotLoad load = loadSnapshotFile(path);
    EXPECT_TRUE(load.ok);
    EXPECT_FALSE(load.usedFallback);
    EXPECT_EQ(load.image, sampleImage());
    EXPECT_FALSE(load.diagnostic.empty());
}

TEST_F(SnapshotFileTest, SecondSaveKeepsPreviousGeneration)
{
    ASSERT_TRUE(saveSnapshotFile(path, sampleImage()));
    SnapshotWriter w;
    w.beginSection("v2");
    w.u32(2);
    w.endSection();
    ASSERT_TRUE(saveSnapshotFile(path, w.finish()));
    EXPECT_TRUE(fs::exists(path + ".prev"));
    const SnapshotLoad prev = loadSnapshotFile(path + ".prev");
    EXPECT_TRUE(prev.ok);
    EXPECT_EQ(prev.image, sampleImage());
}

TEST_F(SnapshotFileTest, DamagedPrimaryFallsBackToPrev)
{
    ASSERT_TRUE(saveSnapshotFile(path, sampleImage()));
    SnapshotWriter w;
    w.beginSection("v2");
    w.u32(2);
    w.endSection();
    ASSERT_TRUE(saveSnapshotFile(path, w.finish()));
    {
        // Torn write: chop the primary in half.
        std::error_code ec;
        fs::resize_file(path, fs::file_size(path) / 2, ec);
        ASSERT_FALSE(ec);
    }
    const SnapshotLoad load = loadSnapshotFile(path);
    EXPECT_TRUE(load.ok);
    EXPECT_TRUE(load.usedFallback);
    EXPECT_EQ(load.image, sampleImage());
    EXPECT_FALSE(load.diagnostic.empty());
}

TEST_F(SnapshotFileTest, BothDamagedReportsCleanFailure)
{
    ASSERT_TRUE(saveSnapshotFile(path, sampleImage()));
    ASSERT_TRUE(saveSnapshotFile(path, sampleImage()));
    std::ofstream(path, std::ios::trunc) << "garbage";
    std::ofstream(path + ".prev", std::ios::trunc) << "garbage";
    const SnapshotLoad load = loadSnapshotFile(path);
    EXPECT_FALSE(load.ok);
    EXPECT_FALSE(load.diagnostic.empty());
}

TEST_F(SnapshotFileTest, MissingFileReportsCleanFailure)
{
    const SnapshotLoad load = loadSnapshotFile(path);
    EXPECT_FALSE(load.ok);
    EXPECT_FALSE(load.usedFallback);
    EXPECT_FALSE(load.diagnostic.empty());
}

TEST_F(SnapshotFileTest, UnwritableDirectoryReturnsError)
{
    std::string error;
    EXPECT_FALSE(saveSnapshotFile(
        (dir / "missing_subdir" / "x.snap").string(), sampleImage(),
        &error));
    EXPECT_FALSE(error.empty());
}

/** Small but complete experiment cell for end-to-end checkpoint tests. */
struct CellFixture
{
    trace::PowerTrace power;
    harness::ExperimentConfig config;

    CellFixture()
        : power(0.01, burstSamples(), "ckpt-test")
    {
        config.dt = 1e-3;
        config.drainAllowance = 30.0;
        config.settleTime = 5.0;
        config.strictConservation = true;
    }

    static std::vector<double> burstSamples()
    {
        // 20 s of alternating 1 s bursts and gaps.
        std::vector<double> v;
        for (int s = 0; s < 20; ++s) {
            for (int i = 0; i < 100; ++i)
                v.push_back((s % 2) == 0 ? 0.02 : 0.0);
        }
        return v;
    }

    harness::ExperimentResult run(const harness::ExperimentConfig &cfg,
                                  harness::BufferKind kind =
                                      harness::BufferKind::React)
    {
        auto buffer = harness::makeBuffer(kind);
        auto benchmark = harness::makeBenchmark(
            harness::BenchmarkKind::SenseCompute,
            power.duration() + 30.0, 1234);
        harvest::HarvesterFrontend frontend(power);
        return harness::runExperiment(*buffer, benchmark.get(), frontend,
                                      cfg);
    }
};

/** A faulted cell with its rail recorded: its finished checkpoint's
 *  result section carries a non-empty rail and fault log. */
harness::ExperimentConfig
faultedRecordingConfig(const CellFixture &cell)
{
    harness::ExperimentConfig cfg = cell.config;
    cfg.faultPlan.harvesterDropoutsPerHour = 180.0;
    cfg.faultPlan.harvesterDropoutMeanSeconds = units::Seconds(0.5);
    cfg.recordRail = true;
    cfg.recordInterval = 20.0;
    return cfg;
}

uint64_t
bitsOf(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Every stored ExperimentResult field equal bit for bit (all but the
 *  operational resumed, snapshotFallback and snapshotDiagnostic). */
void
expectSameResult(const harness::ExperimentResult &a,
                 const harness::ExperimentResult &b)
{
    EXPECT_EQ(a.bufferName, b.bufferName);
    EXPECT_EQ(a.benchmarkName, b.benchmarkName);
    EXPECT_EQ(a.traceName, b.traceName);
    EXPECT_EQ(bitsOf(a.latency), bitsOf(b.latency));
    EXPECT_EQ(bitsOf(a.onTime), bitsOf(b.onTime));
    EXPECT_EQ(bitsOf(a.totalTime), bitsOf(b.totalTime));
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.powerCycles, b.powerCycles);
    EXPECT_EQ(a.workUnits, b.workUnits);
    EXPECT_EQ(a.packetsRx, b.packetsRx);
    EXPECT_EQ(a.packetsTx, b.packetsTx);
    EXPECT_EQ(a.failedOps, b.failedOps);
    EXPECT_EQ(a.missedEvents, b.missedEvents);
    for (const auto field :
         {&sim::EnergyLedger::harvested, &sim::EnergyLedger::delivered,
          &sim::EnergyLedger::clipped, &sim::EnergyLedger::leaked,
          &sim::EnergyLedger::switchLoss, &sim::EnergyLedger::diodeLoss,
          &sim::EnergyLedger::overhead, &sim::EnergyLedger::faultLoss})
        EXPECT_EQ(bitsOf((a.ledger.*field).raw()),
                  bitsOf((b.ledger.*field).raw()));
    EXPECT_EQ(bitsOf(a.residualEnergy), bitsOf(b.residualEnergy));
    EXPECT_EQ(bitsOf(a.conservationError), bitsOf(b.conservationError));
    EXPECT_EQ(a.faultEvents, b.faultEvents);
    EXPECT_EQ(a.recoveryEvents, b.recoveryEvents);
    EXPECT_EQ(a.banksRetired, b.banksRetired);
    EXPECT_EQ(a.framRecoveries, b.framRecoveries);
    ASSERT_EQ(a.faultLog.size(), b.faultLog.size());
    for (size_t i = 0; i < a.faultLog.size(); ++i) {
        EXPECT_EQ(bitsOf(a.faultLog[i].time.raw()),
                  bitsOf(b.faultLog[i].time.raw()));
        EXPECT_EQ(a.faultLog[i].kind, b.faultLog[i].kind);
        EXPECT_EQ(a.faultLog[i].component, b.faultLog[i].component);
        EXPECT_EQ(bitsOf(a.faultLog[i].magnitude),
                  bitsOf(b.faultLog[i].magnitude));
    }
    ASSERT_EQ(a.rail.size(), b.rail.size());
    for (size_t i = 0; i < a.rail.size(); ++i) {
        EXPECT_EQ(bitsOf(a.rail[i].time), bitsOf(b.rail[i].time));
        EXPECT_EQ(bitsOf(a.rail[i].voltage), bitsOf(b.rail[i].voltage));
        EXPECT_EQ(a.rail[i].backendOn, b.rail[i].backendOn);
        EXPECT_EQ(a.rail[i].level, b.rail[i].level);
    }
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.stateDigest, b.stateDigest);
}

TEST_F(SnapshotFileTest, ExperimentResumeIsBitIdentical)
{
    CellFixture cell;
    const auto golden = cell.run(cell.config);
    ASSERT_GT(golden.steps, 5000u);

    auto crash_cfg = cell.config;
    crash_cfg.checkpointPath = path;
    crash_cfg.checkpointEverySteps = 1000;
    crash_cfg.haltAfterSteps = golden.steps / 2;
    const auto crashed = cell.run(crash_cfg);
    EXPECT_TRUE(crashed.halted);
    EXPECT_EQ(crashed.steps, golden.steps / 2);

    auto resume_cfg = cell.config;
    resume_cfg.checkpointPath = path;
    resume_cfg.resume = true;
    const auto resumed = cell.run(resume_cfg);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_FALSE(resumed.halted);
    EXPECT_EQ(resumed.stateDigest, golden.stateDigest);
    EXPECT_EQ(resumed.steps, golden.steps);
    EXPECT_EQ(resumed.powerCycles, golden.powerCycles);
    EXPECT_EQ(resumed.workUnits, golden.workUnits);
    EXPECT_EQ(resumed.missedEvents, golden.missedEvents);
    EXPECT_EQ(resumed.totalTime, golden.totalTime);
    EXPECT_EQ(resumed.onTime, golden.onTime);
    EXPECT_EQ(resumed.ledger.harvested.raw(),
              golden.ledger.harvested.raw());
    EXPECT_EQ(resumed.ledger.delivered.raw(),
              golden.ledger.delivered.raw());
    EXPECT_EQ(resumed.residualEnergy, golden.residualEnergy);
}

TEST_F(SnapshotFileTest, FinishedCellResumesInstantlyWithStoredResult)
{
    CellFixture cell;
    auto cfg = cell.config;
    cfg.checkpointPath = path;
    const auto first = cell.run(cfg);
    EXPECT_FALSE(first.resumed);

    cfg.resume = true;
    const auto second = cell.run(cfg);
    EXPECT_TRUE(second.resumed);
    expectSameResult(first, second);
}

TEST_F(SnapshotFileTest, FinishedResultSectionRoundTripsEveryField)
{
    // The faulted, rail-recording cell stores a non-empty fault log and
    // rail, so every field of the result section is exercised.
    CellFixture cell;
    auto cfg = faultedRecordingConfig(cell);
    cfg.checkpointPath = path;
    const auto first = cell.run(cfg);
    EXPECT_FALSE(first.resumed);
    ASSERT_FALSE(first.rail.empty());
    ASSERT_FALSE(first.faultLog.empty());

    cfg.resume = true;
    const auto second = cell.run(cfg);
    EXPECT_TRUE(second.resumed);
    expectSameResult(first, second);
}

TEST_F(SnapshotFileTest, MismatchedCheckpointColdStartsWithDiagnostic)
{
    CellFixture cell;
    auto cfg = cell.config;
    cfg.checkpointPath = path;
    cfg.checkpointEverySteps = 1000;
    cfg.haltAfterSteps = 3000;
    (void)cell.run(cfg);  // leaves a mid-run REACT/SC checkpoint

    // Same file, different experiment: must be rejected, then complete
    // as a cold start.
    auto other_cfg = cell.config;
    other_cfg.checkpointPath = path;
    other_cfg.resume = true;
    auto buffer = harness::makeBuffer(harness::BufferKind::Morphy);
    auto benchmark = harness::makeBenchmark(
        harness::BenchmarkKind::DataEncryption,
        cell.power.duration() + 30.0, 1234);
    harvest::HarvesterFrontend frontend(cell.power);
    const auto result = harness::runExperiment(*buffer, benchmark.get(),
                                               frontend, other_cfg);
    EXPECT_FALSE(result.resumed);
    EXPECT_NE(result.snapshotDiagnostic.find("rejected"),
              std::string::npos);
    EXPECT_GT(result.steps, 0u);
}

/** Re-write a snapshot image with section @p name's payload passed
 *  through @p edit, every CRC valid: damage only a restore can see. */
std::vector<uint8_t>
withEditedSection(const std::vector<uint8_t> &image, const std::string &name,
                  const std::function<void(std::vector<uint8_t> &)> &edit)
{
    SnapshotWriter w;
    size_t pos = 12;  // past the header
    while (pos < image.size()) {
        const size_t name_len = image[pos++];
        const std::string section(image.begin() + static_cast<long>(pos),
                                  image.begin() +
                                      static_cast<long>(pos + name_len));
        pos += name_len;
        uint64_t len = 0;
        for (int b = 0; b < 8; ++b)
            len |= static_cast<uint64_t>(image[pos + b]) << (8 * b);
        pos += 8;
        std::vector<uint8_t> payload(
            image.begin() + static_cast<long>(pos),
            image.begin() + static_cast<long>(pos + len));
        if (section == name)
            edit(payload);
        w.beginSection(section);
        for (uint8_t byte : payload)
            w.u8(byte);
        w.endSection();
        pos += len + 4;  // payload + CRC trailer
    }
    return w.finish();
}

/** withEditedSection() cutting @p cut_name to half its payload. */
std::vector<uint8_t>
withShortSection(const std::vector<uint8_t> &image,
                 const std::string &cut_name)
{
    return withEditedSection(image, cut_name, [](std::vector<uint8_t> &p) {
        p.resize(p.size() / 2);
    });
}

TEST_F(SnapshotFileTest, LateRejectedFaultedCheckpointColdStartsOnNominalParts)
{
    // A faulted mid-run checkpoint that fails only at its injector
    // section: by then the buffer section has restored fade-derated
    // capacitances.  The cold start that follows must still run on
    // nominal parts, i.e. equal a plain run exactly.
    CellFixture cell;
    cell.config.faultPlan.capacitanceFadePerHour = 50.0;
    const auto plain = cell.run(cell.config);
    ASSERT_GT(plain.steps, 5000u);

    auto crash_cfg = cell.config;
    crash_cfg.checkpointPath = path;
    crash_cfg.checkpointEverySteps = 1000;
    crash_cfg.haltAfterSteps = plain.steps / 2;
    ASSERT_TRUE(cell.run(crash_cfg).halted);

    const SnapshotLoad load = loadSnapshotFile(path);
    ASSERT_TRUE(load.ok);
    ASSERT_TRUE(
        saveSnapshotFile(path, withShortSection(load.image, "injector")));

    auto resume_cfg = cell.config;
    resume_cfg.checkpointPath = path;
    resume_cfg.resume = true;
    const auto resumed = cell.run(resume_cfg);
    EXPECT_FALSE(resumed.resumed);
    EXPECT_NE(resumed.snapshotDiagnostic.find("rejected"),
              std::string::npos);
    EXPECT_NE(resumed.snapshotDiagnostic.find("injector"),
              std::string::npos);
    EXPECT_EQ(resumed.stateDigest, plain.stateDigest);
    EXPECT_EQ(resumed.steps, plain.steps);
    EXPECT_EQ(resumed.powerCycles, plain.powerCycles);
    EXPECT_EQ(resumed.workUnits, plain.workUnits);
    EXPECT_EQ(resumed.missedEvents, plain.missedEvents);
    EXPECT_EQ(resumed.latency, plain.latency);
    EXPECT_EQ(resumed.onTime, plain.onTime);
    EXPECT_EQ(resumed.ledger.harvested.raw(), plain.ledger.harvested.raw());
    EXPECT_EQ(resumed.ledger.faultLoss.raw(), plain.ledger.faultLoss.raw());
    EXPECT_EQ(resumed.residualEnergy, plain.residualEnergy);
}

/**
 * Overwrite the capacitance of Morphy network units @p which with
 * @p farads in a "buffer" section payload.  The network serializes a u32
 * unit count (7), then per unit an f64 capacitance (2 mF) and an f64
 * voltage, little-endian.
 */
void
setUnitCapacitances(std::vector<uint8_t> &payload,
                    const std::vector<int> &which, double farads)
{
    auto le_bytes = [](double v) {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        std::vector<uint8_t> out;
        for (int b = 0; b < 8; ++b)
            out.push_back(static_cast<uint8_t>(bits >> (8 * b)));
        return out;
    };
    std::vector<uint8_t> needle = {7, 0, 0, 0};
    const auto nominal = le_bytes(2e-3);
    needle.insert(needle.end(), nominal.begin(), nominal.end());
    const auto it =
        std::search(payload.begin(), payload.end(), needle.begin(),
                    needle.end());
    ASSERT_NE(it, payload.end());
    const size_t units_at = static_cast<size_t>(it - payload.begin()) + 4;
    const auto altered = le_bytes(farads);
    for (int unit : which)
        std::copy(altered.begin(), altered.end(),
                  payload.begin() +
                      static_cast<long>(units_at + 16 * static_cast<size_t>(
                                                            unit)));
}

TEST_F(SnapshotFileTest, MorphyCheckpointWithMismatchedUnitsColdStarts)
{
    // The network's per-branch charge split assumes every unit shares
    // one capacitance.  A CRC-valid checkpoint whose units disagree must
    // be rejected at restore, and the cell must equal a plain run.  So
    // must one whose units agree on a non-nominal capacitance but which
    // fails in a later section: the cold start runs on nominal units.
    CellFixture cell;
    const auto kind = harness::BufferKind::Morphy;
    const auto plain = cell.run(cell.config, kind);
    ASSERT_GT(plain.steps, 5000u);

    auto crash_cfg = cell.config;
    crash_cfg.checkpointPath = path;
    crash_cfg.checkpointEverySteps = 1000;
    crash_cfg.haltAfterSteps = plain.steps / 2;
    ASSERT_TRUE(cell.run(crash_cfg, kind).halted);
    const SnapshotLoad load = loadSnapshotFile(path);
    ASSERT_TRUE(load.ok);

    const std::vector<uint8_t> one_unit = withEditedSection(
        load.image, "buffer", [](std::vector<uint8_t> &p) {
            setUnitCapacitances(p, {3}, 1.9e-3);
        });
    const std::vector<uint8_t> all_units_then_short = withShortSection(
        withEditedSection(load.image, "buffer",
                          [](std::vector<uint8_t> &p) {
                              setUnitCapacitances(
                                  p, {0, 1, 2, 3, 4, 5, 6}, 1.9e-3);
                          }),
        "benchmark");
    for (const auto &image : {one_unit, all_units_then_short}) {
        ASSERT_NE(image, load.image);
        ASSERT_TRUE(saveSnapshotFile(path, image));
        auto resume_cfg = cell.config;
        resume_cfg.checkpointPath = path;
        resume_cfg.resume = true;
        const auto resumed = cell.run(resume_cfg, kind);
        EXPECT_FALSE(resumed.resumed);
        EXPECT_NE(resumed.snapshotDiagnostic.find("rejected"),
                  std::string::npos);
        EXPECT_EQ(resumed.stateDigest, plain.stateDigest);
        EXPECT_EQ(resumed.steps, plain.steps);
        EXPECT_EQ(resumed.workUnits, plain.workUnits);
        EXPECT_EQ(resumed.ledger.harvested.raw(),
                  plain.ledger.harvested.raw());
        EXPECT_EQ(resumed.ledger.switchLoss.raw(),
                  plain.ledger.switchLoss.raw());
        EXPECT_EQ(resumed.residualEnergy, plain.residualEnergy);
    }
    // The first image is rejected at the network, for its units.
    ASSERT_TRUE(saveSnapshotFile(path, one_unit));
    auto resume_cfg = cell.config;
    resume_cfg.checkpointPath = path;
    resume_cfg.resume = true;
    EXPECT_NE(cell.run(resume_cfg, kind)
                  .snapshotDiagnostic.find("differ in capacitance"),
              std::string::npos);
}

TEST_F(SnapshotFileTest, MalformedFinishedResultColdStarts)
{
    // CRC-valid "result" sections that only restoreResult's own checks
    // can catch: each must be rejected before it sizes an allocation or
    // an enum, and the cell must then equal a plain run.
    CellFixture cell;
    const auto cfg = faultedRecordingConfig(cell);
    const auto plain = cell.run(cfg);
    ASSERT_FALSE(plain.rail.empty());
    ASSERT_FALSE(plain.faultLog.empty());

    auto resume_cfg = cfg;
    resume_cfg.checkpointPath = path;
    (void)cell.run(resume_cfg);  // leaves the finished checkpoint
    resume_cfg.resume = true;
    const SnapshotLoad load = loadSnapshotFile(path);
    ASSERT_TRUE(load.ok);
    const std::vector<uint8_t> finished = load.image;
    std::vector<uint8_t> section;  // the stored "result" payload
    (void)withEditedSection(finished, "result",
                            [&](std::vector<uint8_t> &p) { section = p; });

    const auto expectColdStart = [&](const std::vector<uint8_t> &payload) {
        ASSERT_TRUE(saveSnapshotFile(
            path, withEditedSection(finished, "result",
                                    [&](std::vector<uint8_t> &p) {
                                        p = payload;
                                    })));
        const auto result = cell.run(resume_cfg);
        EXPECT_FALSE(result.resumed);
        EXPECT_NE(result.snapshotDiagnostic.find("rejected: "),
                  std::string::npos)
            << result.snapshotDiagnostic;
        expectSameResult(result, plain);
    };

    for (size_t cut = 0; cut < section.size(); ++cut) {
        SCOPED_TRACE("result section cut to " + std::to_string(cut) +
                     " bytes");
        expectColdStart(std::vector<uint8_t>(
            section.begin(), section.begin() + static_cast<long>(cut)));
    }
    {
        SCOPED_TRACE("one trailing byte");
        std::vector<uint8_t> longer = section;
        longer.push_back(0);
        expectColdStart(longer);
    }

    // The section opens with the buffer name's u32 length and ends in
    // [u32 rail count][rail samples][u8 halted][u32 digest]; the last
    // fault event ([f64 time][u8 kind][str component][f64 magnitude])
    // sits right before the rail count.
    const size_t rail_count_at =
        section.size() - 4 - 1 - 21 * plain.rail.size() - 4;
    const size_t kind_at = rail_count_at - 8 -
        (4 + plain.faultLog.back().component.size()) - 1;
    uint32_t rail_count = 0;
    for (int b = 0; b < 4; ++b)
        rail_count |= static_cast<uint32_t>(section[rail_count_at + b])
            << (8 * b);
    ASSERT_EQ(rail_count, plain.rail.size());
    ASSERT_EQ(section[kind_at],
              static_cast<uint8_t>(plain.faultLog.back().kind));
    const auto lie = [&](size_t at, const std::vector<uint8_t> &bytes) {
        std::vector<uint8_t> payload = section;
        std::copy(bytes.begin(), bytes.end(),
                  payload.begin() + static_cast<long>(at));
        return payload;
    };
    {
        SCOPED_TRACE("buffer-name length lie");
        expectColdStart(lie(0, {0xf0, 0xff, 0xff, 0xff}));
    }
    {
        SCOPED_TRACE("rail count lie");
        expectColdStart(lie(rail_count_at, {0xff, 0xff, 0xff, 0xff}));
    }
    {
        SCOPED_TRACE("fault-event kind out of range");
        expectColdStart(lie(kind_at, {0xff}));
    }
}

TEST(CheckpointEnv, FileNameSanitizesCellKeys)
{
    EXPECT_EQ(harness::checkpointFileName("DE:RF Cart:REACT"),
              "DE_RF_Cart_REACT.snap");
    EXPECT_EQ(harness::checkpointFileName("a/b\\c"), "a_b_c.snap");
}

TEST(CheckpointEnv, AppliesDirAndInterval)
{
    harness::ExperimentConfig cfg;
    ASSERT_EQ(setenv("REACT_CHECKPOINT_DIR", "/tmp/ckpt", 1), 0);
    ASSERT_EQ(setenv("REACT_CHECKPOINT_INTERVAL", "5000", 1), 0);
    EXPECT_TRUE(harness::applyCheckpointEnv(&cfg, "DE:RF Cart:REACT"));
    EXPECT_EQ(cfg.checkpointPath, "/tmp/ckpt/DE_RF_Cart_REACT.snap");
    EXPECT_TRUE(cfg.resume);
    EXPECT_EQ(cfg.checkpointEverySteps, 5000u);
    unsetenv("REACT_CHECKPOINT_INTERVAL");
    unsetenv("REACT_CHECKPOINT_DIR");

    harness::ExperimentConfig off;
    EXPECT_FALSE(harness::applyCheckpointEnv(&off, "x"));
    EXPECT_TRUE(off.checkpointPath.empty());
}

} // namespace
} // namespace snapshot
} // namespace react

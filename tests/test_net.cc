/**
 * @file
 * Serving-layer tests: wire codec shape-safety, frame hardening against
 * the snapshot damage ladder (truncation, bit-flips, length-lies, CRC
 * mismatch, oversize), job identity/idempotency, transport fault
 * injection, and a live client/server integration pass proving the
 * byte-identity contract: a result served over the wire -- including
 * through cache hits and an injected-fault transport -- equals a direct
 * runGridCell() byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/time.h>
#include <unistd.h>

#include "harness/grid.hh"
#include "harness/parallel_runner.hh"
#include "net/client.hh"
#include "net/fault_injector.hh"
#include "net/frame.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "snapshot/snapshot.hh"

namespace react {
namespace net {
namespace {

// ---------------------------------------------------------------------
// Wire codec

TEST(Wire, PrimitivesRoundTripBitExactly)
{
    WireWriter w;
    w.u8(0xab);
    w.b(true);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.f64(0.1);
    w.f64(-0.0);
    w.str("hello \x01 world");
    w.bytes({1, 2, 3});

    WireReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_TRUE(r.f64() == 0.1);
    const double neg_zero = r.f64();
    EXPECT_TRUE(neg_zero == 0.0 && std::signbit(neg_zero));
    EXPECT_EQ(r.str(), "hello \x01 world");
    EXPECT_EQ(r.bytes(), (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_NO_THROW(r.expectEnd());
}

TEST(Wire, OverrunThrowsInsteadOfOverreading)
{
    WireWriter w;
    w.u32(7);
    WireReader r(w.data());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.u8(), ProtocolError);
}

TEST(Wire, LengthLieLargerThanPayloadThrowsBeforeAllocating)
{
    // A string declaring 4 GiB of content inside a 12-byte payload must
    // be rejected by comparing against remaining(), not by allocating.
    WireWriter w;
    w.u32(0xfffffff0u);  // declared length
    w.u64(0);            // 8 bytes of "content"
    WireReader r(w.data());
    EXPECT_THROW(r.str(), ProtocolError);

    WireReader r2(w.data());
    EXPECT_THROW(r2.bytes(), ProtocolError);
}

TEST(Wire, ExpectEndRejectsTrailingBytes)
{
    WireWriter w;
    w.u8(1);
    w.u8(2);
    WireReader r(w.data());
    r.u8();
    EXPECT_THROW(r.expectEnd(), ProtocolError);
}

// ---------------------------------------------------------------------
// Framing: the damage ladder

std::vector<uint8_t>
sampleFrame()
{
    WireWriter w;
    w.u64(0x1122334455667788ull);
    w.str("payload");
    return encodeFrame(7, w.data());
}

TEST(Frame, RoundTripsWholeAndByteAtATime)
{
    const std::vector<uint8_t> bytes = sampleFrame();

    FrameDecoder whole;
    whole.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_TRUE(whole.next(&frame));
    EXPECT_EQ(frame.type, 7);
    EXPECT_FALSE(whole.next(&frame));
    EXPECT_FALSE(whole.hasPartial());

    FrameDecoder dribble;
    Frame got;
    size_t frames = 0;
    for (const uint8_t byte : bytes) {
        dribble.feed(&byte, 1);
        while (dribble.next(&got))
            ++frames;
    }
    ASSERT_EQ(frames, 1u);
    EXPECT_EQ(got.type, 7);
    EXPECT_EQ(got.payload, frame.payload);
}

TEST(Frame, BackToBackFramesDecodeIndependently)
{
    const std::vector<uint8_t> a = sampleFrame();
    const std::vector<uint8_t> b = encodeFrame(9, {});
    std::vector<uint8_t> stream = a;
    stream.insert(stream.end(), b.begin(), b.end());

    FrameDecoder decoder;
    decoder.feed(stream.data(), stream.size());
    Frame frame;
    ASSERT_TRUE(decoder.next(&frame));
    EXPECT_EQ(frame.type, 7);
    ASSERT_TRUE(decoder.next(&frame));
    EXPECT_EQ(frame.type, 9);
    EXPECT_TRUE(frame.payload.empty());
    EXPECT_EQ(decoder.framesDecoded(), 2u);
}

TEST(Frame, TruncationAtEveryPrefixYieldsNoFrameAndNoCrash)
{
    const std::vector<uint8_t> bytes = sampleFrame();
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        FrameDecoder decoder;
        Frame frame;
        ASSERT_NO_THROW(decoder.feed(bytes.data(), cut))
            << "prefix of " << cut;
        EXPECT_FALSE(decoder.next(&frame)) << "prefix of " << cut;
        EXPECT_EQ(decoder.hasPartial(), cut > 0) << "prefix of " << cut;
    }
}

TEST(Frame, EverySingleBitFlipIsRejectedNeverMisdecoded)
{
    const std::vector<uint8_t> bytes = sampleFrame();
    for (size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> flipped = bytes;
            flipped[byte] ^= static_cast<uint8_t>(1u << bit);
            FrameDecoder decoder;
            Frame frame;
            bool yielded = false;
            try {
                decoder.feed(flipped.data(), flipped.size());
                yielded = decoder.next(&frame);
            } catch (const ProtocolError &) {
                EXPECT_TRUE(decoder.isPoisoned());
            }
            // CRC-32 detects every single-bit error; a flip in the
            // length field may instead leave the decoder waiting for
            // bytes that never come.  What must NEVER happen is a
            // decoded frame.
            EXPECT_FALSE(yielded)
                << "bit " << bit << " of byte " << byte;
        }
    }
}

TEST(Frame, LengthLiesBothDirectionsAreCleanErrors)
{
    // Declared short: CRC is computed over the wrong span -> mismatch.
    std::vector<uint8_t> shorter = sampleFrame();
    shorter[5] = static_cast<uint8_t>(shorter[5] - 1);
    FrameDecoder decoder_short;
    Frame frame;
    try {
        decoder_short.feed(shorter.data(), shorter.size());
        EXPECT_FALSE(decoder_short.next(&frame));
    } catch (const ProtocolError &) {
        EXPECT_TRUE(decoder_short.isPoisoned());
    }

    // Declared long: the decoder waits for the phantom bytes (no frame
    // surfaces); when the peer hangs up, hasPartial() exposes the lie.
    std::vector<uint8_t> longer = sampleFrame();
    longer[5] = static_cast<uint8_t>(longer[5] + 1);
    FrameDecoder decoder_long;
    ASSERT_NO_THROW(decoder_long.feed(longer.data(), longer.size()));
    EXPECT_FALSE(decoder_long.next(&frame));
    EXPECT_TRUE(decoder_long.hasPartial());
}

TEST(Frame, CrcMismatchPoisonsTheDecoder)
{
    std::vector<uint8_t> bytes = sampleFrame();
    bytes.back() ^= 0xff;
    FrameDecoder decoder;
    Frame frame;
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_THROW(decoder.next(&frame), ProtocolError);
    EXPECT_TRUE(decoder.isPoisoned());
    // A poisoned decoder refuses further use rather than resynchronize
    // on untrustworthy bytes.
    const uint8_t more = 0;
    EXPECT_THROW(decoder.feed(&more, 1), ProtocolError);
}

TEST(Frame, OversizedDeclaredLengthRejectedBeforeBuffering)
{
    // Header declaring a 3 GiB payload: rejected as soon as the header
    // is complete, long before any such allocation could be attempted.
    std::vector<uint8_t> header(kFrameHeaderSize);
    header[0] = 'R';
    header[1] = 'N';
    header[2] = 'E';
    header[3] = 'T';
    header[4] = 1;
    const uint32_t huge = 3u << 30;
    for (int i = 0; i < 4; ++i)
        header[5 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(huge >> (8 * i));
    FrameDecoder decoder;
    EXPECT_THROW(decoder.feed(header.data(), header.size()),
                 ProtocolError);
    EXPECT_TRUE(decoder.isPoisoned());
}

TEST(Frame, BadMagicRejectedAtFourBytes)
{
    const uint8_t garbage[] = {'H', 'T', 'T', 'P'};
    FrameDecoder decoder;
    EXPECT_THROW(decoder.feed(garbage, sizeof(garbage)), ProtocolError);
}

TEST(Frame, EncodeRejectsOversizedPayload)
{
    std::vector<uint8_t> payload(kMaxPayload + 1);
    EXPECT_THROW(encodeFrame(1, payload), ProtocolError);
}

// ---------------------------------------------------------------------
// Protocol: job identity and codecs

TEST(JobSpec, CodecRoundTrips)
{
    JobSpec spec;
    spec.bench = harness::BenchmarkKind::RadioTransmit;
    spec.trace = trace::PaperTrace::SolarCampus;
    spec.buffer = harness::BufferKind::Morphy;
    spec.baseSeed = 1234;
    spec.dt = 5e-4;
    spec.deadlineSeconds = 9.5;

    WireWriter w;
    spec.encode(w);
    WireReader r(w.data());
    const JobSpec back = JobSpec::decode(r);
    EXPECT_NO_THROW(r.expectEnd());
    EXPECT_EQ(back.bench, spec.bench);
    EXPECT_EQ(back.trace, spec.trace);
    EXPECT_EQ(back.buffer, spec.buffer);
    EXPECT_EQ(back.baseSeed, spec.baseSeed);
    EXPECT_TRUE(back.dt == spec.dt);
    EXPECT_TRUE(back.deadlineSeconds == spec.deadlineSeconds);
    EXPECT_EQ(back.jobId(), spec.jobId());
}

TEST(JobSpec, DecodeRejectsOutOfRangeEnumsAndBadTiming)
{
    JobSpec spec;
    {
        WireWriter w;
        spec.encode(w);
        std::vector<uint8_t> bytes = w.take();
        bytes[0] = 200;  // benchmark index
        WireReader r(bytes);
        EXPECT_THROW(JobSpec::decode(r), ProtocolError);
    }
    {
        JobSpec bad = spec;
        bad.dt = 0.0;
        WireWriter w;
        bad.encode(w);
        WireReader r(w.data());
        EXPECT_THROW(JobSpec::decode(r), ProtocolError);
    }
}

TEST(JobSpec, JobIdIsStableAndDeadlineIndependent)
{
    JobSpec a;
    JobSpec b;
    EXPECT_EQ(a.jobId(), b.jobId());

    // Retrying with a different queue-wait budget targets the SAME job:
    // the deadline is an operational knob, not part of the work's
    // identity.
    b.deadlineSeconds = 123.0;
    EXPECT_EQ(a.jobId(), b.jobId());

    // Anything that changes the computed result changes the id.
    JobSpec other_seed = a;
    other_seed.baseSeed = 43;
    EXPECT_NE(a.jobId(), other_seed.jobId());
    JobSpec other_cell = a;
    other_cell.buffer = harness::BufferKind::Morphy;
    EXPECT_NE(a.jobId(), other_cell.jobId());
    JobSpec other_dt = a;
    other_dt.dt = 2e-3;
    EXPECT_NE(a.jobId(), other_dt.jobId());
}

/** A result with every field set, rail recording and fault log
 *  included. */
harness::ExperimentResult
fullResult()
{
    harness::ExperimentResult res;
    res.bufferName = "REACT";
    res.benchmarkName = "DE";
    res.traceName = "RF Cart";
    res.latency = 11.25;
    res.onTime = 100.5;
    res.totalTime = 333.25;
    res.steps = 123456;
    res.powerCycles = 48;
    res.workUnits = 1037;
    res.packetsRx = 5;
    res.packetsTx = 6;
    res.failedOps = 7;
    res.missedEvents = 8;
    res.ledger.harvested = units::Joules(1.0625);
    res.ledger.delivered = units::Joules(0.5);
    res.residualEnergy = 0.125;
    res.conservationError = -1e-12;
    res.faultEvents = 3;
    res.recoveryEvents = 2;
    res.banksRetired = 1;
    res.framRecoveries = 4;
    res.halted = true;
    res.stateDigest = 0xfad1959b;
    res.rail.push_back({0.5, 3.25, true, 2});
    res.rail.push_back({1.0, 1.75, false, 0});
    sim::FaultEvent stuck;
    stuck.time = units::Seconds(12.5);
    stuck.kind = sim::FaultEventKind::SwitchStuck;
    stuck.component = "react.bank0.switch";
    stuck.magnitude = 1.0;
    res.faultLog.push_back(stuck);
    sim::FaultEvent retired;
    retired.time = units::Seconds(40.0);
    retired.kind = sim::FaultEventKind::BankRetired;
    retired.component = "react.bank0";
    retired.magnitude = 0.0;
    res.faultLog.push_back(retired);
    return res;
}

TEST(Protocol, ResultCodecRoundTripsEveryField)
{
    const harness::ExperimentResult res = fullResult();

    const std::vector<uint8_t> bytes = harness::encodeResult(res);
    const harness::ExperimentResult back = harness::decodeResult(bytes);

    // One encode-decode-encode cycle is the identity on the wire form.
    EXPECT_EQ(harness::encodeResult(back), bytes);
    EXPECT_EQ(back.stateDigest, res.stateDigest);
    EXPECT_TRUE(back.latency == res.latency);
    EXPECT_TRUE(back.ledger.harvested.raw() ==
                res.ledger.harvested.raw());
    EXPECT_EQ(back.banksRetired, res.banksRetired);
    EXPECT_TRUE(back.halted);

    // The rail recording and the fault log travel too (protocol v4).
    ASSERT_EQ(back.rail.size(), 2u);
    EXPECT_TRUE(back.rail[0].time == 0.5);
    EXPECT_TRUE(back.rail[0].voltage == 3.25);
    EXPECT_TRUE(back.rail[0].backendOn);
    EXPECT_EQ(back.rail[0].level, 2);
    EXPECT_FALSE(back.rail[1].backendOn);
    ASSERT_EQ(back.faultLog.size(), 2u);
    EXPECT_TRUE(back.faultLog[0].time.raw() == 12.5);
    EXPECT_EQ(back.faultLog[0].kind, sim::FaultEventKind::SwitchStuck);
    EXPECT_EQ(back.faultLog[0].component, "react.bank0.switch");
    EXPECT_EQ(back.faultLog[1].kind, sim::FaultEventKind::BankRetired);
}

TEST(Protocol, MalformedResultPayloadsRaiseProtocolError)
{
    // A real JobResult payload, exactly as the server frames it.
    FrameDecoder decoder;
    const std::vector<uint8_t> frame =
        makeJobResult(7, harness::encodeResult(fullResult()));
    decoder.feed(frame.data(), frame.size());
    Frame reply;
    ASSERT_TRUE(decoder.next(&reply));
    const JobResultReply good = parseJobResult(reply.payload);
    EXPECT_EQ(good.jobId, 7u);
    const std::vector<uint8_t> blob = good.resultBytes;

    const auto payloadOf = [](const std::vector<uint8_t> &result_blob) {
        WireWriter w;
        w.u64(7);
        w.bytes(result_blob);
        return w.take();
    };
    ASSERT_EQ(payloadOf(blob), reply.payload);

    // Every truncation point of the blob, inside a well-formed payload.
    for (size_t cut = 0; cut < blob.size(); ++cut) {
        const std::vector<uint8_t> prefix(blob.begin(),
                                          blob.begin() +
                                              static_cast<long>(cut));
        EXPECT_THROW(parseJobResult(payloadOf(prefix)), ProtocolError)
            << "blob prefix of " << cut;
    }

    // One trailing byte after the blob's last section.
    std::vector<uint8_t> longer = blob;
    longer.push_back(0);
    EXPECT_THROW(parseJobResult(payloadOf(longer)), ProtocolError);

    // A flipped length field: the result section's payload length
    // (after the 12-byte header, the name length byte, and "result")...
    std::vector<uint8_t> section_lie = blob;
    section_lie[12 + 1 + 6] ^= 0x01;
    EXPECT_THROW(parseJobResult(payloadOf(section_lie)), ProtocolError);
    // ...and the payload's own blob length (after the u64 job id).
    std::vector<uint8_t> blob_lie = reply.payload;
    blob_lie[8] ^= 0x01;
    EXPECT_THROW(parseJobResult(blob_lie), ProtocolError);

    // Lies inside a CRC-valid blob, which only the result decoder's own
    // checks can catch, before they size an allocation or an enum.  The
    // "result" section payload is patched and re-framed; with one fault
    // event (component "x") and no rail samples it ends in
    // [u8 kind][str "x"][f64 magnitude][u32 rail count][u8][u32].
    harness::ExperimentResult one_event;
    sim::FaultEvent event;
    event.component = "x";
    one_event.faultLog.push_back(event);
    const std::vector<uint8_t> image = harness::encodeResult(one_event);
    const std::vector<uint8_t> section(image.begin() + 12 + 1 + 6 + 8,
                                       image.end() - 4);
    const auto patched = [&](size_t from_end,
                             const std::vector<uint8_t> &bytes) {
        std::vector<uint8_t> body = section;
        std::copy(bytes.begin(), bytes.end(),
                  body.end() - static_cast<long>(from_end));
        snapshot::SnapshotWriter w;
        w.beginSection("result");
        for (const uint8_t byte : body)
            w.u8(byte);
        w.endSection();
        return payloadOf(w.finish());
    };
    EXPECT_NO_THROW(parseJobResult(patched(0, {})));
    // The buffer name's length, the section's first field.
    EXPECT_THROW(
        parseJobResult(patched(section.size(), {0xf0, 0xff, 0xff, 0xff})),
        ProtocolError);
    // The rail sample count.
    EXPECT_THROW(parseJobResult(patched(9, {0xff, 0xff, 0xff, 0xff})),
                 ProtocolError);
    // The fault event's kind.
    EXPECT_THROW(parseJobResult(patched(9 + 8 + 5 + 1, {0xff})),
                 ProtocolError);
}

// ---------------------------------------------------------------------
// Fault injection

TEST(FaultPlan, SpecParsingAcceptsAndRejects)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::fromSpec(
        "drop=0.05,corrupt=0.1,delay=0.2,delayms=25,partial=0.02,seed=7",
        &plan, &error));
    EXPECT_EQ(plan.dropRate, 0.05);
    EXPECT_EQ(plan.corruptRate, 0.1);
    EXPECT_EQ(plan.delayMs, 25.0);
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_TRUE(plan.enabled());

    ASSERT_TRUE(FaultPlan::fromSpec("", &plan, &error));
    EXPECT_FALSE(plan.enabled());

    EXPECT_FALSE(FaultPlan::fromSpec("drop=1.5", &plan, &error));
    EXPECT_NE(error.find("[0, 1]"), std::string::npos);
    EXPECT_FALSE(FaultPlan::fromSpec("bogus=1", &plan, &error));
    EXPECT_FALSE(FaultPlan::fromSpec("drop", &plan, &error));
    EXPECT_FALSE(FaultPlan::fromSpec("drop=abc", &plan, &error));
}

TEST(FaultInjector, ScheduleIsSeededAndDeterministic)
{
    FaultPlan plan;
    plan.dropRate = 0.2;
    plan.corruptRate = 0.2;
    plan.delayRate = 0.1;
    plan.partialRate = 0.1;
    plan.seed = 99;

    FaultInjector a(plan), b(plan);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(static_cast<int>(a.nextAction()),
                  static_cast<int>(b.nextAction()))
            << "frame " << i;
    EXPECT_GT(a.counters().injected(), 0u);
    EXPECT_GT(a.counters().delivered, 0u);
    EXPECT_EQ(a.counters().injected(), b.counters().injected());
}

TEST(FaultInjector, DisabledPlanIsTransparent)
{
    FaultInjector injector(FaultPlan::none());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(static_cast<int>(injector.nextAction()),
                  static_cast<int>(FaultAction::Deliver));
    EXPECT_EQ(injector.counters().injected(), 0u);
}

TEST(FaultInjector, CorruptFlipsExactlyOneBit)
{
    FaultPlan plan;
    plan.corruptRate = 1.0;
    FaultInjector injector(plan);
    std::vector<uint8_t> frame = sampleFrame();
    const std::vector<uint8_t> original = frame;
    injector.corruptInPlace(&frame);
    int differing_bits = 0;
    for (size_t i = 0; i < frame.size(); ++i)
        differing_bits +=
            __builtin_popcount(frame[i] ^ original[i]);
    EXPECT_EQ(differing_bits, 1);
}

// ---------------------------------------------------------------------
// Live client/server integration

class NetIntegration : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        harness::ParallelRunner::clearStopRequest();
        config.socketPath =
            (std::filesystem::temp_directory_path() /
             ("react_test_net." + std::to_string(::getpid()) + ".sock"))
                .string();
        config.threads = 1;
        server = std::make_unique<Server>(config);
        server_thread = std::thread([this] {
            exit_status = server->serve();
        });
        // Wait for the listener to come up.
        ClientConfig probe;
        probe.socketPath = config.socketPath;
        probe.requestTimeoutMs = 2000;
        Client pinger(probe);
        for (int i = 0; i < 200 && !pinger.ping(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    void TearDown() override
    {
        if (server_thread.joinable()) {
            server->requestDrain();
            server_thread.join();
        }
        harness::ParallelRunner::clearStopRequest();
        std::filesystem::remove(config.socketPath);
    }

    ClientConfig clientConfig() const
    {
        ClientConfig c;
        c.socketPath = config.socketPath;
        c.requestTimeoutMs = 120000;
        return c;
    }

    ServerConfig config;
    std::unique_ptr<Server> server;
    std::thread server_thread;
    int exit_status = -1;
};

JobSpec
quickSpec()
{
    // DE on the RF-cart trace completes in well under a second and
    // exercises the full engine.
    JobSpec spec;
    spec.bench = harness::BenchmarkKind::DataEncryption;
    spec.trace = trace::PaperTrace::RfCart;
    spec.buffer = harness::BufferKind::React;
    return spec;
}

std::vector<uint8_t>
directResultBytes(const JobSpec &spec)
{
    const harness::ExperimentResult direct = harness::runGridCell(
        spec.buffer, spec.bench, spec.trace, spec.toConfig(),
        spec.baseSeed);
    return harness::encodeResult(direct);
}

TEST_F(NetIntegration, ServedResultIsByteIdenticalToDirectRun)
{
    const JobSpec spec = quickSpec();
    Client client(clientConfig());
    const JobOutcome outcome = client.runJob(spec);
    EXPECT_EQ(outcome.jobId, spec.jobId());
    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
    // The decoded result re-encodes to the same bytes (codec identity
    // holds on real data, not just the synthetic round-trip test).
    EXPECT_EQ(harness::encodeResult(outcome.result), outcome.resultBytes);
}

TEST_F(NetIntegration, ResubmissionHitsTheCacheWithIdenticalBytes)
{
    const JobSpec spec = quickSpec();
    Client client(clientConfig());
    const JobOutcome first = client.runJob(spec);

    Client second_client(clientConfig());  // a different connection
    const JobOutcome second = second_client.runJob(spec);
    EXPECT_EQ(first.resultBytes, second.resultBytes);

    server->requestDrain();
    server_thread.join();
    EXPECT_EQ(exit_status, 0);
    EXPECT_EQ(server->stats().jobsExecuted, 1u) << "cache was bypassed";
    EXPECT_GE(server->stats().cacheHits, 1u);
}

TEST_F(NetIntegration, FaultyTransportConvergesToTheSameBytes)
{
    JobSpec spec = quickSpec();
    spec.buffer = harness::BufferKind::Morphy;  // distinct cell
    ClientConfig faulty = clientConfig();
    faulty.requestTimeoutMs = 1500;  // let dropped frames time out fast
    faulty.retry.maxRetries = 50;
    ASSERT_TRUE(FaultPlan::fromSpec(
        "drop=0.15,corrupt=0.15,delay=0.1,delayms=5,partial=0.05,seed=11",
        &faulty.faults, nullptr));
    Client client(faulty);
    const JobOutcome outcome = client.runJob(spec);
    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
    // The schedule is seeded: with these rates a full exchange injects
    // faults with overwhelming probability, and deterministically so.
    EXPECT_GT(client.faultCounters().injected() +
                  client.stats().retries,
              0u);
}

TEST_F(NetIntegration, QueueDeadlineExpiresAndResubmissionRevives)
{
    JobSpec spec = quickSpec();
    spec.bench = harness::BenchmarkKind::SenseCompute;  // distinct cell
    spec.deadlineSeconds = 1e-9;  // lapses before any dispatch
    Client client(clientConfig());
    try {
        client.runJob(spec);
        FAIL() << "deadline should have expired the job";
    } catch (const ClientError &e) {
        EXPECT_NE(std::string(e.what()).find("deadline"),
                  std::string::npos)
            << e.what();
    }

    // Same identity, fresh deadline: the Expired entry is revived and
    // the job runs to completion.
    spec.deadlineSeconds = 0.0;
    const JobOutcome outcome = client.runJob(spec);
    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
}

TEST_F(NetIntegration, DrainCountReflectsEveryJobLifecyclePath)
{
    // DrainOk carries a counter maintained at each lifecycle transition
    // (it used to be derived by iterating the unordered job table, which
    // the determinism lint bans).  Drive a job down every path --
    // completed, cache-hit resubmission, deadline-expired, revived --
    // and the counter must return exactly to zero: a missed decrement
    // reports stuck in-flight jobs, and a missed increment underflows
    // the unsigned counter into a huge value, so both directions fail.
    Client client(clientConfig());
    const JobSpec completed = quickSpec();
    client.runJob(completed);
    client.runJob(completed);  // cache hit: must not re-enter the count

    JobSpec expiring = quickSpec();
    expiring.bench = harness::BenchmarkKind::SenseCompute;
    expiring.deadlineSeconds = 1e-9;
    EXPECT_THROW(client.runJob(expiring), ClientError);

    expiring.deadlineSeconds = 0.0;  // revive the Expired entry
    client.runJob(expiring);

    EXPECT_EQ(client.drain(), 0u);
    server_thread.join();
    EXPECT_EQ(exit_status, 0);
    EXPECT_EQ(server->stats().jobsExecuted, 2u);
    EXPECT_GE(server->stats().cacheHits, 1u);
}

/** Read frames until EOF/reset, recording types seen. */
std::vector<uint8_t>
drainFrameTypes(int fd, int timeout_ms)
{
    std::vector<uint8_t> types;
    FrameDecoder decoder;
    Frame frame;
    uint8_t buf[4096];
    for (;;) {
        size_t n = 0;
        try {
            n = recvSome(fd, buf, sizeof(buf), timeout_ms);
        } catch (const SocketError &) {
            break;
        }
        if (n == 0)
            break;
        try {
            decoder.feed(buf, n);
            while (decoder.next(&frame))
                types.push_back(frame.type);
        } catch (const ProtocolError &) {
            break;
        }
    }
    return types;
}

TEST_F(NetIntegration, MalformedBytesCostTheConnectionNotTheServer)
{
    // The pre-frame damage ladder against a live server: raw garbage, a
    // valid frame with a flipped CRC, and an oversized declared length.
    // Each earns a diagnostic Error frame and costs its connection; none
    // cost the server.
    const std::vector<std::vector<uint8_t>> corpus = [] {
        std::vector<std::vector<uint8_t>> c;
        const uint8_t garbage[] = "GET / HTTP/1.1\r\n\r\n";
        c.emplace_back(garbage, garbage + sizeof(garbage) - 1);
        std::vector<uint8_t> flipped = makeHello();
        flipped.back() ^= 0x01;
        c.push_back(flipped);
        std::vector<uint8_t> oversize = {'R', 'N', 'E', 'T', 1,
                                         0xff, 0xff, 0xff, 0xff};
        c.push_back(oversize);
        return c;
    }();
    for (const auto &bytes : corpus) {
        Socket raw = connectUnix(config.socketPath, 1000);
        sendAll(raw.fd(), bytes.data(), bytes.size(), 1000);
        const std::vector<uint8_t> types = drainFrameTypes(raw.fd(), 3000);
        EXPECT_NE(std::find(types.begin(), types.end(),
                            static_cast<uint8_t>(MsgType::Error)),
                  types.end());
    }
    // The server survived and still serves jobs.
    Client client(clientConfig());
    EXPECT_TRUE(client.ping());
    const JobSpec spec = quickSpec();
    EXPECT_EQ(client.runJob(spec).resultBytes, directResultBytes(spec));
}

TEST(ServerConfigEnv, ReactdVariablesParseThroughUtilEnv)
{
    ::setenv("REACTD_SOCKET", "/tmp/custom.sock", 1);
    ::setenv("REACTD_THREADS", "3", 1);
    ::setenv("REACTD_CHECKPOINT_INTERVAL", "not-a-number", 1);
    ::setenv("REACTD_IDLE_TIMEOUT_MS", "1234", 1);
    const ServerConfig config = ServerConfig::fromEnv();
    ::unsetenv("REACTD_SOCKET");
    ::unsetenv("REACTD_THREADS");
    ::unsetenv("REACTD_CHECKPOINT_INTERVAL");
    ::unsetenv("REACTD_IDLE_TIMEOUT_MS");

    EXPECT_EQ(config.socketPath, "/tmp/custom.sock");
    EXPECT_EQ(config.threads, 3);
    // The malformed interval warned and kept the default.
    EXPECT_EQ(config.checkpointIntervalSteps,
              harness::kDefaultCheckpointInterval);
    EXPECT_EQ(config.idleTimeoutMs, 1234);
}

TEST(RetryPolicy, BackoffIsBoundedAndSeeded)
{
    RetryPolicy policy;
    Rng a(5), b(5);
    double previous_envelope = 0.0;
    for (int attempt = 1; attempt <= 12; ++attempt) {
        const double ms = policy.backoffMs(attempt, &a);
        EXPECT_EQ(ms, policy.backoffMs(attempt, &b));
        EXPECT_GE(ms, policy.initialBackoffMs * 0.5);
        EXPECT_LE(ms, policy.maxBackoffMs);
        previous_envelope = ms;
    }
    (void)previous_envelope;
}


// ---------------------------------------------------------------------
// Bounded server outbufs

TEST(ServerOutbuf, NeverPollingClientCannotBalloonServerMemory)
{
    harness::ParallelRunner::clearStopRequest();
    ServerConfig config;
    config.socketPath =
        (std::filesystem::temp_directory_path() /
         ("react_test_outbuf." + std::to_string(::getpid()) + ".sock"))
            .string();
    config.threads = 1;
    config.maxOutbufBytes = 64 * 1024;  // tiny cap to trip quickly
    Server server(config);
    std::thread server_thread([&server] { server.serve(); });
    ClientConfig cc;
    cc.socketPath = config.socketPath;
    Client client(cc);
    for (int i = 0; i < 200 && !client.ping(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));

    {
        // A client that sends pings forever and never reads a byte:
        // pongs accumulate in the server's outbuf until the cap closes
        // the connection (instead of growing without bound).
        Socket raw = connectUnix(config.socketPath, 1000);
        const std::vector<uint8_t> ping = makePing();
        bool dropped = false;
        for (int i = 0; i < 200000 && !dropped; ++i) {
            try {
                sendAll(raw.fd(), ping.data(), ping.size(), 1000);
            } catch (const SocketError &) {
                dropped = true;  // server closed on us: the cap worked
            }
        }
        EXPECT_TRUE(dropped)
            << "server absorbed 200k unread pongs without closing";
    }
    EXPECT_GE(server.stats().outbufOverflows, 1u);

    // Well-behaved clients are unaffected.
    EXPECT_TRUE(client.ping());
    server.requestDrain();
    server_thread.join();
    harness::ParallelRunner::clearStopRequest();
}

// ---------------------------------------------------------------------
// EINTR discipline: a 1 ms interval timer hammers every blocking socket
// call with signals; transfers must still complete and timeouts must
// still expire on schedule (EINTR must not re-arm them).

class IntervalTimerScope
{
  public:
    IntervalTimerScope()
    {
        struct sigaction sa = {};
        sa.sa_handler = &IntervalTimerScope::onAlarm;
        // Deliberately NOT SA_RESTART: every blocking call sees EINTR.
        sigemptyset(&sa.sa_mask);
        sigaction(SIGALRM, &sa, &previous_);
        struct itimerval timer = {};
        timer.it_interval.tv_usec = 1000;  // 1 ms
        timer.it_value.tv_usec = 1000;
        setitimer(ITIMER_REAL, &timer, &previous_timer_);
    }

    ~IntervalTimerScope()
    {
        setitimer(ITIMER_REAL, &previous_timer_, nullptr);
        sigaction(SIGALRM, &previous_, nullptr);
    }

    static int fired() { return fired_; }

  private:
    static void onAlarm(int) { ++fired_; }
    static volatile sig_atomic_t fired_;
    struct sigaction previous_ = {};
    struct itimerval previous_timer_ = {};
};

volatile sig_atomic_t IntervalTimerScope::fired_ = 0;

TEST_F(NetIntegration, TransfersCompleteUnderSignalHammer)
{
    IntervalTimerScope hammer;
    const JobSpec spec = quickSpec();
    Client client(clientConfig());
    const JobOutcome outcome = client.runJob(spec);
    EXPECT_EQ(outcome.resultBytes, directResultBytes(spec));
    EXPECT_GT(IntervalTimerScope::fired(), 0)
        << "the interval timer never fired; the hammer tested nothing";
}

TEST_F(NetIntegration, TimeoutsStillExpireUnderSignalHammer)
{
    // recvSome on an idle connection with a 200 ms budget: the timeout
    // is an absolute deadline, so ~200 EINTRs must not extend it.  The
    // old per-iteration re-arm would spin here for the full 10 s gtest
    // timeout instead of the asserted bound.
    Socket raw = connectUnix(config.socketPath, 1000);
    const std::vector<uint8_t> hello = makeHello();
    sendAll(raw.fd(), hello.data(), hello.size(), 1000);
    drainFrameTypes(raw.fd(), 500);  // consume HelloOk

    IntervalTimerScope hammer;
    uint8_t buf[64];
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(recvSome(raw.fd(), buf, sizeof(buf), 200), SocketError);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(elapsed, 150);
    EXPECT_LE(elapsed, 5000) << "EINTR extended the deadline";
    EXPECT_GT(IntervalTimerScope::fired(), 0);
}

} // namespace
} // namespace net
} // namespace react

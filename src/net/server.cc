#include "server.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "harness/grid.hh"
#include "harness/parallel_runner.hh"
#include "net/frame.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "util/determinism.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace react {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * The server's only sanctioned clock read.  Wall time feeds queue
 * deadlines and idle-timeout bookkeeping -- *whether* a job runs or a
 * silent peer is dropped, never *what* a job computes: result bytes
 * come from runGridCell on identity-derived seeds.
 */
Clock::time_point
wallNow()
{
    REACT_NONDET_OK("wall clock feeds deadlines/idle timeouts only, never result bytes");
    return Clock::now();
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

double
secondsSince(Clock::time_point t0, Clock::time_point now)
{
    return std::chrono::duration<double>(now - t0).count();
}

} // namespace

ServerConfig
ServerConfig::fromEnv()
{
    ServerConfig config;
    if (const auto v = env::stringVar("REACTD_SOCKET"))
        config.socketPath = *v;
    if (const auto v = env::intVar("REACTD_THREADS", 1, 1 << 16))
        config.threads = static_cast<int>(*v);
    if (const auto v = env::stringVar("REACTD_CHECKPOINT_DIR"))
        config.checkpointDir = *v;
    if (const auto v =
            env::u64Var("REACTD_CHECKPOINT_INTERVAL", 1, UINT64_MAX))
        config.checkpointIntervalSteps = *v;
    if (const auto v = env::intVar("REACTD_IDLE_TIMEOUT_MS", 1, 1 << 30))
        config.idleTimeoutMs = static_cast<int>(*v);
    if (const auto v = env::u64Var("REACTD_OUTBUF_MAX", 1024,
                                   1ull << 32))
        config.maxOutbufBytes = static_cast<size_t>(*v);
    return config;
}

struct Server::Impl
{
    explicit Impl(const ServerConfig &config_in) : config(config_in) {}

    ServerConfig config;
    ServerStats stats;

    // ---- job table (jobsLock) ------------------------------------
    struct Job
    {
        JobSpec spec;
        JobState state = JobState::Queued;
        std::vector<uint8_t> resultBytes;
        std::string errorMessage;
        Clock::time_point submittedAt;
        uint64_t doneTick = 0;
    };
    std::mutex jobsLock;
    std::condition_variable jobsCv;
    std::unordered_map<uint64_t, Job> jobs;
    std::deque<uint64_t> pending;
    std::deque<uint64_t> doneOrder;
    uint64_t doneTicks = 0;
    /** Jobs currently Queued or Running, maintained at every lifecycle
     *  transition (under jobsLock).  DrainOk reports this count on the
     *  wire; deriving it by iterating the unordered job table would put
     *  bucket order one refactor away from the payload, which the
     *  determinism lint bans. */
    uint64_t inFlightJobs = 0;

    // ---- drain coordination --------------------------------------
    std::atomic<bool> draining{false};
    std::atomic<bool> executorDone{false};
    int wakePipe[2] = {-1, -1};

    // ---- connections (I/O thread only) ---------------------------
    struct Connection
    {
        Socket sock;
        FrameDecoder decoder;
        std::vector<uint8_t> outbuf;
        size_t outCursor = 0;
        Clock::time_point lastActivity;
        bool closing = false;
    };
    std::vector<std::unique_ptr<Connection>> connections;

    void wake()
    {
        if (wakePipe[1] >= 0) {
            const uint8_t byte = 1;
            // Best-effort: a full pipe already guarantees a pending wake.
            [[maybe_unused]] const ssize_t rc =
                ::write(wakePipe[1], &byte, 1);
        }
    }

    // ---- executor -------------------------------------------------
    void executorLoop();
    void runBatch(std::vector<uint64_t> batch_ids);
    void evictOverflow();

    // ---- protocol -------------------------------------------------
    void handleFrame(Connection *conn, const Frame &frame);
    void sendFrame(Connection *conn, const std::vector<uint8_t> &frame);
    void flushConnection(Connection *conn);
};

Server::Server(const ServerConfig &config_in)
    : impl(std::make_unique<Impl>(config_in))
{
}

Server::~Server() = default;

const ServerStats &
Server::stats() const
{
    return impl->stats;
}

const ServerConfig &
Server::config() const
{
    return impl->config;
}

void
Server::requestDrain()
{
    // Order matters: raise draining before the runner stop flag so the
    // executor cannot clear the stop request after we set it.
    impl->draining.store(true, std::memory_order_release);
    harness::ParallelRunner::requestStop();
    impl->jobsCv.notify_all();
    impl->wake();
}

namespace {

REACT_NONDET_OK("signal-handler rendezvous pointer; drain timing only, not results");
std::atomic<Server *> signalTarget{nullptr};

void
onDrainSignal(int)
{
    // The atomic load and the pipe write inside requestDrain are
    // async-signal-safe; condition_variable::notify_all formally is
    // not, but every wait in the process is bounded by a timeout or
    // woken by the pipe, so the worst case is one period of latency.
    Server *server = signalTarget.load(std::memory_order_acquire);
    if (server != nullptr)
        server->requestDrain();
}

} // namespace

void
Server::installSignalHandlers(Server *server)
{
    signalTarget.store(server, std::memory_order_release);
    struct sigaction sa = {};
    sa.sa_handler = server != nullptr ? onDrainSignal : SIG_DFL;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
}

void
Server::Impl::evictOverflow()
{
    // Called with jobsLock held.  Oldest completed jobs leave first;
    // queued/running jobs are never evicted.
    while (jobs.size() > config.maxCachedResults && !doneOrder.empty()) {
        const uint64_t victim = doneOrder.front();
        doneOrder.pop_front();
        auto it = jobs.find(victim);
        if (it == jobs.end())
            continue;
        const JobState st = it->second.state;
        if (st == JobState::Done || st == JobState::Failed ||
            st == JobState::Expired) {
            jobs.erase(it);
            ++stats.cacheEvictions;
        }
    }
}

void
Server::Impl::runBatch(std::vector<uint64_t> batch_ids)
{
    struct Slot
    {
        uint64_t id = 0;
        JobSpec spec;
        std::vector<uint8_t> resultBytes;
        std::string error;
        bool executed = false;
    };
    std::vector<Slot> slots;
    slots.reserve(batch_ids.size());

    const Clock::time_point now = wallNow();
    {
        std::lock_guard<std::mutex> g(jobsLock);
        for (const uint64_t id : batch_ids) {
            auto it = jobs.find(id);
            if (it == jobs.end())
                continue;
            Job &job = it->second;
            if (job.state != JobState::Queued)
                continue;
            // Deadline check at dispatch: a job that waited out its
            // queue budget expires instead of burning a worker.
            if (job.spec.deadlineSeconds > 0.0 &&
                secondsSince(job.submittedAt, now) >
                    job.spec.deadlineSeconds) {
                job.state = JobState::Expired;
                job.errorMessage = "deadline expired in queue";
                job.doneTick = ++doneTicks;
                doneOrder.push_back(id);
                ++stats.jobsExpired;
                --inFlightJobs;
                continue;
            }
            job.state = JobState::Running;
            Slot slot;
            slot.id = id;
            slot.spec = job.spec;
            slots.push_back(std::move(slot));
        }
    }
    if (slots.empty())
        return;

    harness::ParallelRunner runner(config.threads);
    runner.setSignalPolicy(harness::SignalPolicy::External);
    for (auto &slot : slots) {
        Slot *s = &slot;
        runner.submit(s->spec.cellKey(), [this, s]() {
            try {
                harness::ExperimentConfig cell_config = s->spec.toConfig();
                if (!config.checkpointDir.empty()) {
                    // Snapshot named by cell key *and* job id: two specs
                    // sharing a cell (different dt, say) must not fight
                    // over one snapshot file.
                    char id_hex[20];
                    std::snprintf(id_hex, sizeof(id_hex), "%016llx",
                                  static_cast<unsigned long long>(s->id));
                    cell_config.checkpointPath = config.checkpointDir +
                        "/" +
                        harness::checkpointFileName(s->spec.cellKey() +
                                                    ":" + id_hex);
                    cell_config.resume = true;
                    cell_config.checkpointEverySteps =
                        config.checkpointIntervalSteps;
                }
                const harness::ExperimentResult result =
                    harness::runGridCell(s->spec.buffer, s->spec.bench,
                                         s->spec.trace, cell_config,
                                         s->spec.baseSeed);
                s->resultBytes = harness::encodeResult(result);
            } catch (const std::exception &e) {
                s->error = e.what();
            }
            s->executed = true;
        });
    }
    runner.run();

    {
        std::lock_guard<std::mutex> g(jobsLock);
        for (auto &slot : slots) {
            auto it = jobs.find(slot.id);
            if (it == jobs.end())
                continue;
            Job &job = it->second;
            if (!slot.executed) {
                // Drain stopped the batch before this cell dispatched;
                // it stays queued and a resubmitting client picks it up
                // after restart.
                job.state = JobState::Queued;
                continue;
            }
            if (slot.error.empty()) {
                job.state = JobState::Done;
                job.resultBytes = std::move(slot.resultBytes);
                ++stats.jobsExecuted;
            } else {
                job.state = JobState::Failed;
                job.errorMessage = slot.error;
                ++stats.jobsFailed;
            }
            job.doneTick = ++doneTicks;
            doneOrder.push_back(slot.id);
            --inFlightJobs;
        }
        evictOverflow();
    }
    wake();
}

void
Server::Impl::executorLoop()
{
    for (;;) {
        std::vector<uint64_t> batch;
        {
            std::unique_lock<std::mutex> lk(jobsLock);
            jobsCv.wait_for(lk, std::chrono::milliseconds(200), [this] {
                return !pending.empty() ||
                    draining.load(std::memory_order_acquire);
            });
            if (draining.load(std::memory_order_acquire))
                break;
            batch.assign(pending.begin(), pending.end());
            pending.clear();
        }
        if (batch.empty())
            continue;
        // A fresh batch must not inherit a stale stop flag from an
        // earlier embedded use; skip the clear once draining so a
        // drain that lands here still stops the batch early.
        if (!draining.load(std::memory_order_acquire))
            harness::ParallelRunner::clearStopRequest();
        runBatch(std::move(batch));
    }
    executorDone.store(true, std::memory_order_release);
    wake();
}

void
Server::Impl::sendFrame(Connection *conn, const std::vector<uint8_t> &frame)
{
    if (conn->closing)
        return;
    // Bounded reply queue: a peer that submits but never reads would
    // otherwise accumulate result frames here without limit.  The warn
    // is the only notification -- the peer cannot be told on a pipe it
    // is not draining.
    const size_t queued = conn->outbuf.size() - conn->outCursor;
    if (queued + frame.size() > config.maxOutbufBytes) {
        ++stats.outbufOverflows;
        react_warn("reactd: dropping connection: outbuf overflow "
                   "(%llu bytes queued + %llu pending > %llu cap)",
                   static_cast<unsigned long long>(queued),
                   static_cast<unsigned long long>(frame.size()),
                   static_cast<unsigned long long>(config.maxOutbufBytes));
        conn->closing = true;
        return;
    }
    conn->outbuf.insert(conn->outbuf.end(), frame.begin(), frame.end());
}

void
Server::Impl::flushConnection(Connection *conn)
{
    while (conn->outCursor < conn->outbuf.size()) {
        const ssize_t n = ::send(
            conn->sock.fd(), conn->outbuf.data() + conn->outCursor,
            conn->outbuf.size() - conn->outCursor, MSG_NOSIGNAL);
        if (n > 0) {
            conn->outCursor += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;  // poll for POLLOUT
        if (n < 0 && errno == EINTR)
            continue;
        conn->closing = true;  // peer reset
        return;
    }
    conn->outbuf.clear();
    conn->outCursor = 0;
}

void
Server::Impl::handleFrame(Connection *conn, const Frame &frame)
{
    ++stats.framesReceived;
    WireReader r(frame.payload);
    switch (static_cast<MsgType>(frame.type)) {
      case MsgType::Hello: {
        const uint32_t version = r.u32();
        r.expectEnd();
        if (version != kProtocolVersion) {
            sendFrame(conn, makeError("protocol version mismatch: want " +
                                      std::to_string(kProtocolVersion)));
            conn->closing = true;
            return;
        }
        sendFrame(conn, makeHelloOk());
        return;
      }
      case MsgType::Ping:
        r.expectEnd();
        sendFrame(conn, makePong());
        return;
      case MsgType::Drain: {
        r.expectEnd();
        uint32_t in_flight = 0;
        {
            std::lock_guard<std::mutex> g(jobsLock);
            in_flight = static_cast<uint32_t>(inFlightJobs);
        }
        sendFrame(conn, makeDrainOk(in_flight));
        // Defer the actual drain until the reply is queued; serve()
        // flushes before tearing down.
        draining.store(true, std::memory_order_release);
        harness::ParallelRunner::requestStop();
        jobsCv.notify_all();
        return;
      }
      case MsgType::Submit: {
        const JobSpec spec = JobSpec::decode(r);
        r.expectEnd();
        if (draining.load(std::memory_order_acquire)) {
            sendFrame(conn, makeError("server is draining"));
            return;
        }
        const uint64_t id = spec.jobId();
        std::lock_guard<std::mutex> g(jobsLock);
        auto it = jobs.find(id);
        if (it == jobs.end()) {
            Job job;
            job.spec = spec;
            job.state = JobState::Queued;
            job.submittedAt = wallNow();
            jobs.emplace(id, std::move(job));
            pending.push_back(id);
            ++inFlightJobs;
            ++stats.jobsSubmitted;
            jobsCv.notify_all();
            sendFrame(conn, makeSubmitted(id, JobState::Queued));
            return;
        }
        Job &job = it->second;
        switch (job.state) {
          case JobState::Done:
            ++stats.cacheHits;
            sendFrame(conn, makeJobResult(id, job.resultBytes));
            return;
          case JobState::Failed:
            sendFrame(conn, makeJobError(id, JobState::Failed,
                                         job.errorMessage));
            return;
          case JobState::Expired:
            // A fresh submission restarts the deadline clock.
            job.state = JobState::Queued;
            job.spec = spec;
            job.errorMessage.clear();
            job.submittedAt = wallNow();
            pending.push_back(id);
            ++inFlightJobs;
            ++stats.jobsSubmitted;
            jobsCv.notify_all();
            sendFrame(conn, makeSubmitted(id, JobState::Queued));
            return;
          case JobState::Queued:
          case JobState::Running:
          case JobState::Cached:
            // Idempotent retry: attach, don't duplicate.
            sendFrame(conn, makeSubmitted(id, job.state));
            return;
        }
        return;
      }
      case MsgType::Poll: {
        const uint64_t id = r.u64();
        r.expectEnd();
        std::lock_guard<std::mutex> g(jobsLock);
        auto it = jobs.find(id);
        if (it == jobs.end()) {
            sendFrame(conn, makeJobError(id, JobState::Failed,
                                         "unknown job id"));
            return;
        }
        Job &job = it->second;
        if (job.state == JobState::Queued &&
            job.spec.deadlineSeconds > 0.0 &&
            secondsSince(job.submittedAt, wallNow()) >
                job.spec.deadlineSeconds) {
            job.state = JobState::Expired;
            job.errorMessage = "deadline expired in queue";
            job.doneTick = ++doneTicks;
            doneOrder.push_back(id);
            ++stats.jobsExpired;
            --inFlightJobs;
        }
        switch (job.state) {
          case JobState::Done:
            sendFrame(conn, makeJobResult(id, job.resultBytes));
            return;
          case JobState::Failed:
          case JobState::Expired:
            sendFrame(conn,
                      makeJobError(id, job.state, job.errorMessage));
            return;
          default:
            sendFrame(conn, makeSubmitted(id, job.state));
            return;
        }
      }
      default:
        throw ProtocolError("unexpected frame type " +
                            std::to_string(frame.type));
    }
}

int
Server::serve()
{
    Impl &s = *impl;
    Socket listener = listenUnix(s.config.socketPath);
    setNonBlocking(listener.fd());

    if (::pipe2(s.wakePipe, O_NONBLOCK | O_CLOEXEC) != 0)
        react_fatal("reactd: cannot create wake pipe");

    react_inform("reactd: serving on %s (%d worker threads%s)",
                 s.config.socketPath.c_str(),
                 s.config.threads > 0
                     ? s.config.threads
                     : harness::ParallelRunner::defaultThreadCount(),
                 s.config.checkpointDir.empty() ? ""
                                                : ", checkpointing");

    std::thread executor([&s] { s.executorLoop(); });

    bool listening = true;
    for (;;) {
        const bool drain_now = s.draining.load(std::memory_order_acquire);
        if (drain_now && listening) {
            listener.close();
            listening = false;
        }

        // Build the poll set: wake pipe, listener, every connection.
        std::vector<pollfd> pfds;
        pfds.reserve(s.connections.size() + 2);
        pollfd wake_pfd = {};
        wake_pfd.fd = s.wakePipe[0];
        wake_pfd.events = POLLIN;
        pfds.push_back(wake_pfd);
        if (listening) {
            pollfd lp = {};
            lp.fd = listener.fd();
            lp.events = POLLIN;
            pfds.push_back(lp);
        }
        const size_t conn_base = pfds.size();
        const size_t polled_conns = s.connections.size();
        for (const auto &conn : s.connections) {
            pollfd cp = {};
            cp.fd = conn->sock.fd();
            cp.events = POLLIN;
            if (conn->outCursor < conn->outbuf.size())
                cp.events = static_cast<short>(cp.events | POLLOUT);
            pfds.push_back(cp);
        }

        const int rc =
            ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 250);
        if (rc < 0 && errno != EINTR)
            react_fatal("reactd: poll failed");

        // Drain the wake pipe.
        if (pfds[0].revents & POLLIN) {
            uint8_t sink[64];
            while (::read(s.wakePipe[0], sink, sizeof(sink)) > 0) {
            }
        }

        // Accept new connections.
        if (listening) {
            const pollfd &lp = pfds[1];
            if (lp.revents & POLLIN) {
                for (;;) {
                    Socket accepted = acceptOn(listener.fd());
                    if (!accepted.valid())
                        break;
                    setNonBlocking(accepted.fd());
                    auto conn = std::make_unique<Impl::Connection>();
                    conn->sock = std::move(accepted);
                    conn->lastActivity = wallNow();
                    s.connections.push_back(std::move(conn));
                    ++s.stats.connectionsAccepted;
                }
            }
        }

        // Service the connections that were in this tick's poll set
        // (ones accepted above wait for the next tick).
        const Clock::time_point now = wallNow();
        for (size_t i = 0; i < polled_conns; ++i) {
            Impl::Connection *conn = s.connections[i].get();
            const pollfd &cp = pfds[conn_base + i];

            if (cp.revents & (POLLERR | POLLHUP | POLLNVAL))
                conn->closing = true;

            if (!conn->closing && (cp.revents & POLLIN)) {
                conn->lastActivity = now;
                uint8_t buf[4096];
                for (;;) {
                    const ssize_t n = ::recv(conn->sock.fd(), buf,
                                             sizeof(buf), MSG_DONTWAIT);
                    if (n > 0) {
                        try {
                            conn->decoder.feed(
                                buf, static_cast<size_t>(n));
                            Frame frame;
                            while (conn->decoder.next(&frame))
                                s.handleFrame(conn, frame);
                        } catch (const ProtocolError &e) {
                            // Malformed input: answer with a diagnostic
                            // and drop the connection; the stream
                            // position is no longer trustworthy.
                            ++s.stats.protocolErrors;
                            s.sendFrame(conn, makeError(e.what()));
                            conn->closing = true;
                            break;
                        }
                        continue;
                    }
                    if (n == 0) {
                        // Orderly EOF; a partial frame here is the
                        // truncation failure mode -- log and drop.
                        if (conn->decoder.hasPartial()) {
                            ++s.stats.protocolErrors;
                            react_warn("reactd: peer closed mid-frame");
                        }
                        conn->closing = true;
                        break;
                    }
                    if (errno == EAGAIN || errno == EWOULDBLOCK)
                        break;
                    if (errno == EINTR)
                        continue;
                    conn->closing = true;
                    break;
                }
            }

            s.flushConnection(conn);

            // Idle timeout: a silent peer does not hold a slot forever.
            if (!conn->closing &&
                secondsSince(conn->lastActivity, now) * 1000.0 >
                    static_cast<double>(s.config.idleTimeoutMs)) {
                ++s.stats.idleDrops;
                conn->closing = true;
            }
        }

        // Reap closed connections (flush first if bytes remain and the
        // peer is still reading; best-effort on a closing connection).
        for (size_t i = 0; i < s.connections.size();) {
            Impl::Connection *conn = s.connections[i].get();
            if (conn->closing) {
                s.flushConnection(conn);
                ++s.stats.connectionsDropped;
                s.connections.erase(
                    s.connections.begin() + static_cast<long>(i));
            } else {
                ++i;
            }
        }

        if (drain_now && s.executorDone.load(std::memory_order_acquire)) {
            // Final flush of any queued replies (DrainOk in particular).
            for (auto &conn : s.connections)
                s.flushConnection(conn.get());
            break;
        }
    }

    executor.join();
    s.connections.clear();
    ::close(s.wakePipe[0]);
    ::close(s.wakePipe[1]);
    s.wakePipe[0] = s.wakePipe[1] = -1;
    ::unlink(s.config.socketPath.c_str());
    react_inform("reactd: drained cleanly (%llu jobs executed, %llu "
                 "cache hits, %llu protocol errors)",
                 static_cast<unsigned long long>(s.stats.jobsExecuted),
                 static_cast<unsigned long long>(s.stats.cacheHits),
                 static_cast<unsigned long long>(s.stats.protocolErrors));
    return 0;
}

} // namespace net
} // namespace react

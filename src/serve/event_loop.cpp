#include "serve/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/error.h"

namespace chiplet::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-read cap: drain a hot socket in slices so one fast pipeliner
/// cannot starve every other connection for a whole epoll round.
constexpr std::size_t kReadSliceBytes = 256 * 1024;

/// How long the listener stays unwatched after accept4 ran out of fds,
/// unless a connection closes first and frees one.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(50);

}  // namespace

struct EventLoop::Impl {
    EventLoopConfig config;
    FrameHandler handler;
    std::function<std::string(bool complete)> oversized_encoder;
    std::function<void()> on_shutdown;

    LoopCounters counters;

    // -- loop-thread state (touched only by the loop thread) ---------------
    struct Conn {
        int fd = -1;
        std::uint64_t gen = 0;
        std::string in;               ///< bytes read, not yet framed
        std::string out;              ///< queued responses
        std::size_t out_off = 0;      ///< bytes of `out` already sent
        std::deque<std::string> pending;  ///< frames awaiting their turn
        std::size_t pending_bytes = 0;
        bool job_in_flight = false;
        bool paused = false;        ///< backpressure: EPOLLIN dropped
        bool stop_reading = false;  ///< overrun / close-after: input done
        bool eof = false;           ///< peer half-closed
        bool close_after_flush = false;
        bool announce_after_flush = false;
        bool in_drain = false;  ///< re-entrance guard for drain_pending
        /// Burst mode: queue_response skips the per-frame flush and the
        /// caller sends the whole batch in one syscall, so a pipelined
        /// burst costs one send(2) rather than one per response.
        bool corked = false;
        std::uint32_t interest = 0;  ///< epoll mask last installed
        Clock::time_point last_activity;

        [[nodiscard]] std::size_t unsent() const { return out.size() - out_off; }
    };
    std::unordered_map<int, Conn> conns;
    std::uint64_t next_gen = 1;
    int epoll_fd = -1;
    int listen_fd = -1;
    bool loop_accepting = true;  ///< loop-thread view; `accepting_` mirrors it
    /// False while the listener is out of the epoll set because accept4
    /// ran out of fds; it is watched again at `accept_retry_at` or when
    /// a connection closes, whichever comes first.
    bool listen_watched = true;
    Clock::time_point accept_retry_at;

    // -- shared state -------------------------------------------------------
    std::mutex lifecycle_mutex;  ///< guards start/stop transitions
    bool started = false;
    std::atomic<bool> stopping{false};
    std::atomic<bool> accepting_{false};
    std::atomic<unsigned short> port_{0};
    int wake_fd = -1;
    std::thread loop_thread;

    struct Task {
        int fd = -1;
        std::uint64_t gen = 0;
        std::function<std::string()> job;
    };
    struct Completion {
        int fd = -1;
        std::uint64_t gen = 0;
        std::string response;
    };
    std::mutex task_mutex;
    std::condition_variable task_cv;
    std::deque<Task> tasks;
    bool task_stop = false;
    std::vector<std::thread> workers;

    std::mutex completion_mutex;
    std::vector<Completion> completions;

    // ---------------------------------------------------------------------
    void wake() {
        const std::uint64_t one = 1;
        // A full eventfd counter still wakes the loop; short writes are
        // impossible for 8 bytes.
        (void)!::write(wake_fd, &one, sizeof(one));
    }

    void worker_loop() {
        for (;;) {
            Task task;
            {
                std::unique_lock<std::mutex> lock(task_mutex);
                task_cv.wait(lock, [&] { return task_stop || !tasks.empty(); });
                if (tasks.empty()) return;  // task_stop and nothing left
                task = std::move(tasks.front());
                tasks.pop_front();
            }
            std::string response;
            try {
                response = task.job();
            } catch (const std::exception& e) {
                // The handler's job is expected to catch everything and
                // encode an error itself; this is the last line of
                // defence so a serving process answers rather than dies.
                response = std::string(R"({"error":{"code":"internal",)"
                                       R"("message":")") +
                           "job failed" + R"("}})";
                (void)e;
            }
            {
                std::lock_guard<std::mutex> lock(completion_mutex);
                completions.push_back(Completion{task.fd, task.gen,
                                                 std::move(response)});
            }
            wake();
        }
    }

    // -- epoll plumbing -----------------------------------------------------
    void update_interest(Conn& c) {
        std::uint32_t mask = EPOLLRDHUP;
        if (!c.paused && !c.stop_reading && !c.eof) mask |= EPOLLIN;
        if (c.unsent() > 0) mask |= EPOLLOUT;
        if (mask == c.interest) return;  // skip the syscall on the hot path
        epoll_event ev{};
        ev.events = mask;
        ev.data.fd = c.fd;
        if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
            c.interest = mask;
        }
    }

    void close_conn(int fd) {
        const auto it = conns.find(fd);
        if (it == conns.end()) return;
        Conn& c = it->second;
        counters.queued_frames -= c.pending.size();
        counters.output_queue_bytes -= c.unsent();
        // An in-flight job's completion is dropped on arrival via the
        // generation check; in_flight itself is decremented there, so
        // the gauge never leaks.
        (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
        ::close(fd);
        conns.erase(it);
        --counters.connections_live;
        watch_listener();  // the fd just freed may be the one accept needs
    }

    // -- output path --------------------------------------------------------
    /// Sends what the socket will take.  Returns false when the
    /// connection was closed (broken pipe, or a deferred close fired).
    bool flush(Conn& c) {
        while (c.out_off < c.out.size()) {
            const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                     c.out.size() - c.out_off, MSG_NOSIGNAL);
            if (n > 0) {
                c.out_off += static_cast<std::size_t>(n);
                counters.output_queue_bytes -= static_cast<std::uint64_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            close_conn(c.fd);
            return false;
        }
        if (c.out_off == c.out.size()) {
            c.out.clear();
            c.out_off = 0;
            if (c.announce_after_flush) {
                // The shutdown ack is on the wire: now the owner may
                // wake its wait()ers without racing the response away.
                c.announce_after_flush = false;
                if (on_shutdown) on_shutdown();
            }
            if (c.close_after_flush) {
                close_conn(c.fd);
                return false;
            }
        } else if (c.out_off > kReadSliceBytes && c.out_off * 2 > c.out.size()) {
            // Reclaim the sent prefix once it dominates the buffer.
            c.out.erase(0, c.out_off);
            c.out_off = 0;
        }
        update_backpressure(c);
        update_interest(c);
        return true;
    }

    void update_backpressure(Conn& c) {
        const bool overloaded = c.unsent() >= config.max_output_bytes ||
                                c.pending_bytes >= config.max_output_bytes;
        if (overloaded && !c.paused) {
            c.paused = true;
            ++counters.backpressure_stalls;
        } else if (c.paused && !overloaded &&
                   c.unsent() <= config.max_output_bytes / 2) {
            c.paused = false;
        }
    }

    /// Queues one response frame and flushes opportunistically — unless
    /// the connection is corked mid-burst, in which case the caller owes
    /// one flush for the whole batch and this cannot close the
    /// connection.  Returns false when the connection died underneath it.
    bool queue_response(Conn& c, const std::string& response) {
        c.out += response;
        c.out += '\n';
        counters.output_queue_bytes += response.size() + 1;
        const std::uint64_t backlog = c.unsent();
        std::uint64_t peak = counters.peak_output_queue_bytes.load();
        while (backlog > peak &&
               !counters.peak_output_queue_bytes.compare_exchange_weak(peak,
                                                                       backlog)) {
        }
        c.last_activity = Clock::now();
        if (c.corked) {
            update_backpressure(c);
            return true;
        }
        return flush(c);
    }

    // -- frame path ---------------------------------------------------------
    bool run_frame(Conn& c, std::string&& frame) {
        FrameAction action = handler(std::move(frame));
        if (action.job) {
            c.job_in_flight = true;
            ++counters.in_flight;
            {
                std::lock_guard<std::mutex> lock(task_mutex);
                tasks.push_back(Task{c.fd, c.gen, std::move(action.job)});
            }
            task_cv.notify_one();
            return true;
        }
        if (action.announce_shutdown) {
            stop_accepting();
            c.announce_after_flush = true;
        }
        if (action.close_after) {
            // Mirror the blocking server: nothing after a close-after
            // frame (shutdown) is processed on this connection.
            c.close_after_flush = true;
            c.stop_reading = true;
            counters.queued_frames -= c.pending.size();
            c.pending.clear();
            c.pending_bytes = 0;
        }
        return queue_response(c, action.response);
    }

    /// Runs queued frames while the connection's turn allows it: no job
    /// in flight, output below the bound, not closing.  Each batch is
    /// corked and flushed with one send(2).  Frames answered inline leave
    /// no completion behind to resume the queue, so this keeps going for
    /// as long as a flush makes room; it stops only on a job in flight
    /// (its completion drains again), an empty queue, a close, or a full
    /// output queue (the connection is paused, and the write that
    /// releases it drains again).
    bool drain_pending(Conn& c) {
        if (c.in_drain) return true;
        const int fd = c.fd;
        const auto can_run = [&] {
            return !c.job_in_flight && !c.pending.empty() &&
                   !c.close_after_flush &&
                   c.unsent() < config.max_output_bytes;
        };
        while (can_run()) {
            c.in_drain = true;
            c.corked = true;
            while (can_run()) {
                std::string frame = std::move(c.pending.front());
                c.pending.pop_front();
                c.pending_bytes -= frame.size();
                --counters.queued_frames;
                (void)run_frame(c, std::move(frame));  // corked: cannot close
            }
            c.in_drain = false;
            c.corked = false;
            if (!flush(c)) return false;
        }
        maybe_close_drained(c);
        return conns.find(fd) != conns.end();
    }

    /// A half-closed peer is disconnected once every answer it is owed
    /// has been computed and flushed.
    void maybe_close_drained(Conn& c) {
        if (c.eof && !c.job_in_flight && c.pending.empty() &&
            c.unsent() == 0) {
            close_conn(c.fd);
        }
    }

    void parse_frames(Conn& c) {
        c.corked = true;
        bool first = true;
        std::size_t pos;
        while (!c.stop_reading &&
               (pos = c.in.find('\n')) != std::string::npos) {
            std::string frame = c.in.substr(0, pos);
            c.in.erase(0, pos + 1);
            if (!first) ++counters.pipelined_frames;
            first = false;
            if (!frame.empty() && frame.back() == '\r') frame.pop_back();
            if (frame.size() > config.max_line_bytes) {
                // Complete frame: refuse it, keep the connection — the
                // stream is resynchronised at the delimiter.
                (void)queue_response(c, oversized_encoder(true));
                continue;
            }
            if (frame.find_first_not_of(" \t") == std::string::npos) continue;
            if (c.job_in_flight || !c.pending.empty() ||
                c.unsent() >= config.max_output_bytes) {
                c.pending_bytes += frame.size();
                c.pending.push_back(std::move(frame));
                ++counters.queued_frames;
            } else {
                (void)run_frame(c, std::move(frame));  // corked: cannot close
            }
        }
        if (!c.stop_reading && c.in.size() > config.max_line_bytes) {
            // Unterminated overrun: no delimiter to resynchronise at, so
            // answer once and close after the error flushes.
            c.stop_reading = true;
            c.close_after_flush = true;
            (void)queue_response(c, oversized_encoder(false));
        }
        c.corked = false;
        if (!flush(c)) return;  // one send(2) for the whole pipelined burst
        // Frames parked behind a full output queue that this flush has
        // emptied have no completion coming to run them.
        if (!c.job_in_flight && !c.pending.empty()) (void)drain_pending(c);
    }

    void handle_readable(int fd) {
        const auto it = conns.find(fd);
        if (it == conns.end()) return;
        Conn& c = it->second;
        if (!c.stop_reading && !c.paused) {
            char buf[16384];
            std::size_t read_this_round = 0;
            for (;;) {
                const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
                if (n > 0) {
                    c.in.append(buf, static_cast<std::size_t>(n));
                    read_this_round += static_cast<std::size_t>(n);
                    if (read_this_round >= kReadSliceBytes) break;
                    continue;
                }
                if (n == 0) {
                    c.eof = true;
                    break;
                }
                if (errno == EINTR) continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK) break;
                close_conn(fd);
                return;
            }
            c.last_activity = Clock::now();
            parse_frames(c);
            if (conns.find(fd) == conns.end()) return;
        } else {
            // Paused or input-done: peek for EOF only, never consume.
            char probe;
            const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK);
            if (n == 0) conns.at(fd).eof = true;
        }
        Conn& again = conns.at(fd);
        if (again.eof) {
            again.stop_reading = true;
            update_interest(again);
            maybe_close_drained(again);
        }
    }

    void handle_writable(int fd) {
        const auto it = conns.find(fd);
        if (it == conns.end()) return;
        Conn& c = it->second;
        const bool was_paused = c.paused;
        if (!flush(c)) return;
        if (was_paused && !c.paused) {
            // Backpressure released: first work off frames the stall
            // parked, then read whatever the socket buffered meanwhile.
            if (!drain_pending(c)) return;
            const auto still = conns.find(fd);
            if (still != conns.end()) handle_readable(fd);
        } else {
            maybe_close_drained(c);
        }
    }

    void do_accept() {
        for (;;) {
            const int fd =
                ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
            if (fd < 0) {
                if (errno == EINTR || errno == ECONNABORTED) continue;
                if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                    errno == ENOMEM) {
                    // The connection stays queued, so the level-triggered
                    // listener would wake every epoll_wait at once: stop
                    // watching it until an fd frees up or the back-off
                    // passes.
                    unwatch_listener();
                }
                return;  // EAGAIN: drained
            }
            if (!loop_accepting || stopping.load()) {
                ::close(fd);
                continue;
            }
            // Answers must not wait for the previous segment's ACK: once
            // one answer is late, Nagle would otherwise hold each later
            // one until the client's next request (or its 40 ms delayed
            // ACK) acknowledges the last.  Bursts are corked into one
            // send(2) already, so there is nothing left to coalesce.
            const int one = 1;
            (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                               sizeof(one));
            epoll_event ev{};
            ev.events = EPOLLIN | EPOLLRDHUP;
            ev.data.fd = fd;
            if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
                ::close(fd);
                continue;
            }
            Conn c;
            c.fd = fd;
            c.gen = next_gen++;
            c.interest = EPOLLIN | EPOLLRDHUP;
            c.last_activity = Clock::now();
            conns.emplace(fd, std::move(c));
            ++counters.connections;
            ++counters.connections_live;
        }
    }

    void deliver_completions() {
        std::vector<Completion> batch;
        {
            std::lock_guard<std::mutex> lock(completion_mutex);
            batch.swap(completions);
        }
        for (Completion& done : batch) {
            --counters.in_flight;
            const auto it = conns.find(done.fd);
            if (it == conns.end() || it->second.gen != done.gen) {
                continue;  // connection died while the job ran
            }
            Conn& c = it->second;
            c.job_in_flight = false;
            if (!queue_response(c, done.response)) continue;
            const auto still = conns.find(done.fd);
            if (still == conns.end()) continue;
            if (!drain_pending(still->second)) continue;
            const auto after = conns.find(done.fd);
            if (after != conns.end() && !after->second.paused &&
                !after->second.in.empty()) {
                // Bytes buffered while this connection's turn was busy
                // may hold complete frames; no new EPOLLIN will announce
                // them.
                parse_frames(after->second);
            }
        }
    }

    void sweep_idle() {
        if (config.idle_timeout_ms == 0) return;
        const auto now = Clock::now();
        const auto limit = std::chrono::milliseconds(config.idle_timeout_ms);
        std::vector<int> victims;
        for (const auto& [fd, c] : conns) {
            if (c.job_in_flight || !c.pending.empty() || c.unsent() > 0) {
                continue;  // mid-conversation, not idle
            }
            if (now - c.last_activity >= limit) victims.push_back(fd);
        }
        for (const int fd : victims) {
            close_conn(fd);
            ++counters.idle_disconnects;
        }
    }

    void unwatch_listener() {
        if (!listen_watched) return;
        (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
        listen_watched = false;
        accept_retry_at = Clock::now() + kAcceptBackoff;
    }

    void watch_listener() {
        if (listen_watched || !loop_accepting) return;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = listen_fd;
        if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) == 0) {
            listen_watched = true;
        }
    }

    void stop_accepting() {
        if (!loop_accepting) return;
        loop_accepting = false;
        accepting_.store(false);
        // shutdown(2), not close(2): the fd number stays reserved until
        // teardown, but the kernel refuses new connections right away.
        (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
        ::shutdown(listen_fd, SHUT_RDWR);
    }

    void loop() {
        std::vector<epoll_event> events(128);
        while (!stopping.load()) {
            int timeout = -1;
            if (config.idle_timeout_ms > 0 && !conns.empty()) {
                timeout = static_cast<int>(std::clamp<unsigned>(
                    config.idle_timeout_ms / 2, 10u, 1000u));
            }
            if (!listen_watched && loop_accepting) {
                const int backoff_ms = static_cast<int>(
                    std::chrono::ceil<std::chrono::milliseconds>(
                        accept_retry_at - Clock::now())
                        .count());
                if (backoff_ms <= 0) {
                    watch_listener();
                } else {
                    timeout = timeout < 0 ? backoff_ms
                                          : std::min(timeout, backoff_ms);
                }
            }
            const int n = ::epoll_wait(epoll_fd, events.data(),
                                       static_cast<int>(events.size()),
                                       timeout);
            if (stopping.load()) break;
            if (n < 0) {
                if (errno == EINTR) continue;
                break;  // epoll fd itself is broken; nothing to serve
            }
            for (int i = 0; i < n; ++i) {
                const int fd = events[i].data.fd;
                const std::uint32_t mask = events[i].events;
                if (fd == wake_fd) {
                    std::uint64_t drained = 0;
                    (void)!::read(wake_fd, &drained, sizeof(drained));
                    deliver_completions();
                    continue;
                }
                if (fd == listen_fd) {
                    do_accept();
                    continue;
                }
                if (mask & (EPOLLERR | EPOLLHUP)) {
                    close_conn(fd);
                    continue;
                }
                if (mask & EPOLLOUT) handle_writable(fd);
                if (conns.find(fd) == conns.end()) continue;
                if (mask & (EPOLLIN | EPOLLRDHUP)) handle_readable(fd);
            }
            sweep_idle();
        }
        // Teardown on the loop thread: every socket is owned here, so no
        // other thread can race these closes.
        for (auto& [fd, c] : conns) ::close(fd);
        conns.clear();
        counters.connections_live.store(0);
        if (listen_fd >= 0) {
            ::close(listen_fd);
            listen_fd = -1;
        }
        if (epoll_fd >= 0) {
            ::close(epoll_fd);
            epoll_fd = -1;
        }
    }
};

EventLoop::EventLoop(EventLoopConfig config, FrameHandler handler,
                     std::function<std::string(bool complete)> oversized_encoder,
                     std::function<void()> on_shutdown)
    : impl_(new Impl) {
    impl_->config = config;
    impl_->handler = std::move(handler);
    impl_->oversized_encoder = std::move(oversized_encoder);
    impl_->on_shutdown = std::move(on_shutdown);
}

EventLoop::~EventLoop() {
    stop();
    delete impl_;
}

void EventLoop::start() {
    std::lock_guard<std::mutex> lock(impl_->lifecycle_mutex);
    if (impl_->started) return;

    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) {
        throw Error(std::string("serve: socket() failed: ") +
                    std::strerror(errno));
    }
    const int reuse = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(impl_->config.port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
        const int err = errno;
        ::close(fd);
        throw Error("serve: cannot bind 127.0.0.1:" +
                    std::to_string(impl_->config.port) + ": " +
                    std::strerror(err));
    }
    if (::listen(fd, impl_->config.backlog) < 0) {
        const int err = errno;
        ::close(fd);
        throw Error(std::string("serve: listen() failed: ") +
                    std::strerror(err));
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
        const int err = errno;
        ::close(fd);
        throw Error(std::string("serve: getsockname() failed: ") +
                    std::strerror(err));
    }

    const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd < 0) {
        const int err = errno;
        ::close(fd);
        throw Error(std::string("serve: epoll_create1() failed: ") +
                    std::strerror(err));
    }
    const int wake = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake < 0) {
        const int err = errno;
        ::close(fd);
        ::close(epfd);
        throw Error(std::string("serve: eventfd() failed: ") +
                    std::strerror(err));
    }
    epoll_event lev{};
    lev.events = EPOLLIN;
    lev.data.fd = fd;
    (void)::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &lev);
    epoll_event wev{};
    wev.events = EPOLLIN;
    wev.data.fd = wake;
    (void)::epoll_ctl(epfd, EPOLL_CTL_ADD, wake, &wev);

    impl_->listen_fd = fd;
    impl_->epoll_fd = epfd;
    impl_->wake_fd = wake;
    impl_->port_.store(ntohs(bound.sin_port));
    impl_->stopping.store(false);
    impl_->loop_accepting = true;
    impl_->listen_watched = true;
    impl_->accepting_.store(true);
    impl_->task_stop = false;

    const unsigned workers = std::max(1u, impl_->config.workers);
    impl_->workers.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
        impl_->workers.emplace_back([this] { impl_->worker_loop(); });
    }
    impl_->loop_thread = std::thread([this] { impl_->loop(); });
    impl_->started = true;
}

void EventLoop::stop() {
    std::lock_guard<std::mutex> lock(impl_->lifecycle_mutex);
    if (!impl_->started) return;

    // Executors first: in-flight evaluations finish and push their
    // completions (the wake fd is still open), then the loop drains what
    // it can and exits.
    {
        std::lock_guard<std::mutex> task_lock(impl_->task_mutex);
        impl_->task_stop = true;
        impl_->tasks.clear();
    }
    impl_->task_cv.notify_all();
    for (std::thread& w : impl_->workers) {
        if (w.joinable()) w.join();
    }
    impl_->workers.clear();

    impl_->stopping.store(true);
    impl_->accepting_.store(false);
    impl_->wake();
    if (impl_->loop_thread.joinable()) impl_->loop_thread.join();
    if (impl_->wake_fd >= 0) {
        ::close(impl_->wake_fd);
        impl_->wake_fd = -1;
    }
    {
        std::lock_guard<std::mutex> comp_lock(impl_->completion_mutex);
        impl_->completions.clear();
    }
    impl_->started = false;
}

unsigned short EventLoop::port() const { return impl_->port_.load(); }

bool EventLoop::accepting() const { return impl_->accepting_.load(); }

const LoopCounters& EventLoop::counters() const { return impl_->counters; }

}  // namespace chiplet::serve

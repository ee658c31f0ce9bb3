// The event-driven actuaryd transport (serve/event_loop.h via
// serve/server.h): pipelined framing in both directions, protocol v1
// envelopes with id echo, the metrics/health verbs, bounded write
// backpressure against a slow reader, idle-timeout disconnects, answers
// that never wait on Nagle + delayed ACK, and an accept path that
// backs off instead of spinning when the process is out of fds.
#include <gtest/gtest.h>
#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/actuary.h"
#include "explore/pareto.h"
#include "explore/study.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/error.h"
#include "util/json.h"

namespace chiplet::serve {
namespace {

using namespace std::chrono_literals;

class EventLoopServerTest : public ::testing::Test {
protected:
    void start(ServerConfig config) {
        config.port = 0;  // ephemeral: parallel test runs never clash
        server_ = std::make_unique<StudyServer>(actuary_, config);
        server_->start();
    }

    void TearDown() override {
        if (server_) server_->stop();
    }

    [[nodiscard]] StudyClient connect(unsigned timeout_seconds = 30) const {
        return StudyClient("127.0.0.1", server_->port(), timeout_seconds);
    }

    const core::ChipletActuary actuary_;
    std::unique_ptr<StudyServer> server_;
};

TEST_F(EventLoopServerTest, ManyFramesInOneSegmentAnswerInOrder) {
    start({});
    StudyClient client = connect();
    // One write syscall carrying a whole burst: every frame must be
    // answered, in order, with its own id echoed back.
    constexpr int kBurst = 50;
    std::string burst;
    for (int i = 0; i < kBurst; ++i) {
        burst += R"({"v":1,"id":)" + std::to_string(i) + R"(,"verb":"ping"})";
        burst += kFrameDelimiter;
    }
    client.send_bytes(burst);
    for (int i = 0; i < kBurst; ++i) {
        const JsonValue response = JsonValue::parse(client.read_line());
        EXPECT_EQ(response.at("v").as_number(), 1.0);
        EXPECT_EQ(response.at("id").as_number(), static_cast<double>(i));
        EXPECT_TRUE(response.at("ok").as_bool());
    }

    // The loop saw the burst as pipelined frames, not 50 separate reads.
    const JsonValue metrics = client.metrics();
    EXPECT_GE(metrics.at("loop").at("pipelined_frames").as_number(), 1.0);
}

TEST_F(EventLoopServerTest, OneFrameAcrossManySegmentsStillParses) {
    start({});
    StudyClient client = connect();
    const std::string frame = R"({"v":1,"id":"sliced","verb":"ping"})";
    // Trickle the frame a few bytes per write; the server must buffer
    // across reads and answer exactly once at the delimiter.
    for (std::size_t i = 0; i < frame.size(); i += 5) {
        client.send_bytes(frame.substr(i, 5));
        std::this_thread::sleep_for(2ms);
    }
    client.send_bytes(std::string(1, kFrameDelimiter));
    const JsonValue response = JsonValue::parse(client.read_line());
    EXPECT_EQ(response.at("id").as_string(), "sliced");
    EXPECT_TRUE(response.at("ok").as_bool());
}

TEST_F(EventLoopServerTest, V0FramesStayUnversionedAndV1EchoesAnyIdType) {
    start({});
    StudyClient client = connect();

    // v0: byte-compatible — no "v", no "id" in the response.
    const JsonValue v0 = client.ping();
    EXPECT_FALSE(v0.contains("v"));
    EXPECT_FALSE(v0.contains("id"));

    // v1 with a string id; "op" spelling is accepted at v1 too.
    const JsonValue v1 =
        client.call(R"({"v":1,"id":"abc-123","op":"ping"})");
    EXPECT_EQ(v1.at("v").as_number(), 1.0);
    EXPECT_EQ(v1.at("id").as_string(), "abc-123");

    // v1 without an id is legal; the response then carries none.
    const JsonValue bare = client.call(R"({"v":1,"verb":"ping"})");
    EXPECT_EQ(bare.at("v").as_number(), 1.0);
    EXPECT_FALSE(bare.contains("id"));
}

TEST_F(EventLoopServerTest, UnknownVerbListsTheValidOnesAndEchoesTheId) {
    start({});
    StudyClient client = connect();
    const JsonValue response =
        client.call(R"({"v":1,"id":7,"verb":"explode"})");
    // The error still carries the envelope, so pipelined v1 clients can
    // match it to the request that caused it.
    EXPECT_EQ(response.at("id").as_number(), 7.0);
    EXPECT_EQ(response.at("error").at("code").as_string(), "parse");
    const std::string message =
        response.at("error").at("message").as_string();
    EXPECT_NE(message.find("explode"), std::string::npos);
    for (const char* verb :
         {"run", "ping", "stats", "metrics", "health", "shutdown"}) {
        EXPECT_NE(message.find(verb), std::string::npos) << verb;
    }

    const JsonValue version = client.call(R"({"v":2,"verb":"ping"})");
    EXPECT_EQ(version.at("error").at("code").as_string(), "parse");
    // An unsupported version cannot claim to be v1, so no envelope.
    EXPECT_FALSE(version.contains("v"));

    // The connection survives both errors.
    EXPECT_TRUE(client.ping().at("ok").as_bool());
}

TEST_F(EventLoopServerTest, MetricsAndHealthVerbsReportTheLoop) {
    start({});
    StudyClient client = connect();
    (void)client.ping();

    const JsonValue health = client.health();
    EXPECT_EQ(health.at("status").as_string(), "serving");
    EXPECT_GE(health.at("connections").as_number(), 1.0);

    const JsonValue metrics = client.metrics();
    EXPECT_GE(metrics.at("server").at("connections").as_number(), 1.0);
    const JsonValue& loop = metrics.at("loop");
    EXPECT_GE(loop.at("connections_live").as_number(), 1.0);
    EXPECT_EQ(loop.at("idle_disconnects").as_number(), 0.0);
    EXPECT_TRUE(metrics.at("cache").is_object());

    // In-process snapshot matches the verb's view of lifetime counters.
    const MetricsSnapshot snapshot = server_->metrics();
    EXPECT_GE(snapshot.connections, 1u);
    EXPECT_EQ(snapshot.idle_disconnects, 0u);
}

TEST_F(EventLoopServerTest, SlowReaderIsBoundedByWriteBackpressure) {
    ServerConfig config;
    config.max_output_bytes = 64 * 1024;
    start(config);

    // A response fat enough that a pipelined burst of them must exceed
    // the socket buffers plus the output bound many times over.
    explore::ParetoConfig pareto;
    for (int i = 0; i < 4000; ++i) {
        pareto.points.push_back(explore::ParetoPoint{
            static_cast<double>(i), static_cast<double>(8000 - i),
            static_cast<std::size_t>(i)});
    }
    explore::StudySpec spec;
    spec.name = "fat";
    spec.config = pareto;
    JsonValue request = JsonValue::parse(encode_run_request({&spec, 1}));
    constexpr int kBurst = 24;

    StudyClient slow = connect();
    std::string burst;
    for (int i = 0; i < kBurst; ++i) {
        request.set("v", 1);
        request.set("id", static_cast<double>(i));
        burst += request.dump();
        burst += kFrameDelimiter;
    }
    // Send from a helper thread: once the server pauses reading at the
    // output bound the kernel buffers fill and send_bytes blocks — the
    // main thread must be free to observe and later drain.
    std::thread sender([&] { slow.send_bytes(burst); });

    // Watch from a second connection until the slow reader's queue hits
    // the bound and the loop stops reading from it.
    StudyClient observer = connect();
    double stalls = 0.0;
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (std::chrono::steady_clock::now() < deadline) {
        const JsonValue metrics = observer.metrics();
        stalls = metrics.at("loop").at("backpressure_stalls").as_number();
        if (stalls >= 1.0) break;
        std::this_thread::sleep_for(10ms);
    }
    EXPECT_GE(stalls, 1.0);

    // Drain everything: every response arrives, in order, and the worst
    // unsent backlog never exceeded the bound plus one in-flight
    // response (the one completion that may land while paused).
    std::size_t response_bytes = 0;
    for (int i = 0; i < kBurst; ++i) {
        const std::string line = slow.read_line();
        response_bytes = std::max(response_bytes, line.size() + 1);
        const JsonValue response = JsonValue::parse(line);
        EXPECT_EQ(response.at("id").as_number(), static_cast<double>(i));
        EXPECT_EQ(
            response.at("results").as_array().front().at("name").as_string(),
            "fat");
    }
    sender.join();
    const JsonValue metrics = observer.metrics();
    const double peak =
        metrics.at("loop").at("peak_output_queue_bytes").as_number();
    EXPECT_GE(peak, static_cast<double>(config.max_output_bytes));
    EXPECT_LE(peak, static_cast<double>(config.max_output_bytes +
                                        response_bytes));
}

TEST_F(EventLoopServerTest, IdleConnectionsAreDisconnected) {
    ServerConfig config;
    config.idle_timeout_ms = 100;
    start(config);

    StudyClient idle = connect();
    EXPECT_TRUE(idle.ping().at("ok").as_bool());
    // Silence past the timeout: the server must close the connection.
    EXPECT_THROW((void)idle.read_line(), Error);

    StudyClient busy = connect();
    double reaped = 0.0;
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
        // This connection keeps itself alive by talking.
        const JsonValue metrics = busy.metrics();
        reaped = metrics.at("loop").at("idle_disconnects").as_number();
        if (reaped >= 1.0) break;
        std::this_thread::sleep_for(10ms);
    }
    EXPECT_GE(reaped, 1.0);
    EXPECT_TRUE(busy.ping().at("ok").as_bool());
}

TEST_F(EventLoopServerTest, HalfCloseAfterCompleteFramesStillAnswers) {
    start({});
    StudyClient client = connect();
    // Pipeline frames and immediately half-close: the server owes the
    // answers and must deliver them before dropping the connection.
    client.send_bytes(std::string(R"({"v":1,"id":1,"verb":"ping"})") +
                      kFrameDelimiter + R"({"v":1,"id":2,"verb":"ping"})" +
                      kFrameDelimiter);
    client.shutdown_write();
    EXPECT_EQ(JsonValue::parse(client.read_line()).at("id").as_number(), 1.0);
    EXPECT_EQ(JsonValue::parse(client.read_line()).at("id").as_number(), 2.0);
    EXPECT_THROW((void)client.read_line(), Error);  // then EOF
}

TEST_F(EventLoopServerTest, ClientTimeoutsAreTypedErrors) {
    start({});
    // A deadline on a silent connection surfaces as a typed timeout.
    StudyClient quiet("127.0.0.1", server_->port(),
                      ClientConfig{1000, 50, 0});
    try {
        (void)quiet.read_line();
        FAIL() << "read_line should have timed out";
    } catch (const ClientError& e) {
        EXPECT_EQ(e.code(), ClientErrorCode::timeout);
    }

    // A refused port surfaces as connect_failed, not a generic Error.
    server_->stop();
    const unsigned short dead_port = server_->port();
    try {
        StudyClient refused("127.0.0.1", dead_port, ClientConfig{1000, 0, 0});
        FAIL() << "connect should have been refused";
    } catch (const ClientError& e) {
        EXPECT_EQ(e.code(), ClientErrorCode::connect_failed);
    }
}

TEST_F(EventLoopServerTest, RefilledPipelineWindowNeverWaitsOnDelayedAck) {
    start({});
    StudyClient client = connect();
    explore::StudySpec spec;
    spec.name = "warm";
    spec.config = explore::BreakevenQuery{};
    const std::string frame = encode_run_request({&spec, 1});
    (void)client.call(frame);  // warm the cache: every timed frame hits

    constexpr int kRounds = 20;
    constexpr int kWindow = 8;
    const auto expect_hit = [](const std::string& line) {
        const JsonValue response = JsonValue::parse(line);
        EXPECT_EQ(response.at("meta").at("served_from_cache").as_number(),
                  1.0);
    };

    // Reference cost of the same frames one call at a time: each request
    // acknowledges the previous answer, so Nagle never holds one back.
    // It absorbs how slow this build serves a hit (sanitizers, Debug).
    auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < kRounds * kWindow; ++i) {
        client.send_line(frame);
        expect_hit(client.read_line());
    }
    const auto one_at_a_time = std::chrono::steady_clock::now() - begin;

    // A client that refills its window one small frame per send(2) and
    // then reads the answers.  Without TCP_NODELAY on the server side,
    // answers after the first in a round are held by Nagle until the
    // client's delayed ACK fires (40 ms minimum on Linux): about 40 ms
    // per round.
    begin = std::chrono::steady_clock::now();
    for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kWindow; ++i) client.send_line(frame);
        for (int i = 0; i < kWindow; ++i) expect_hit(client.read_line());
    }
    const auto windowed = std::chrono::steady_clock::now() - begin;
    // Half of the 20 x 40 ms the delayed-ACK chain would add.
    EXPECT_LT(windowed - one_at_a_time, 400ms)
        << "one at a time: "
        << std::chrono::duration<double, std::milli>(one_at_a_time).count()
        << " ms, windowed: "
        << std::chrono::duration<double, std::milli>(windowed).count()
        << " ms";
}

/// CPU the whole process has used, user plus system.
std::chrono::microseconds process_cpu() {
    rusage usage{};
    (void)::getrusage(RUSAGE_SELF, &usage);
    const auto to_us = [](const timeval& t) {
        return std::chrono::seconds(t.tv_sec) +
               std::chrono::microseconds(t.tv_usec);
    };
    return to_us(usage.ru_utime) + to_us(usage.ru_stime);
}

/// Leaves the process exactly one free fd: lowers RLIMIT_NOFILE to just
/// above the highest open fd and fills every hole below it.  Undone on
/// release() or destruction, so a failed assertion cannot starve the
/// tests that follow.
class FdStarvation {
public:
    FdStarvation() {
        if (::getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
        int highest = -1;
        if (DIR* dir = ::opendir("/proc/self/fd")) {
            while (const dirent* entry = ::readdir(dir)) {
                highest = std::max(highest, std::atoi(entry->d_name));
            }
            ::closedir(dir);
        }
        if (highest < 0) return;
        rlimit lowered = saved_;
        lowered.rlim_cur = static_cast<rlim_t>(highest + 2);
        if (::setrlimit(RLIMIT_NOFILE, &lowered) != 0) return;
        lowered_ = true;
        for (int fd = ::open("/dev/null", O_RDONLY); fd >= 0;
             fd = ::open("/dev/null", O_RDONLY)) {
            fillers_.push_back(fd);
        }
        if (errno != EMFILE || fillers_.empty()) return;
        ::close(fillers_.back());  // the one fd left to take
        fillers_.pop_back();
        armed_ = true;
    }
    ~FdStarvation() { release(); }
    FdStarvation(const FdStarvation&) = delete;
    FdStarvation& operator=(const FdStarvation&) = delete;

    [[nodiscard]] bool armed() const { return armed_; }

    void release() {
        if (lowered_) (void)::setrlimit(RLIMIT_NOFILE, &saved_);
        lowered_ = false;
        for (const int fd : fillers_) ::close(fd);
        fillers_.clear();
    }

private:
    rlimit saved_{};
    bool lowered_ = false;
    bool armed_ = false;
    std::vector<int> fillers_;
};

TEST_F(EventLoopServerTest, OutOfFdsBacksOffInsteadOfSpinning) {
    start({});
    FdStarvation starvation;
    ASSERT_TRUE(starvation.armed());

    // The client takes the last fd, so the server's accept4 fails with
    // EMFILE and the connection stays queued on the listener.
    StudyClient client("127.0.0.1", server_->port(),
                       ClientConfig{1000, 5000, 0});
    client.send_line(R"({"v":1,"id":"late","verb":"ping"})");
    const auto cpu_before = process_cpu();
    std::this_thread::sleep_for(500ms);
    const auto stuck_cpu = process_cpu() - cpu_before;
    starvation.release();

    // A spinning loop burns the whole 500 ms; a backed-off one a sliver.
    EXPECT_LT(stuck_cpu, 100ms);
    // Once fds are free again the queued connection is served.
    const JsonValue response = JsonValue::parse(client.read_line());
    EXPECT_EQ(response.at("id").as_string(), "late");
    EXPECT_TRUE(response.at("ok").as_bool());
}

}  // namespace
}  // namespace chiplet::serve

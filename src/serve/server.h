// actuaryd: a long-lived evaluation server over local TCP.  Accepts
// concurrent clients speaking the newline-framed JSON protocol of
// serve/protocol.h (v0 and v1).  The loop thread canonicalises every
// study of a run request once and probes the canonical-spec result
// cache (explore/study_cache.h).  A request whose studies all hit is
// answered right there, from the entries' stored documents, without an
// executor hop or any re-serialisation.  Otherwise an executor
// evaluates only the misses — as one batch through
// explore::run_studies_collecting, except design_space studies, which
// skip the batch compiler and run one by one through explore::run_study
// on the kernel path the compiler's cell memo would turn off — and
// inserts each fresh result under the canonical it already holds.
// Responses are bit-identical to a serial run_study of the same specs.
//
//   core::ChipletActuary actuary;
//   serve::StudyServer server(actuary, {.port = 0});  // 0 = ephemeral
//   server.start();
//   std::cout << "listening on 127.0.0.1:" << server.port() << "\n";
//   server.wait();   // returns once a client sends {"op":"shutdown"}
//   server.stop();   // tears down the transport
//
// Transport: one epoll readiness loop owns every socket
// (serve/event_loop.h); study evaluation fans onto executor threads and
// completions return via eventfd.  Requests may be pipelined, slow
// readers are bounded by per-connection write backpressure, and idle
// connections can be reaped.
//
// Dispatch mode: with ServerConfig::dispatch set to a worker list
// ("host:port,host:port,..."), non-explain design_space studies are
// range-sharded across those worker actuaryds and merged bit-identically
// to a local run (serve/dispatcher.h); every other study still runs
// locally.  A failed worker fails that study with stage "dispatch".
//
// Robustness contract (exercised by tests/test_fuzz_json.cpp): garbage
// frames, truncated requests and mid-request disconnects never crash or
// wedge the server; malformed requests get a structured JSON error
// response and the connection stays usable.  Frames over
// ServerConfig::max_line_bytes are answered with an "oversized" error;
// a complete frame leaves the connection usable, while an unterminated
// overrun closes it (there is no safe point to resynchronise at).
#pragma once

#include <cstdint>
#include <string>

#include "core/actuary.h"
#include "explore/study_cache.h"
#include "serve/protocol.h"

namespace chiplet::serve {

struct ServerConfig {
    unsigned short port = 0;        ///< 0 binds an ephemeral port
    /// Memory bound of the canonical-spec study cache.
    std::size_t cache_bytes = 64ull << 20;
    unsigned cache_shards = 8;
    /// Directory for the persistent study-cache store
    /// (explore/cache_store.h): populated entries are written through
    /// atomically and replayed into the memory cache on start, keyed by
    /// the model fingerprint so a changed model cold-starts.  Empty =
    /// memory only.  The constructor throws chiplet::Error when the
    /// directory cannot be created.
    std::string cache_dir;
    std::size_t max_line_bytes = 8ull << 20;  ///< per-frame size limit
    int backlog = 64;               ///< listen(2) queue depth
    /// Per-connection unsent-response bound: reading pauses above it,
    /// resumes below half of it.
    std::size_t max_output_bytes = 8ull << 20;
    /// Disconnect connections with no traffic and no queued work for
    /// this long; 0 = never.
    unsigned idle_timeout_ms = 0;
    /// Executor threads evaluating run requests; each batch still fans
    /// onto the process-global thread pool.
    unsigned eval_workers = 2;
    /// Comma-separated worker list ("host:port" or bare "port" entries)
    /// enabling dispatch mode; empty = evaluate everything locally.
    /// A bad list makes the constructor throw ParseError.
    std::string dispatch;
};

/// The server front end.  The actuary must outlive the server.
class StudyServer {
public:
    explicit StudyServer(const core::ChipletActuary& actuary,
                         ServerConfig config = {});
    ~StudyServer();  ///< calls stop()

    StudyServer(const StudyServer&) = delete;
    StudyServer& operator=(const StudyServer&) = delete;

    /// Binds 127.0.0.1 and starts accepting.  Throws chiplet::Error when
    /// the socket cannot be created or bound (e.g. port in use).
    void start();

    /// Stops accepting, unblocks every connection, joins every thread,
    /// closes all sockets.  Idempotent.
    void stop();

    /// Blocks until a client requests shutdown or stop() is called.
    void wait();

    [[nodiscard]] bool running() const;

    /// The bound port (the ephemeral one when config.port was 0).
    [[nodiscard]] unsigned short port() const;

    [[nodiscard]] explore::StudyCache& cache();

    struct Stats {
        std::uint64_t connections = 0;  ///< accepted sockets, lifetime
        std::uint64_t requests = 0;     ///< successfully answered run frames
        std::uint64_t errors = 0;       ///< error responses sent
        /// Results served that carried itemised cost ledgers (explain
        /// studies), lifetime.
        std::uint64_t ledger_results = 0;
        /// Studies answered by range-sharded dispatch, lifetime.
        std::uint64_t dispatched = 0;
        /// Run requests answered on the loop thread because every study
        /// hit the cache, lifetime.
        std::uint64_t inline_runs = 0;
    };
    [[nodiscard]] Stats stats() const;

    /// Everything the "metrics" verb reports, readable in-process.
    [[nodiscard]] MetricsSnapshot metrics() const;

private:
    struct Impl;
    Impl* impl_;
};

}  // namespace chiplet::serve

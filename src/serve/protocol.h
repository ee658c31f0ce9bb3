// Wire protocol of the actuaryd evaluation service: newline-framed JSON
// over a local TCP stream.  One request per line, one response line per
// request, connection reusable for any number of requests; requests may
// be pipelined (many frames written before the first response is read)
// and responses always come back in request order.
//
// Two request shapes share the wire:
//
//   v0 (legacy, unversioned — byte-compatible with PR 4):
//     {"studies":[ <study spec>, ... ]}        run a batch (op optional)
//     {"op":"ping"}                            liveness probe
//     {"op":"stats"}                           cache + server counters
//     {"op":"metrics"}                         loop gauges for balancers
//     {"op":"health"}                          accepting / draining
//     {"op":"shutdown"}                        ack, then stop the server
//
//   v1 (versioned envelope):
//     {"v":1,"id":<any>,"verb":"run","studies":[...]}
//     {"v":1,"id":<any>,"verb":"ping"}         ... and so on per verb
//
//   A v1 response opens with {"v":1,"id":<echoed>,...} so pipelined
//   replies are matchable by id; v0 responses carry neither key and are
//   byte-identical to the pre-v1 protocol.  "verb" and "op" are
//   accepted interchangeably at either version.  Unknown verbs return a
//   structured "parse" error listing the valid verbs.
//
// Responses:
//   run      {"results":[...],"failures":[...],"meta":{"cache":{...},
//             "threads":N,"wall_ms":X,"served_from_cache":K,
//             "with_ledgers":L,"dispatched":D}}
//            "results" entries are exactly the Study API result
//            envelopes (explore/study_json.h), bit-identical to a
//            serial run_study of the same specs; "failures" lists bad
//            studies ({"index","name","stage","message"}).
//   ping     {"op":"ping","ok":true}
//   stats    {"op":"stats","ok":true,"cache":{... incl. "hit_rate"},
//             "cells":{"hits","misses","hit_rate"},
//             "server":{... incl. "ledger_results"},
//             "graph":{... incl. "cell_refs"/"unique_cells"},
//             "model_version":"...","threads":N}
//   metrics  {"op":"metrics","ok":true,"server":{... incl. "inline_runs"},
//             "loop":{...},
//             "cache":{...},"cells":{...},"disk":{"persistent":B,
//             "loaded","stale","corrupt","writes","write_failures"},
//             "model_version":"...","threads":N}
//   health   {"op":"health","ok":true,"status":"serving"|"draining",
//             "connections":C,"in_flight":F}
//   shutdown {"op":"shutdown","ok":true}
//   error    {"error":{"code":"parse"|"model"|"dispatch"|"oversized"|
//             "internal","message":"..."}}   (the connection survives
//             except for "oversized" frames that never completed —
//             those can never be resynchronised)
//
// This header is pure string <-> struct translation — no sockets — so
// the protocol is testable without a live server (see serve/server.h
// for transport).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "explore/cache_store.h"
#include "explore/study.h"
#include "explore/study_cache.h"
#include "util/json.h"

namespace chiplet::serve {

/// Port actuary_cli serve/client default to when --port is not given.
inline constexpr unsigned short kDefaultPort = 9217;

/// Frame delimiter; responses are terminated with it too.
inline constexpr char kFrameDelimiter = '\n';

/// Highest protocol version this build speaks.
inline constexpr int kProtocolVersion = 1;

enum class Verb { run, ping, stats, metrics, health, shutdown };

[[nodiscard]] std::string to_string(Verb verb);

/// The versioned envelope of one request, echoed into its response.
/// Default-constructed = a v0 frame: responses carry no "v"/"id" keys
/// and stay byte-identical to the unversioned protocol.
struct Envelope {
    int version = 0;    ///< 0 = legacy unversioned frame
    bool has_id = false;
    JsonValue id;       ///< echoed verbatim (string, number, anything)
};

/// A decoded request line.  For Verb::run, `studies` holds the specs
/// that parsed, `study_indices[i]` their position in the request's
/// "studies" array, and `bad_studies` the per-study parse failures
/// (stage "parse", document indices) — a batch with bad entries still
/// runs the good ones.
struct Request {
    Envelope envelope;
    Verb verb = Verb::run;
    std::vector<explore::StudySpec> studies;
    std::vector<std::size_t> study_indices;
    std::vector<explore::StudyFailure> bad_studies;
};

/// Decodes one frame (without the trailing newline).  Throws ParseError
/// for malformed JSON, a non-object, an unsupported "v", an unknown
/// "verb"/"op", or a run request with no "studies" array.  When
/// `envelope_out` is given it is filled as soon as the envelope has
/// been read — before any verb/studies validation — so error responses
/// to malformed v1 frames can still echo the request id.
[[nodiscard]] Request parse_request(const std::string& line,
                                    Envelope* envelope_out = nullptr);

/// Measurement attached to a run response; never part of the
/// bit-identical surface.
struct RunMeta {
    explore::StudyCache::Stats cache;  ///< cumulative server-cache stats
    unsigned threads = 0;              ///< global pool size
    double wall_ms = 0.0;              ///< request wall time
    std::uint64_t served_from_cache = 0;  ///< hits within this request
    /// Results in this request that carried itemised cost ledgers
    /// (explain studies).
    std::uint64_t with_ledgers = 0;
    /// Studies in this request answered by range-sharded dispatch to
    /// workers instead of local evaluation.
    std::uint64_t dispatched = 0;
    /// Study-compiler accounting for this request's locally evaluated
    /// batch (explore/study_graph.h): spec dedups, cell refs vs unique
    /// cells.
    explore::StudyGraphStats graph;
};

/// Lifetime sums of the per-batch cell memo counters
/// (StudyRunInfo::cell_hits / cell_misses) over every served result —
/// the "cells" object of the stats and metrics verbs.
struct CellCounters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/// Everything behind the "metrics" verb: cumulative server counters,
/// instantaneous event-loop gauges, and lifetime loop counters — the
/// numbers a load balancer (or the backpressure tests) wants.
struct MetricsSnapshot {
    // -- server counters, lifetime ----------------------------------------
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t ledger_results = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t inline_runs = 0;  ///< all-hit run frames answered on
                                    ///< the loop thread
    // -- loop gauges, instantaneous ---------------------------------------
    std::uint64_t connections_live = 0;
    std::uint64_t in_flight = 0;          ///< frames being evaluated off-loop
    std::uint64_t queued_frames = 0;      ///< parsed frames awaiting their turn
    std::uint64_t output_queue_bytes = 0; ///< unsent response bytes, all conns
    // -- loop counters, lifetime ------------------------------------------
    std::uint64_t peak_output_queue_bytes = 0;  ///< worst single connection
    std::uint64_t backpressure_stalls = 0;  ///< reads paused on a full queue
    std::uint64_t idle_disconnects = 0;
    std::uint64_t pipelined_frames = 0;  ///< frames parsed beyond the first
                                         ///< of a read burst
    // -- study-compiler counters, lifetime sums over run requests ----------
    std::uint64_t graph_spec_dedups = 0;   ///< identical specs served as copies
    std::uint64_t graph_cell_refs = 0;     ///< cost-cell references enumerated
    std::uint64_t graph_unique_cells = 0;  ///< cells actually evaluated
    std::uint64_t graph_deduped_cells = 0; ///< refs served by sharing
    explore::StudyCache::Stats cache;
    CellCounters cells;
    // -- persistence (explore/cache_store.h) -------------------------------
    bool persistent = false;  ///< a --cache-dir store is attached
    explore::StudyCacheStore::Stats disk;  ///< zeros when not persistent
    /// core::model_version_string() — schema + fingerprint stamped into
    /// persisted entries.
    std::string model_version;
    unsigned threads = 0;
};

[[nodiscard]] JsonValue cache_stats_to_json(const explore::StudyCache::Stats& s);
[[nodiscard]] JsonValue failures_to_json(
    std::span<const explore::StudyFailure> failures);

/// `result_docs` entries are dumped Study API result envelopes —
/// explore::to_json(StudyResult) text for evaluated studies, a study
/// cache hit document, or the dispatcher's merged envelope — spliced
/// into the "results" array as they are.
[[nodiscard]] std::string encode_run_response(
    std::span<const std::string_view> result_docs,
    std::span<const explore::StudyFailure> failures, const RunMeta& meta,
    const Envelope& envelope = {});
/// The same response from parsed documents: dumps each and forwards.
[[nodiscard]] std::string encode_run_response(
    const JsonArray& result_docs,
    std::span<const explore::StudyFailure> failures, const RunMeta& meta,
    const Envelope& envelope = {});
[[nodiscard]] std::string encode_ok(Verb verb, const Envelope& envelope = {});
/// `graph` carries the lifetime sums of the study-compiler counters
/// (cell_refs / unique_cells / deduped_cells / spec_dedups) across every
/// run request served, `cells` the lifetime cell memo counters and
/// `model_version` the stamp persisted entries carry.
[[nodiscard]] std::string encode_stats_response(
    const explore::StudyCache::Stats& cache, const CellCounters& cells,
    std::uint64_t connections,
    std::uint64_t requests, std::uint64_t errors, std::uint64_t ledger_results,
    const explore::StudyGraphStats& graph, unsigned threads,
    const std::string& model_version, const Envelope& envelope = {});
[[nodiscard]] std::string encode_metrics_response(
    const MetricsSnapshot& metrics, const Envelope& envelope = {});
[[nodiscard]] std::string encode_health_response(
    bool accepting, std::uint64_t connections_live, std::uint64_t in_flight,
    const Envelope& envelope = {});
[[nodiscard]] std::string encode_error(const std::string& code,
                                       const std::string& message,
                                       const Envelope& envelope = {});

/// Client-side encoders (no trailing newline; the transport appends it).
[[nodiscard]] std::string encode_run_request(
    std::span<const explore::StudySpec> specs);
[[nodiscard]] std::string encode_verb_request(Verb verb);

}  // namespace chiplet::serve

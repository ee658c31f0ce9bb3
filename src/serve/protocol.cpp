#include "serve/protocol.h"

#include <array>
#include <utility>

#include "explore/study_json.h"
#include "util/error.h"

namespace chiplet::serve {

namespace {

constexpr const char* kVerbNames[] = {"run",     "ping",   "stats",
                                      "metrics", "health", "shutdown"};

std::string verb_choices() {
    std::string out;
    for (const char* name : kVerbNames) {
        if (!out.empty()) out += ", ";
        out += name;
    }
    return out;
}

JsonValue failure_to_json(const explore::StudyFailure& f) {
    JsonValue v = JsonValue::object();
    v.set("index", static_cast<double>(f.index));
    v.set("name", f.name);
    v.set("stage", f.stage);
    v.set("message", f.message);
    return v;
}

/// Response root with the request's envelope applied: v1 responses open
/// with {"v":1,"id":<echoed>,...}; a v0 envelope adds nothing, keeping
/// those responses byte-identical to the unversioned protocol.
JsonValue response_root(const Envelope& envelope) {
    JsonValue v = JsonValue::object();
    if (envelope.version >= 1) {
        v.set("v", envelope.version);
        if (envelope.has_id) v.set("id", envelope.id);
    }
    return v;
}

/// hits / (hits + misses), 0 before the first probe.
double hit_rate(std::uint64_t hits, std::uint64_t misses) {
    const double probes =
        static_cast<double>(hits) + static_cast<double>(misses);
    return probes > 0.0 ? static_cast<double>(hits) / probes : 0.0;
}

}  // namespace

std::string to_string(Verb verb) {
    return kVerbNames[static_cast<std::size_t>(verb)];
}

Request parse_request(const std::string& line, Envelope* envelope_out) {
    // Canonical heartbeat frames skip the JSON parser entirely: both the
    // client library and the bench emit exactly these bytes, and under a
    // pipelined burst the parse is the dominant per-frame cost.
    if (line == R"({"op":"ping"})" || line == R"({"verb":"ping"})") {
        Request request;
        request.verb = Verb::ping;
        if (envelope_out) *envelope_out = request.envelope;
        return request;
    }
    const JsonValue doc = JsonValue::parse(line);  // throws ParseError
    if (!doc.is_object()) {
        throw ParseError("request: expected a JSON object, got " +
                         std::string(type_name(doc.type())));
    }
    Request request;
    // Envelope first — and publish it before any verb validation, so an
    // error response to a malformed v1 frame can still echo the id.
    if (doc.contains("v")) {
        const JsonValue& v = doc.at("v");
        if (!v.is_number() ||
            v.as_number() != static_cast<double>(kProtocolVersion)) {
            throw ParseError("request: unsupported protocol version (this "
                             "server speaks v" +
                             std::to_string(kProtocolVersion) +
                             " and unversioned v0 frames)");
        }
        request.envelope.version = kProtocolVersion;
    }
    if (doc.contains("id")) {
        request.envelope.has_id = true;
        request.envelope.id = doc.at("id");
    }
    if (envelope_out) *envelope_out = request.envelope;

    // "verb" is the v1 spelling, "op" the v0 one; either works at
    // either version.
    const char* verb_key =
        doc.contains("verb") ? "verb" : (doc.contains("op") ? "op" : nullptr);
    if (verb_key) {
        const JsonValue& op = doc.at(verb_key);
        if (!op.is_string()) {
            throw ParseError("request: key '" + std::string(verb_key) +
                             "': expected string, got " +
                             std::string(type_name(op.type())));
        }
        const std::string& name = op.as_string();
        bool known = false;
        for (std::size_t i = 0; i < std::size(kVerbNames); ++i) {
            if (name == kVerbNames[i]) {
                request.verb = static_cast<Verb>(i);
                known = true;
                break;
            }
        }
        if (!known) {
            throw ParseError("request: unknown " + std::string(verb_key) +
                             " '" + name + "' (expected one of: " +
                             verb_choices() + ")");
        }
    }
    if (request.verb != Verb::run) return request;
    if (!doc.contains("studies")) {
        throw ParseError(
            "request: expected a 'studies' array or a verb (one of: " +
            verb_choices() + ")");
    }
    // The request body is the studies-file document shape, so the
    // collecting loader applies directly; bad entries become per-study
    // failures instead of failing the frame.
    request.studies = explore::studies_from_json_collecting(
        doc, "request", request.bad_studies, &request.study_indices);
    return request;
}

JsonValue cache_stats_to_json(const explore::StudyCache::Stats& s) {
    JsonValue v = JsonValue::object();
    v.set("hits", static_cast<double>(s.hits));
    v.set("misses", static_cast<double>(s.misses));
    v.set("collisions", static_cast<double>(s.collisions));
    v.set("insertions", static_cast<double>(s.insertions));
    v.set("evictions", static_cast<double>(s.evictions));
    v.set("rejected", static_cast<double>(s.rejected));
    v.set("entries", static_cast<double>(s.entries));
    v.set("bytes", static_cast<double>(s.bytes));
    v.set("hit_rate", hit_rate(s.hits, s.misses));
    return v;
}

namespace {

JsonValue graph_stats_to_json(const explore::StudyGraphStats& g) {
    JsonValue v = JsonValue::object();
    v.set("spec_dedups", static_cast<double>(g.spec_dedups));
    v.set("cell_refs", static_cast<double>(g.cell_refs));
    v.set("unique_cells", static_cast<double>(g.unique_cells));
    v.set("deduped_cells", static_cast<double>(g.deduped_cells));
    v.set("dedup_ratio", g.dedup_ratio());
    return v;
}

JsonValue cell_counters_to_json(const CellCounters& c) {
    JsonValue v = JsonValue::object();
    v.set("hits", static_cast<double>(c.hits));
    v.set("misses", static_cast<double>(c.misses));
    v.set("hit_rate", hit_rate(c.hits, c.misses));
    return v;
}

}  // namespace

JsonValue failures_to_json(std::span<const explore::StudyFailure> failures) {
    JsonValue v = JsonValue::array();
    for (const explore::StudyFailure& f : failures) {
        v.push_back(failure_to_json(f));
    }
    return v;
}

std::string encode_run_response(std::span<const std::string_view> result_docs,
                                std::span<const explore::StudyFailure> failures,
                                const RunMeta& meta, const Envelope& envelope) {
    JsonValue meta_json = JsonValue::object();
    meta_json.set("cache", cache_stats_to_json(meta.cache));
    meta_json.set("threads", meta.threads);
    meta_json.set("wall_ms", meta.wall_ms);
    meta_json.set("served_from_cache",
                  static_cast<double>(meta.served_from_cache));
    meta_json.set("with_ledgers", static_cast<double>(meta.with_ledgers));
    meta_json.set("dispatched", static_cast<double>(meta.dispatched));
    meta_json.set("graph", graph_stats_to_json(meta.graph));
    const std::string failures_text = failures_to_json(failures).dump();
    const std::string meta_text = meta_json.dump();

    // The compact dump of {<envelope>,"results":[...],"failures":...,
    // "meta":...}, assembled around the documents instead of re-dumping
    // them.
    std::string out = response_root(envelope).dump();
    out.pop_back();
    if (out.size() > 1) out.push_back(',');
    std::size_t size = out.size() + failures_text.size() + meta_text.size() + 40;
    for (const std::string_view doc : result_docs) size += doc.size() + 1;
    out.reserve(size);
    out += "\"results\":[";
    for (std::size_t i = 0; i < result_docs.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += result_docs[i];
    }
    out += "],\"failures\":";
    out += failures_text;
    out += ",\"meta\":";
    out += meta_text;
    out.push_back('}');
    return out;
}

std::string encode_run_response(const JsonArray& result_docs,
                                std::span<const explore::StudyFailure> failures,
                                const RunMeta& meta, const Envelope& envelope) {
    std::vector<std::string> texts;
    texts.reserve(result_docs.size());
    for (const JsonValue& doc : result_docs) texts.push_back(doc.dump());
    const std::vector<std::string_view> views(texts.begin(), texts.end());
    return encode_run_response(views, failures, meta, envelope);
}

std::string encode_ok(Verb verb, const Envelope& envelope) {
    if (envelope.version == 0 && !envelope.has_id) {
        // v0 acks carry no envelope state, so the bytes per verb never
        // change — memoise them once instead of re-encoding per frame.
        static const std::array<std::string, std::size(kVerbNames)> cached =
            [] {
                std::array<std::string, std::size(kVerbNames)> out;
                for (std::size_t i = 0; i < out.size(); ++i) {
                    JsonValue v = JsonValue::object();
                    v.set("op", kVerbNames[i]);
                    v.set("ok", true);
                    out[i] = v.dump();
                }
                return out;
            }();
        return cached[static_cast<std::size_t>(verb)];
    }
    JsonValue v = response_root(envelope);
    v.set("op", to_string(verb));
    v.set("ok", true);
    return v.dump();
}

std::string encode_stats_response(const explore::StudyCache::Stats& cache,
                                  const CellCounters& cells,
                                  std::uint64_t connections,
                                  std::uint64_t requests, std::uint64_t errors,
                                  std::uint64_t ledger_results,
                                  const explore::StudyGraphStats& graph,
                                  unsigned threads,
                                  const std::string& model_version,
                                  const Envelope& envelope) {
    JsonValue server = JsonValue::object();
    server.set("connections", static_cast<double>(connections));
    server.set("requests", static_cast<double>(requests));
    server.set("errors", static_cast<double>(errors));
    server.set("ledger_results", static_cast<double>(ledger_results));

    JsonValue v = response_root(envelope);
    v.set("op", to_string(Verb::stats));
    v.set("ok", true);
    v.set("cache", cache_stats_to_json(cache));
    v.set("cells", cell_counters_to_json(cells));
    v.set("server", std::move(server));
    v.set("graph", graph_stats_to_json(graph));
    v.set("model_version", model_version);
    v.set("threads", threads);
    return v.dump();
}

std::string encode_metrics_response(const MetricsSnapshot& metrics,
                                    const Envelope& envelope) {
    JsonValue server = JsonValue::object();
    server.set("connections", static_cast<double>(metrics.connections));
    server.set("requests", static_cast<double>(metrics.requests));
    server.set("errors", static_cast<double>(metrics.errors));
    server.set("ledger_results", static_cast<double>(metrics.ledger_results));
    server.set("dispatched", static_cast<double>(metrics.dispatched));
    server.set("inline_runs", static_cast<double>(metrics.inline_runs));

    JsonValue loop = JsonValue::object();
    loop.set("connections_live",
             static_cast<double>(metrics.connections_live));
    loop.set("in_flight", static_cast<double>(metrics.in_flight));
    loop.set("queued_frames", static_cast<double>(metrics.queued_frames));
    loop.set("output_queue_bytes",
             static_cast<double>(metrics.output_queue_bytes));
    loop.set("peak_output_queue_bytes",
             static_cast<double>(metrics.peak_output_queue_bytes));
    loop.set("backpressure_stalls",
             static_cast<double>(metrics.backpressure_stalls));
    loop.set("idle_disconnects",
             static_cast<double>(metrics.idle_disconnects));
    loop.set("pipelined_frames",
             static_cast<double>(metrics.pipelined_frames));

    // Lifetime study-compiler counters; the same shape as the per-batch
    // "graph" object of run responses.
    explore::StudyGraphStats graph;
    graph.spec_dedups = metrics.graph_spec_dedups;
    graph.cell_refs = metrics.graph_cell_refs;
    graph.unique_cells = metrics.graph_unique_cells;
    graph.deduped_cells = metrics.graph_deduped_cells;

    JsonValue disk = JsonValue::object();
    disk.set("persistent", metrics.persistent);
    disk.set("loaded", static_cast<double>(metrics.disk.loaded));
    disk.set("stale", static_cast<double>(metrics.disk.stale));
    disk.set("corrupt", static_cast<double>(metrics.disk.corrupt));
    disk.set("writes", static_cast<double>(metrics.disk.writes));
    disk.set("write_failures",
             static_cast<double>(metrics.disk.write_failures));

    JsonValue v = response_root(envelope);
    v.set("op", to_string(Verb::metrics));
    v.set("ok", true);
    v.set("server", std::move(server));
    v.set("loop", std::move(loop));
    v.set("graph", graph_stats_to_json(graph));
    v.set("cache", cache_stats_to_json(metrics.cache));
    v.set("cells", cell_counters_to_json(metrics.cells));
    v.set("disk", std::move(disk));
    v.set("model_version", metrics.model_version);
    v.set("threads", metrics.threads);
    return v.dump();
}

std::string encode_health_response(bool accepting,
                                   std::uint64_t connections_live,
                                   std::uint64_t in_flight,
                                   const Envelope& envelope) {
    JsonValue v = response_root(envelope);
    v.set("op", to_string(Verb::health));
    v.set("ok", true);
    v.set("status", accepting ? "serving" : "draining");
    v.set("connections", static_cast<double>(connections_live));
    v.set("in_flight", static_cast<double>(in_flight));
    return v.dump();
}

std::string encode_error(const std::string& code, const std::string& message,
                         const Envelope& envelope) {
    JsonValue error = JsonValue::object();
    error.set("code", code);
    error.set("message", message);
    JsonValue v = response_root(envelope);
    v.set("error", std::move(error));
    return v.dump();
}

std::string encode_run_request(std::span<const explore::StudySpec> specs) {
    return explore::studies_to_json(specs).dump();
}

std::string encode_verb_request(Verb verb) {
    JsonValue v = JsonValue::object();
    v.set("op", to_string(verb));
    return v.dump();
}

}  // namespace chiplet::serve

#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/version.h"
#include "explore/spec_hash.h"
#include "explore/study_json.h"
#include "serve/dispatcher.h"
#include "serve/event_loop.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace chiplet::serve {

struct StudyServer::Impl {
    const core::ChipletActuary& actuary;
    ServerConfig config;
    /// Fingerprint of this server's actual model (equations + schema +
    /// its actuary's tech library); stamps persisted entries and the
    /// "model_version" surfaced by stats/metrics.
    std::uint64_t fingerprint = 0;
    std::string model_version;
    // Declared before `cache` so the attached store outlives it.
    std::optional<explore::StudyCacheStore> store;
    explore::StudyCache cache;
    std::optional<Dispatcher> dispatcher;

    // Protocol-level counters.
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> ledger_results{0};
    std::atomic<std::uint64_t> dispatched{0};
    std::atomic<std::uint64_t> inline_runs{0};
    // Lifetime study-compiler counters, summed over every locally
    // evaluated run batch (explore/study_graph.h).
    std::atomic<std::uint64_t> graph_spec_dedups{0};
    std::atomic<std::uint64_t> graph_cell_refs{0};
    std::atomic<std::uint64_t> graph_unique_cells{0};
    std::atomic<std::uint64_t> graph_deduped_cells{0};
    // Lifetime sums of every served result's cell memo counters.
    std::atomic<std::uint64_t> cell_hits{0};
    std::atomic<std::uint64_t> cell_misses{0};

    mutable std::mutex mutex;
    std::condition_variable shutdown_cv;
    bool running = false;
    bool shutdown_requested = false;
    unsigned short port = 0;
    std::unique_ptr<EventLoop> loop;

    explicit Impl(const core::ChipletActuary& a, ServerConfig c)
        : actuary(a),
          config(std::move(c)),
          fingerprint(core::model_fingerprint(a)),
          model_version(core::model_version_string(fingerprint)),
          cache(explore::StudyCache::Config{config.cache_bytes,
                                            config.cache_shards, 64}) {
        if (!config.dispatch.empty()) {
            dispatcher.emplace(Dispatcher::Config{
                parse_worker_list(config.dispatch)});
        }
        if (!config.cache_dir.empty()) {
            // Load first, attach second: replaying persisted entries
            // through StudyCache::insert must not rewrite their files.
            store.emplace(explore::StudyCacheStore::Config{config.cache_dir,
                                                           fingerprint});
            store->load_into(cache);
            cache.attach_store(&*store);
        }
    }

    // Shared protocol logic ------------------------------------------------
    [[nodiscard]] std::uint64_t total_connections() const;
    [[nodiscard]] std::string oversized_error();
    [[nodiscard]] std::string stats_response(const Envelope& envelope);
    [[nodiscard]] MetricsSnapshot metrics_snapshot() const;
    [[nodiscard]] std::string health_response(const Envelope& envelope);
    /// A run request after the loop thread's cache probe; slot i of
    /// each vector belongs to request.studies[i].
    struct ProbedRun {
        Request request;
        /// Canonical spec and its hash; empty for dispatcher-routed
        /// studies, which are never cached.
        std::vector<std::string> canonicals;
        std::vector<std::uint64_t> hashes;
        /// The cache's hit document, null for a study to evaluate.
        std::vector<std::shared_ptr<const explore::StudyCache::HitDocument>>
            hits;
        std::size_t misses = 0;
    };
    /// Canonicalises every study once, hashes it and probes the cache.
    [[nodiscard]] ProbedRun probe(Request request);
    [[nodiscard]] std::string run_response(ProbedRun& run);
    [[nodiscard]] FrameAction on_frame(std::string&& line);
    void announce_shutdown_now();
    [[nodiscard]] bool accepting() const;
    [[nodiscard]] CellCounters cell_counters() const {
        return {cell_hits.load(), cell_misses.load()};
    }
};

// The event loop owns the lifetime accept counter while it exists; it
// is folded into the atomic when stop() retires the loop, so the total
// survives restarts.
std::uint64_t StudyServer::Impl::total_connections() const {
    std::lock_guard<std::mutex> lock(mutex);
    return connections.load() +
           (loop ? loop->counters().connections.load() : 0);
}

std::string StudyServer::Impl::oversized_error() {
    ++errors;
    return encode_error("oversized",
                        "request line exceeds " +
                            std::to_string(config.max_line_bytes) + " bytes");
}

bool StudyServer::Impl::accepting() const {
    std::lock_guard<std::mutex> lock(mutex);
    return loop && loop->accepting();
}

std::string StudyServer::Impl::stats_response(const Envelope& envelope) {
    explore::StudyGraphStats graph;
    graph.spec_dedups = graph_spec_dedups.load();
    graph.cell_refs = graph_cell_refs.load();
    graph.unique_cells = graph_unique_cells.load();
    graph.deduped_cells = graph_deduped_cells.load();
    return encode_stats_response(cache.stats(), cell_counters(),
                                 total_connections(), requests.load(),
                                 errors.load(), ledger_results.load(), graph,
                                 util::ThreadPool::global().size(),
                                 model_version, envelope);
}

MetricsSnapshot StudyServer::Impl::metrics_snapshot() const {
    MetricsSnapshot m;
    m.requests = requests.load();
    m.errors = errors.load();
    m.ledger_results = ledger_results.load();
    m.dispatched = dispatched.load();
    m.inline_runs = inline_runs.load();
    m.graph_spec_dedups = graph_spec_dedups.load();
    m.graph_cell_refs = graph_cell_refs.load();
    m.graph_unique_cells = graph_unique_cells.load();
    m.graph_deduped_cells = graph_deduped_cells.load();
    m.cells = cell_counters();
    m.persistent = store.has_value();
    if (store) m.disk = store->stats();
    m.model_version = model_version;
    {
        std::lock_guard<std::mutex> lock(mutex);
        m.connections = connections.load();
        if (loop) {
            const LoopCounters& c = loop->counters();
            m.connections += c.connections.load();
            m.connections_live = c.connections_live.load();
            m.in_flight = c.in_flight.load();
            m.queued_frames = c.queued_frames.load();
            m.output_queue_bytes = c.output_queue_bytes.load();
            m.peak_output_queue_bytes = c.peak_output_queue_bytes.load();
            m.backpressure_stalls = c.backpressure_stalls.load();
            m.idle_disconnects = c.idle_disconnects.load();
            m.pipelined_frames = c.pipelined_frames.load();
        }
    }
    m.cache = cache.stats();
    m.threads = util::ThreadPool::global().size();
    return m;
}

std::string StudyServer::Impl::health_response(const Envelope& envelope) {
    std::uint64_t live = 0;
    std::uint64_t in_flight = 0;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (loop) {
            live = loop->counters().connections_live.load();
            in_flight = loop->counters().in_flight.load();
        }
    }
    return encode_health_response(accepting(), live, in_flight, envelope);
}

void StudyServer::Impl::announce_shutdown_now() {
    std::lock_guard<std::mutex> lock(mutex);
    shutdown_requested = true;
    shutdown_cv.notify_all();
}

StudyServer::Impl::ProbedRun StudyServer::Impl::probe(Request request) {
    ProbedRun run;
    const std::size_t n = request.studies.size();
    run.canonicals.resize(n);
    run.hashes.resize(n);
    run.hits.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const explore::StudySpec& spec = request.studies[i];
        if (dispatcher && Dispatcher::can_shard(spec)) {
            ++run.misses;  // sharded to workers, never cached
            continue;
        }
        run.canonicals[i] = explore::canonical_spec_json(spec);
        run.hashes[i] = explore::fnv1a64(run.canonicals[i]);
        run.hits[i] = cache.lookup_document(run.canonicals[i], run.hashes[i]);
        if (!run.hits[i]) ++run.misses;
    }
    run.request = std::move(request);
    return run;
}

/// Answers one probed run request: serves the hits' stored documents,
/// evaluates the misses and encodes the response.  Runs inline on the
/// loop thread when nothing missed, on an executor thread otherwise;
/// must never throw — a serving process answers rather than dies.
std::string StudyServer::Impl::run_response(ProbedRun& run) {
    using Clock = std::chrono::steady_clock;
    Request& request = run.request;
    const Envelope envelope = request.envelope;
    try {
        const auto start = Clock::now();
        const std::size_t n = request.studies.size();
        RunMeta meta;
        std::uint64_t with_ledgers = 0;
        for (const auto& hit : run.hits) {
            if (!hit) continue;
            ++meta.served_from_cache;
            cell_hits += hit->cell_hits;
            cell_misses += hit->cell_misses;
            if (hit->with_ledgers) ++with_ledgers;
        }

        // Partition the misses: studies the dispatcher shards across
        // workers, design_space studies run one by one, and everything
        // else evaluated in-process as one compiled batch.  Positions
        // are indices into request.studies, remapped to document
        // positions via study_indices at the end.
        std::vector<explore::StudySpec> local_specs;
        std::vector<std::string> local_canonicals;
        std::vector<std::size_t> local_positions;
        std::vector<std::size_t> shard_positions;
        std::vector<std::size_t> search_positions;
        for (std::size_t i = 0; i < n; ++i) {
            if (run.hits[i]) continue;
            const explore::StudySpec& spec = request.studies[i];
            if (dispatcher && Dispatcher::can_shard(spec)) {
                shard_positions.push_back(i);
            } else if (spec.kind() == explore::StudyKind::design_space) {
                search_positions.push_back(i);
            } else {
                local_positions.push_back(i);
                local_specs.push_back(spec);
                local_canonicals.push_back(run.canonicals[i]);
            }
        }

        // Documents of the studies evaluated here, by position.  Each
        // result is serialised once: the response and the cache's hit
        // document splice their own meta into the same text.
        std::vector<std::string> texts(n);
        const auto serve_evaluated = [&](const explore::StudyResult& r,
                                         std::size_t i) {
            cell_hits += r.run.cell_hits;
            cell_misses += r.run.cell_misses;
            if (r.run.with_ledgers) ++with_ledgers;
            const explore::ResultText text = explore::result_text(r);
            texts[i] = explore::result_document(text, r.run);
            // An in-frame duplicate copies a result that is being
            // inserted under the same canonical already.
            if (!r.run.from_batch_dedup) {
                cache.insert(run.canonicals[i], run.hashes[i], r, text);
            }
        };

        std::vector<explore::StudyFailure> run_failures;
        if (!local_specs.empty()) {
            explore::StudyBatchOutcome outcome =
                explore::run_studies_collecting(actuary, local_specs,
                                                local_canonicals);
            meta.graph = outcome.graph;
            graph_spec_dedups += outcome.graph.spec_dedups;
            graph_cell_refs += outcome.graph.cell_refs;
            graph_unique_cells += outcome.graph.unique_cells;
            graph_deduped_cells += outcome.graph.deduped_cells;
            for (std::size_t k = 0; k < outcome.results.size(); ++k) {
                serve_evaluated(outcome.results[k],
                                local_positions[outcome.indices[k]]);
            }
            for (explore::StudyFailure& f : outcome.failures) {
                f.index = local_positions[f.index];
                run_failures.push_back(std::move(f));
            }
        }

        // A design_space study skips the batch compiler.  The cell memo
        // the compiler attaches keeps explore_design_space on its
        // reference scan, 7-10x slower than the kernel path, and every
        // later request on the connection waits for this one's answer.
        for (const std::size_t i : search_positions) {
            const explore::StudySpec& spec = request.studies[i];
            try {
                serve_evaluated(explore::run_study(actuary, spec), i);
            } catch (const ParseError& e) {
                run_failures.push_back(
                    explore::StudyFailure{i, spec.name, "parse", e.what()});
            } catch (const Error& e) {
                run_failures.push_back(
                    explore::StudyFailure{i, spec.name, "model", e.what()});
            }
        }

        for (const std::size_t i : shard_positions) {
            try {
                texts[i] =
                    dispatcher->run_sharded(actuary, request.studies[i]).dump();
                ++meta.dispatched;
                ++dispatched;
            } catch (const std::exception& e) {
                run_failures.push_back(explore::StudyFailure{
                    i, request.studies[i].name, "dispatch", e.what()});
            }
        }

        const std::vector<explore::StudyFailure> failures =
            explore::merge_failures(std::move(request.bad_studies),
                                    std::move(run_failures),
                                    request.study_indices);

        // Results stream out in batch order; failed positions hold
        // neither a hit nor a text.
        std::vector<std::string_view> docs;
        docs.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (run.hits[i]) {
                docs.emplace_back(run.hits[i]->json);
            } else if (!texts[i].empty()) {
                docs.emplace_back(texts[i]);
            }
        }

        meta.cache = cache.stats();
        meta.threads = util::ThreadPool::global().size();
        meta.wall_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
        meta.with_ledgers = with_ledgers;
        // Per-study failures ride inside a *successful* run response, so
        // they do not count toward `errors` (documented as error
        // responses sent).
        ++requests;
        ledger_results += with_ledgers;
        return encode_run_response(docs, failures, meta, envelope);
    } catch (const ParseError& e) {
        ++errors;
        return encode_error("parse", e.what(), envelope);
    } catch (const Error& e) {
        ++errors;
        return encode_error("model", e.what(), envelope);
    } catch (const std::exception& e) {
        ++errors;
        return encode_error("internal", e.what(), envelope);
    }
}

/// Event-loop frame handler: cheap verbs answer inline on the loop
/// thread, and so do run requests whose studies all hit the cache — the
/// answer is a splice of stored bytes, cheaper than an executor hop.
/// Other run requests become executor jobs that evaluate only their
/// misses.  Parsing and the cache probe happen here — parsing bounded
/// by max_line_bytes — so a malformed frame answers without an executor
/// round trip.
FrameAction StudyServer::Impl::on_frame(std::string&& line) {
    FrameAction action;
    Envelope envelope;
    try {
        Request request = parse_request(line, &envelope);
        switch (request.verb) {
            case Verb::ping:
                action.response = encode_ok(Verb::ping, envelope);
                break;
            case Verb::stats:
                action.response = stats_response(envelope);
                break;
            case Verb::metrics:
                action.response =
                    encode_metrics_response(metrics_snapshot(), envelope);
                break;
            case Verb::health:
                action.response = health_response(envelope);
                break;
            case Verb::shutdown:
                action.response = encode_ok(Verb::shutdown, envelope);
                action.close_after = true;
                action.announce_shutdown = true;
                break;
            case Verb::run: {
                auto run = std::make_shared<ProbedRun>(probe(std::move(request)));
                if (run->misses == 0) {
                    ++inline_runs;
                    action.response = run_response(*run);
                } else {
                    action.job = [this, run] { return run_response(*run); };
                }
                break;
            }
        }
    } catch (const ParseError& e) {
        ++errors;
        action.response = encode_error("parse", e.what(), envelope);
    } catch (const Error& e) {
        ++errors;
        action.response = encode_error("model", e.what(), envelope);
    } catch (const std::exception& e) {
        ++errors;
        action.response = encode_error("internal", e.what(), envelope);
    }
    return action;
}

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

StudyServer::StudyServer(const core::ChipletActuary& actuary,
                         ServerConfig config)
    : impl_(new Impl(actuary, std::move(config))) {}

StudyServer::~StudyServer() {
    stop();
    delete impl_;
}

void StudyServer::start() {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->running) return;

    EventLoopConfig loop_config;
    loop_config.port = impl_->config.port;
    loop_config.backlog = impl_->config.backlog;
    loop_config.max_line_bytes = impl_->config.max_line_bytes;
    loop_config.max_output_bytes = impl_->config.max_output_bytes;
    loop_config.idle_timeout_ms = impl_->config.idle_timeout_ms;
    loop_config.workers = impl_->config.eval_workers;

    auto loop = std::make_unique<EventLoop>(
        loop_config,
        [impl = impl_](std::string&& line) {
            return impl->on_frame(std::move(line));
        },
        [impl = impl_](bool) { return impl->oversized_error(); },
        [impl = impl_] { impl->announce_shutdown_now(); });
    loop->start();  // throws on bind failure; nothing to roll back

    impl_->loop = std::move(loop);
    impl_->port = impl_->loop->port();
    impl_->running = true;
    impl_->shutdown_requested = false;
}

void StudyServer::stop() {
    std::unique_ptr<EventLoop> loop;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        if (!impl_->running && !impl_->loop) return;
        impl_->running = false;
        impl_->shutdown_requested = true;
        impl_->shutdown_cv.notify_all();
        if (impl_->loop) {
            // Fold the loop's lifetime accept counter into the atomic
            // before the loop object is retired, so the total survives.
            impl_->connections += impl_->loop->counters().connections.load();
            loop = std::move(impl_->loop);
        }
    }
    if (loop) loop->stop();
}

void StudyServer::wait() {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->shutdown_cv.wait(lock, [this] {
        return impl_->shutdown_requested || !impl_->running;
    });
}

bool StudyServer::running() const {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->running;
}

unsigned short StudyServer::port() const {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->port;
}

explore::StudyCache& StudyServer::cache() { return impl_->cache; }

StudyServer::Stats StudyServer::stats() const {
    return Stats{impl_->total_connections(), impl_->requests.load(),
                 impl_->errors.load(), impl_->ledger_results.load(),
                 impl_->dispatched.load(), impl_->inline_runs.load()};
}

MetricsSnapshot StudyServer::metrics() const {
    return impl_->metrics_snapshot();
}

}  // namespace chiplet::serve

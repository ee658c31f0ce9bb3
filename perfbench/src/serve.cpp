// The served workloads, against an in-process actuaryd driven only with
// real v1 frames over loopback:
//  - serve_warm: every request is a cache hit; a 1x1 closed loop gives
//    latency, a 4-connection x 16-deep pipelined closed loop throughput;
//  - serve_mixed: an open loop at a fixed offered rate mixing hits,
//    small cold specs, medium and heavy ones against a cache below the
//    working set with a fresh cache_dir, timed from each request's due
//    time.
// Every response is checked by fingerprint against
// to_json(run_study(spec)) with "meta" cut out.
#include <atomic>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "core/actuary.h"
#include "explore/spec_hash.h"
#include "explore/study.h"
#include "explore/study_cache.h"
#include "explore/study_json.h"
#include "gen.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

using chiplet::JsonArray;
using chiplet::JsonValue;
namespace core = chiplet::core;
namespace explore = chiplet::explore;
namespace serve = chiplet::serve;

namespace {

/// Offered rate of serve_mixed, requests per second: about a third of the
/// capacity of the mix (about 490 req/s when overloaded on a 4-core host)
/// at the commit that introduced this benchmark.  At half capacity the
/// p90 sat on the edge of queueing behind heavy requests and moved 18%
/// between seeds, and a host running at half speed was overloaded; see
/// perfbench/README.md.
constexpr double kMixedRate = 160.0;
constexpr int kMixedConnections = 4;
/// serve_mixed server cache: below the working set, so cold inserts
/// evict and write through to disk beside the hits.  Its whole-result
/// share (3/4, over 8 shards: 96 KiB a shard) holds the 32-entry hot set
/// (about 4 KiB an entry) however the seed hashes it, so a restart finds
/// all of it; at 256 KiB some seeds' hot entries overflowed a shard and
/// set-up time doubled.
constexpr std::size_t kMixedCacheBytes = 1u << 20;
constexpr unsigned kReadTimeoutS = 60;

struct Spec {
    std::string text;  ///< one "studies" entry, as sent
    explore::StudySpec spec;
    gen::Weight weight = gen::Weight::light;
    bool hot = false;  ///< pre-populated
    std::uint64_t expected = 0;  ///< reference fingerprint, 0 = not yet
};

Spec make_spec(const JsonValue& doc, gen::Weight weight, bool hot) {
    Spec s;
    s.text = doc.dump();
    s.spec = explore::study_spec_from_json(doc);
    s.weight = weight;
    s.hot = hot;
    return s;
}

std::string run_frame(std::uint64_t id, const std::string& spec_text) {
    return "{\"v\":1,\"id\":" + std::to_string(id) +
           ",\"verb\":\"run\",\"studies\":[" + spec_text + "]}";
}

/// Fingerprint of the response a correct server sends for `spec`.
std::uint64_t reference_fingerprint(const core::ChipletActuary& actuary,
                                    const explore::StudySpec& spec) {
    const JsonArray docs{explore::to_json(explore::run_study(actuary, spec))};
    return result_fingerprint(serve::encode_run_response(docs, {}, serve::RunMeta{}));
}

/// The response's top-level meta.wall_ms (the server's own time for the
/// request), or 0 when absent.
double wall_ms_of(const std::string& response) {
    const std::size_t at = response.rfind("\"wall_ms\":");
    return at == std::string::npos
               ? 0.0
               : std::strtod(response.c_str() + at + 10, nullptr);
}

/// A running in-process actuaryd plus the actuary it prices with.
struct Server {
    std::unique_ptr<core::ChipletActuary> actuary;
    std::unique_ptr<serve::StudyServer> server;
    std::uint64_t next_id = 1u << 30;  ///< ids of set-up traffic

    [[nodiscard]] unsigned short port() const { return server->port(); }

    /// The server goes first: it prices with the actuary.
    void stop() {
        server.reset();
        actuary.reset();
    }
};

/// Set-up: actuary, server start, and every hot spec sent once so the
/// timed traffic finds it cached.  Returns the pre-population responses,
/// checked once references exist.
std::vector<std::string> start_server(Server& s, serve::ServerConfig config,
                                      const std::vector<Spec>& specs) {
    s.actuary = std::make_unique<core::ChipletActuary>();
    s.server = std::make_unique<serve::StudyServer>(*s.actuary, std::move(config));
    s.server->start();
    serve::StudyClient client("127.0.0.1", s.port(), kReadTimeoutS);
    std::vector<std::string> responses(specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
        if (!specs[k].hot) continue;
        client.send_line(run_frame(s.next_id++, specs[k].text));
        responses[k] = client.read_line();
    }
    return responses;
}

/// Fills Spec::expected for every spec lacking it.
void compute_references(const core::ChipletActuary& actuary, std::vector<Spec>& specs,
                        Report& report) {
    for (Spec& s : specs) {
        if (s.expected != 0) continue;
        try {
            s.expected = reference_fingerprint(actuary, s.spec);
        } catch (const std::exception& e) {
            report.fail(s.spec.name + ": run_study failed: " + e.what());
        }
    }
}

/// Checks the pre-population responses and hands their cold-evaluation
/// compiler counts (meta.graph cell_refs and unique_cells, fixed by the
/// spec) to the cross-run drift check.
void check_prepopulation(const Settings& settings, const std::string& counts_key,
                         const std::vector<Spec>& specs,
                         const std::vector<std::string>& responses, Report& report) {
    std::vector<std::vector<std::uint64_t>> counts;
    for (std::size_t k = 0; k < specs.size(); ++k) {
        if (!specs[k].hot) continue;
        if (result_fingerprint(responses[k]) != specs[k].expected) {
            report.fail(specs[k].spec.name + ": pre-population response is wrong");
            continue;
        }
        const JsonValue graph = JsonValue::parse(responses[k]).at("meta").at("graph");
        counts.push_back({static_cast<std::uint64_t>(graph.at("cell_refs").as_number()),
                          static_cast<std::uint64_t>(graph.at("unique_cells").as_number())});
    }
    check_count_drift(settings, counts_key, counts, report);
}

/// One exchange of the 1x1 closed loop, kept for stage replay.
struct Exchange {
    std::size_t spec = 0;
    std::string frame;
    std::string response;
};

struct ClosedLoop {
    std::vector<double> rtt_ms;
    std::vector<double> queue_wait_ms;  ///< RTT minus the server's wall_ms
    std::vector<double> prepare_ms;
    std::vector<Exchange> samples;
};

/// One connection, depth 1: each request is sent when the previous
/// answer arrived.  Requests pick uniformly among `pool` (indices into
/// specs) from the seed's stream `stream`.  Runs for `seconds` or
/// `max_requests`, whichever ends first.
ClosedLoop closed_loop_1x1(unsigned short port, const std::vector<Spec>& specs,
                           const std::vector<std::size_t>& pool, std::uint64_t seed,
                           std::uint64_t stream, double seconds,
                           std::size_t max_requests, SpanSink* sink,
                           std::size_t keep_samples, Report& report) {
    ClosedLoop out;
    serve::StudyClient client("127.0.0.1", port, kReadTimeoutS);
    Rng rng(derive(seed, stream));
    const auto begin = Clock::now();
    for (std::size_t n = 0; n < max_requests && seconds_between(begin, Clock::now()) < seconds;
         ++n) {
        const auto prepare = Clock::now();
        const std::size_t k = pool[rng.below(pool.size())];
        const std::uint64_t id = stream * 1000000 + n;
        std::string frame = run_frame(id, specs[k].text);
        ++report.attempted;
        std::string response;
        const auto start = Clock::now();
        try {
            client.send_line(frame);
            response = client.read_line();
        } catch (const std::exception& e) {
            report.fail(std::string("closed loop: ") + e.what());
            return out;
        }
        const auto end = Clock::now();
        if (sink != nullptr) sink->record("serve.rtt", start, end, id);
        out.prepare_ms.push_back(ms_between(prepare, start));
        out.rtt_ms.push_back(ms_between(start, end));
        out.queue_wait_ms.push_back(ms_between(start, end) - wall_ms_of(response));
        if (result_fingerprint(response) != specs[k].expected) {
            report.fail(specs[k].spec.name + ": served response differs from run_study");
        }
        if (out.samples.size() < keep_samples) {
            out.samples.push_back(Exchange{k, std::move(frame), std::move(response)});
        }
    }
    return out;
}

/// Ping round trips at 1x1: the transport floor under a run request.
void ping_floor(unsigned short port, SpanSink* sink, Report& report) {
    serve::StudyClient client("127.0.0.1", port, kReadTimeoutS);
    for (std::uint64_t n = 0; n < 400; ++n) {
        const std::string frame =
            "{\"v\":1,\"id\":" + std::to_string(n) + ",\"verb\":\"ping\"}";
        Span s(sink, "serve.event_loop.ping_rtt", n);
        client.send_line(frame);
        if (client.read_line().find("\"ok\":true") == std::string::npos) {
            report.fail("ping answered without ok");
        }
    }
}

/// Replays each public stage function of the server path on the exact
/// frames and responses of `samples`, next to the live server.
void replay_stages(const core::ChipletActuary& actuary, const std::vector<Spec>& specs,
                   const std::vector<Exchange>& samples, SpanSink* sink) {
    explore::StudyCache cache;
    std::vector<explore::StudyResult> results(specs.size());
    std::vector<bool> inserted(specs.size(), false);
    for (const Exchange& x : samples) {
        if (inserted[x.spec]) continue;
        results[x.spec] = explore::run_study(actuary, specs[x.spec].spec);
        cache.insert(specs[x.spec].spec, results[x.spec]);
        inserted[x.spec] = true;
    }
    std::uint64_t id = 0;
    for (const Exchange& x : samples) {
        ++id;
        Span replay(sink, "serve.replay", id);
        serve::Request request;
        {
            Span s(sink, "serve.protocol.parse_request", id);
            request = serve::parse_request(x.frame);
        }
        JsonValue frame_doc;
        {
            Span s(sink, "util.json.parse", id);
            frame_doc = JsonValue::parse(x.frame);
        }
        {
            Span s(sink, "explore.study_json.from_json", id);
            (void)explore::study_spec_from_json(frame_doc.at("studies").as_array().front());
        }
        std::string canonical;
        {
            Span s(sink, "explore.spec_hash.canonical", id);
            canonical = explore::canonical_spec_json(request.studies.front());
        }
        std::optional<explore::StudyResult> hit;
        {
            Span s(sink, "explore.study_cache.lookup", id);
            hit = cache.lookup(canonical, explore::fnv1a64(canonical));
        }
        JsonArray docs;
        {
            Span s(sink, "explore.study_json.to_json", id);
            docs.push_back(explore::to_json(hit ? *hit : results[x.spec]));
        }
        {
            Span s(sink, "util.json.dump", id);
            (void)docs.front().dump();
        }
        {
            Span s(sink, "serve.protocol.encode_run_response", id);
            (void)serve::encode_run_response(docs, {}, serve::RunMeta{}, request.envelope);
        }
        {
            Span s(sink, "serve.client.parse_response", id);
            (void)JsonValue::parse(x.response);
        }
    }
}

/// Scrapes the metrics verb into the per-layer counters.
void scrape_metrics(unsigned short port, Report& report) {
    serve::StudyClient client("127.0.0.1", port, kReadTimeoutS);
    const JsonValue m = client.metrics();
    auto& out = report.metrics;
    out["serve.event_loop.pipelined_frames"] = m.at("loop").at("pipelined_frames").as_number();
    out["serve.event_loop.backpressure_stalls"] =
        m.at("loop").at("backpressure_stalls").as_number();
    out["explore.study_cache.hit_rate"] = m.at("cache").at("hit_rate").as_number();
    out["explore.study_cache.insertions"] = m.at("cache").at("insertions").as_number();
    out["explore.study_cache.evictions"] = m.at("cache").at("evictions").as_number();
    out["explore.cache_store.writes"] = m.at("disk").at("writes").as_number();
    out["explore.cache_store.write_failures"] = m.at("disk").at("write_failures").as_number();
    out["explore.cell_store.hit_rate"] = m.at("cells").at("hit_rate").as_number();
}

/// Stage attribution on a traced 1x1 loop: replay, ping floor, and the
/// unattributed remainder of the median round trip.
void attribute_stages(const Server& s, const std::vector<Spec>& specs,
                      const ClosedLoop& loop, Tracer& tracer, Report& report) {
    SpanSink* sink = tracer.sink();
    replay_stages(*s.actuary, specs, loop.samples, sink);
    ping_floor(s.port(), sink, report);
    const auto self = tracer.self_ms();
    const auto med = [&](const char* name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : median(it->second);
    };
    double stages = 0.0;
    for (const char* stage :
         {"serve.protocol.parse_request", "explore.spec_hash.canonical",
          "explore.study_cache.lookup", "explore.study_json.to_json",
          "serve.protocol.encode_run_response", "serve.client.parse_response"}) {
        stages += med(stage);
    }
    const double rtt = median(loop.rtt_ms);
    report.metrics["serve.rtt_ms"] = rtt;
    report.metrics["serve.unattributed_ms"] =
        rtt - med("serve.event_loop.ping_rtt") - stages;
}

/// Working set of serve_warm (and of the serve probe), all hot: 60%
/// light kinds, 20% 500-draw Monte Carlo or small design_space, and 20%
/// re_sweep slices, whose large tables give the biggest responses.  The
/// shares put p50 and p90 inside a class rather than on the edge between
/// two, where a percentile would jump from run to run.
std::vector<Spec> warm_specs(const JsonValue& paper, std::uint64_t seed,
                             std::size_t count, Report& report) {
    std::vector<Spec> specs;
    Rng rng(derive(seed, 100));
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t round = k / 5;
        gen::Weight weight = gen::Weight::medium;
        std::size_t variant = 3 * round + 1;  // re_sweep, nodes cycling
        if (k % 5 == 3) {
            variant = 3 * round + (round % 2 == 0 ? 0 : 2);  // Monte Carlo / design_space
        } else if (k % 5 < 3) {
            weight = gen::Weight::light;
            variant = 3 * round + k % 5;
        }
        const JsonValue doc =
            gen::serve_spec(paper, weight, variant, rng, "warm_" + std::to_string(k));
        specs.push_back(make_spec(doc, weight, true));
        report.digest(specs.back().text);
    }
    return specs;
}

std::vector<std::size_t> all_indices(std::size_t n) {
    std::vector<std::size_t> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    return out;
}

/// `conns` connections each keeping `depth` frames in flight for
/// `seconds`: a frame goes out the moment an answer frees its slot.
/// (Refilling in half-window bursts instead stalls each burst for about
/// the 40 ms TCP delayed-ACK timer — 394 responses/s at 1 x 16 — so the
/// loop would measure a timer rather than the server.)  Appends the
/// successful responses per second of kSubWindows equal sub-windows to
/// `rates`.
void pipelined(unsigned short port, const std::vector<Spec>& specs, std::uint64_t seed,
               int conns, int depth, double seconds, Tracer* tracer,
               std::vector<double>& rates, Report& report) {
    std::atomic<bool> stop{false};
    std::vector<std::vector<Clock::time_point>> completed(static_cast<std::size_t>(conns));
    std::vector<std::uint64_t> ok(static_cast<std::size_t>(conns), 0);
    std::vector<std::uint64_t> bad(static_cast<std::size_t>(conns), 0);
    std::vector<std::string> errors(static_cast<std::size_t>(conns));
    std::vector<SpanSink*> sinks(static_cast<std::size_t>(conns), nullptr);
    if (tracer != nullptr) {
        for (SpanSink*& sink : sinks) sink = tracer->sink();
    }
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            const auto slot = static_cast<std::size_t>(c);
            try {
                serve::StudyClient client("127.0.0.1", port, kReadTimeoutS);
                Rng rng(derive(seed, 200 + slot + 16 * rates.size()));
                struct InFlight {
                    std::size_t spec;
                    std::uint64_t id;
                    Clock::time_point sent;
                };
                std::deque<InFlight> in_flight;
                std::uint64_t next_id = (300 + slot) * 1000000000ull;
                const auto send_one = [&] {
                    const std::size_t k = rng.below(specs.size());
                    const std::uint64_t id = next_id++;
                    const auto now = Clock::now();
                    client.send_line(run_frame(id, specs[k].text));
                    in_flight.push_back(InFlight{k, id, now});
                };
                const auto finish_one = [&] {
                    const std::string response = client.read_line();
                    const InFlight done = in_flight.front();
                    in_flight.pop_front();
                    if (sinks[slot] != nullptr) {
                        sinks[slot]->record("serve.pipelined_request", done.sent,
                                            Clock::now(), done.id);
                    }
                    if (result_fingerprint(response) == specs[done.spec].expected) {
                        ++ok[slot];
                        completed[slot].push_back(Clock::now());
                    } else {
                        ++bad[slot];
                        errors[slot] = specs[done.spec].spec.name +
                                       ": pipelined response is wrong";
                    }
                };
                while (static_cast<int>(in_flight.size()) < depth) send_one();
                while (!stop.load(std::memory_order_acquire)) {
                    finish_one();
                    send_one();
                }
                while (!in_flight.empty()) finish_one();
            } catch (const std::exception& e) {
                ++bad[slot];
                errors[slot] = std::string("pipelined client: ") + e.what();
            }
        });
    }
    const auto start = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    for (std::size_t c = 0; c < ok.size(); ++c) {
        report.attempted += ok[c] + bad[c];
        for (std::uint64_t b = 0; b < bad[c]; ++b) report.fail(errors[c]);
    }
    // Answers per equal sub-window of the send period; the drain after
    // it is not counted.
    std::vector<double> answers(kSubWindows, 0.0);
    for (const auto& times : completed) {
        for (const Clock::time_point t : times) {
            const double at = seconds_between(start, t) / seconds;
            if (at >= 0.0 && at < 1.0) {
                answers[static_cast<std::size_t>(at * static_cast<double>(kSubWindows))] += 1.0;
            }
        }
    }
    for (const double n : answers) rates.push_back(n * kSubWindows / seconds);
}

void add_end_to_end(const std::vector<double>& setup_s, Report& report) {
    report.metrics["setup_s"] = median(setup_s);
    report.metrics["ok_frac"] =
        report.attempted > 0
            ? static_cast<double>(report.attempted - report.failed) /
                  static_cast<double>(report.attempted)
            : 0.0;
    report.metrics["peak_rss_mb"] = peak_rss_mb();
}

/// serve_warm and the serve probe share everything but their sizes.
void warm_workload(const Settings& settings, Tracer* tracer, Report& report,
                   const std::string& counts_key, std::size_t working_set,
                   bool measure_throughput) {
    const JsonValue paper = gen::load_paper_batch(settings.root);
    std::vector<Spec> specs = warm_specs(paper, settings.seed, working_set, report);

    std::vector<double> setup_s;
    Server s;
    std::vector<std::string> prepopulated;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s.stop();
        const auto start = Clock::now();
        prepopulated = start_server(s, serve::ServerConfig{}, specs);
        setup_s.push_back(seconds_between(start, Clock::now()));
    }
    compute_references(*s.actuary, specs, report);
    check_prepopulation(settings, counts_key, specs, prepopulated, report);

    const std::vector<std::size_t> pool = all_indices(specs.size());
    const double latency_s = 0.4 * settings.seconds;
    const double throughput_s = 0.6 * settings.seconds;
    if (tracer == nullptr) {
        // The two phases alternate over kRounds rounds, so each samples
        // the host across the whole run rather than one stretch of it.
        constexpr int kRounds = 5;
        std::vector<double> rtt_ms, rates;
        for (int round = 0; round < kRounds; ++round) {
            const ClosedLoop loop =
                closed_loop_1x1(s.port(), specs, pool, settings.seed, 1 + round,
                                latency_s / kRounds, ~std::size_t{0}, nullptr, 0, report);
            rtt_ms.insert(rtt_ms.end(), loop.rtt_ms.begin(), loop.rtt_ms.end());
            pipelined(s.port(), specs, settings.seed, 4, 16, throughput_s / kRounds, nullptr,
                      rates, report);
        }
        report.metrics["p50_ms"] = windowed_percentile(rtt_ms, 50.0);
        report.metrics["p90_ms"] = windowed_percentile(rtt_ms, 90.0);
        // Every request is a warm hit, so every request is light.
        report.metrics["light_p50_ms"] = report.metrics["p50_ms"];
        report.metrics["light_p90_ms"] = report.metrics["p90_ms"];
        report.metrics["ops_per_s"] = median(rates);
        std::cout << "latency requests " << rtt_ms.size() << ", p99_ms "
                  << percentile(rtt_ms, 99.0) << "\n";
        add_end_to_end(setup_s, report);
        return;
    }

    const ClosedLoop loop =
        closed_loop_1x1(s.port(), specs, pool, settings.seed, 1,
                        measure_throughput ? latency_s : 1e9,
                        measure_throughput ? ~std::size_t{0} : 300, tracer->sink(), 256, report);
    report.metrics["serve.queue_wait_p50_ms"] = percentile(loop.queue_wait_ms, 50.0);
    report.metrics["serve.queue_wait_p90_ms"] = percentile(loop.queue_wait_ms, 90.0);
    report.metrics["bench.generator_late_p90_ms"] = percentile(loop.prepare_ms, 90.0);
    if (measure_throughput) {
        std::vector<double> untraced, traced;
        pipelined(s.port(), specs, settings.seed, 4, 16, throughput_s / 2, nullptr, untraced,
                  report);
        pipelined(s.port(), specs, settings.seed, 4, 16, throughput_s / 2, tracer, traced,
                  report);
        report.metrics["bench.trace_overhead_frac"] =
            median(untraced) > 0.0 ? 1.0 - median(traced) / median(untraced) : 0.0;
    }
    scrape_metrics(s.port(), report);
    attribute_stages(s, specs, loop, *tracer, report);
}

// ---- serve_mixed -------------------------------------------------------------

struct Arrival {
    double due_s = 0.0;
    std::size_t spec = 0;
    std::string frame;
};

struct Outcome {
    Clock::time_point received;
    std::uint64_t fingerprint = 0;
    double wall_ms = 0.0;
    bool answered = false;
};

/// Schedule of serve_mixed: arrival i is due at a random point of the
/// i-th slot of length 1/rate, so the offered rate is exact over any
/// second while arrivals still come at random moments.  Every block of
/// 100 arrivals holds the exact class mix — 60% hits on the hot set, 20%
/// cold light, 17% medium, 3% heavy — in a seed-shuffled order, and each
/// class cycles through its kinds, so seeds differ in order and numbers,
/// not in mix, and heavy requests cannot cluster beyond one block.
std::vector<Arrival> mixed_schedule(const JsonValue& paper, std::uint64_t seed,
                                    double seconds, std::vector<Spec>& specs,
                                    std::size_t hot_count, Report& report) {
    const std::size_t count = static_cast<std::size_t>(kMixedRate * seconds);
    Rng rng(derive(seed, 400));
    std::vector<double> due(count);
    for (std::size_t i = 0; i < count; ++i) {
        due[i] = (static_cast<double>(i) + rng.uniform()) / kMixedRate;
    }

    enum Class { hit, light, medium, heavy };
    std::vector<Class> classes(count, hit);
    for (std::size_t block = 0; block < count; block += 100) {
        const auto at = [&](std::size_t k) {
            return classes.begin() + static_cast<std::ptrdiff_t>(block + k);
        };
        const std::size_t n = std::min<std::size_t>(100, count - block);
        std::fill(at(0), at(n * 20 / 100), light);
        std::fill(at(n * 20 / 100), at(n * 37 / 100), medium);
        std::fill(at(n * 37 / 100), at(n * 40 / 100), heavy);
        for (std::size_t i = n; i > 1; --i) std::swap(*at(i - 1), *at(rng.below(i)));
    }

    std::size_t variants[4] = {0, 0, 0, 0};
    std::vector<Arrival> arrivals(count);
    for (std::size_t i = 0; i < count; ++i) {
        arrivals[i].due_s = due[i];
        const Class c = classes[i];
        if (c == hit) {
            arrivals[i].spec = variants[hit]++ % hot_count;
        } else {
            const gen::Weight weight = c == light    ? gen::Weight::light
                                       : c == medium ? gen::Weight::medium
                                                     : gen::Weight::heavy;
            const JsonValue doc = gen::serve_spec(paper, weight, variants[c]++, rng,
                                                  "cold_" + std::to_string(i));
            specs.push_back(make_spec(doc, weight, false));
            arrivals[i].spec = specs.size() - 1;
        }
        arrivals[i].frame = run_frame(i, specs[arrivals[i].spec].text);
        report.digest(arrivals[i].frame);
        report.digest(std::to_string(due[i]));
    }
    return arrivals;
}

/// Sends every arrival at its due time over `conns` connections
/// (round-robin); one reader per connection matches answers in order.
/// Returns per-arrival outcomes and the sender's lateness.
/// With a tracer, readers record a "serve.request" span (due time to
/// answer) for every arrival from `traced_from` on.
std::vector<Outcome> open_loop(unsigned short port, const std::vector<Arrival>& arrivals,
                               Clock::time_point t0, int conns, Tracer* tracer,
                               std::size_t traced_from, std::vector<double>& late_ms,
                               Report& report) {
    const auto due_of = [&](std::size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(arrivals[i].due_s));
    };
    std::vector<Outcome> outcomes(arrivals.size());
    std::vector<std::unique_ptr<serve::StudyClient>> clients;
    for (int c = 0; c < conns; ++c) {
        clients.push_back(std::make_unique<serve::StudyClient>("127.0.0.1", port, kReadTimeoutS));
    }
    struct Pending {
        std::mutex mutex;
        std::deque<std::size_t> queue;
    };
    std::vector<Pending> pending(static_cast<std::size_t>(conns));
    std::vector<std::size_t> expected(static_cast<std::size_t>(conns), 0);
    for (std::size_t i = 0; i < arrivals.size(); ++i) ++expected[i % expected.size()];
    std::vector<std::string> errors(static_cast<std::size_t>(conns));
    std::vector<SpanSink*> sinks(static_cast<std::size_t>(conns), nullptr);
    if (tracer != nullptr) {
        for (SpanSink*& sink : sinks) sink = tracer->sink();
    }

    std::vector<std::thread> readers;
    for (int c = 0; c < conns; ++c) {
        readers.emplace_back([&, c] {
            const auto slot = static_cast<std::size_t>(c);
            try {
                for (std::size_t n = 0; n < expected[slot]; ++n) {
                    const std::string response = clients[slot]->read_line();
                    const auto received = Clock::now();
                    std::size_t i = 0;
                    {
                        std::lock_guard<std::mutex> lock(pending[slot].mutex);
                        i = pending[slot].queue.front();
                        pending[slot].queue.pop_front();
                    }
                    outcomes[i].received = received;
                    outcomes[i].fingerprint = result_fingerprint(response);
                    outcomes[i].wall_ms = wall_ms_of(response);
                    outcomes[i].answered = true;
                    if (sinks[slot] != nullptr && i >= traced_from) {
                        sinks[slot]->record("serve.request", due_of(i), received, i);
                    }
                }
            } catch (const std::exception& e) {
                errors[slot] = std::string("open loop reader: ") + e.what();
            }
        });
    }
    late_ms.reserve(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const auto due = due_of(i);
        std::this_thread::sleep_until(due);
        const std::size_t slot = i % clients.size();
        late_ms.push_back(ms_between(due, Clock::now()));
        {
            std::lock_guard<std::mutex> lock(pending[slot].mutex);
            pending[slot].queue.push_back(i);
        }
        try {
            clients[slot]->send_line(arrivals[i].frame);
        } catch (const std::exception& e) {
            errors[slot] = std::string("open loop sender: ") + e.what();
            clients[slot]->shutdown_write();
        }
    }
    for (std::thread& t : readers) t.join();
    for (const std::string& e : errors) {
        if (!e.empty()) report.fail(e);
    }
    return outcomes;
}

/// Generator lateness beyond which the schedule was not honoured and
/// the run's latencies mean nothing: one connection's gap between
/// arrivals, past which a connection's arrivals bunch up.  Lateness below
/// it still counts, since every request is timed from its due time.
constexpr double kMaxLateP90Ms = 1000.0 * kMixedConnections / kMixedRate;

void mixed_workload(const Settings& settings, Tracer* tracer, Report& report) {
    const JsonValue paper = gen::load_paper_batch(settings.root);
    std::vector<Spec> specs;
    {
        Rng rng(derive(settings.seed, 300));
        for (std::size_t k = 0; k < 32; ++k) {
            const JsonValue doc = gen::serve_spec(paper, gen::Weight::light, k, rng,
                                                  "hot_" + std::to_string(k));
            specs.push_back(make_spec(doc, gen::Weight::light, true));
            report.digest(specs.back().text);
        }
    }
    const std::size_t hot_count = specs.size();
    const std::vector<Arrival> arrivals =
        mixed_schedule(paper, settings.seed, settings.seconds, specs, hot_count, report);

    // The first set-up evaluates every hot spec into a fresh cache_dir,
    // writing each through with an fsync.  The timed set-ups restart the
    // server on that directory, as a daemon restarts: actuary, server
    // start, loading the hot entries, one hit per hot spec.  Timing the
    // first one instead would time the host's disk.
    namespace fs = std::filesystem;
    const std::string cache_dir = settings.out_dir + "/mixed-cache";
    fs::remove_all(cache_dir);
    serve::ServerConfig config;
    config.cache_bytes = kMixedCacheBytes;
    config.cache_dir = cache_dir;
    Server s;
    const std::vector<std::string> prepopulated = start_server(s, config, specs);
    std::vector<double> setup_s;
    std::vector<std::string> restarted;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s.stop();
        const auto start = Clock::now();
        restarted = start_server(s, config, specs);
        setup_s.push_back(seconds_between(start, Clock::now()));
    }
    compute_references(*s.actuary, specs, report);
    check_prepopulation(settings, settings.workload, specs, prepopulated, report);
    for (std::size_t k = 0; k < hot_count; ++k) {
        if (result_fingerprint(restarted[k]) != specs[k].expected) {
            report.fail(specs[k].spec.name + ": response after restart is wrong");
        }
    }

    std::vector<double> late_ms;
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    const std::size_t traced_from = arrivals.size() / 2;
    const std::vector<Outcome> outcomes = open_loop(s.port(), arrivals, t0, kMixedConnections,
                                                    tracer, traced_from, late_ms, report);

    // Every cold spec is now known; check all answers.
    compute_references(*s.actuary, specs, report);
    std::vector<double> all_ms, light_ms, queue_ms;
    std::vector<double> light_halves[2];  // untraced, traced
    Clock::time_point last = t0;
    std::uint64_t ok = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        ++report.attempted;
        const Outcome& o = outcomes[i];
        const Spec& spec = specs[arrivals[i].spec];
        if (!o.answered) {
            report.fail(spec.spec.name + ": no answer");
            continue;
        }
        if (o.fingerprint != spec.expected) {
            report.fail(spec.spec.name + ": served response differs from run_study");
            continue;
        }
        ++ok;
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(arrivals[i].due_s));
        const double ms = ms_between(due, o.received);
        all_ms.push_back(ms);
        if (spec.weight == gen::Weight::light) {
            light_ms.push_back(ms);
            light_halves[i >= traced_from ? 1 : 0].push_back(ms);
        }
        queue_ms.push_back(ms - o.wall_ms);
        last = std::max(last, o.received);
    }
    const double late_p90 = percentile(late_ms, 90.0);
    std::cout << "requests " << arrivals.size() << ", light " << light_ms.size()
              << ", p99_ms " << percentile(all_ms, 99.0) << ", generator late p90 ms "
              << late_p90 << "\n";
    if (late_p90 > kMaxLateP90Ms) {
        report.fail("invalid run: generator fell behind its schedule (late p90 " +
                    std::to_string(late_p90) + " ms)");
    }

    if (tracer == nullptr) {
        report.metrics["ops_per_s"] = static_cast<double>(ok) / seconds_between(t0, last);
        report.metrics["p50_ms"] = windowed_percentile(all_ms, 50.0);
        report.metrics["p90_ms"] = windowed_percentile(all_ms, 90.0);
        report.metrics["light_p50_ms"] = windowed_percentile(light_ms, 50.0);
        report.metrics["light_p90_ms"] = windowed_percentile(light_ms, 90.0);
        add_end_to_end(setup_s, report);
    } else {
        report.metrics["serve.queue_wait_p50_ms"] = percentile(queue_ms, 50.0);
        report.metrics["serve.queue_wait_p90_ms"] = percentile(queue_ms, 90.0);
        report.metrics["bench.generator_late_p90_ms"] = late_p90;
        // An open loop's throughput is its offered rate, so tracing
        // shows in the light requests' latency instead.
        const double untraced = median(light_halves[0]);
        report.metrics["bench.trace_overhead_frac"] =
            untraced > 0.0 ? median(light_halves[1]) / untraced - 1.0 : 0.0;
        scrape_metrics(s.port(), report);
        std::vector<std::size_t> hot(hot_count);
        for (std::size_t k = 0; k < hot_count; ++k) hot[k] = k;
        const ClosedLoop loop = closed_loop_1x1(s.port(), specs, hot, settings.seed, 2, 1e9,
                                                300, tracer->sink(), 256, report);
        attribute_stages(s, specs, loop, *tracer, report);
    }
    s.server->stop();
    fs::remove_all(cache_dir);
}

}  // namespace

void run_serve_warm(const Settings& settings, Tracer* tracer, Report& report) {
    warm_workload(settings, tracer, report, settings.workload, 64, true);
}

void run_serve_mixed(const Settings& settings, Tracer* tracer, Report& report) {
    mixed_workload(settings, tracer, report);
}

void probe_serve_layers(const Settings& settings, Tracer& tracer, Report& report) {
    warm_workload(settings, &tracer, report, "serve_probe", 16, false);
}

}  // namespace perfbench

// Serving-layer throughput probe for the event-driven actuaryd
// (serve/server.h).  Two sections:
//
//   1. cold/warm evaluation: an in-process server driven over real
//      loopback TCP, every request a distinct spec (cache miss) vs one
//      spec repeated (cache hit); a warm response is checked
//      bit-identical to a serial run_study before timing is reported.
//   2. transport floor: connections x pipeline-depth grid of ping
//      round-trips against the epoll event loop, p50/p99 per cell; the
//      64 connections x 64-deep cell is epoll_rps_c64, gated in
//      bench/baselines/BENCH_serve.json.
//
// Like the other bench_* probes this has no Google-Benchmark
// dependency; run_benches.sh runs it and collects BENCH_serve.json.
//
//   bench_serve [output.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/actuary.h"
#include "explore/study.h"
#include "explore/study_json.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/math.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// Heavy enough per evaluation that a cache hit is decisively cheaper,
/// small enough in result bytes that serialisation does not dominate.
chiplet::explore::StudySpec mc_spec(const std::string& name,
                                    std::uint64_t seed) {
    chiplet::explore::StudySpec spec;
    spec.name = name;
    chiplet::explore::McStudyConfig config;
    config.scenario.node = "5nm";
    config.scenario.packaging = "2.5D";
    config.scenario.module_area_mm2 = 700.0;
    config.scenario.chiplets = 4;
    config.draws = 500;
    config.seed = seed;
    spec.config = config;
    return spec;
}

/// One sweep cell: `conns` concurrent connections, each keeping `depth`
/// ping frames in flight for `seconds`.  At depth > 1 the driver refills
/// in half-window batches written with a single send, so the client's
/// own syscall rate never caps the measurement.  Latency is
/// send-to-response of each frame, queueing included — the pipelined
/// latency a batching client actually observes.
struct CellResult {
    std::uint64_t requests = 0;
    double rps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

CellResult run_cell(unsigned short port, int conns, int depth,
                    double seconds) {
    using namespace chiplet;
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(conns), 0);
    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(conns));
    const std::string ping = serve::encode_verb_request(serve::Verb::ping);

    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<std::size_t>(conns));
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    for (int c = 0; c < conns; ++c) {
        drivers.emplace_back([&, c] {
            serve::StudyClient client("127.0.0.1", port);
            const int batch = std::max(1, depth / 2);
            std::string burst;
            burst.reserve((ping.size() + 1) *
                          static_cast<std::size_t>(batch));
            for (int d = 0; d < batch; ++d) {
                burst += ping;
                burst += '\n';
            }
            ++ready;
            while (!go.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            std::deque<Clock::time_point> sent;
            const auto send_batch = [&] {
                client.send_bytes(burst);
                const auto now = Clock::now();
                for (int d = 0; d < batch; ++d) sent.push_back(now);
            };
            while (static_cast<int>(sent.size()) < depth) send_batch();
            const auto finish_one = [&] {
                (void)client.read_line();
                latencies[static_cast<std::size_t>(c)].push_back(
                    ms_since(sent.front()));
                sent.pop_front();
                ++counts[static_cast<std::size_t>(c)];
            };
            while (!stop.load(std::memory_order_acquire)) {
                for (int d = 0; d < batch; ++d) finish_one();
                send_batch();
            }
            while (!sent.empty()) finish_one();  // drain the window
        });
    }
    while (ready.load() < conns) std::this_thread::yield();
    const auto start = Clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_release);
    for (std::thread& t : drivers) t.join();
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();

    CellResult cell;
    std::vector<double> all;
    for (int c = 0; c < conns; ++c) {
        cell.requests += counts[static_cast<std::size_t>(c)];
        all.insert(all.end(), latencies[static_cast<std::size_t>(c)].begin(),
                   latencies[static_cast<std::size_t>(c)].end());
    }
    cell.rps = elapsed_s > 0.0
                   ? static_cast<double>(cell.requests) / elapsed_s
                   : 0.0;
    cell.p50_ms = chiplet::percentile(all, 50.0);
    cell.p99_ms = chiplet::percentile(all, 99.0);
    return cell;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace chiplet;

    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_serve.json");
    const unsigned threads = util::ThreadPool::global().size();

    const core::ChipletActuary actuary;

    // ---- cold/warm evaluation -----------------------------------------------
    serve::ServerConfig config;
    config.port = 0;  // ephemeral
    serve::StudyServer server(actuary, config);
    server.start();

    constexpr int kCold = 30;
    std::vector<double> cold_ms;
    JsonValue warm_response;
    std::vector<double> warm_ms;
    constexpr int kWarm = 200;
    double cold_wall_ms = 0.0;
    double warm_wall_ms = 0.0;
    {
        serve::StudyClient client("127.0.0.1", server.port());
        const auto cold_start = Clock::now();
        for (int i = 0; i < kCold; ++i) {
            const std::vector<explore::StudySpec> batch{
                mc_spec("cold_" + std::to_string(i),
                        1000 + static_cast<std::uint64_t>(i))};
            const auto start = Clock::now();
            const JsonValue response = client.run(batch);
            cold_ms.push_back(ms_since(start));
            if (!response.contains("results") ||
                response.at("results").as_array().size() != 1) {
                std::cerr << "error: cold request " << i << " failed\n";
                return 2;
            }
        }
        cold_wall_ms = ms_since(cold_start);

        const std::vector<explore::StudySpec> repeated{mc_spec("warm", 42)};
        (void)client.run(repeated);  // populate the cache
        const auto warm_start = Clock::now();
        for (int i = 0; i < kWarm; ++i) {
            const auto start = Clock::now();
            warm_response = client.run(repeated);
            warm_ms.push_back(ms_since(start));
        }
        warm_wall_ms = ms_since(warm_start);
    }

    // ---- correctness gate: warm response == serial run_study ----------------
    const std::vector<explore::StudySpec> repeated{mc_spec("warm", 42)};
    std::vector<explore::StudyResult> serial{run_study(actuary, repeated[0])};
    const JsonValue reference =
        JsonValue::parse(explore::results_to_json(serial).dump());
    JsonValue served = JsonValue::object();
    served.set("results", warm_response.at("results"));
    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};
    const std::string diff = json_diff(served, reference, exact);
    const bool identical = diff.empty();
    const bool all_cached =
        warm_response.at("meta").at("served_from_cache").as_number() == 1.0;
    server.stop();

    // ---- transport sweep: connections x pipeline depth ----------------------
    const std::vector<int> kConns = {1, 8, 64};
    const std::vector<int> kDepths = {1, 16, 64};
    constexpr double kCellSeconds = 0.4;
    struct SweepRow {
        int conns;
        int depth;
        CellResult cell;
    };
    std::vector<SweepRow> sweep;
    double epoll_rps_c64 = 0.0;
    {
        serve::ServerConfig sweep_config;
        sweep_config.port = 0;
        serve::StudyServer sweep_server(actuary, sweep_config);
        sweep_server.start();
        for (const int conns : kConns) {
            for (const int depth : kDepths) {
                const CellResult cell =
                    run_cell(sweep_server.port(), conns, depth, kCellSeconds);
                if (conns == 64 && depth == 64) epoll_rps_c64 = cell.rps;
                sweep.push_back(SweepRow{conns, depth, cell});
                std::cout << "serve sweep: c=" << conns << " d=" << depth
                          << ": " << cell.rps << " req/s (p50 " << cell.p50_ms
                          << " ms, p99 " << cell.p99_ms << " ms)\n";
            }
        }
        sweep_server.stop();
    }

    const double cold_rps =
        cold_wall_ms > 0.0 ? kCold * 1e3 / cold_wall_ms : 0.0;
    const double warm_rps =
        warm_wall_ms > 0.0 ? kWarm * 1e3 / warm_wall_ms : 0.0;
    const double ratio = cold_rps > 0.0 ? warm_rps / cold_rps : 0.0;

    std::ofstream json(out_path);
    if (!json) {
        std::cerr << "error: cannot open '" << out_path << "' for writing\n";
        return 2;
    }
    json << "{\n"
         << "  \"bench\": \"serve\",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"cold_requests\": " << kCold << ",\n"
         << "  \"warm_requests\": " << kWarm << ",\n"
         << "  \"cold_rps\": " << cold_rps << ",\n"
         << "  \"warm_rps\": " << warm_rps << ",\n"
         << "  \"warm_over_cold\": " << ratio << ",\n"
         << "  \"cold_p50_ms\": " << percentile(cold_ms, 50.0) << ",\n"
         << "  \"cold_p99_ms\": " << percentile(cold_ms, 99.0) << ",\n"
         << "  \"warm_p50_ms\": " << percentile(warm_ms, 50.0) << ",\n"
         << "  \"warm_p99_ms\": " << percentile(warm_ms, 99.0) << ",\n"
         << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const SweepRow& row = sweep[i];
        json << "    {\"connections\": " << row.conns
             << ", \"depth\": " << row.depth
             << ", \"requests\": " << row.cell.requests
             << ", \"rps\": " << row.cell.rps
             << ", \"p50_ms\": " << row.cell.p50_ms
             << ", \"p99_ms\": " << row.cell.p99_ms << "}"
             << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"epoll_rps_c64\": " << epoll_rps_c64 << ",\n"
         << "  \"served_from_cache\": " << (all_cached ? "true" : "false")
         << ",\n"
         << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
         << "}\n";
    json.close();
    if (!json) {
        std::cerr << "error: failed writing '" << out_path << "'\n";
        return 2;
    }

    std::cout << "serve: cold " << cold_rps << " req/s, warm " << warm_rps
              << " req/s (" << ratio << "x), epoll c64d64 " << epoll_rps_c64
              << " req/s"
              << (identical ? "" : "  [RESULTS DIVERGE: " + diff + "]") << "\n"
              << "wrote " << out_path << "\n";

    // The warm path must hit the cache and match serial output bit for
    // bit, and the cache speedup must clear 5x; epoll_rps_c64 is gated
    // against the committed baseline by run_benches.sh.
    return (identical && all_cached && ratio >= 5.0) ? 0 : 1;
}

// Cache-layer probe: the warm-start path of a server restart with
// --cache-dir, gated bit-identical against cold evaluation before any
// timing is reported.  The batch is priced cold through a StudyCache
// with a persistent store attached, then a brand-new cache is loaded
// from the same directory and must answer every spec from disk —
// byte-identical payloads, >= 5x faster than re-pricing.
//
// Like the other bench_* probes this has no Google-Benchmark dependency;
// it is run by bench/run_benches.sh, emitting BENCH_cache.json.
//
//   bench_cache [output.json]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/actuary.h"
#include "explore/cache_store.h"
#include "explore/montecarlo.h"
#include "explore/study.h"
#include "explore/study_cache.h"
#include "explore/study_json.h"
#include "util/thread_pool.h"
#include "wafer/die_cost_cache.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

chiplet::explore::StudySpec grid_spec(const std::string& name,
                                      double area_step) {
    using namespace chiplet::explore;
    ReSweepConfig config;
    config.nodes = {"14nm", "7nm", "5nm"};
    config.packagings = {"SoC", "MCM"};
    config.chiplet_counts = {2, 3, 4, 5};
    config.areas_mm2.clear();
    for (double area = 100.0; area <= 900.0; area += area_step) {
        config.areas_mm2.push_back(area);
    }
    StudySpec spec;
    spec.name = name;
    spec.config = config;
    return spec;
}

/// The restart working set: the sweep grids plus a Monte-Carlo study —
/// heavy to price (thousands of draws), light to load back (one small
/// summary + samples), the shape that makes warm starts worthwhile.
std::vector<chiplet::explore::StudySpec> warm_batch() {
    using namespace chiplet::explore;
    McStudyConfig mc;
    mc.scenario.node = "7nm";
    mc.scenario.packaging = "MCM";
    mc.scenario.module_area_mm2 = 600.0;
    mc.scenario.chiplets = 4;
    mc.draws = 4000;
    mc.seed = 42;
    StudySpec mc_spec;
    mc_spec.name = "fig_mc";
    mc_spec.config = mc;
    return {grid_spec("fig_fine", 20.0), grid_spec("fig_mid", 40.0),
            grid_spec("fig_coarse", 80.0), mc_spec};
}

}  // namespace

int main(int argc, char** argv) {
    using namespace chiplet;
    using util::ThreadPool;

    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_cache.json");
    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    unsigned threads = hardware;
    if (const char* env = std::getenv("CHIPLET_THREADS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0) threads = static_cast<unsigned>(parsed);
    }
    const int repeats = 3;

    const core::ChipletActuary actuary;
    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};

    // The die-cost cache would let cold repeats warm each other up and
    // understate the work the persistent layers actually save.
    wafer::DieCostCache::global().set_enabled(false);
    ThreadPool::set_global_threads(threads);

    const std::vector<explore::StudySpec> specs = warm_batch();
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("chiplet_bench_cache_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);

    // Cold: a fresh, storeless cache prices everything from scratch.
    std::vector<explore::StudyResult> cold;
    double cold_s = 1e300;
    for (int r = 0; r < repeats; ++r) {
        explore::StudyCache cache;
        cold.clear();
        const auto start = Clock::now();
        for (const explore::StudySpec& spec : specs) {
            cold.push_back(explore::run_study_cached(actuary, spec, cache));
        }
        cold_s = std::min(cold_s, seconds_since(start));
    }

    // Populate the directory once (write-through), untimed.
    {
        explore::StudyCacheStore store({dir, 0});
        explore::StudyCache cache;
        cache.attach_store(&store);
        for (const explore::StudySpec& spec : specs) {
            (void)explore::run_study_cached(actuary, spec, cache);
        }
    }

    // Warm: the whole restart path — open the store, replay the
    // directory into an empty cache, answer the batch from it.
    std::vector<explore::StudyResult> warm;
    std::uint64_t loaded = 0;
    double warm_s = 1e300;
    bool warm_complete = true;
    for (int r = 0; r < repeats; ++r) {
        warm.clear();
        const auto start = Clock::now();
        explore::StudyCacheStore store({dir, 0});
        explore::StudyCache cache;
        store.load_into(cache);
        for (const explore::StudySpec& spec : specs) {
            std::optional<explore::StudyResult> hit = cache.lookup(spec);
            if (!hit.has_value()) {
                warm_complete = false;
                break;
            }
            warm.push_back(*hit);
        }
        warm_s = std::min(warm_s, seconds_since(start));
        loaded = store.stats().loaded;
    }
    std::filesystem::remove_all(dir);

    const std::string warm_diff =
        warm.size() == cold.size()
            ? json_diff(explore::results_to_json(warm),
                        explore::results_to_json(cold), exact)
            : std::string("warm lookups incomplete");
    const bool identical = warm_complete && warm_diff.empty();
    const double warm_speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;

    wafer::DieCostCache::global().set_enabled(true);

    std::ofstream json(out_path);
    if (!json) {
        std::cerr << "error: cannot open '" << out_path << "' for writing\n";
        return 2;
    }
    json << "{\n"
         << "  \"bench\": \"cache\",\n"
         << "  \"hardware_concurrency\": " << hardware << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"repeats\": " << repeats << ",\n"
         << "  \"warm_studies\": " << specs.size() << ",\n"
         << "  \"warm_entries_loaded\": " << loaded << ",\n"
         << "  \"cold_wall_s\": " << cold_s << ",\n"
         << "  \"warm_wall_s\": " << warm_s << ",\n"
         << "  \"warm_speedup\": " << warm_speedup << ",\n"
         << "  \"warm_bit_identical\": " << (identical ? "true" : "false")
         << ",\n"
         << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
         << "}\n";
    json.close();
    if (!json) {
        std::cerr << "error: failed writing '" << out_path << "'\n";
        return 2;
    }

    std::cout << "cache: warm-start " << cold_s << " s cold -> " << warm_s
              << " s warm (speedup " << warm_speedup << ")"
              << (identical ? "" : "  [RESULTS DIVERGE: " + warm_diff + "]")
              << "\n"
              << "wrote " << out_path << "\n";
    return identical ? 0 : 1;
}

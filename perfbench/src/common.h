// Shared plumbing of the benchmark: clocks, seeded randomness, order
// statistics, the metric report every workload fills, and the response
// fingerprint the correctness checks compare.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// splitmix64: a tiny, platform-independent generator, so one seed gives
/// the same inputs on every host and compiler.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /// Uniform in [0, 1).
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /// Uniform in [0, n).
    std::size_t below(std::size_t n) {
        return static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n));
    }

private:
    std::uint64_t state_;
};

/// Independent stream `stream` of `seed`: item i of a workload's input
/// sequence is drawn from Rng(derive(seed, i)), so it does not depend on
/// how many items an earlier, time-bounded loop consumed.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
    Rng r(seed ^ (stream * 0xD1B54A32D192ED03ull + 0x8CB92BA72F3D8DD7ull));
    return r.next();
}

/// 64-bit FNV-1a, continued from `h`.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 0xCBF29CE484222325ull) {
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

/// Linear-interpolated percentile (0..100) of an unsorted sample; 0 for
/// an empty one.
inline double percentile(std::vector<double> xs, double pct) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = pct / 100.0 * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double median(std::vector<double> xs) {
    return percentile(std::move(xs), 50.0);
}

/// Sub-windows a throughput is split into; the reported rate is their
/// median, so a burst of interference from outside the benchmark moves
/// one sub-window rather than the whole figure.
inline constexpr std::size_t kSubWindows = 10;

/// Median rate over kSubWindows consecutive, equally long runs of
/// operations: `work[i]` units completed in `busy_s[i]` seconds.
inline double median_rate(const std::vector<double>& work,
                          const std::vector<double>& busy_s) {
    std::vector<double> rates;
    const std::size_t n = work.size();
    for (std::size_t w = 0; w < kSubWindows; ++w) {
        const std::size_t lo = n * w / kSubWindows, hi = n * (w + 1) / kSubWindows;
        double units = 0.0, seconds = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
            units += work[i];
            seconds += busy_s[i];
        }
        if (seconds > 0.0) rates.push_back(units / seconds);
    }
    return median(rates);
}

/// Median over kSubWindows consecutive, equal slices of `xs` (samples
/// in time order) of each slice's `pct` percentile: the percentile of a
/// typical stretch of the run, which one disturbed stretch of a shared
/// host cannot move.
inline double windowed_percentile(const std::vector<double>& xs, double pct) {
    std::vector<double> per_window;
    const std::size_t n = xs.size();
    for (std::size_t w = 0; w < kSubWindows; ++w) {
        const auto lo = xs.begin() + static_cast<std::ptrdiff_t>(n * w / kSubWindows);
        const auto hi = xs.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / kSubWindows);
        if (lo != hi) per_window.push_back(percentile(std::vector<double>(lo, hi), pct));
    }
    return median(per_window);
}

/// Peak resident set of this process so far, MiB.
inline double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// FNV-1a of a result document with every `"meta":{...}` object cut
/// out, starting at its first `"results":` key.  The Study API marks
/// "meta" as measurement (wall time, cache counters) and the envelope id
/// differs per request; everything else must be byte-identical to a
/// serial run_study, so equal fingerprints are the bit-identity check.
/// Meta objects hold only numbers, booleans and nested objects, so brace
/// counting finds their end.
inline std::uint64_t result_fingerprint(std::string_view doc) {
    static constexpr std::string_view kResults = "\"results\":";
    static constexpr std::string_view kMeta = "\"meta\":{";
    const std::size_t begin = doc.find(kResults);
    if (begin == std::string_view::npos) return 0;
    std::uint64_t h = 0xCBF29CE484222325ull;
    std::size_t pos = begin;
    for (;;) {
        const std::size_t meta = doc.find(kMeta, pos);
        if (meta == std::string_view::npos) {
            return fnv1a(doc.substr(pos), h);
        }
        h = fnv1a(doc.substr(pos, meta - pos), h);
        std::size_t i = meta + kMeta.size();
        for (int depth = 1; i < doc.size() && depth > 0; ++i) {
            if (doc[i] == '{') ++depth;
            if (doc[i] == '}') --depth;
        }
        pos = i;
    }
}

/// What one workload run reports.  `metrics` maps metric name to value;
/// units come from BENCHMARK.json.
struct Report {
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;  ///< why a run is not correct
    std::uint64_t inputs_digest = 0xCBF29CE484222325ull;

    void fail(std::string why) {
        ++failed;
        if (problems.size() < 16) problems.push_back(std::move(why));
    }
    void digest(std::string_view bytes) {
        inputs_digest = fnv1a(bytes, inputs_digest);
    }
};

/// Command-line settings shared by every workload.
struct Settings {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string root;     ///< checkout root (inputs live under it)
    std::string out_dir;  ///< scratch space for traces, caches, counts
};

/// Number of set-up repetitions whose median is setup_s.
inline constexpr int kSetupReps = 9;

}  // namespace perfbench

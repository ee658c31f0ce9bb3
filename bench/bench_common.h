// Shared scaffolding for the figure benches: every bench binary prints
// its paper figure's data first (tables / ASCII charts on stdout), then
// runs its registered Google-Benchmark timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "util/csv.h"

namespace chiplet::bench {

/// Prints a prominent section header for figure output.
inline void print_header(const std::string& title) {
    const std::string rule(title.size() + 4, '=');
    std::cout << "\n" << rule << "\n= " << title << " =\n" << rule << "\n\n";
}

/// Prints a paper-claim vs measured line (deviations listed in
/// docs/model.md#assumptions-and-known-deviations).
inline void print_claim(const std::string& claim, const std::string& measured) {
    std::cout << "paper: " << claim << "\n  ours: " << measured << "\n";
}

/// Writes a figure's data series as CSV when the CHIPLET_CSV_DIR
/// environment variable names a directory; silent no-op otherwise.
/// Lets users post-process figure data with their own plotting stack.
inline void maybe_export_csv(const CsvWriter& csv, const std::string& filename) {
    const char* dir = std::getenv("CHIPLET_CSV_DIR");
    if (dir == nullptr || *dir == '\0') return;
    const std::string path = std::string(dir) + "/" + filename;
    csv.save(path);
    std::cout << "[csv] wrote " << path << "\n";
}

}  // namespace chiplet::bench

/// Standard main: figure output first, then benchmark timings.
#define CHIPLET_BENCH_MAIN(print_figure)                      \
    int main(int argc, char** argv) {                        \
        print_figure();                                      \
        ::benchmark::Initialize(&argc, argv);                \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
        ::benchmark::RunSpecifiedBenchmarks();               \
        ::benchmark::Shutdown();                             \
        return 0;                                            \
    }

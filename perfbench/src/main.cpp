// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--root <checkout>] [--out <scratch dir>]
//
// Runs one workload (paper_batch, design_space, serve_warm, serve_mixed)
// on inputs generated from the seed, checks every output, and prints as
// its last stdout line one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Untraced runs report the end_to_end metrics of
// BENCHMARK.json, traced runs its per_layer metrics; names and units
// come from that file, so it stays the one list.  Exit status is 0 only
// when every check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "util/json.h"
#include "workloads.h"

namespace {

using chiplet::JsonValue;
using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--root <dir>] [--out <dir>]\n";
    std::exit(2);
}

Settings parse_args(int argc, char** argv) {
    Settings s;
    s.root = ".";
    s.out_dir = ".bench_build/perfbench-out";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            s.workload = value;
        } else if (flag == "--seed") {
            s.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            s.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            s.trace = value == "1";
        } else if (flag == "--root") {
            s.root = value;
        } else if (flag == "--out") {
            s.out_dir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (s.workload.empty()) usage("--workload is required");
    if (!(s.seconds > 0.0)) usage("--seconds must be positive");
    return s;
}

using Workload = void (*)(const Settings&, Tracer*, Report&);

Workload workload_named(const std::string& name) {
    if (name == "paper_batch") return run_paper_batch;
    if (name == "design_space") return run_design_space;
    if (name == "serve_warm") return run_serve_warm;
    if (name == "serve_mixed") return run_serve_mixed;
    usage("unknown workload '" + name + "'");
}

/// Which probe measures a per-layer metric when the workload's own path
/// does not reach its layer; nullptr for metrics only the workload has.
using Probe = void (*)(const Settings&, Tracer&, Report&);

Probe probe_for(const std::string& metric) {
    const auto starts = [&](const char* prefix) { return metric.rfind(prefix, 0) == 0; };
    if (starts("bench.")) return nullptr;
    if (starts("serve.") || starts("explore.spec_hash.") ||
        starts("explore.study_cache.") || starts("explore.cache_store.") ||
        starts("explore.cell_store.")) {
        return probe_serve_layers;
    }
    if (starts("explore.design_space.") || starts("kernels.")) {
        return probe_design_space_layers;
    }
    return probe_batch_layers;
}

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    const Settings settings = parse_args(argc, argv);
    const Workload workload = workload_named(settings.workload);
    std::filesystem::create_directories(settings.out_dir);

    const JsonValue spec = JsonValue::load_file(settings.root + "/BENCHMARK.json");
    const chiplet::JsonArray& wanted =
        spec.at(settings.trace ? "per_layer" : "end_to_end").as_array();

    Report report;
    Tracer tracer;
    try {
        workload(settings, settings.trace ? &tracer : nullptr, report);
        if (settings.trace) {
            add_span_metrics(tracer, report);
            std::vector<Probe> probes;
            for (const JsonValue& m : wanted) {
                const std::string& name = m.at("name").as_string();
                const Probe probe = probe_for(name);
                if (report.metrics.count(name) == 0 && probe != nullptr &&
                    std::find(probes.begin(), probes.end(), probe) == probes.end()) {
                    probes.push_back(probe);
                }
            }
            for (std::size_t p = 0; p < probes.size(); ++p) {
                Tracer probe_tracer;
                Report probe_report;
                probes[p](settings, probe_tracer, probe_report);
                add_span_metrics(probe_tracer, probe_report);
                for (auto& [name, value] : probe_report.metrics) {
                    report.metrics.emplace(name, value);
                }
                report.attempted += probe_report.attempted;
                report.failed += probe_report.failed;
                for (std::string& why : probe_report.problems) {
                    report.problems.push_back(std::move(why));
                }
                probe_tracer.write(settings.out_dir + "/trace-" + settings.workload + "-" +
                                   std::to_string(settings.seed) + "-probe" +
                                   std::to_string(p) + ".jsonl");
            }
            const std::string path = settings.out_dir + "/trace-" + settings.workload +
                                     "-" + std::to_string(settings.seed) + ".jsonl";
            if (!tracer.write(path)) report.fail("cannot write " + path);
        }
    } catch (const std::exception& e) {
        report.fail(std::string("aborted: ") + e.what());
    }

    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(report.inputs_digest));
    std::cout << "workload " << settings.workload << ", seed " << settings.seed
              << ", inputs_digest " << digest << "\n";
    // Failures go to both streams: stdout keeps them beside the result,
    // stderr shows them to a caller that keeps only its tail.
    for (const std::string& why : report.problems) {
        std::cout << "FAILED: " << why << "\n";
        std::cerr << "perfbench: FAILED: " << why << "\n";
    }

    std::string metrics;
    for (const JsonValue& m : wanted) {
        const std::string& name = m.at("name").as_string();
        const auto it = report.metrics.find(name);
        if (it == report.metrics.end() || !std::isfinite(it->second)) {
            report.fail("metric " + name + " was not measured");
            std::cout << "FAILED: metric " << name << " was not measured\n";
            std::cerr << "perfbench: FAILED: metric " << name << " was not measured\n";
            continue;
        }
        metrics += (metrics.empty() ? "" : ", ");
        metrics += "\"" + name + "\": {\"value\": " + number(it->second) +
                   ", \"unit\": \"" + m.at("unit").as_string() + "\"}";
    }
    if (report.attempted == 0) report.fail("no operation was attempted");
    const bool correct = report.failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {" << metrics
              << "}}" << std::endl;
    return correct ? 0 : 1;
}

// The four workloads and the attribution probes behind the traced runs.
//
// A workload run fills Report::metrics with its end-to-end metrics
// (setup_s, ops_per_s, p50_ms, ...).  With a tracer it instead measures
// half its window untraced and half traced — the gap is
// bench.trace_overhead_frac — and records spans around every public
// call into a module, plus the program's own counters, for the
// per-layer metrics.  Layers a workload's path never reaches are
// measured by the probes on their reference input, so every traced run
// reports every layer.
#pragma once

#include "common.h"
#include "trace.h"

namespace perfbench {

void run_paper_batch(const Settings& settings, Tracer* tracer, Report& report);
void run_design_space(const Settings& settings, Tracer* tracer, Report& report);
void run_serve_warm(const Settings& settings, Tracer* tracer, Report& report);
void run_serve_mixed(const Settings& settings, Tracer* tracer, Report& report);

/// Traced attribution probes: a few perturbed paper batches (JSON,
/// compiler, per-kind engine and die-cost layers), a few
/// bench_design_space searches (kernel vs reference), and a warm
/// closed loop against a fresh in-process actuaryd (serve stages,
/// transport floor, queue wait, metrics counters).
void probe_batch_layers(const Settings& settings, Tracer& tracer, Report& report);
void probe_design_space_layers(const Settings& settings, Tracer& tracer,
                               Report& report);
void probe_serve_layers(const Settings& settings, Tracer& tracer, Report& report);

/// Per-item counts that must repeat exactly for a seed: compared with
/// the file the previous run with the same `key` and seed left in
/// out_dir; every mismatch is printed and counted into
/// bench.count_drift.  `counts[i]` belongs to input item i.
void check_count_drift(const Settings& settings, const std::string& key,
                       const std::vector<std::vector<std::uint64_t>>& counts,
                       Report& report);

/// Adds "<span name>_ms", the median self time, for every span name the
/// tracer holds and the report does not already have.
void add_span_metrics(const Tracer& tracer, Report& report);

}  // namespace perfbench

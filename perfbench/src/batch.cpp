// The batch workloads: paper_batch (the `actuary_cli study` path over
// the paper-figures batch) and design_space (the heterogeneous search
// through run_studies_collecting).  One operation is JSON text in ->
// studies_from_json_collecting -> run_studies_collecting ->
// results_to_json().dump(), in a closed loop with one caller.
#include <array>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/actuary.h"
#include "explore/design_space.h"
#include "explore/study.h"
#include "explore/study_graph.h"
#include "explore/study_json.h"
#include "gen.h"
#include "kernels/isa.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

using chiplet::JsonValue;
namespace core = chiplet::core;
namespace explore = chiplet::explore;

namespace {

/// Untraced paper_batch runs compare every kCheckEvery-th batch with
/// serial run_study (traced runs every fourth).
constexpr std::uint64_t kCheckEvery = 8;
/// Items whose per-op counts are kept for the cross-run drift check.
constexpr std::uint64_t kCountedItems = 32;

const char* engine_span(explore::StudyKind kind) {
    static const std::array<std::string, 10> names = [] {
        std::array<std::string, 10> out;
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] = "explore.engine." +
                     explore::to_string(static_cast<explore::StudyKind>(i));
        }
        return out;
    }();
    return names[static_cast<std::size_t>(kind)].c_str();
}

/// One operation's artefacts.
struct BatchRun {
    std::vector<explore::StudySpec> specs;
    explore::StudyBatchOutcome outcome;
    std::string output;
    std::size_t parse_failures = 0;
    double run_ms = 0.0;  ///< run_studies_collecting alone
};

BatchRun run_batch(const core::ChipletActuary& actuary, const std::string& text,
                   SpanSink* sink, std::uint64_t request) {
    BatchRun r;
    Span op(sink, "bench.op", request);
    JsonValue doc;
    {
        Span s(sink, "util.json.parse", request);
        doc = JsonValue::parse(text);
    }
    std::vector<explore::StudyFailure> failures;
    {
        Span s(sink, "explore.study_json.from_json", request);
        r.specs = explore::studies_from_json_collecting(doc, "batch", failures);
    }
    r.parse_failures = failures.size();
    {
        Span s(sink, "explore.study_graph.run", request);
        const auto start = Clock::now();
        r.outcome = explore::run_studies_collecting(actuary, r.specs);
        r.run_ms = ms_between(start, Clock::now());
    }
    JsonValue results;
    {
        Span s(sink, "explore.study_json.to_json", request);
        results = explore::results_to_json(r.outcome.results);
    }
    {
        Span s(sink, "util.json.dump", request);
        r.output = results.dump();
    }
    return r;
}

/// Serial run_study over the batch's specs, compared with the batch
/// output by result fingerprint.  Returns the summed direct time in ms.
double check_serial(const core::ChipletActuary& actuary, const BatchRun& run,
                    SpanSink* sink, std::uint64_t request, Report& report) {
    std::vector<explore::StudyResult> serial;
    double direct_ms = 0.0;
    try {
        for (const explore::StudySpec& spec : run.specs) {
            const auto start = Clock::now();
            {
                Span s(sink, engine_span(spec.kind()), request);
                serial.push_back(explore::run_study(actuary, spec));
            }
            direct_ms += ms_between(start, Clock::now());
        }
    } catch (const std::exception& e) {
        report.fail("item " + std::to_string(request) +
                    ": serial run_study failed: " + e.what());
        return direct_ms;
    }
    const std::string expected = explore::results_to_json(serial).dump();
    if (result_fingerprint(expected) != result_fingerprint(run.output)) {
        report.fail("item " + std::to_string(request) +
                    ": batch output differs from serial run_study");
    }
    return direct_ms;
}

/// Operation-level failures: parse or model failures inside the batch.
bool batch_ok(const BatchRun& run, std::uint64_t request, Report& report) {
    if (run.parse_failures == 0 && run.outcome.failures.empty()) return true;
    std::string why = "item " + std::to_string(request) + ": ";
    why += run.outcome.failures.empty()
               ? std::string("study failed to parse")
               : run.outcome.failures.front().name + ": " +
                     run.outcome.failures.front().message;
    report.fail(why);
    return false;
}

/// Rankings must agree bit for bit: same accounting, same candidates in
/// the same order, identical doubles.
bool same_ranking(const explore::DesignSpaceResult& a,
                  const explore::DesignSpaceResult& b) {
    bool same = a.total_candidates == b.total_candidates &&
                a.pruned == b.pruned && a.evaluated == b.evaluated &&
                a.best.size() == b.best.size();
    for (std::size_t i = 0; same && i < a.best.size(); ++i) {
        same = a.best[i].index == b.best[i].index &&
               a.best[i].re_per_unit == b.best[i].re_per_unit &&
               a.best[i].nre_per_unit == b.best[i].nre_per_unit;
    }
    return same;
}

/// Closed-loop timing of one window.
struct Window {
    std::vector<double> latency_ms;
    std::vector<double> prepare_ms;  ///< generator time per request
    std::vector<double> work;        ///< studies or candidates per operation
    std::vector<double> op_s;        ///< operation time, seconds
    double busy_s = 0.0;             ///< summed operation time
    std::uint64_t next_item = 0;

    void add(Clock::time_point start, Clock::time_point end, double units) {
        latency_ms.push_back(ms_between(start, end));
        op_s.push_back(seconds_between(start, end));
        work.push_back(units);
        busy_s += op_s.back();
    }
    [[nodiscard]] double rate() const { return median_rate(work, op_s); }
};

void add_latency_metrics(const Window& w, Report& report) {
    report.metrics["ops_per_s"] = w.rate();
    report.metrics["p50_ms"] = windowed_percentile(w.latency_ms, 50.0);
    report.metrics["p90_ms"] = windowed_percentile(w.latency_ms, 90.0);
    // One request class: every operation is light.
    report.metrics["light_p50_ms"] = report.metrics["p50_ms"];
    report.metrics["light_p90_ms"] = report.metrics["p90_ms"];
    std::cout << "ops " << w.latency_ms.size() << ", p99_ms "
              << percentile(w.latency_ms, 99.0) << "\n";
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

// ---- paper_batch -----------------------------------------------------------

class PaperBatch {
public:
    PaperBatch(const Settings& settings, Report& report)
        : settings_(settings), report_(report) {}

    /// Actuary, the verbatim batch read from disk, and one run of it —
    /// which is also the golden check.
    void set_up(std::vector<double>& setup_s) {
        const JsonValue golden = JsonValue::load_file(
            settings_.root + "/examples/studies/paper_figures.golden.json");
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const auto start = Clock::now();
            actuary_ = std::make_unique<core::ChipletActuary>();
            paper_ = gen::load_paper_batch(settings_.root);
            const BatchRun verbatim = run_batch(*actuary_, paper_.dump(), nullptr, 0);
            setup_s.push_back(seconds_between(start, Clock::now()));

            chiplet::JsonDiffOptions exact;
            exact.tolerance = 0.0;
            exact.ignore_keys = {"meta"};
            const std::string diff =
                chiplet::json_diff(JsonValue::parse(verbatim.output), golden, exact);
            if (!batch_ok(verbatim, 0, report_) || !diff.empty()) {
                report_.fail("verbatim paper batch differs from golden: " + diff);
            }
        }
    }

    void digest_inputs() {
        for (std::uint64_t i = 0; i < 64; ++i) {
            report_.digest(gen::paper_batch(paper_, settings_.seed, i));
        }
    }

    /// Runs items until `seconds` of operation time have accumulated.
    /// With a sink, every fourth item is also compiled by plan_studies
    /// and replayed through serial run_study for the per-layer numbers.
    void loop(double seconds, Window& w, SpanSink* sink) {
        while (w.busy_s < seconds) {
            const std::uint64_t i = w.next_item++;
            const auto prepare = Clock::now();
            const std::string text = gen::paper_batch(paper_, settings_.seed, i);
            const auto start = Clock::now();
            BatchRun run;
            ++report_.attempted;
            try {
                run = run_batch(*actuary_, text, sink, i);
            } catch (const std::exception& e) {
                report_.fail("item " + std::to_string(i) + ": " + e.what());
                continue;
            }
            const auto end = Clock::now();
            w.prepare_ms.push_back(ms_between(prepare, start));
            w.add(start, end, static_cast<double>(run.specs.size()));
            if (!batch_ok(run, i, report_)) continue;
            note_counts(i, run);
            if (sink == nullptr) {
                if (i % kCheckEvery == 0) check_serial(*actuary_, run, nullptr, i, report_);
                continue;
            }
            for (const explore::StudyResult& r : run.outcome.results) {
                die_hits_ += r.run.cache_hits;
                die_probes_ += r.run.cache_hits + r.run.cache_misses;
                cell_hits_ += r.run.cell_hits;
                cell_misses_ += r.run.cell_misses;
            }
            ++traced_ops_;
            if (i % 4 == 0) {
                graph_ms_ += run.run_ms;
                direct_ms_ += check_serial(*actuary_, run, sink, i, report_);
                explore::StudyPlan plan;
                {
                    Span s(sink, "explore.study_graph.compile", i);
                    plan = explore::plan_studies(*actuary_, run.specs);
                }
                cell_refs_.push_back(static_cast<double>(plan.stats.cell_refs));
                unique_cells_.push_back(static_cast<double>(plan.stats.unique_cells));
                spec_dedups_.push_back(static_cast<double>(plan.stats.spec_dedups));
            }
        }
    }

    /// Per-layer counts gathered by traced loops.
    void add_layer_counts() {
        const double ops = std::max<double>(1.0, static_cast<double>(traced_ops_));
        report_.metrics["explore.graph.cell_refs"] = median(cell_refs_);
        report_.metrics["explore.graph.unique_cells"] = median(unique_cells_);
        report_.metrics["explore.graph.spec_dedups"] = median(spec_dedups_);
        report_.metrics["explore.cell.hits"] = static_cast<double>(cell_hits_) / ops;
        report_.metrics["explore.cell.misses"] = static_cast<double>(cell_misses_) / ops;
        report_.metrics["explore.graph_over_direct"] =
            direct_ms_ > 0.0 ? graph_ms_ / direct_ms_ : 0.0;
        report_.metrics["core.die_cost_cache.hit_rate"] =
            die_probes_ > 0 ? static_cast<double>(die_hits_) /
                                  static_cast<double>(die_probes_)
                            : 0.0;
    }

    [[nodiscard]] const std::vector<std::vector<std::uint64_t>>& counts() const {
        return counts_;
    }

private:
    void note_counts(std::uint64_t i, const BatchRun& run) {
        if (i >= kCountedItems) return;
        if (counts_.size() <= i) counts_.resize(i + 1);
        counts_[i] = {run.outcome.graph.cell_refs, run.outcome.graph.unique_cells};
    }

    const Settings& settings_;
    Report& report_;
    std::unique_ptr<core::ChipletActuary> actuary_;
    JsonValue paper_;
    std::vector<std::vector<std::uint64_t>> counts_;
    std::uint64_t traced_ops_ = 0;
    std::uint64_t die_hits_ = 0, die_probes_ = 0;
    std::uint64_t cell_hits_ = 0, cell_misses_ = 0;
    double graph_ms_ = 0.0, direct_ms_ = 0.0;
    std::vector<double> cell_refs_, unique_cells_, spec_dedups_;
};

// ---- design_space -----------------------------------------------------------

class DesignSpace {
public:
    DesignSpace(const Settings& settings, Report& report)
        : settings_(settings), report_(report) {}

    /// Actuary plus one untimed search, so the timed window starts with
    /// the pool and caches as a long-running caller would find them.
    void set_up(std::vector<double>& setup_s) {
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const auto start = Clock::now();
            actuary_ = std::make_unique<core::ChipletActuary>();
            const BatchRun warm = run_batch(
                *actuary_, gen::design_space_document(settings_.seed, ~0ull), nullptr, 0);
            setup_s.push_back(seconds_between(start, Clock::now()));
            (void)batch_ok(warm, 0, report_);
        }
    }

    void digest_inputs() {
        for (std::uint64_t i = 0; i < 64; ++i) {
            report_.digest(gen::design_space_document(settings_.seed, i));
        }
    }

    /// Every ranking is checked against explore_design_space_reference.
    /// With a sink, each item is also run through the kernel entry
    /// point, a direct run_study and plan_studies.
    void loop(double seconds, Window& w, SpanSink* sink, std::uint64_t max_items = ~0ull) {
        while (w.busy_s < seconds && w.next_item < max_items) {
            const std::uint64_t i = w.next_item++;
            const auto prepare = Clock::now();
            const std::string text = gen::design_space_document(settings_.seed, i);
            const auto start = Clock::now();
            BatchRun run;
            ++report_.attempted;
            try {
                run = run_batch(*actuary_, text, sink, i);
            } catch (const std::exception& e) {
                report_.fail("item " + std::to_string(i) + ": " + e.what());
                continue;
            }
            const auto end = Clock::now();
            w.prepare_ms.push_back(ms_between(prepare, start));
            w.add(start, end, static_cast<double>(gen::kDesignSpaceCandidates));
            if (!batch_ok(run, i, report_)) continue;
            check(run, i, sink);
        }
    }

    void add_layer_counts() {
        report_.metrics["explore.design_space.served_over_kernel"] =
            median(kernel_ms_) > 0.0 ? median(served_ms_) / median(kernel_ms_) : 0.0;
        report_.metrics["explore.design_space.evaluated"] = median(evaluated_);
        report_.metrics["explore.design_space.pruned_frac"] = median(pruned_frac_);
        report_.metrics["kernels.isa_level"] =
            static_cast<double>(chiplet::kernels::active_isa());
        std::cout << "active_isa " << chiplet::kernels::to_string(chiplet::kernels::active_isa())
                  << "\n";
    }

    /// The batch-compiler layers on this workload's own batches.
    void add_graph_counts() {
        report_.metrics["explore.graph.cell_refs"] = median(cell_refs_);
        report_.metrics["explore.graph.unique_cells"] = median(unique_cells_);
        report_.metrics["explore.graph.spec_dedups"] = median(spec_dedups_);
        report_.metrics["explore.cell.hits"] = median(cell_hits_);
        report_.metrics["explore.cell.misses"] = median(cell_misses_);
        report_.metrics["explore.graph_over_direct"] =
            median(direct_ms_) > 0.0 ? median(served_ms_) / median(direct_ms_) : 0.0;
        report_.metrics["core.die_cost_cache.hit_rate"] = median(die_hit_rate_);
    }

    [[nodiscard]] const std::vector<std::vector<std::uint64_t>>& counts() const {
        return counts_;
    }

private:
    void check(const BatchRun& run, std::uint64_t i, SpanSink* sink) {
        const explore::StudyResult& result = run.outcome.results.front();
        const auto& served = std::get<explore::DesignSpaceResult>(result.payload);
        const auto& config = std::get<explore::DesignSpaceConfig>(run.specs.front().config);
        explore::DesignSpaceResult reference;
        {
            Span s(sink, "explore.design_space.reference", i);
            reference = explore::explore_design_space_reference(*actuary_, config);
        }
        if (!same_ranking(served, reference)) {
            report_.fail("item " + std::to_string(i) +
                         ": ranking differs from explore_design_space_reference");
        }
        if (i < kCountedItems) {
            if (counts_.size() <= i) counts_.resize(i + 1);
            counts_[i] = {run.outcome.graph.cell_refs, run.outcome.graph.unique_cells,
                          served.evaluated, served.pruned};
        }
        if (sink == nullptr) return;

        auto start = Clock::now();
        explore::DesignSpaceResult kernel;
        {
            Span s(sink, "explore.design_space.kernel", i);
            kernel = explore::explore_design_space(*actuary_, config);
        }
        kernel_ms_.push_back(ms_between(start, Clock::now()));
        if (!same_ranking(kernel, reference)) {
            report_.fail("item " + std::to_string(i) +
                         ": kernel ranking differs from the reference");
        }
        start = Clock::now();
        {
            Span s(sink, engine_span(explore::StudyKind::design_space), i);
            (void)explore::run_study(*actuary_, run.specs.front());
        }
        direct_ms_.push_back(ms_between(start, Clock::now()));
        served_ms_.push_back(run.run_ms);
        explore::StudyPlan plan;
        {
            Span s(sink, "explore.study_graph.compile", i);
            plan = explore::plan_studies(*actuary_, run.specs);
        }
        cell_refs_.push_back(static_cast<double>(plan.stats.cell_refs));
        unique_cells_.push_back(static_cast<double>(plan.stats.unique_cells));
        spec_dedups_.push_back(static_cast<double>(plan.stats.spec_dedups));
        cell_hits_.push_back(static_cast<double>(result.run.cell_hits));
        cell_misses_.push_back(static_cast<double>(result.run.cell_misses));
        die_hit_rate_.push_back(result.run.cache_hit_rate());
        evaluated_.push_back(static_cast<double>(served.evaluated));
        pruned_frac_.push_back(served.pruned_fraction());
    }

    const Settings& settings_;
    Report& report_;
    std::unique_ptr<core::ChipletActuary> actuary_;
    std::vector<std::vector<std::uint64_t>> counts_;
    std::vector<double> kernel_ms_, served_ms_, direct_ms_;
    std::vector<double> cell_refs_, unique_cells_, spec_dedups_;
    std::vector<double> cell_hits_, cell_misses_, die_hit_rate_;
    std::vector<double> evaluated_, pruned_frac_;
};

/// Untraced first half, traced second half; the gap in throughput is
/// the tracing overhead.
template <typename Workload>
void traced_halves(Workload& workload, double seconds, Tracer& tracer,
                   Report& report) {
    Window untraced;
    workload.loop(seconds / 2.0, untraced, nullptr);
    Window traced;
    traced.next_item = untraced.next_item;
    workload.loop(seconds / 2.0, traced, tracer.sink());
    report.metrics["bench.trace_overhead_frac"] =
        untraced.rate() > 0.0 ? 1.0 - traced.rate() / untraced.rate() : 0.0;
    report.metrics["bench.generator_late_p90_ms"] =
        percentile(traced.prepare_ms, 90.0);
}

}  // namespace

void run_paper_batch(const Settings& settings, Tracer* tracer, Report& report) {
    PaperBatch workload(settings, report);
    std::vector<double> setup_s;
    workload.set_up(setup_s);
    workload.digest_inputs();
    if (tracer != nullptr) {
        traced_halves(workload, settings.seconds, *tracer, report);
        workload.add_layer_counts();
    } else {
        Window w;
        workload.loop(settings.seconds, w, nullptr);
        add_latency_metrics(w, report);
        add_end_to_end(setup_s, report);
    }
    check_count_drift(settings, settings.workload, workload.counts(), report);
}

void run_design_space(const Settings& settings, Tracer* tracer, Report& report) {
    DesignSpace workload(settings, report);
    std::vector<double> setup_s;
    workload.set_up(setup_s);
    workload.digest_inputs();
    if (tracer != nullptr) {
        traced_halves(workload, settings.seconds, *tracer, report);
        workload.add_layer_counts();
        workload.add_graph_counts();
    } else {
        Window w;
        workload.loop(settings.seconds, w, nullptr);
        add_latency_metrics(w, report);
        add_end_to_end(setup_s, report);
    }
    check_count_drift(settings, settings.workload, workload.counts(), report);
}

void probe_batch_layers(const Settings& settings, Tracer& tracer, Report& report) {
    PaperBatch workload(settings, report);
    std::vector<double> setup_s;
    workload.set_up(setup_s);
    Window w;
    workload.loop(0.25, w, tracer.sink());
    workload.add_layer_counts();
}

void probe_design_space_layers(const Settings& settings, Tracer& tracer,
                               Report& report) {
    DesignSpace workload(settings, report);
    std::vector<double> setup_s;
    workload.set_up(setup_s);
    Window w;
    workload.loop(1e9, w, tracer.sink(), 3);
    workload.add_layer_counts();
}

void check_count_drift(const Settings& settings, const std::string& key,
                       const std::vector<std::vector<std::uint64_t>>& counts,
                       Report& report) {
    const std::string path = settings.out_dir + "/counts-" + key +
                             "-" + std::to_string(settings.seed) + ".txt";
    std::vector<std::vector<std::uint64_t>> previous;
    if (std::ifstream in(path); in) {
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream fields(line);
            std::vector<std::uint64_t> row;
            for (std::uint64_t x = 0; fields >> x;) row.push_back(x);
            previous.push_back(std::move(row));
        }
    }
    std::uint64_t drift = 0;
    for (std::size_t i = 0; i < std::min(previous.size(), counts.size()); ++i) {
        if (!previous[i].empty() && !counts[i].empty() && previous[i] != counts[i]) {
            ++drift;
            std::cout << "count drift: item " << i
                      << " counts differ from the previous run of this seed\n";
        }
    }
    report.metrics["bench.count_drift"] = static_cast<double>(drift);
    // Keep the longer record, so a short run never erases a longer one.
    if (counts.size() >= previous.size()) {
        std::ofstream out(path);
        for (const std::vector<std::uint64_t>& row : counts) {
            for (std::size_t k = 0; k < row.size(); ++k) {
                out << (k ? " " : "") << row[k];
            }
            out << "\n";
        }
    }
}

void add_span_metrics(const Tracer& tracer, Report& report) {
    for (const auto& [name, self] : tracer.self_ms()) {
        report.metrics.emplace(name + "_ms", median(self));
    }
}

}  // namespace perfbench

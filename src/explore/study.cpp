#include "explore/study.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <optional>
#include <utility>

#include "core/scenarios.h"
#include "explore/study_graph.h"
#include "tech/json_io.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "wafer/die_cost_cache.h"

namespace chiplet::explore {

namespace {

constexpr const char* kKindNames[] = {
    "re_sweep", "quantity_sweep", "monte_carlo", "sensitivity",  "tornado",
    "breakeven", "pareto",        "recommend",   "timeline",     "design_space",
};

// ---- dispatch ---------------------------------------------------------------

StudyPayload dispatch(const core::ChipletActuary& a, const ReSweepConfig& c) {
    return sweep_re_grid(a, c);
}
StudyPayload dispatch(const core::ChipletActuary& a, const QuantitySweepConfig& c) {
    return sweep_total_vs_quantity(a, c);
}
StudyPayload dispatch(const core::ChipletActuary& a, const McStudyConfig& c) {
    return run_monte_carlo(a, c);
}
StudyPayload dispatch(const core::ChipletActuary& a,
                      const SensitivityStudyConfig& c) {
    return run_sensitivity(a, c);
}
StudyPayload dispatch(const core::ChipletActuary& a, const TornadoStudyConfig& c) {
    return run_tornado(a, c);
}
StudyPayload dispatch(const core::ChipletActuary& a, const BreakevenQuery& c) {
    return breakeven_search(a, c);
}
StudyPayload dispatch(const core::ChipletActuary&, const ParetoConfig& c) {
    return run_pareto(c);
}
StudyPayload dispatch(const core::ChipletActuary& a, const DecisionQuery& c) {
    return recommend(a, c);
}
StudyPayload dispatch(const core::ChipletActuary& a,
                      const TimelineStudyConfig& c) {
    return run_timeline(a, c);
}
StudyPayload dispatch(const core::ChipletActuary& a, const DesignSpaceConfig& c) {
    return explore_design_space(a, c);
}

// ---- tabular view -----------------------------------------------------------

std::string cell(double value) {
    // 9 significant digits: the quantisation step (~1e-8 relative) stays
    // well inside the golden-diff tolerance (1e-6), so cross-toolchain
    // FP noise cannot push a cell across a rounding boundary.
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return buffer;
}

StudyTable make_table(const std::vector<ReSweepPoint>& points) {
    StudyTable t;
    t.columns = {"node", "packaging", "chiplets", "area_mm2", "re_total_usd",
                 "normalized"};
    for (const ReSweepPoint& p : points) {
        t.rows.push_back({p.node, p.packaging, std::to_string(p.chiplets),
                          cell(p.area_mm2), cell(p.re.total()),
                          cell(p.normalized)});
    }
    return t;
}

StudyTable make_table(const std::vector<QuantitySweepPoint>& points) {
    StudyTable t;
    t.columns = {"packaging", "quantity", "re_per_unit", "nre_per_unit",
                 "total_per_unit"};
    for (const QuantitySweepPoint& p : points) {
        t.rows.push_back({p.packaging, cell(p.quantity), cell(p.cost.re.total()),
                          cell(p.cost.nre.total()),
                          cell(p.cost.total_per_unit())});
    }
    return t;
}

StudyTable make_table(const McStudyOutcome& outcome) {
    StudyTable t;
    t.columns = {"metric", "value"};
    t.rows = {{"draws", std::to_string(outcome.mc.samples.size())},
              {"mean", cell(outcome.mc.mean)},
              {"stddev", cell(outcome.mc.stddev)},
              {"p05", cell(outcome.mc.p05)},
              {"p50", cell(outcome.mc.p50)},
              {"p95", cell(outcome.mc.p95)}};
    if (outcome.has_compare) {
        t.rows.push_back({"win_rate", cell(outcome.win_rate)});
    }
    return t;
}

StudyTable make_table(const std::vector<SensitivityEntry>& entries) {
    StudyTable t;
    t.columns = {"parameter", "base_value", "base_cost", "perturbed_cost",
                 "elasticity"};
    for (const SensitivityEntry& e : entries) {
        t.rows.push_back({e.parameter, cell(e.base_value), cell(e.base_cost),
                          cell(e.perturbed_cost), cell(e.elasticity)});
    }
    return t;
}

StudyTable make_table(const std::vector<TornadoEntry>& entries) {
    StudyTable t;
    t.columns = {"parameter", "base_value", "cost_low", "cost_high", "swing"};
    for (const TornadoEntry& e : entries) {
        t.rows.push_back({e.parameter, cell(e.base_value), cell(e.cost_low),
                          cell(e.cost_high), cell(e.swing())});
    }
    return t;
}

StudyTable make_table(const Breakeven& b) {
    StudyTable t;
    t.columns = {"metric", "value"};
    t.rows = {{"found", b.found ? "true" : "false"},
              {"value", cell(b.value)},
              {"soc_cost", cell(b.soc_cost)},
              {"alt_cost", cell(b.alt_cost)}};
    return t;
}

StudyTable make_table(const std::vector<ParetoPoint>& points,
                      const StudyConfig& config) {
    const auto* pareto = std::get_if<ParetoConfig>(&config);
    StudyTable t;
    t.columns = {pareto ? pareto->x_label : "x", pareto ? pareto->y_label : "y",
                 "index"};
    for (const ParetoPoint& p : points) {
        t.rows.push_back({cell(p.x), cell(p.y), std::to_string(p.index)});
    }
    return t;
}

StudyTable make_table(const Recommendation& rec) {
    StudyTable t;
    t.columns = {"packaging", "chiplets", "re_per_unit", "nre_per_unit",
                 "total_per_unit"};
    for (const DesignOption& o : rec.options) {
        t.rows.push_back({o.packaging, std::to_string(o.chiplets),
                          cell(o.re_per_unit), cell(o.nre_per_unit),
                          cell(o.total_per_unit())});
    }
    return t;
}

StudyTable make_table(const TimelineOutcome& outcome) {
    StudyTable t;
    t.columns = {"month", "defect_density", "unit_cost"};
    for (const TimelinePoint& p : outcome.trajectory) {
        t.rows.push_back(
            {cell(p.month), cell(p.defect_density), cell(p.unit_cost)});
    }
    return t;
}

StudyTable make_table(const DesignSpaceResult& result) {
    StudyTable t;
    t.columns = {"rank",     "packaging",   "chiplets",     "nodes",
                 "quantity", "re_per_unit", "nre_per_unit", "total_per_unit"};
    for (std::size_t i = 0; i < result.best.size(); ++i) {
        const DesignCandidate& c = result.best[i];
        t.rows.push_back({std::to_string(i + 1), c.packaging,
                          std::to_string(c.chiplets), join(c.nodes, "+"),
                          cell(c.quantity), cell(c.re_per_unit),
                          cell(c.nre_per_unit), cell(c.total_per_unit())});
    }
    return t;
}

StudyTable make_table(const StudyPayload& payload, const StudyConfig& config) {
    return std::visit(
        [&](const auto& typed) -> StudyTable {
            using T = std::decay_t<decltype(typed)>;
            if constexpr (std::is_same_v<T, std::vector<ParetoPoint>>) {
                return make_table(typed, config);
            } else {
                return make_table(typed);
            }
        },
        payload);
}

// ---- explain: itemised cost ledgers -----------------------------------------

void add_ledger(StudyResult& out, std::string label, core::SystemCost cost) {
    out.ledgers.push_back(StudyLedger{std::move(label), std::move(cost.ledger)});
}

/// Fills StudyResult::ledgers for the spec's kind.  Which systems are
/// itemised is kind-specific (documented in docs/studies.md#explain):
/// concrete scenarios are explained as-is, searches explain their
/// winner, grids their representative first cell; pareto has no cost
/// model behind it and attaches nothing.
void attach_ledgers(const core::ChipletActuary& a, const StudySpec& spec,
                    StudyResult& out) {
    switch (spec.kind()) {
        case StudyKind::re_sweep: {
            const auto& points = std::get<std::vector<ReSweepPoint>>(out.payload);
            if (points.empty()) break;
            const auto& config = std::get<ReSweepConfig>(spec.config);
            const ReSweepPoint& p = points.front();
            add_ledger(out,
                       "first cell: " + p.node + " " + p.packaging + " x" +
                           std::to_string(p.chiplets) + " @ " +
                           cell(p.area_mm2) + " mm2 (RE only)",
                       a.explain_re_only(sweep_cell_system(
                           a, p.node, p.packaging, p.area_mm2, p.chiplets,
                           config.d2d_fraction, 1e6)));
            break;
        }
        case StudyKind::quantity_sweep: {
            const auto& config = std::get<QuantitySweepConfig>(spec.config);
            const auto& points =
                std::get<std::vector<QuantitySweepPoint>>(out.payload);
            for (const QuantitySweepPoint& p : points) {
                add_ledger(out, p.packaging + " @ " + cell(p.quantity) + " units",
                           a.explain(sweep_cell_system(
                               a, config.node, p.packaging,
                               config.module_area_mm2, config.chiplets,
                               config.d2d_fraction, p.quantity)));
            }
            break;
        }
        case StudyKind::monte_carlo: {
            const auto& config = std::get<McStudyConfig>(spec.config);
            add_ledger(out, "scenario (nominal inputs)",
                       a.explain(config.scenario.build(a.library(), "scenario")));
            if (config.compare) {
                add_ledger(out, "compare (nominal inputs)",
                           a.explain(config.compare->build(a.library(), "compare")));
            }
            break;
        }
        case StudyKind::sensitivity: {
            const auto& config = std::get<SensitivityStudyConfig>(spec.config);
            add_ledger(out, "base scenario",
                       a.explain(config.scenario.build(a.library(), "scenario")));
            break;
        }
        case StudyKind::tornado: {
            const auto& config = std::get<TornadoStudyConfig>(spec.config);
            add_ledger(out, "base scenario",
                       a.explain(config.scenario.build(a.library(), "scenario")));
            break;
        }
        case StudyKind::breakeven: {
            const auto& config = std::get<BreakevenQuery>(spec.config);
            const auto& b = std::get<Breakeven>(out.payload);
            if (!b.found) break;
            if (config.axis == BreakevenQuery::Axis::quantity) {
                // breakeven_candidate_system is the solver's own
                // construction, so each ledger itemises the very system
                // whose cost the payload reports.
                add_ledger(out, "SoC @ break-even quantity " + cell(b.value),
                           a.explain(breakeven_candidate_system(
                               config.node, "SoC", config.module_area_mm2, 1,
                               config.d2d_fraction, b.value)));
                add_ledger(out,
                           config.packaging + " x" +
                               std::to_string(config.chiplets) +
                               " @ break-even quantity " + cell(b.value),
                           a.explain(breakeven_candidate_system(
                               config.node, config.packaging,
                               config.module_area_mm2, config.chiplets,
                               config.d2d_fraction, b.value)));
            } else {
                add_ledger(out,
                           "SoC @ turning-point area " + cell(b.value) +
                               " mm2 (RE only)",
                           a.explain_re_only(core::monolithic_soc(
                               "soc", config.node, b.value, 1e6)));
                add_ledger(out,
                           config.packaging + " x" +
                               std::to_string(config.chiplets) +
                               " @ turning-point area " + cell(b.value) +
                               " mm2 (RE only)",
                           a.explain_re_only(core::split_system(
                               "alt", config.node, config.packaging, b.value,
                               config.chiplets, config.d2d_fraction, 1e6)));
            }
            break;
        }
        case StudyKind::pareto:
            break;  // pure geometry over caller-supplied points
        case StudyKind::recommend: {
            const auto& config = std::get<DecisionQuery>(spec.config);
            const auto& rec = std::get<Recommendation>(out.payload);
            if (rec.options.empty()) break;
            const DesignOption& best = rec.best();
            add_ledger(out,
                       "best option: " + best.packaging + " x" +
                           std::to_string(best.chiplets),
                       a.explain(design_space_candidate_system(
                           a, decision_space(config), best.space_index)));
            break;
        }
        case StudyKind::timeline: {
            const auto& config = std::get<TimelineStudyConfig>(spec.config);
            add_ledger(out, "scenario (library defect density)",
                       a.explain(config.scenario.build(a.library(), "scenario")));
            if (config.compare) {
                add_ledger(out, "compare (library defect density)",
                           a.explain(config.compare->build(a.library(), "compare")));
            }
            break;
        }
        case StudyKind::design_space: {
            const auto& config = std::get<DesignSpaceConfig>(spec.config);
            const auto& result = std::get<DesignSpaceResult>(out.payload);
            if (result.best.empty()) break;
            const DesignCandidate& winner = result.best.front();
            add_ledger(out,
                       "rank 1: " + winner.packaging + " x" +
                           std::to_string(winner.chiplets) + " [" +
                           join(winner.nodes, "+") + "]",
                       a.explain(design_space_candidate_system(a, config,
                                                               winner.index)));
            break;
        }
    }
    out.run.with_ledgers = !out.ledgers.empty();
}

}  // namespace

std::string to_string(StudyKind kind) {
    return kKindNames[static_cast<std::size_t>(kind)];
}

StudyKind study_kind_from_string(const std::string& s) {
    for (std::size_t i = 0; i < std::size(kKindNames); ++i) {
        if (s == kKindNames[i]) return static_cast<StudyKind>(i);
    }
    std::string choices;
    for (const char* name : kKindNames) {
        if (!choices.empty()) choices += ", ";
        choices += name;
    }
    throw ParseError("unknown study kind: '" + s + "' (expected one of: " +
                     choices + ")");
}

StudyResult run_study_on(const core::ChipletActuary& effective,
                         const StudySpec& spec) {
    const auto start = std::chrono::steady_clock::now();
    const wafer::DieCostCache::Stats before =
        wafer::DieCostCache::global().stats();

    StudyResult out;
    out.name = spec.name;
    out.kind = spec.kind();
    out.payload = std::visit(
        [&](const auto& config) { return dispatch(effective, config); },
        spec.config);
    out.table = make_table(out.payload, spec.config);
    if (spec.explain) attach_ledgers(effective, spec, out);

    const wafer::DieCostCache::Stats after = wafer::DieCostCache::global().stats();
    out.run.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    out.run.threads = util::ThreadPool::global().size();
    out.run.cache_hits = after.hits - before.hits;
    out.run.cache_misses = after.misses - before.misses;
    return out;
}

StudyResult run_study(const core::ChipletActuary& actuary,
                      const StudySpec& spec) {
    // Tech overrides patch a copy; the caller's actuary is never mutated.
    std::optional<core::ChipletActuary> patched;
    if (!spec.tech_overrides.is_null()) {
        tech::TechLibrary lib = actuary.library();
        tech::apply_overrides(lib, spec.tech_overrides,
                              "study '" + spec.name + "': tech");
        patched.emplace(std::move(lib), actuary.assumptions());
    }
    return run_study_on(patched ? *patched : actuary, spec);
}

std::vector<StudyResult> run_studies(const core::ChipletActuary& actuary,
                                     std::span<const StudySpec> specs) {
    // The compiled execution graph (explore/study_graph.h) shares cost
    // cells across overlapping studies; payloads are bit-identical to a
    // serial run_study loop.  The historical contract throws the first
    // failing study's error in batch order.
    StudyGraphRun run = run_study_graph(actuary, specs);
    std::vector<StudyResult> out;
    out.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (run.errors[i]) std::rethrow_exception(run.errors[i]);
        out.push_back(*std::move(run.results[i]));
    }
    return out;
}

StudyBatchOutcome run_studies_collecting(const core::ChipletActuary& actuary,
                                         std::span<const StudySpec> specs,
                                         std::span<const std::string> canonicals) {
    // The compiled execution graph (explore/study_graph.h) shares cost
    // cells across overlapping studies and serves byte-identical specs
    // once; payloads stay bit-identical to a serial run_study loop.
    StudyGraphRun run = run_study_graph(actuary, specs, canonicals);

    StudyBatchOutcome out;
    out.graph = run.stats;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (run.results[i]) {
            out.results.push_back(*std::move(run.results[i]));
            out.indices.push_back(i);
            continue;
        }
        StudyFailure failure;
        failure.index = i;
        failure.name = specs[i].name;
        try {
            std::rethrow_exception(run.errors[i]);
        } catch (const ParseError& e) {
            failure.stage = "parse";
            failure.message = e.what();
        } catch (const Error& e) {
            failure.stage = "model";
            failure.message = e.what();
        }
        out.failures.push_back(std::move(failure));
    }
    return out;
}

std::vector<StudyFailure> merge_failures(
    std::vector<StudyFailure> parse_failures,
    std::vector<StudyFailure> run_failures,
    std::span<const std::size_t> kept_indices) {
    for (StudyFailure& f : run_failures) {
        f.index = kept_indices[f.index];
    }
    parse_failures.insert(parse_failures.end(),
                          std::make_move_iterator(run_failures.begin()),
                          std::make_move_iterator(run_failures.end()));
    std::sort(parse_failures.begin(), parse_failures.end(),
              [](const StudyFailure& a, const StudyFailure& b) {
                  return a.index < b.index;
              });
    return parse_failures;
}

}  // namespace chiplet::explore

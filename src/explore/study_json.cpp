#include "explore/study_json.h"

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "design/json_io.h"
#include "util/error.h"

namespace chiplet::explore {

namespace {

// ---- shared fragments -------------------------------------------------------

JsonValue to_json(const core::ReBreakdown& re) {
    JsonValue v = JsonValue::object();
    v.set("raw_chips", re.raw_chips);
    v.set("chip_defects", re.chip_defects);
    v.set("raw_package", re.raw_package);
    v.set("package_defects", re.package_defects);
    v.set("wasted_kgd", re.wasted_kgd);
    v.set("total", re.total());
    return v;
}

JsonValue to_json(const core::NreBreakdown& nre) {
    JsonValue v = JsonValue::object();
    v.set("modules", nre.modules);
    v.set("chips", nre.chips);
    v.set("packages", nre.packages);
    v.set("d2d", nre.d2d);
    v.set("total", nre.total());
    return v;
}

JsonValue strings_to_json(const std::vector<std::string>& values) {
    JsonValue v = JsonValue::array();
    for (const std::string& s : values) v.push_back(s);
    return v;
}

JsonValue numbers_to_json(const std::vector<double>& values) {
    JsonValue v = JsonValue::array();
    for (double d : values) v.push_back(d);
    return v;
}

JsonValue counts_to_json(const std::vector<unsigned>& values) {
    JsonValue v = JsonValue::array();
    for (unsigned u : values) v.push_back(u);
    return v;
}

const char* axis_name(BreakevenQuery::Axis axis) {
    return axis == BreakevenQuery::Axis::quantity ? "quantity" : "area";
}

/// Reads a uint64 that may be stored as a number (<= 2^53) or as a
/// decimal string (the lossless form config_to_json emits above 2^53).
void read_seed(const JsonReader& r, const std::string& key, std::uint64_t& out) {
    if (!r.has(key)) return;
    const JsonValue& v = r.json().at(key);
    if (v.is_string()) {
        const std::string& s = v.as_string();
        if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
            r.fail(key, "expected a non-negative integer");
        }
        errno = 0;
        char* end = nullptr;
        const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
        if (errno != 0 || end != s.c_str() + s.size()) {
            r.fail(key, "integer out of range");
        }
        out = parsed;
        return;
    }
    r.optional(key, out);
}

// ---- per-kind config serialisation ------------------------------------------

JsonValue config_to_json(const ReSweepConfig& c) {
    JsonValue v = JsonValue::object();
    v.set("nodes", strings_to_json(c.nodes));
    v.set("packagings", strings_to_json(c.packagings));
    v.set("chiplet_counts", counts_to_json(c.chiplet_counts));
    v.set("areas_mm2", numbers_to_json(c.areas_mm2));
    v.set("d2d_fraction", c.d2d_fraction);
    v.set("normalization_area_mm2", c.normalization_area_mm2);
    return v;
}

JsonValue config_to_json(const QuantitySweepConfig& c) {
    JsonValue v = JsonValue::object();
    v.set("node", c.node);
    v.set("module_area_mm2", c.module_area_mm2);
    v.set("chiplets", c.chiplets);
    v.set("d2d_fraction", c.d2d_fraction);
    v.set("packagings", strings_to_json(c.packagings));
    v.set("quantities", numbers_to_json(c.quantities));
    return v;
}

JsonValue config_to_json(const McStudyConfig& c) {
    JsonValue v = JsonValue::object();
    v.set("scenario", to_json(c.scenario));
    if (c.compare) v.set("compare", to_json(*c.compare));
    v.set("spread", c.spread);
    v.set("draws", c.draws);
    // Doubles hold integers exactly only up to 2^53; bigger seeds go
    // through a decimal string so the spec round-trip stays lossless.
    if (c.seed <= (1ull << 53)) {
        v.set("seed", static_cast<double>(c.seed));
    } else {
        v.set("seed", std::to_string(c.seed));
    }
    return v;
}

JsonValue config_to_json(const SensitivityStudyConfig& c) {
    JsonValue v = JsonValue::object();
    v.set("scenario", to_json(c.scenario));
    v.set("rel_step", c.rel_step);
    return v;
}

JsonValue config_to_json(const TornadoStudyConfig& c) {
    JsonValue v = JsonValue::object();
    v.set("scenario", to_json(c.scenario));
    v.set("rel_range", c.rel_range);
    return v;
}

JsonValue config_to_json(const BreakevenQuery& c) {
    JsonValue v = JsonValue::object();
    v.set("axis", axis_name(c.axis));
    v.set("node", c.node);
    v.set("module_area_mm2", c.module_area_mm2);
    v.set("chiplets", c.chiplets);
    v.set("packaging", c.packaging);
    v.set("d2d_fraction", c.d2d_fraction);
    v.set("lo", c.lo);
    v.set("hi", c.hi);
    return v;
}

JsonValue config_to_json(const ParetoConfig& c) {
    JsonValue points = JsonValue::array();
    for (const ParetoPoint& p : c.points) {
        JsonValue point = JsonValue::object();
        point.set("x", p.x);
        point.set("y", p.y);
        point.set("index", static_cast<double>(p.index));
        points.push_back(std::move(point));
    }
    JsonValue v = JsonValue::object();
    v.set("points", std::move(points));
    v.set("x_label", c.x_label);
    v.set("y_label", c.y_label);
    return v;
}

JsonValue config_to_json(const DecisionQuery& c) {
    JsonValue v = JsonValue::object();
    v.set("node", c.node);
    v.set("module_area_mm2", c.module_area_mm2);
    v.set("quantity", c.quantity);
    v.set("d2d_fraction", c.d2d_fraction);
    v.set("max_chiplets", c.max_chiplets);
    v.set("packagings", strings_to_json(c.packagings));
    return v;
}

JsonValue config_to_json(const TimelineStudyConfig& c) {
    JsonValue v = JsonValue::object();
    v.set("scenario", to_json(c.scenario));
    if (c.compare) v.set("compare", to_json(*c.compare));
    v.set("initial_defects_per_cm2", c.initial_defects_per_cm2);
    v.set("mature_defects_per_cm2", c.mature_defects_per_cm2);
    v.set("tau_months", c.tau_months);
    v.set("months", c.months);
    v.set("step_months", c.step_months);
    return v;
}

JsonValue config_to_json(const DesignSpaceConfig& c) {
    JsonValue v = JsonValue::object();
    if (!c.modules.empty()) {
        JsonValue modules = JsonValue::array();
        for (const design::Module& m : c.modules) {
            modules.push_back(design::to_json(m));
        }
        v.set("modules", std::move(modules));
    }
    v.set("module_area_mm2", c.module_area_mm2);
    v.set("reference_node", c.reference_node);
    v.set("chiplet_counts", counts_to_json(c.chiplet_counts));
    v.set("nodes", strings_to_json(c.nodes));
    v.set("uniform_nodes", c.uniform_nodes);
    v.set("packagings", strings_to_json(c.packagings));
    v.set("quantities", numbers_to_json(c.quantities));
    v.set("d2d_fraction", c.d2d_fraction);
    v.set("top_k", c.top_k);
    v.set("chunk", static_cast<double>(c.chunk));
    v.set("prune", c.prune);
    // Only emitted when a shard window is set: the canonical spec JSON —
    // and with it spec_hash — of whole-space studies stays byte-identical.
    if (c.index_begin != 0 || c.index_end != 0) {
        v.set("index_begin", static_cast<double>(c.index_begin));
        v.set("index_end", static_cast<double>(c.index_end));
    }
    JsonValue reticle = JsonValue::object();
    reticle.set("field_width_mm", c.reticle.field_width_mm);
    reticle.set("field_height_mm", c.reticle.field_height_mm);
    v.set("reticle", std::move(reticle));
    v.set("max_die_area_mm2", c.max_die_area_mm2);
    return v;
}

// ---- per-kind config parsing ------------------------------------------------

StudyConfig config_from_json(StudyKind kind, const JsonValue& v,
                             const std::string& context) {
    const JsonReader r(v, context);
    switch (kind) {
        case StudyKind::re_sweep: {
            ReSweepConfig c;
            r.optional("nodes", c.nodes);
            r.optional("packagings", c.packagings);
            r.optional("chiplet_counts", c.chiplet_counts);
            r.optional("areas_mm2", c.areas_mm2);
            r.optional("d2d_fraction", c.d2d_fraction);
            r.optional("normalization_area_mm2", c.normalization_area_mm2);
            return c;
        }
        case StudyKind::quantity_sweep: {
            QuantitySweepConfig c;
            r.optional("node", c.node);
            r.optional("module_area_mm2", c.module_area_mm2);
            r.optional("chiplets", c.chiplets);
            r.optional("d2d_fraction", c.d2d_fraction);
            r.optional("packagings", c.packagings);
            r.optional("quantities", c.quantities);
            return c;
        }
        case StudyKind::monte_carlo: {
            McStudyConfig c;
            if (r.has("scenario")) {
                c.scenario = scenario_from_json(r.require("scenario"),
                                                context + ".scenario");
            }
            if (r.has("compare")) {
                c.compare = scenario_from_json(r.require("compare"),
                                               context + ".compare");
            }
            r.optional("spread", c.spread);
            r.optional("draws", c.draws);
            read_seed(r, "seed", c.seed);
            return c;
        }
        case StudyKind::sensitivity: {
            SensitivityStudyConfig c;
            if (r.has("scenario")) {
                c.scenario = scenario_from_json(r.require("scenario"),
                                                context + ".scenario");
            }
            r.optional("rel_step", c.rel_step);
            return c;
        }
        case StudyKind::tornado: {
            TornadoStudyConfig c;
            if (r.has("scenario")) {
                c.scenario = scenario_from_json(r.require("scenario"),
                                                context + ".scenario");
            }
            r.optional("rel_range", c.rel_range);
            return c;
        }
        case StudyKind::breakeven: {
            BreakevenQuery c;
            if (r.has("axis")) {
                const std::string axis = r.require_string("axis");
                if (axis == "quantity") {
                    c.axis = BreakevenQuery::Axis::quantity;
                } else if (axis == "area") {
                    c.axis = BreakevenQuery::Axis::area;
                } else {
                    r.fail("axis", "expected 'quantity' or 'area', got '" +
                                       axis + "'");
                }
            }
            r.optional("node", c.node);
            r.optional("module_area_mm2", c.module_area_mm2);
            r.optional("chiplets", c.chiplets);
            r.optional("packaging", c.packaging);
            r.optional("d2d_fraction", c.d2d_fraction);
            r.optional("lo", c.lo);
            r.optional("hi", c.hi);
            return c;
        }
        case StudyKind::pareto: {
            ParetoConfig c;
            const JsonArray& points = r.require_array("points");
            for (std::size_t i = 0; i < points.size(); ++i) {
                const JsonReader p(points[i], r.element_context("points", i));
                ParetoPoint point;
                point.x = p.require_number("x");
                point.y = p.require_number("y");
                std::uint64_t index = i;
                p.optional("index", index);
                point.index = static_cast<std::size_t>(index);
                c.points.push_back(point);
            }
            r.optional("x_label", c.x_label);
            r.optional("y_label", c.y_label);
            return c;
        }
        case StudyKind::recommend: {
            DecisionQuery c;
            r.optional("node", c.node);
            r.optional("module_area_mm2", c.module_area_mm2);
            r.optional("quantity", c.quantity);
            r.optional("d2d_fraction", c.d2d_fraction);
            r.optional("max_chiplets", c.max_chiplets);
            r.optional("packagings", c.packagings);
            return c;
        }
        case StudyKind::timeline: {
            TimelineStudyConfig c;
            if (r.has("scenario")) {
                c.scenario = scenario_from_json(r.require("scenario"),
                                                context + ".scenario");
            }
            if (r.has("compare")) {
                c.compare = scenario_from_json(r.require("compare"),
                                               context + ".compare");
            }
            r.optional("initial_defects_per_cm2", c.initial_defects_per_cm2);
            r.optional("mature_defects_per_cm2", c.mature_defects_per_cm2);
            r.optional("tau_months", c.tau_months);
            r.optional("months", c.months);
            r.optional("step_months", c.step_months);
            return c;
        }
        case StudyKind::design_space: {
            DesignSpaceConfig c;
            if (r.has("modules")) {
                const JsonArray& modules = r.require_array("modules");
                for (std::size_t i = 0; i < modules.size(); ++i) {
                    c.modules.push_back(design::module_from_json(
                        modules[i], r.element_context("modules", i)));
                }
            }
            r.optional("module_area_mm2", c.module_area_mm2);
            r.optional("reference_node", c.reference_node);
            r.optional("chiplet_counts", c.chiplet_counts);
            r.optional("nodes", c.nodes);
            r.optional("uniform_nodes", c.uniform_nodes);
            r.optional("packagings", c.packagings);
            r.optional("quantities", c.quantities);
            r.optional("d2d_fraction", c.d2d_fraction);
            r.optional("top_k", c.top_k);
            std::uint64_t chunk = c.chunk;
            r.optional("chunk", chunk);
            c.chunk = static_cast<std::size_t>(chunk);
            r.optional("prune", c.prune);
            r.optional("index_begin", c.index_begin);
            r.optional("index_end", c.index_end);
            if (r.has("reticle")) {
                const JsonReader reticle(r.require("reticle"),
                                         context + ".reticle");
                reticle.optional("field_width_mm", c.reticle.field_width_mm);
                reticle.optional("field_height_mm", c.reticle.field_height_mm);
            }
            r.optional("max_die_area_mm2", c.max_die_area_mm2);
            return c;
        }
    }
    throw ParseError(context + ": unhandled study kind");
}

// ---- per-kind payload serialisation -----------------------------------------

JsonValue payload_to_json(const std::vector<ReSweepPoint>& points) {
    JsonValue v = JsonValue::array();
    for (const ReSweepPoint& p : points) {
        JsonValue point = JsonValue::object();
        point.set("node", p.node);
        point.set("packaging", p.packaging);
        point.set("chiplets", p.chiplets);
        point.set("area_mm2", p.area_mm2);
        point.set("re", to_json(p.re));
        point.set("normalized", p.normalized);
        v.push_back(std::move(point));
    }
    return v;
}

JsonValue payload_to_json(const std::vector<QuantitySweepPoint>& points) {
    JsonValue v = JsonValue::array();
    for (const QuantitySweepPoint& p : points) {
        JsonValue point = JsonValue::object();
        point.set("packaging", p.packaging);
        point.set("quantity", p.quantity);
        point.set("re", to_json(p.cost.re));
        point.set("nre", to_json(p.cost.nre));
        point.set("total_per_unit", p.cost.total_per_unit());
        v.push_back(std::move(point));
    }
    return v;
}

JsonValue payload_to_json(const McStudyOutcome& outcome) {
    JsonValue v = JsonValue::object();
    v.set("draws", static_cast<double>(outcome.mc.samples.size()));
    v.set("mean", outcome.mc.mean);
    v.set("stddev", outcome.mc.stddev);
    v.set("p05", outcome.mc.p05);
    v.set("p50", outcome.mc.p50);
    v.set("p95", outcome.mc.p95);
    if (outcome.has_compare) v.set("win_rate", outcome.win_rate);
    return v;
}

JsonValue payload_to_json(const std::vector<SensitivityEntry>& entries) {
    JsonValue v = JsonValue::array();
    for (const SensitivityEntry& e : entries) {
        JsonValue entry = JsonValue::object();
        entry.set("parameter", e.parameter);
        entry.set("base_value", e.base_value);
        entry.set("base_cost", e.base_cost);
        entry.set("perturbed_cost", e.perturbed_cost);
        entry.set("elasticity", e.elasticity);
        v.push_back(std::move(entry));
    }
    return v;
}

JsonValue payload_to_json(const std::vector<TornadoEntry>& entries) {
    JsonValue v = JsonValue::array();
    for (const TornadoEntry& e : entries) {
        JsonValue entry = JsonValue::object();
        entry.set("parameter", e.parameter);
        entry.set("base_value", e.base_value);
        entry.set("cost_low", e.cost_low);
        entry.set("cost_high", e.cost_high);
        entry.set("swing", e.swing());
        v.push_back(std::move(entry));
    }
    return v;
}

JsonValue payload_to_json(const Breakeven& b) {
    JsonValue v = JsonValue::object();
    v.set("found", b.found);
    v.set("value", b.value);
    v.set("soc_cost", b.soc_cost);
    v.set("alt_cost", b.alt_cost);
    return v;
}

JsonValue payload_to_json(const std::vector<ParetoPoint>& points) {
    JsonValue v = JsonValue::array();
    for (const ParetoPoint& p : points) {
        JsonValue point = JsonValue::object();
        point.set("x", p.x);
        point.set("y", p.y);
        point.set("index", static_cast<double>(p.index));
        v.push_back(std::move(point));
    }
    return v;
}

JsonValue payload_to_json(const Recommendation& rec) {
    JsonValue options = JsonValue::array();
    bool has_soc = false;
    for (const DesignOption& o : rec.options) {
        has_soc = has_soc || o.packaging == "SoC";
        JsonValue option = JsonValue::object();
        option.set("packaging", o.packaging);
        option.set("chiplets", o.chiplets);
        option.set("re_per_unit", o.re_per_unit);
        option.set("nre_per_unit", o.nre_per_unit);
        option.set("total_per_unit", o.total_per_unit());
        options.push_back(std::move(option));
    }
    JsonValue v = JsonValue::object();
    v.set("options", std::move(options));
    if (has_soc && !rec.options.empty()) {
        v.set("savings_vs_soc", rec.savings_vs_soc());
    }
    return v;
}

JsonValue payload_to_json(const DesignSpaceResult& result) {
    JsonValue best = JsonValue::array();
    for (const DesignCandidate& c : result.best) {
        JsonValue entry = JsonValue::object();
        entry.set("index", static_cast<double>(c.index));
        entry.set("packaging", c.packaging);
        entry.set("chiplets", c.chiplets);
        entry.set("nodes", strings_to_json(c.nodes));
        entry.set("die_areas_mm2", numbers_to_json(c.die_areas_mm2));
        entry.set("quantity", c.quantity);
        entry.set("re_per_unit", c.re_per_unit);
        entry.set("nre_per_unit", c.nre_per_unit);
        entry.set("total_per_unit", c.total_per_unit());
        best.push_back(std::move(entry));
    }
    JsonValue v = JsonValue::object();
    v.set("total_candidates", static_cast<double>(result.total_candidates));
    v.set("pruned", static_cast<double>(result.pruned));
    v.set("evaluated", static_cast<double>(result.evaluated));
    v.set("pruned_fraction", result.pruned_fraction());
    v.set("best", std::move(best));
    return v;
}

JsonValue payload_to_json(const TimelineOutcome& outcome) {
    JsonValue trajectory = JsonValue::array();
    for (const TimelinePoint& p : outcome.trajectory) {
        JsonValue point = JsonValue::object();
        point.set("month", p.month);
        point.set("defect_density", p.defect_density);
        point.set("unit_cost", p.unit_cost);
        trajectory.push_back(std::move(point));
    }
    JsonValue v = JsonValue::object();
    v.set("trajectory", std::move(trajectory));
    if (outcome.has_compare) v.set("crossover_month", outcome.crossover_month);
    return v;
}

}  // namespace

// ---- public surface ---------------------------------------------------------

JsonValue to_json(const core::CostTerm& term) {
    JsonValue v = JsonValue::object();
    v.set("id", term.id);
    v.set("label", term.label);
    v.set("paper_eq", term.paper_eq);
    v.set("category", core::to_string(term.category));
    v.set("scope", core::to_string(term.scope));
    v.set("quantity", term.quantity);
    v.set("unit_cost_usd", term.unit_cost_usd);
    v.set("subtotal_usd", term.subtotal_usd);
    return v;
}

core::CostTerm cost_term_from_json(const JsonValue& v,
                                   const std::string& context) {
    const JsonReader r(v, context);
    core::CostTerm term;
    term.id = r.require_string("id");
    term.label = r.require_string("label");
    term.paper_eq = r.require_string("paper_eq");
    try {
        term.category = core::cost_category_from_string(r.require_string("category"));
        term.scope = core::cost_scope_from_string(r.require_string("scope"));
    } catch (const ParseError& e) {
        throw ParseError(context + ": " + e.what());
    }
    term.quantity = r.require_number("quantity");
    term.unit_cost_usd = r.require_number("unit_cost_usd");
    term.subtotal_usd = r.require_number("subtotal_usd");
    return term;
}

JsonValue to_json(const core::CostLedger& ledger) {
    JsonValue terms = JsonValue::array();
    for (const core::CostTerm& term : ledger.terms) {
        terms.push_back(to_json(term));
    }
    JsonValue v = JsonValue::object();
    v.set("terms", std::move(terms));
    return v;
}

core::CostLedger ledger_from_json(const JsonValue& v,
                                  const std::string& context) {
    const JsonReader r(v, context);
    const JsonArray& terms = r.require_array("terms");
    core::CostLedger ledger;
    ledger.terms.reserve(terms.size());
    for (std::size_t i = 0; i < terms.size(); ++i) {
        ledger.terms.push_back(
            cost_term_from_json(terms[i], r.element_context("terms", i)));
    }
    return ledger;
}

JsonValue to_json(const ScenarioSpec& s) {
    JsonValue v = JsonValue::object();
    v.set("node", s.node);
    v.set("packaging", s.packaging);
    v.set("module_area_mm2", s.module_area_mm2);
    v.set("chiplets", s.chiplets);
    v.set("d2d_fraction", s.d2d_fraction);
    v.set("quantity", s.quantity);
    return v;
}

ScenarioSpec scenario_from_json(const JsonValue& v, const std::string& context) {
    const JsonReader r(v, context);
    ScenarioSpec s;
    r.optional("node", s.node);
    r.optional("packaging", s.packaging);
    r.optional("module_area_mm2", s.module_area_mm2);
    r.optional("chiplets", s.chiplets);
    r.optional("d2d_fraction", s.d2d_fraction);
    r.optional("quantity", s.quantity);
    return s;
}

JsonValue to_json(const StudySpec& spec) {
    JsonValue v = JsonValue::object();
    v.set("name", spec.name);
    v.set("kind", to_string(spec.kind()));
    if (!spec.tech_overrides.is_null()) v.set("tech", spec.tech_overrides);
    // Only emitted when set: the canonical spec JSON — and with it
    // spec_hash — of pre-ledger studies stays byte-identical.
    if (spec.explain) v.set("explain", true);
    v.set("config",
          std::visit([](const auto& c) { return config_to_json(c); }, spec.config));
    return v;
}

StudySpec study_spec_from_json(const JsonValue& v, const std::string& context) {
    const JsonReader r(v, context);
    StudySpec spec;
    spec.name = r.require_string("name");
    const std::string kind_name = r.require_string("kind");
    StudyKind kind = StudyKind::re_sweep;
    try {
        kind = study_kind_from_string(kind_name);
    } catch (const ParseError& e) {
        // study_kind_from_string knows nothing about where the string
        // came from; prefix the context here.
        throw ParseError(context + ": " + e.what());
    }
    if (r.has("tech")) {
        const JsonValue& tech = r.require("tech");
        if (!tech.is_object()) r.fail("tech", "expected object");
        spec.tech_overrides = tech;
    }
    r.optional("explain", spec.explain);
    const JsonValue empty = JsonValue::object();
    const JsonValue& config = r.has("config") ? r.require("config") : empty;
    spec.config = config_from_json(kind, config, context + ".config");
    return spec;
}

namespace {

JsonValue run_info_to_json(const StudyRunInfo& run) {
    JsonValue meta = JsonValue::object();
    meta.set("wall_seconds", run.wall_seconds);
    meta.set("threads", run.threads);
    meta.set("cache_hits", static_cast<double>(run.cache_hits));
    meta.set("cache_misses", static_cast<double>(run.cache_misses));
    meta.set("cache_hit_rate", run.cache_hit_rate());
    meta.set("from_cache", run.from_cache);
    meta.set("with_ledgers", run.with_ledgers);
    // Batch cell-memo counters of the study compiler
    // (explore/study_graph.h).  Measurement, like the fields above:
    // "meta" is excluded from golden comparisons.
    meta.set("cell_hits", static_cast<double>(run.cell_hits));
    meta.set("cell_misses", static_cast<double>(run.cell_misses));
    meta.set("from_batch_dedup", run.from_batch_dedup);
    return meta;
}

/// The envelope's keys before "meta": name, kind.
JsonValue result_head_to_json(const StudyResult& result) {
    JsonValue v = JsonValue::object();
    v.set("name", result.name);
    v.set("kind", to_string(result.kind));
    return v;
}

/// Appends the envelope's keys after "meta" to `v`: table, result and,
/// when present, ledgers.
void set_result_tail(JsonValue& v, const StudyResult& result) {
    JsonValue columns = JsonValue::array();
    for (const std::string& c : result.table.columns) columns.push_back(c);
    JsonValue rows = JsonValue::array();
    for (const auto& row : result.table.rows) {
        JsonValue cells = JsonValue::array();
        for (const std::string& cell : row) cells.push_back(cell);
        rows.push_back(std::move(cells));
    }
    JsonValue table = JsonValue::object();
    table.set("columns", std::move(columns));
    table.set("rows", std::move(rows));

    v.set("table", std::move(table));
    v.set("result", std::visit([](const auto& p) { return payload_to_json(p); },
                               result.payload));
    // Only when present, so pre-ledger result documents (and the
    // committed golden) keep their exact shape.
    if (!result.ledgers.empty()) {
        JsonValue ledgers = JsonValue::array();
        for (const StudyLedger& entry : result.ledgers) {
            JsonValue item = JsonValue::object();
            item.set("label", entry.label);
            item.set("ledger", explore::to_json(entry.ledger));
            ledgers.push_back(std::move(item));
        }
        v.set("ledgers", std::move(ledgers));
    }
}

}  // namespace

JsonValue to_json(const StudyResult& result) {
    JsonValue v = result_head_to_json(result);
    v.set("meta", run_info_to_json(result.run));
    set_result_tail(v, result);
    return v;
}

ResultText result_text(const StudyResult& result) {
    // Compact dumps are "{" + key:value pairs joined by "," + "}", so the
    // two halves of the envelope dump on their own and splice exactly.
    ResultText text;
    text.head = result_head_to_json(result).dump();
    text.head.back() = ',';
    text.head += "\"meta\":";
    JsonValue tail = JsonValue::object();
    set_result_tail(tail, result);
    text.tail = tail.dump();
    text.tail.front() = ',';
    return text;
}

std::string result_document(const ResultText& text, const StudyRunInfo& run) {
    const std::string meta = run_info_to_json(run).dump();
    std::string out;
    out.reserve(text.head.size() + meta.size() + text.tail.size());
    out += text.head;
    out += meta;
    out += text.tail;
    return out;
}

JsonValue studies_to_json(std::span<const StudySpec> specs) {
    JsonValue studies = JsonValue::array();
    for (const StudySpec& spec : specs) studies.push_back(to_json(spec));
    JsonValue v = JsonValue::object();
    v.set("studies", std::move(studies));
    return v;
}

std::vector<StudySpec> studies_from_json(const JsonValue& v,
                                         const std::string& context) {
    const JsonReader r(v, context);
    const JsonArray& entries = r.require_array("studies");
    std::vector<StudySpec> out;
    out.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        out.push_back(
            study_spec_from_json(entries[i], r.element_context("studies", i)));
    }
    return out;
}

std::vector<StudySpec> studies_from_json_collecting(
    const JsonValue& v, const std::string& context,
    std::vector<StudyFailure>& failures,
    std::vector<std::size_t>* kept_indices) {
    const JsonReader r(v, context);
    const JsonArray& entries = r.require_array("studies");
    std::vector<StudySpec> out;
    out.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::string element = r.element_context("studies", i);
        try {
            out.push_back(study_spec_from_json(entries[i], element));
            if (kept_indices) kept_indices->push_back(i);
        } catch (const Error& e) {
            // Name the study when the document got that far; fall back
            // to the JSON path for entries too broken to carry one.
            std::string name = element;
            if (entries[i].is_object() && entries[i].contains("name") &&
                entries[i].at("name").is_string()) {
                name = entries[i].at("name").as_string();
            }
            failures.push_back(
                StudyFailure{i, std::move(name), "parse", e.what()});
        }
    }
    return out;
}

std::vector<StudySpec> load_studies(const std::string& path) {
    return studies_from_json(JsonValue::load_file(path), path);
}

std::vector<StudySpec> load_studies_collecting(
    const std::string& path, std::vector<StudyFailure>& failures,
    std::vector<std::size_t>* kept_indices) {
    return studies_from_json_collecting(JsonValue::load_file(path), path,
                                        failures, kept_indices);
}

void save_studies(std::span<const StudySpec> specs, const std::string& path) {
    studies_to_json(specs).save_file(path);
}

JsonValue results_to_json(std::span<const StudyResult> results) {
    JsonValue entries = JsonValue::array();
    for (const StudyResult& result : results) entries.push_back(to_json(result));
    JsonValue v = JsonValue::object();
    v.set("results", std::move(entries));
    return v;
}

void save_results(std::span<const StudyResult> results, const std::string& path) {
    results_to_json(results).save_file(path);
}

}  // namespace chiplet::explore

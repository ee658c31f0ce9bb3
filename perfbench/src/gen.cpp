#include "gen.h"

#include <cmath>
#include <stdexcept>

namespace perfbench::gen {

using chiplet::JsonValue;

namespace {

double whole(double x, double step) { return std::round(x / step) * step; }

/// Scales a number (or every number of an array) under `key` by a factor
/// drawn from [lo, hi), rounded to `step`.
void scale(JsonValue& obj, const char* key, double lo, double hi, double step,
           Rng& rng) {
    if (!obj.is_object() || !obj.contains(key)) return;
    JsonValue& v = obj.at(key);
    if (v.is_number()) {
        obj.set(key, whole(v.as_number() * rng.uniform(lo, hi), step));
    } else if (v.is_array()) {
        for (JsonValue& e : v.as_array()) {
            e = JsonValue(whole(e.as_number() * rng.uniform(lo, hi), step));
        }
    }
}

/// Area and volume of a ScenarioSpec; a "compare" scenario follows the
/// primary so the pair still describes one product.
void perturb_scenario(JsonValue& config, Rng& rng) {
    if (!config.contains("scenario")) return;
    JsonValue& scenario = config.at("scenario");
    scale(scenario, "module_area_mm2", 0.9, 1.05, 1.0, rng);
    scale(scenario, "quantity", 0.5, 2.0, 1000.0, rng);
    if (config.contains("compare")) {
        JsonValue& compare = config.at("compare");
        compare.set("module_area_mm2", scenario.at("module_area_mm2"));
        compare.set("quantity", scenario.at("quantity"));
    }
}

/// JsonValue copies share their objects, so an input built by editing
/// a template must start from a copy of its own.
JsonValue deep_copy(const JsonValue& v) { return JsonValue::parse(v.dump()); }

JsonValue template_of(const JsonValue& paper, const std::string& kind) {
    for (const JsonValue& study : paper.at("studies").as_array()) {
        if (study.at("kind").as_string() == kind) return deep_copy(study);
    }
    throw std::runtime_error("paper batch has no '" + kind + "' study");
}

JsonValue numbers(std::initializer_list<double> xs) {
    JsonValue out = JsonValue::array();
    for (const double x : xs) out.push_back(x);
    return out;
}

JsonValue strings(std::initializer_list<const char*> xs) {
    JsonValue out = JsonValue::array();
    for (const char* x : xs) out.push_back(x);
    return out;
}

/// bench_design_space's heterogeneous space: 5/7/14 nm per chiplet, four
/// packagings, 1..max_chiplets chiplets.
JsonValue design_space_config(double area, unsigned max_chiplets) {
    JsonValue config = JsonValue::object();
    config.set("module_area_mm2", area);
    config.set("reference_node", "5nm");
    config.set("nodes", strings({"5nm", "7nm", "14nm"}));
    JsonValue counts = JsonValue::array();
    for (unsigned k = 1; k <= max_chiplets; ++k) counts.push_back(k);
    config.set("chiplet_counts", std::move(counts));
    config.set("packagings", strings({"SoC", "MCM", "InFO", "2.5D"}));
    config.set("quantities", numbers({2e6}));
    config.set("d2d_fraction", 0.1);
    config.set("top_k", 16);
    return config;
}

JsonValue study(const std::string& name, const char* kind, JsonValue config) {
    JsonValue s = JsonValue::object();
    s.set("name", name);
    s.set("kind", kind);
    s.set("config", std::move(config));
    return s;
}

}  // namespace

JsonValue load_paper_batch(const std::string& root) {
    return JsonValue::load_file(root + "/examples/studies/paper_figures.json");
}

void perturb_study(JsonValue& s, Rng& rng) {
    const std::string kind = s.at("kind").as_string();
    JsonValue& config = s.at("config");
    if (kind == "re_sweep") {
        scale(config, "areas_mm2", 0.9, 1.1, 1.0, rng);
    } else if (kind == "quantity_sweep" || kind == "design_space") {
        scale(config, "module_area_mm2", 0.9, 1.05, 1.0, rng);
        scale(config, "quantities", 0.5, 2.0, 1000.0, rng);
    } else if (kind == "breakeven") {
        scale(config, "module_area_mm2", 0.9, 1.05, 1.0, rng);
    } else if (kind == "recommend") {
        scale(config, "module_area_mm2", 0.75, 1.25, 1.0, rng);
        scale(config, "quantity", 0.5, 2.0, 1000.0, rng);
    } else {
        perturb_scenario(config, rng);
    }
    if (kind == "monte_carlo") {
        config.set("seed", static_cast<double>(1 + rng.below(1u << 30)));
    }
}

std::string paper_batch(const JsonValue& paper, std::uint64_t seed,
                        std::uint64_t i) {
    Rng rng(derive(seed, i));
    JsonValue doc = deep_copy(paper);
    for (JsonValue& s : doc.at("studies").as_array()) perturb_study(s, rng);
    return doc.dump();
}

std::string design_space_document(std::uint64_t seed, std::uint64_t i) {
    // The area walks a golden-ratio sequence from a seeded start: any run
    // of consecutive items covers [1800, 2200) mm^2 evenly, so the mix of
    // pruning rates, and with it the work per run, barely depends on the
    // seed.
    const double start = Rng(seed).uniform();
    double u = start + static_cast<double>(i % 1000003) * 0.6180339887498949;
    u -= static_cast<double>(static_cast<std::uint64_t>(u));
    JsonValue studies = JsonValue::array();
    studies.push_back(study("design_space_" + std::to_string(i), "design_space",
                            design_space_config(whole(1800.0 + 400.0 * u, 1.0), 10)));
    JsonValue doc = JsonValue::object();
    doc.set("studies", std::move(studies));
    return doc.dump();
}

JsonValue serve_spec(const JsonValue& paper, Weight weight, std::size_t variant,
                     Rng& rng, const std::string& name) {
    JsonValue s;
    switch (weight) {
        case Weight::light: {
            static const char* const kinds[] = {
                "sensitivity", "tornado",  "breakeven", "quantity_sweep",
                "timeline",    "recommend", "pareto",   "monte_carlo"};
            const char* kind = kinds[variant % std::size(kinds)];
            s = template_of(paper, kind);
            if (std::string(kind) == "monte_carlo") {
                s.at("config").set("draws", 64);
            }
            break;
        }
        case Weight::medium: {
            const std::size_t pick = variant % 3;
            if (pick == 0) {
                s = template_of(paper, "monte_carlo");
                s.at("config").set("draws", 500);
            } else if (pick == 1) {
                // A one-node slice of the Fig. 4 grid: 60 cells.
                s = template_of(paper, "re_sweep");
                static const char* const nodes[] = {"14nm", "7nm", "5nm"};
                JsonValue node = JsonValue::array();
                node.push_back(nodes[variant / 3 % 3]);
                s.at("config").set("nodes", std::move(node));
            } else {
                s = template_of(paper, "design_space");
            }
            break;
        }
        case Weight::heavy: {
            // 88,572 candidates: chiplet counts 1..9.  One heavy kind, so
            // the tail measures queueing behind heavy work rather than
            // which of two very different heavy kinds a run drew.
            s = study(name, "design_space",
                      design_space_config(whole(rng.uniform(1800, 2200), 1.0), 9));
            break;
        }
    }
    s.set("name", name);
    perturb_study(s, rng);
    return s;
}

}  // namespace perfbench::gen

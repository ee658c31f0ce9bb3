// The study compiler (explore/study_graph.h): compiled batches are
// bit-identical to independent run_study calls for every study kind,
// under any thread count; cell and spec dedup counters are exact;
// cell identity is canonical (tech-override key order is irrelevant);
// one failing study never disturbs the rest of its batch.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "core/actuary.h"
#include "core/scenarios.h"
#include "explore/cell.h"
#include "explore/pareto.h"
#include "explore/spec_hash.h"
#include "explore/study.h"
#include "explore/study_graph.h"
#include "explore/study_json.h"
#include "explore/sweep.h"
#include "util/error.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace chiplet::explore {
namespace {

JsonDiffOptions exact_options() {
    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};  // run metadata varies run to run
    return exact;
}

ScenarioSpec mcm_scenario() {
    ScenarioSpec s;
    s.node = "5nm";
    s.packaging = "MCM";
    s.module_area_mm2 = 800.0;
    s.chiplets = 2;
    s.d2d_fraction = 0.10;
    s.quantity = 2e6;
    return s;
}

ReSweepConfig small_grid() {
    ReSweepConfig c;
    c.nodes = {"7nm", "5nm"};
    c.packagings = {"SoC", "MCM"};
    c.chiplet_counts = {2, 3};
    c.areas_mm2 = {200.0, 500.0};
    return c;
}

StudySpec quantity_spec(const std::string& name,
                        std::vector<double> quantities) {
    StudySpec spec;
    spec.name = name;
    QuantitySweepConfig c;
    c.packagings = {"SoC", "MCM"};
    c.quantities = std::move(quantities);
    spec.config = c;
    return spec;
}

/// A batch covering every kind, with deliberate cell overlap between
/// the enumerable entries and a windowed design_space shard.
std::vector<StudySpec> every_kind_batch() {
    std::vector<StudySpec> specs;

    StudySpec re;
    re.name = "re";
    re.config = small_grid();
    specs.push_back(re);

    // Overlaps "re": same grid minus one area, different study name.
    StudySpec re2 = re;
    re2.name = "re_overlap";
    ReSweepConfig narrow = small_grid();
    narrow.areas_mm2 = {200.0};
    re2.config = narrow;
    specs.push_back(re2);

    specs.push_back(quantity_spec("qty", {5e5, 2e6}));
    specs.push_back(quantity_spec("qty_overlap", {2e6, 1e7}));

    StudySpec mc;
    mc.name = "mc";
    McStudyConfig mcc;
    mcc.scenario = mcm_scenario();
    mcc.draws = 32;
    mcc.seed = 7;
    mc.config = mcc;
    specs.push_back(mc);

    StudySpec sens;
    sens.name = "sens";
    SensitivityStudyConfig sc;
    sc.scenario = mcm_scenario();
    sens.config = sc;
    specs.push_back(sens);

    StudySpec tor;
    tor.name = "tor";
    TornadoStudyConfig tc;
    tc.scenario = mcm_scenario();
    tor.config = tc;
    specs.push_back(tor);

    StudySpec brk;
    brk.name = "brk";
    brk.config = BreakevenQuery{};
    specs.push_back(brk);

    StudySpec par;
    par.name = "par";
    ParetoConfig pc;
    pc.points = {{1, 3, 0}, {2, 2, 1}, {3, 4, 2}};
    par.config = pc;
    specs.push_back(par);

    StudySpec rec;
    rec.name = "rec";
    DecisionQuery dq;
    dq.max_chiplets = 3;
    rec.config = dq;
    specs.push_back(rec);

    StudySpec tl;
    tl.name = "tl";
    TimelineStudyConfig tlc;
    tlc.scenario = mcm_scenario();
    tlc.months = 12.0;
    tlc.step_months = 3.0;
    tl.config = tlc;
    specs.push_back(tl);

    StudySpec ds;
    ds.name = "ds";
    DesignSpaceConfig dsc;
    dsc.module_area_mm2 = 600.0;
    dsc.nodes = {"7nm", "12nm"};
    dsc.chiplet_counts = {1, 2};
    dsc.packagings = {"SoC", "MCM"};
    dsc.top_k = 4;
    ds.config = dsc;
    specs.push_back(ds);

    // A dispatcher-style shard of the same space: window applied, so
    // the compiler must enumerate exactly the windowed systems.
    StudySpec ds_win = ds;
    ds_win.name = "ds_window";
    DesignSpaceConfig windowed = dsc;
    windowed.index_begin = 2;
    windowed.index_end = 7;
    ds_win.config = windowed;
    specs.push_back(ds_win);

    return specs;
}

class StudyGraphTest : public ::testing::Test {
protected:
    const core::ChipletActuary actuary_;
};

// ---- bit-identity -----------------------------------------------------------

TEST_F(StudyGraphTest, BatchMatchesIndependentRunsForEveryKind) {
    const std::vector<StudySpec> specs = every_kind_batch();
    const std::vector<StudyResult> batch = run_studies(actuary_, specs);
    ASSERT_EQ(batch.size(), specs.size());
    const JsonDiffOptions exact = exact_options();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(batch[i].name, specs[i].name);
        const StudyResult independent = run_study(actuary_, specs[i]);
        EXPECT_EQ(json_diff(to_json(batch[i]), to_json(independent), exact), "")
            << specs[i].name;
    }
}

TEST_F(StudyGraphTest, BatchIsThreadCountInvariant) {
    const std::vector<StudySpec> specs = every_kind_batch();
    util::ThreadPool::set_global_threads(1);
    const std::vector<StudyResult> serial = run_studies(actuary_, specs);
    util::ThreadPool::set_global_threads(4);
    const std::vector<StudyResult> parallel = run_studies(actuary_, specs);
    ASSERT_EQ(serial.size(), parallel.size());
    const JsonDiffOptions exact = exact_options();
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(json_diff(to_json(serial[i]), to_json(parallel[i]), exact),
                  "")
            << specs[i].name;
    }
}

// ---- counters ---------------------------------------------------------------

TEST_F(StudyGraphTest, CellAndSpecDedupCountersAreExact) {
    // qa and qb overlap in the 2e6 column (2 shared cells of 4 each);
    // the third spec is byte-identical to qa and must run zero cells.
    std::vector<StudySpec> specs;
    specs.push_back(quantity_spec("qa", {1e6, 2e6}));
    specs.push_back(quantity_spec("qb", {2e6, 4e6}));
    specs.push_back(quantity_spec("qa", {1e6, 2e6}));

    // Canonical forms the caller already holds (the server's cache
    // probe) compile the same batch as forms computed here.
    std::vector<std::string> canonicals;
    for (const StudySpec& spec : specs) {
        canonicals.push_back(canonical_spec_json(spec));
    }
    for (const bool precomputed : {false, true}) {
        SCOPED_TRACE(precomputed ? "precomputed canonicals" : "computed here");
        const StudyBatchOutcome outcome = run_studies_collecting(
            actuary_, specs,
            precomputed ? std::span<const std::string>(canonicals)
                        : std::span<const std::string>());
        ASSERT_EQ(outcome.results.size(), 3u);
        EXPECT_TRUE(outcome.failures.empty());

        EXPECT_EQ(outcome.graph.studies, 3u);
        EXPECT_EQ(outcome.graph.spec_dedups, 1u);
        EXPECT_EQ(outcome.graph.tech_groups, 1u);
        EXPECT_EQ(outcome.graph.cell_refs, 8u);       // 4 + 4, alias adds none
        EXPECT_EQ(outcome.graph.unique_cells, 6u);    // 2e6 column shared
        EXPECT_EQ(outcome.graph.deduped_cells, 2u);
        EXPECT_DOUBLE_EQ(outcome.graph.dedup_ratio(), 2.0 / 8.0);

        // Every single-system evaluation of a fully enumerated sweep is a
        // memo hit; nothing is priced twice.
        EXPECT_EQ(outcome.results[0].run.cell_hits, 4u);
        EXPECT_EQ(outcome.results[0].run.cell_misses, 0u);
        EXPECT_EQ(outcome.results[1].run.cell_hits, 4u);
        EXPECT_EQ(outcome.results[1].run.cell_misses, 0u);

        // The duplicate is a copy of its primary, flagged as such.
        EXPECT_FALSE(outcome.results[0].run.from_batch_dedup);
        EXPECT_TRUE(outcome.results[2].run.from_batch_dedup);
        const JsonDiffOptions exact = exact_options();
        EXPECT_EQ(json_diff(to_json(outcome.results[2]),
                            to_json(outcome.results[0]), exact),
                  "");
    }
}

TEST_F(StudyGraphTest, ReSweepBaselineSharesTheNormalizationCell) {
    // A grid that contains the normalisation area re-uses the per-node
    // SoC baseline cell instead of pricing it twice.
    StudySpec spec;
    spec.name = "norm_overlap";
    ReSweepConfig c;
    c.nodes = {"7nm"};
    c.packagings = {"SoC"};
    c.chiplet_counts = {2};
    c.areas_mm2 = {c.normalization_area_mm2};
    spec.config = c;

    const StudyPlan plan = plan_studies(actuary_, {&spec, 1});
    ASSERT_EQ(plan.studies.size(), 1u);
    EXPECT_TRUE(plan.studies[0].enumerable);
    // 1 baseline + 1 grid cell enumerated, 1 unique after interning.
    EXPECT_EQ(plan.studies[0].cell_refs, 2u);
    EXPECT_EQ(plan.studies[0].new_cells, 1u);
    EXPECT_EQ(plan.stats.unique_cells, 1u);
    EXPECT_EQ(plan.stats.deduped_cells, 1u);
}

// ---- canonical identity -----------------------------------------------------

TEST_F(StudyGraphTest, TechOverrideKeyOrderDoesNotSplitGroups) {
    // Same override values, different JSON key order: one tech group,
    // full cell sharing, and payloads identical to independent runs.
    StudySpec a;
    a.name = "ta";
    a.config = small_grid();
    a.tech_overrides = JsonValue::parse(
        R"({"nodes":[{"name":"7nm","defect_density_cm2":0.05}]})");
    StudySpec b = a;
    b.name = "tb";
    b.tech_overrides = JsonValue::parse(
        R"({"nodes":[{"defect_density_cm2":0.05,"name":"7nm"}]})");
    const std::vector<StudySpec> specs = {a, b};

    const StudyPlan plan = plan_studies(actuary_, specs);
    ASSERT_EQ(plan.studies.size(), 2u);
    EXPECT_EQ(plan.stats.tech_groups, 1u);
    EXPECT_EQ(plan.stats.spec_dedups, 0u);  // names differ, specs do not
    EXPECT_NE(plan.studies[0].spec_hash, plan.studies[1].spec_hash);
    EXPECT_GT(plan.studies[0].new_cells, 0u);
    EXPECT_EQ(plan.studies[1].new_cells, 0u);  // every cell already interned
    EXPECT_EQ(plan.studies[1].cell_refs, plan.studies[0].cell_refs);

    const std::vector<StudyResult> batch = run_studies(actuary_, specs);
    const JsonDiffOptions exact = exact_options();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(json_diff(to_json(batch[i]),
                            to_json(run_study(actuary_, specs[i])), exact),
                  "")
            << specs[i].name;
    }
}

TEST_F(StudyGraphTest, CellHashIsStructuralIdentity) {
    const design::System a =
        core::split_system("cell", "5nm", "MCM", 800.0, 2, 0.10, 2e6);
    const design::System b =
        core::split_system("cell", "5nm", "MCM", 800.0, 2, 0.10, 2e6);
    EXPECT_EQ(cell_hash(CellEval::full, a), cell_hash(CellEval::full, b));
    // The eval entry point is part of the identity...
    EXPECT_NE(cell_hash(CellEval::full, a), cell_hash(CellEval::re_only, a));
    // ...and so is every result-determining field, names included
    // (SystemCost embeds them).
    const design::System qty =
        core::split_system("cell", "5nm", "MCM", 800.0, 2, 0.10, 4e6);
    EXPECT_NE(cell_hash(CellEval::full, a), cell_hash(CellEval::full, qty));
    const design::System renamed =
        core::split_system("other", "5nm", "MCM", 800.0, 2, 0.10, 2e6);
    EXPECT_NE(cell_hash(CellEval::full, a),
              cell_hash(CellEval::full, renamed));
}

// ---- planning ---------------------------------------------------------------

TEST_F(StudyGraphTest, PlanReportsDuplicatesAndOpaqueKinds) {
    std::vector<StudySpec> specs;
    StudySpec re;
    re.name = "re";
    re.config = small_grid();
    specs.push_back(re);
    specs.push_back(re);  // byte-identical duplicate

    StudySpec par;
    par.name = "par";
    ParetoConfig pc;
    pc.points = {{1, 3, 0}, {2, 2, 1}};
    par.config = pc;
    specs.push_back(par);

    const StudyPlan plan = plan_studies(actuary_, specs);
    ASSERT_EQ(plan.studies.size(), 3u);
    EXPECT_EQ(plan.stats.studies, 3u);
    EXPECT_EQ(plan.stats.spec_dedups, 1u);

    EXPECT_EQ(plan.studies[0].index, 0u);
    EXPECT_EQ(plan.studies[0].kind, StudyKind::re_sweep);
    EXPECT_EQ(plan.studies[0].spec_hash, spec_hash(re));
    EXPECT_FALSE(plan.studies[0].duplicate_spec);
    EXPECT_TRUE(plan.studies[0].enumerable);
    EXPECT_GT(plan.studies[0].cell_refs, 0u);

    EXPECT_TRUE(plan.studies[1].duplicate_spec);
    EXPECT_EQ(plan.studies[1].duplicate_of, 0u);
    EXPECT_EQ(plan.studies[1].spec_hash, plan.studies[0].spec_hash);
    EXPECT_EQ(plan.studies[1].cell_refs, 0u);  // served as a copy

    EXPECT_FALSE(plan.studies[2].enumerable);  // pareto runs no cost model
    EXPECT_EQ(plan.studies[2].cell_refs, 0u);

    // The plan's totals match the sum over entries.
    EXPECT_EQ(plan.stats.cell_refs, plan.studies[0].cell_refs);
    EXPECT_EQ(plan.stats.deduped_cells,
              plan.stats.cell_refs - plan.stats.unique_cells);
}

// ---- failure isolation ------------------------------------------------------

TEST_F(StudyGraphTest, OneBadStudyLeavesTheRestOfTheBatchIntact) {
    std::vector<StudySpec> specs;
    StudySpec good;
    good.name = "good";
    good.config = small_grid();
    specs.push_back(good);

    // Enumerates fine (the node is just a string in the system) but
    // every evaluation of it throws; the error must surface from this
    // study alone, with the engine's own message.
    StudySpec bad = good;
    bad.name = "bad";
    ReSweepConfig bad_grid = small_grid();
    bad_grid.nodes = {"not_a_node"};
    bad.config = bad_grid;
    specs.push_back(bad);

    StudySpec brk;
    brk.name = "brk";
    brk.config = BreakevenQuery{};
    specs.push_back(brk);

    const StudyBatchOutcome outcome = run_studies_collecting(actuary_, specs);
    ASSERT_EQ(outcome.results.size(), 2u);
    EXPECT_EQ(outcome.indices, (std::vector<std::size_t>{0, 2}));
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, 1u);
    EXPECT_EQ(outcome.failures[0].name, "bad");
    EXPECT_EQ(outcome.failures[0].stage, "model");
    EXPECT_NE(outcome.failures[0].message.find("not_a_node"),
              std::string::npos)
        << outcome.failures[0].message;

    const JsonDiffOptions exact = exact_options();
    EXPECT_EQ(json_diff(to_json(outcome.results[0]),
                        to_json(run_study(actuary_, good)), exact),
              "");
    EXPECT_EQ(json_diff(to_json(outcome.results[1]),
                        to_json(run_study(actuary_, brk)), exact),
              "");

    // The throwing wrapper preserves the original exception type.
    EXPECT_THROW((void)run_studies(actuary_, specs), LookupError);
}

}  // namespace
}  // namespace chiplet::explore

// The heterogeneous design-space explorer: space counting, lazy
// enumeration order, geometry pruning (and that pruned candidates never
// reach the cost engines), bounded top-K ranking, bit-for-bit legacy
// recommend equivalence, thread-count invariance, and the design_space
// study-kind JSON round-trip.
#include "explore/design_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/actuary.h"
#include "core/scenarios.h"
#include "explore/optimizer.h"
#include "explore/study.h"
#include "explore/study_json.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "wafer/die_cost_cache.h"

namespace chiplet::explore {
namespace {

DesignSpaceConfig small_space() {
    DesignSpaceConfig config;
    config.module_area_mm2 = 600.0;
    config.reference_node = "7nm";
    config.nodes = {"7nm", "12nm"};
    config.chiplet_counts = {1, 2, 3};
    config.packagings = {"SoC", "MCM"};
    config.quantities = {5e5, 2e6};
    config.top_k = 5;
    return config;
}

TEST(DesignSpaceSize, CountsTheCartesianBlocks) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config = small_space();
    // SoC: 1 monolithic candidate per (node, quantity) = 2*2 = 4.
    // MCM: k=1 -> 2 combos, k=2 -> 4, k=3 -> 8; times 2 quantities = 28.
    EXPECT_EQ(design_space_size(actuary, config), 32u);

    config.uniform_nodes = true;  // every k collapses to |nodes| combos
    EXPECT_EQ(design_space_size(actuary, config), 2u * 2u * 4u);

    config.nodes = {"7nm"};
    config.quantities = {1e6};
    EXPECT_EQ(design_space_size(actuary, config), 4u);
}

TEST(DesignSpaceSize, EmptyAxesThrow) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config = small_space();
    config.packagings.clear();
    EXPECT_THROW((void)design_space_size(actuary, config), ParameterError);
    config = small_space();
    config.nodes.clear();
    EXPECT_THROW((void)design_space_size(actuary, config), ParameterError);
    config = small_space();
    config.quantities.clear();
    EXPECT_THROW((void)design_space_size(actuary, config), ParameterError);
    config = small_space();
    config.chiplet_counts = {0};
    EXPECT_THROW((void)design_space_size(actuary, config), ParameterError);
    config = small_space();
    config.quantities = {1e6, 0.0};  // rejected up front, not mid-scan
    EXPECT_THROW((void)design_space_size(actuary, config), ParameterError);
}

TEST(DesignSpace, RankingIsSortedAndBounded) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config = small_space();
    const DesignSpaceResult result = explore_design_space(actuary, config);
    EXPECT_EQ(result.total_candidates, 32u);
    EXPECT_EQ(result.pruned + result.evaluated, result.total_candidates);
    ASSERT_EQ(result.best.size(), 5u);
    for (std::size_t i = 1; i < result.best.size(); ++i) {
        EXPECT_LE(result.best[i - 1].total_per_unit(),
                  result.best[i].total_per_unit());
    }

    // The bounded heap keeps exactly the prefix of the full ranking.
    config.top_k = 0;
    const DesignSpaceResult full = explore_design_space(actuary, config);
    EXPECT_EQ(full.best.size(), full.evaluated);
    for (std::size_t i = 0; i < result.best.size(); ++i) {
        EXPECT_EQ(result.best[i].index, full.best[i].index);
        EXPECT_EQ(result.best[i].total_per_unit(),
                  full.best[i].total_per_unit());
    }
}

TEST(DesignSpace, TinyChunksMatchOneBigBatch) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config = small_space();
    config.top_k = 0;
    const DesignSpaceResult big = explore_design_space(actuary, config);
    config.chunk = 1;  // forces a flush per surviving candidate
    const DesignSpaceResult tiny = explore_design_space(actuary, config);
    ASSERT_EQ(big.best.size(), tiny.best.size());
    for (std::size_t i = 0; i < big.best.size(); ++i) {
        EXPECT_EQ(big.best[i].index, tiny.best[i].index);
        EXPECT_EQ(big.best[i].re_per_unit, tiny.best[i].re_per_unit);
        EXPECT_EQ(big.best[i].nre_per_unit, tiny.best[i].nre_per_unit);
    }
}

TEST(DesignSpace, PrunedCandidatesNeverReachEvaluation) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config;
    // 2000 mm^2 monolithic and two-way dies exceed the 858 mm^2 reticle
    // field; only the 4-way split fits.
    config.module_area_mm2 = 2000.0;
    config.nodes = {"7nm"};
    config.chiplet_counts = {1, 2, 4};
    config.packagings = {"SoC", "MCM"};
    config.quantities = {1e6};
    config.top_k = 0;
    const DesignSpaceResult result = explore_design_space(actuary, config);
    EXPECT_EQ(result.total_candidates, 4u);  // SoC + MCM x {1,2,4}
    EXPECT_EQ(result.pruned, 3u);
    EXPECT_EQ(result.evaluated, 1u);
    ASSERT_EQ(result.best.size(), 1u);
    EXPECT_EQ(result.best.front().packaging, "MCM");
    EXPECT_EQ(result.best.front().chiplets, 4u);

    // An all-infeasible space must not touch the cost engines at all:
    // the die-cost cache sees neither a hit nor a miss.
    config.chiplet_counts = {1, 2};
    const wafer::DieCostCache::Stats before =
        wafer::DieCostCache::global().stats();
    const DesignSpaceResult none = explore_design_space(actuary, config);
    const wafer::DieCostCache::Stats after =
        wafer::DieCostCache::global().stats();
    EXPECT_EQ(none.evaluated, 0u);
    EXPECT_EQ(none.pruned, none.total_candidates);
    EXPECT_TRUE(none.best.empty());
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
}

TEST(DesignSpace, ModulesModePartitionsHeterogeneously) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config;
    config.modules = {
        design::Module{"cores", 300.0, "7nm", true},
        design::Module{"cache", 150.0, "7nm", true},
        design::Module{"phy", 80.0, "12nm", false},  // IO does not shrink
    };
    config.nodes = {"7nm", "12nm"};
    config.chiplet_counts = {2, 3, 5};  // 5 > |modules|, silently skipped
    config.packagings = {"SoC", "MCM"};
    config.quantities = {1e6};
    config.top_k = 0;
    // SoC: 2 nodes.  MCM: k=2 -> 4 combos, k=3 -> 8 combos.
    EXPECT_EQ(design_space_size(actuary, config), 14u);
    const DesignSpaceResult result = explore_design_space(actuary, config);
    EXPECT_EQ(result.total_candidates, 14u);
    for (const DesignCandidate& c : result.best) {
        EXPECT_EQ(c.nodes.size(), c.chiplets);
        EXPECT_EQ(c.die_areas_mm2.size(), c.chiplets);
    }
    // Some candidate must actually mix nodes across chiplets.
    const bool mixed = std::any_of(
        result.best.begin(), result.best.end(), [](const DesignCandidate& c) {
            return std::adjacent_find(c.nodes.begin(), c.nodes.end(),
                                      std::not_equal_to<>()) != c.nodes.end();
        });
    EXPECT_TRUE(mixed);
}

TEST(DesignSpace, RestrictedSubspaceReproducesLegacyRecommendBitForBit) {
    const core::ChipletActuary actuary;
    DecisionQuery query;
    query.node = "7nm";
    query.module_area_mm2 = 400.0;
    query.quantity = 1e6;
    query.max_chiplets = 5;

    // The retired hand-rolled implementation, reconstructed verbatim:
    // packaging-major enumeration, equal-area splits, one batch, stable
    // sort by per-unit total.
    std::vector<design::System> systems;
    std::vector<DesignOption> legacy;
    for (const std::string& packaging : query.packagings) {
        const bool is_soc = actuary.library().packaging(packaging).type ==
                            tech::IntegrationType::soc;
        std::vector<unsigned> counts;
        if (is_soc) {
            counts = {1};
        } else {
            for (unsigned k = 2; k <= query.max_chiplets; ++k) counts.push_back(k);
        }
        for (unsigned k : counts) {
            systems.push_back(
                is_soc ? core::monolithic_soc("soc", query.node,
                                              query.module_area_mm2,
                                              query.quantity)
                       : core::split_system("alt", query.node, packaging,
                                            query.module_area_mm2, k,
                                            query.d2d_fraction, query.quantity));
            legacy.push_back(DesignOption{packaging, k, 0.0, 0.0});
        }
    }
    const std::vector<core::SystemCost> costs = actuary.evaluate_batch(systems);
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        legacy[i].re_per_unit = costs[i].re.total();
        legacy[i].nre_per_unit = costs[i].nre.total();
    }
    std::stable_sort(legacy.begin(), legacy.end(),
                     [](const DesignOption& a, const DesignOption& b) {
                         return a.total_per_unit() < b.total_per_unit();
                     });

    const Recommendation rec = recommend(actuary, query);
    ASSERT_EQ(rec.options.size(), legacy.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(rec.options[i].packaging, legacy[i].packaging) << i;
        EXPECT_EQ(rec.options[i].chiplets, legacy[i].chiplets) << i;
        // Bit-for-bit: exact double equality, not a tolerance.
        EXPECT_EQ(rec.options[i].re_per_unit, legacy[i].re_per_unit) << i;
        EXPECT_EQ(rec.options[i].nre_per_unit, legacy[i].nre_per_unit) << i;
    }
}

TEST(DesignSpace, RankingIsInvariantUnderPoolSize) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config = small_space();
    config.nodes = {"7nm", "12nm", "14nm"};
    config.chiplet_counts = {1, 2, 3, 4};
    config.chunk = 8;  // several flushes per run

    StudySpec spec;
    spec.name = "ds";
    spec.config = config;

    util::ThreadPool::set_global_threads(1);
    const JsonValue serial =
        to_json(run_study(actuary, spec)).at("result");
    util::ThreadPool::set_global_threads(4);
    const JsonValue parallel =
        to_json(run_study(actuary, spec)).at("result");
    util::ThreadPool::set_global_threads(0);  // restore hardware default

    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    EXPECT_EQ(json_diff(serial, parallel, exact), "");
}

TEST(DesignSpaceStudy, JsonRoundTripAndTableShape) {
    StudySpec spec;
    spec.name = "ds";
    DesignSpaceConfig config = small_space();
    config.modules = {design::Module{"cores", 300.0, "7nm", true},
                      design::Module{"phy", 80.0, "12nm", false}};
    config.uniform_nodes = true;
    config.max_die_area_mm2 = 700.0;
    spec.config = config;

    const JsonValue doc = to_json(spec);
    const StudySpec restored = study_spec_from_json(doc);
    EXPECT_EQ(restored.kind(), StudyKind::design_space);
    const auto& rc = std::get<DesignSpaceConfig>(restored.config);
    EXPECT_EQ(rc.modules, config.modules);
    EXPECT_EQ(rc.nodes, config.nodes);
    EXPECT_EQ(rc.uniform_nodes, config.uniform_nodes);
    EXPECT_EQ(rc.top_k, config.top_k);
    EXPECT_EQ(rc.max_die_area_mm2, config.max_die_area_mm2);
    // Canonical form is a fixed point.
    EXPECT_EQ(to_json(restored).dump(), doc.dump());

    const core::ChipletActuary actuary;
    const StudyResult result = run_study(actuary, spec);
    EXPECT_EQ(result.kind, StudyKind::design_space);
    const auto& payload = std::get<DesignSpaceResult>(result.payload);
    EXPECT_EQ(result.table.rows.size(), payload.best.size());
    ASSERT_FALSE(result.table.columns.empty());
    EXPECT_EQ(result.table.columns.front(), "rank");
}

TEST(DesignSpaceStudy, KindStringRoundTrips) {
    EXPECT_EQ(to_string(StudyKind::design_space), "design_space");
    EXPECT_EQ(study_kind_from_string("design_space"), StudyKind::design_space);
}

TEST(DesignSpaceRange, WindowCountsSumToTheWholeSpace) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config = small_space();
    config.top_k = 0;  // keep every candidate so windows are comparable
    const DesignSpaceResult whole = explore_design_space(actuary, config);
    const std::uint64_t size = design_space_size(actuary, config);

    // Three deliberately uneven windows covering the space exactly once.
    const std::uint64_t cuts[] = {0, size / 3, size / 3 + 1, size};
    std::uint64_t total = 0;
    std::uint64_t pruned = 0;
    std::uint64_t evaluated = 0;
    std::vector<DesignCandidate> merged;
    for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
        config.index_begin = cuts[i];
        config.index_end = cuts[i + 1];
        const DesignSpaceResult window = explore_design_space(actuary, config);
        EXPECT_EQ(window.total_candidates, cuts[i + 1] - cuts[i]);
        total += window.total_candidates;
        pruned += window.pruned;
        evaluated += window.evaluated;
        merged.insert(merged.end(), window.best.begin(), window.best.end());
    }
    EXPECT_EQ(total, whole.total_candidates);
    EXPECT_EQ(pruned, whole.pruned);
    EXPECT_EQ(evaluated, whole.evaluated);

    // Candidate indices stay global, so the merged windows re-rank into
    // exactly the whole-space ordering.
    std::sort(merged.begin(), merged.end(),
              [](const DesignCandidate& a, const DesignCandidate& b) {
                  return a.total_per_unit() != b.total_per_unit()
                             ? a.total_per_unit() < b.total_per_unit()
                             : a.index < b.index;
              });
    ASSERT_EQ(merged.size(), whole.best.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].index, whole.best[i].index);
        EXPECT_EQ(merged[i].total_per_unit(), whole.best[i].total_per_unit());
    }
}

TEST(DesignSpaceRange, IndexEndZeroMeansWholeSpaceAndBoundsAreChecked) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config = small_space();
    const DesignSpaceResult whole = explore_design_space(actuary, config);

    config.index_begin = 0;
    config.index_end = 0;
    const DesignSpaceResult defaulted = explore_design_space(actuary, config);
    EXPECT_EQ(defaulted.total_candidates, whole.total_candidates);
    ASSERT_EQ(defaulted.best.size(), whole.best.size());
    EXPECT_EQ(defaulted.best.front().index, whole.best.front().index);

    config.index_end = design_space_size(actuary, config) + 1;
    EXPECT_THROW((void)explore_design_space(actuary, config), ParameterError);
    config.index_begin = 5;
    config.index_end = 4;
    EXPECT_THROW((void)explore_design_space(actuary, config), ParameterError);
}

TEST(DesignSpaceRange, WindowFieldsSerialiseOnlyWhenSet) {
    StudySpec spec;
    spec.name = "ds";
    DesignSpaceConfig config = small_space();
    spec.config = config;

    // Whole-space specs keep the pre-window canonical JSON byte for
    // byte — and with it their spec_hash / cache identity.
    const JsonValue whole = to_json(spec);
    EXPECT_FALSE(whole.at("config").contains("index_begin"));
    EXPECT_FALSE(whole.at("config").contains("index_end"));

    config.index_begin = 3;
    config.index_end = 17;
    spec.config = config;
    const JsonValue window = to_json(spec);
    EXPECT_EQ(window.at("config").at("index_begin").as_number(), 3.0);
    EXPECT_EQ(window.at("config").at("index_end").as_number(), 17.0);
    const StudySpec restored = study_spec_from_json(window);
    const auto& rc = std::get<DesignSpaceConfig>(restored.config);
    EXPECT_EQ(rc.index_begin, 3u);
    EXPECT_EQ(rc.index_end, 17u);
    EXPECT_EQ(to_json(restored).dump(), window.dump());
}

// ---- kernel fast path vs scalar reference -----------------------------------
// explore_design_space lowers memo-free spaces onto the SoA kernel path;
// its contract is BIT identity with explore_design_space_reference — the
// ranking, every reported double, and the accounting fields.

void expect_identical_results(const DesignSpaceResult& fast,
                              const DesignSpaceResult& ref) {
    EXPECT_EQ(fast.total_candidates, ref.total_candidates);
    EXPECT_EQ(fast.pruned, ref.pruned);
    EXPECT_EQ(fast.evaluated, ref.evaluated);
    ASSERT_EQ(fast.best.size(), ref.best.size());
    for (std::size_t i = 0; i < fast.best.size(); ++i) {
        const DesignCandidate& a = fast.best[i];
        const DesignCandidate& b = ref.best[i];
        EXPECT_EQ(a.index, b.index) << "rank " << i;
        EXPECT_EQ(a.packaging, b.packaging) << "rank " << i;
        EXPECT_EQ(a.chiplets, b.chiplets) << "rank " << i;
        EXPECT_EQ(a.nodes, b.nodes) << "rank " << i;
        EXPECT_EQ(a.die_areas_mm2, b.die_areas_mm2) << "rank " << i;
        EXPECT_EQ(a.quantity, b.quantity) << "rank " << i;
        // EXPECT_EQ on doubles is exact comparison — bit identity for
        // every value either path can produce here (no NaNs survive a
        // ranking fold).
        EXPECT_EQ(a.re_per_unit, b.re_per_unit) << "rank " << i;
        EXPECT_EQ(a.nre_per_unit, b.nre_per_unit) << "rank " << i;
    }
}

TEST(DesignSpaceKernelPath, MatchesReferenceBitForBitAcrossPackagings) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config;
    config.module_area_mm2 = 700.0;
    config.reference_node = "7nm";
    config.nodes = {"7nm", "12nm"};  // heterogeneous per-chiplet assignment
    config.chiplet_counts = {1, 2, 3, 4};
    // All four integration schemes: direct-attach, fan-out, silicon
    // interposer (stitching + second bump side), and the 3D stack (TSV
    // adders + footprint-max package sizing).
    config.packagings = {"SoC", "MCM", "InFO", "2.5D", "3D"};
    config.quantities = {1e5, 1e6, 1e7};
    config.top_k = 0;  // compare the ENTIRE ranking, not just the podium
    expect_identical_results(explore_design_space(actuary, config),
                             explore_design_space_reference(actuary, config));
}

TEST(DesignSpaceKernelPath, ModulesModeMatchesReference) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config;
    config.modules = {
        design::Module{"cores", 320.0, "7nm", true},
        design::Module{"cache", 160.0, "7nm", true},
        design::Module{"phy", 90.0, "12nm", false},
        design::Module{"io", 60.0, "12nm", false},
    };
    config.nodes = {"7nm", "12nm"};
    config.chiplet_counts = {1, 2, 3, 4};
    config.packagings = {"SoC", "MCM", "2.5D"};
    config.quantities = {5e5, 2e6};
    config.top_k = 0;
    expect_identical_results(explore_design_space(actuary, config),
                             explore_design_space_reference(actuary, config));
}

TEST(DesignSpaceKernelPath, WindowsMatchReferenceIncludingAccounting) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config;
    config.module_area_mm2 = 900.0;  // monolithic candidates get pruned
    config.nodes = {"7nm", "12nm"};
    config.chiplet_counts = {1, 2, 4};
    config.packagings = {"SoC", "MCM", "2.5D"};
    config.quantities = {1e6, 5e6};
    config.top_k = 0;
    const std::uint64_t total = design_space_size(actuary, config);
    ASSERT_GT(total, 10u);
    // Windows that split blocks mid-combo and mid-quantity, plus the
    // degenerate empty window.
    const std::pair<std::uint64_t, std::uint64_t> windows[] = {
        {0, total},     {0, total / 2},          {total / 2, total},
        {1, total - 1}, {total / 3, total / 2},  {5, 5},
    };
    for (const auto& [b, e] : windows) {
        DesignSpaceConfig w = config;
        w.index_begin = b;
        w.index_end = e;
        expect_identical_results(explore_design_space(actuary, w),
                                 explore_design_space_reference(actuary, w));
    }
}

TEST(DesignSpaceKernelPath, UniformNodesAndTopKMatchReference) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config;
    config.module_area_mm2 = 600.0;
    config.nodes = {"7nm", "12nm"};
    config.uniform_nodes = true;
    config.chiplet_counts = {1, 2, 3, 4, 5};
    config.packagings = {"SoC", "MCM", "InFO"};
    config.quantities = {1e6};
    config.top_k = 7;
    expect_identical_results(explore_design_space(actuary, config),
                             explore_design_space_reference(actuary, config));
}

TEST(DesignSpaceKernelPath, ValidationErrorsStillSurfaceThroughDispatch) {
    const core::ChipletActuary actuary;
    DesignSpaceConfig config;
    config.nodes = {"7nm"};
    config.index_begin = 7;
    config.index_end = 3;
    EXPECT_THROW((void)explore_design_space(actuary, config), ParameterError);
    config.index_begin = 0;
    config.index_end = 1u << 20;  // far outside the space
    EXPECT_THROW((void)explore_design_space(actuary, config), ParameterError);
}

}  // namespace
}  // namespace chiplet::explore

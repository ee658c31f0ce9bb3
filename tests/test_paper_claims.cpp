// Integration tests asserting the paper's headline qualitative claims
// hold under the built-in calibration.  Each test cites the section it
// reproduces; docs/model.md#assumptions-and-known-deviations records where the
// measured values deviate from the paper's.
#include <gtest/gtest.h>

#include "core/actuary.h"
#include "core/scenarios.h"
#include "design/builder.h"
#include "explore/breakeven.h"
#include "reuse/scms.h"

namespace chiplet {
namespace {

using core::ChipletActuary;
using core::monolithic_soc;
using core::split_system;

TEST(PaperSec41, AdvancedNodeDefectShareDominates) {
    // "the cost resulting from die defects accounts for more than 50% of
    // the total manufacturing cost of the monolithic SoC at 800 mm^2
    // area" (5nm).
    const ChipletActuary actuary;
    const auto cost =
        actuary.evaluate_re_only(monolithic_soc("s", "5nm", 800.0, 1e6));
    EXPECT_GT(cost.re.chip_defects / cost.re.total(), 0.5);
}

TEST(PaperSec41, MatureNodeYieldSavingsExist) {
    // "As for mature technology (14nm), though there are also up to 35%
    // cost-savings from yield improvement..." — compare die-only costs.
    const ChipletActuary actuary;
    const auto soc =
        actuary.evaluate_re_only(monolithic_soc("s", "14nm", 900.0, 1e6));
    const auto mcm = actuary.evaluate_re_only(
        split_system("m", "14nm", "MCM", 900.0, 5, 0.0, 1e6));  // no D2D: pure yield
    const double soc_die = soc.re.raw_chips + soc.re.chip_defects;
    const double mcm_die = mcm.re.raw_chips + mcm.re.chip_defects;
    EXPECT_GT((soc_die - mcm_die) / soc_die, 0.20);
    EXPECT_LT((soc_die - mcm_die) / soc_die, 0.50);
}

TEST(PaperSec41, BenefitsIncreaseWithArea) {
    // "For any technology node, the benefits increase with the increase
    // of area."
    const ChipletActuary actuary;
    for (const char* node : {"14nm", "7nm", "5nm"}) {
        double previous_ratio = 2.0;
        for (double area : {300.0, 600.0, 900.0}) {
            const double soc =
                actuary.evaluate_re_only(monolithic_soc("s", node, area, 1e6))
                    .re.total();
            const double mcm =
                actuary
                    .evaluate_re_only(
                        split_system("m", node, "MCM", area, 2, 0.10, 1e6))
                    .re.total();
            const double ratio = mcm / soc;
            EXPECT_LT(ratio, previous_ratio) << node << " " << area;
            previous_ratio = ratio;
        }
    }
}

TEST(PaperSec41, GranularityHasMarginalUtility) {
    // "With the increase of chiplets quantity (3->5), the cost-saving of
    // die defects is more negligible (<10% at 5nm, 800mm2, MCM)".
    const ChipletActuary actuary;
    const auto re = [&](unsigned k) {
        return actuary
            .evaluate_re_only(split_system("m", "5nm", "MCM", 800.0, k, 0.10, 1e6))
            .re;
    };
    const double total2 = re(2).total();
    const double total3 = re(3).total();
    const double total5 = re(5).total();
    EXPECT_GT(total2 - total3, total3 - total5);  // diminishing returns
    // The paper's metric is the *die defect* saving ("<10%"); our
    // calibration measures ~11%, the same magnitude (see
    // docs/model.md#assumptions-and-known-deviations).
    const double defect_saving = re(3).chip_defects - re(5).chip_defects;
    EXPECT_LT(defect_saving / total3, 0.12);
}

TEST(PaperSec41, AdvancedPackagingOnlyPaysOnAdvancedNodes) {
    // "advanced packaging technologies are only cost-effective under
    // advanced process technology": at 14nm/900mm2 2.5D loses to SoC,
    // at 5nm/900mm2 it wins.
    const ChipletActuary actuary;
    const auto ratio = [&](const char* node) {
        const double soc =
            actuary.evaluate_re_only(monolithic_soc("s", node, 900.0, 1e6))
                .re.total();
        const double d25 =
            actuary
                .evaluate_re_only(
                    split_system("d", node, "2.5D", 900.0, 3, 0.10, 1e6))
                .re.total();
        return d25 / soc;
    };
    EXPECT_GT(ratio("14nm"), 1.0);
    EXPECT_LT(ratio("5nm"), 1.0);
}

TEST(PaperSec41, PackagingCostComparableToChipCostFor25D) {
    // "the cost of packaging (50% at 7nm, 900 mm^2, 2.5D) is comparable
    // with the chip cost".
    const ChipletActuary actuary;
    const auto cost = actuary.evaluate_re_only(
        split_system("d", "7nm", "2.5D", 900.0, 3, 0.10, 1e6));
    const double packaging_share = cost.re.packaging_total() / cost.re.total();
    EXPECT_GT(packaging_share, 0.30);
    EXPECT_LT(packaging_share, 0.65);
}

TEST(PaperSec42, SingleSystemTurningPointNearTwoMillion) {
    // "For 5nm systems, when the quantity reaches two million, multi-chip
    // architecture starts to pay back" (800 mm^2, 2 chiplets).
    const ChipletActuary actuary;
    const explore::Breakeven result =
        explore::breakeven_quantity(actuary, "5nm", 800.0, 2, "MCM", 0.10);
    ASSERT_TRUE(result.found);
    EXPECT_GT(result.value, 0.5e6);
    EXPECT_LT(result.value, 5.0e6);
}

TEST(PaperSec42, SmallerSystemsTurnLater) {
    // "As for smaller systems, the turning point of production quantity
    // is further higher."
    const ChipletActuary actuary;
    const explore::Breakeven large =
        explore::breakeven_quantity(actuary, "5nm", 800.0, 2, "MCM", 0.10);
    const explore::Breakeven small =
        explore::breakeven_quantity(actuary, "5nm", 500.0, 2, "MCM", 0.10);
    ASSERT_TRUE(large.found);
    ASSERT_TRUE(small.found);
    EXPECT_GT(small.value, large.value);
}

TEST(PaperSec42, MonolithicWinsAtLowQuantity) {
    // At 500k units the SoC is the better choice for a single system.
    const ChipletActuary actuary;
    const double soc =
        actuary.evaluate(monolithic_soc("s", "5nm", 800.0, 5e5)).total_per_unit();
    const double mcm =
        actuary.evaluate(split_system("m", "5nm", "MCM", 800.0, 2, 0.10, 5e5))
            .total_per_unit();
    EXPECT_LT(soc, mcm);
}

TEST(PaperSec51, ScmsChipNreSavingNearThreeQuarters) {
    // "due to chiplet reuse, there is vast chip NRE cost-saving (nearly
    // three quarters for 4X system) compared with monolithic SoC".
    const ChipletActuary actuary;
    const reuse::ScmsConfig config;
    const auto multi = actuary.evaluate(reuse::make_scms_family(config));
    const auto soc = actuary.evaluate(reuse::make_scms_soc_family(config));
    const double saving =
        1.0 - multi.nre_chips_total / soc.nre_chips_total;
    EXPECT_GT(saving, 0.55);
    EXPECT_LT(saving, 0.90);
}

TEST(PaperSec51, PackageReuseTradeoff) {
    // "Package reuse saves amortized NRE cost of package for larger
    // systems but wastes RE cost for smaller systems" — the 1X system
    // total must rise (paper: >20%) while the family package NRE falls.
    const ChipletActuary actuary;
    reuse::ScmsConfig config;
    const auto plain = actuary.evaluate(reuse::make_scms_family(config));
    config.reuse_package = true;
    const auto reused = actuary.evaluate(reuse::make_scms_family(config));
    EXPECT_LT(reused.nre_packages_total, plain.nre_packages_total);
    const double rise = reused.systems[0].total_per_unit() /
                            plain.systems[0].total_per_unit() -
                        1.0;
    EXPECT_GT(rise, 0.05);
}

TEST(PaperSec51, InterposerReuseUneconomicFor25D) {
    // "package reuse is uneconomic for high-cost 2.5D integrations": the
    // oversized interposer hurts the 1X system far more than on MCM.
    const ChipletActuary actuary;
    reuse::ScmsConfig mcm;
    mcm.packaging = "MCM";
    reuse::ScmsConfig d25 = mcm;
    d25.packaging = "2.5D";
    const auto rise = [&](reuse::ScmsConfig config) {
        const auto plain = actuary.evaluate(reuse::make_scms_family(config));
        config.reuse_package = true;
        const auto reused = actuary.evaluate(reuse::make_scms_family(config));
        return reused.systems[0].re.total() / plain.systems[0].re.total() - 1.0;
    };
    EXPECT_GT(rise(d25), 2.0 * rise(mcm));
}

TEST(PaperSec6, MultiChipPaysWhenDefectsExceedPackaging) {
    // Takeaway 1: "Multi-chip architecture begins to pay off when the
    // cost of die defects exceeds the total cost resulting from
    // packaging."  Check the implication at the RE break-even area.
    const ChipletActuary actuary;
    const explore::Breakeven turn =
        explore::breakeven_area(actuary, "7nm", 2, "MCM", 0.10);
    ASSERT_TRUE(turn.found);
    const auto above = actuary.evaluate_re_only(
        monolithic_soc("s", "7nm", turn.value * 1.4, 1e6));
    const auto mcm_above = actuary.evaluate_re_only(
        split_system("m", "7nm", "MCM", turn.value * 1.4, 2, 0.10, 1e6));
    EXPECT_GT(above.re.chip_defects, mcm_above.re.packaging_total());
    EXPECT_LT(mcm_above.re.total(), above.re.total());
}

TEST(PaperSec6, MooreLimitYieldsHighestBenefit) {
    // "The closer to the Moore Limit (the largest area at the most
    // advanced technology) the system is, the higher cost-benefit from
    // multi-chip architecture is."
    const ChipletActuary actuary;
    const auto benefit = [&](const char* node, double area) {
        const double soc =
            actuary.evaluate_re_only(monolithic_soc("s", node, area, 1e6))
                .re.total();
        const double mcm =
            actuary
                .evaluate_re_only(
                    split_system("m", node, "MCM", area, 3, 0.10, 1e6))
                .re.total();
        return 1.0 - mcm / soc;
    };
    EXPECT_GT(benefit("5nm", 900.0), benefit("5nm", 400.0));
    EXPECT_GT(benefit("5nm", 900.0), benefit("14nm", 900.0));
}

}  // namespace
}  // namespace chiplet

// Paper Fig. 10: the FSMC reuse scheme — k-socket packages populated by
// all multisets of n chiplet types, (k, n) in {(2,2), (2,4), (3,4),
// (4,4), (4,6)}, 500k units per system, SoC vs MCM vs 2.5D by average
// normalised total cost.  Also reports the enumeration count, including
// the paper's 119-vs-209 discrepancy for (k=4, n=6).
#include "bench_common.h"
#include "core/actuary.h"
#include "report/table.h"
#include "reuse/fsmc.h"
#include "util/math.h"
#include "util/strings.h"

namespace {

using namespace chiplet;

void print_figure() {
    bench::print_header("Fig. 10 — FSMC: a few sockets, multiple collocations");
    const core::ChipletActuary actuary;

    struct KnConfig {
        unsigned k;
        unsigned n;
    };
    const std::vector<KnConfig> configs = {{2, 2}, {2, 4}, {3, 4}, {4, 4}, {4, 6}};

    report::TextTable table;
    table.add_column("config");
    table.add_column("#systems", report::Align::right);
    table.add_column("SoC avg", report::Align::right);
    table.add_column("MCM avg", report::Align::right);
    table.add_column("2.5D avg", report::Align::right);
    table.add_column("MCM NRE share", report::Align::right);

    double norm = 0.0;
    for (const KnConfig& kn : configs) {
        reuse::FsmcConfig config;
        config.sockets = kn.k;
        config.chiplet_types = kn.n;

        const auto soc = actuary.evaluate(reuse::make_fsmc_soc_family(config));
        config.packaging = "MCM";
        const auto mcm = actuary.evaluate(reuse::make_fsmc_family(config));
        config.packaging = "2.5D";
        const auto d25 = actuary.evaluate(reuse::make_fsmc_family(config));

        if (norm == 0.0) norm = soc.average_unit_cost();  // first config SoC

        double nre = 0.0;
        double total = 0.0;
        for (const auto& s : mcm.systems) {
            nre += s.nre.total() * s.quantity;
            total += s.total_per_unit() * s.quantity;
        }
        table.add_row(
            {"k=" + std::to_string(kn.k) + " n=" + std::to_string(kn.n),
             std::to_string(mcm.systems.size()),
             format_fixed(soc.average_unit_cost() / norm, 2),
             format_fixed(mcm.average_unit_cost() / norm, 2),
             format_fixed(d25.average_unit_cost() / norm, 2),
             format_pct(nre / total)});
    }
    std::cout << table.render() << "\n";

    bench::print_claim(
        "the more chiplets are reused, the more benefits from NRE "
        "amortization; with full reuse the amortized NRE is negligible",
        "MCM NRE share falls monotonically down the table");
    bench::print_claim(
        "six chiplets and one 4-socket package build up to 119 systems",
        "sum_{i=1..4} C(6+i-1, i) = " +
            std::to_string(fsmc_system_count(6, 4)) +
            " by the paper's own formula (and exact enumeration); the "
            "119 in the text appears to be a typo — see docs/model.md#assumptions-and-known-deviations");
}

void BM_FsmcEnumeration(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(reuse::enumerate_collocations(6, 4));
    }
}
BENCHMARK(BM_FsmcEnumeration);

void BM_FsmcLargestFamily(benchmark::State& state) {
    const core::ChipletActuary actuary;
    reuse::FsmcConfig config;
    config.sockets = 4;
    config.chiplet_types = 6;
    const auto family = reuse::make_fsmc_family(config);
    for (auto _ : state) {
        benchmark::DoNotOptimize(actuary.evaluate(family));
    }
}
BENCHMARK(BM_FsmcLargestFamily)->Unit(benchmark::kMillisecond);

}  // namespace

CHIPLET_BENCH_MAIN(print_figure)

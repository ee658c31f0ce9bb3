// Seeded input generators.  Every workload input is a JSON document the
// program parses itself; the generators only decide its numbers.  Item i
// of a workload's sequence depends on (seed, i) alone, so runs of one
// seed send identical traffic however many items they get through.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "util/json.h"

namespace perfbench::gen {

/// examples/studies/paper_figures.json under the checkout root: the
/// 12-study batch covering all ten study kinds.
[[nodiscard]] chiplet::JsonValue load_paper_batch(const std::string& root);

/// Redraws one study's areas, quantities and Monte-Carlo seed in place,
/// inside ranges where every kind still evaluates without error.  Grid
/// sizes and kinds are untouched.  Areas are whole mm^2 and quantities
/// whole thousands, as a user would type them.
void perturb_study(chiplet::JsonValue& study, Rng& rng);

/// Batch `i` of paper_batch: every study of `paper` perturbed.
[[nodiscard]] std::string paper_batch(const chiplet::JsonValue& paper,
                                      std::uint64_t seed, std::uint64_t i);

/// Candidates in one design_space workload study: bench_design_space's
/// space (3 nodes, 1-10 chiplets, 4 packagings, one quantity).
inline constexpr std::uint64_t kDesignSpaceCandidates = 265719;

/// Study document of design_space iteration `i`: bench_design_space's
/// space with a seed-drawn module area.
[[nodiscard]] std::string design_space_document(std::uint64_t seed,
                                                std::uint64_t i);

/// Work classes of served requests.
enum class Weight { light, medium, heavy };

/// One served study spec (a "studies" array entry) of the given class,
/// built from a paper-batch template and perturbed.  `variant` picks the
/// kind within the class (cycling), so a caller fixes the mix of kinds
/// and response sizes while the seed only moves the numbers:
///  - light: one of the small kinds (sensitivity, tornado, breakeven,
///    quantity_sweep, timeline, recommend, pareto, 64-draw Monte Carlo);
///  - medium: 500-draw Monte Carlo, a small re_sweep or design_space;
///  - heavy: an 88,572-candidate design_space.
[[nodiscard]] chiplet::JsonValue serve_spec(const chiplet::JsonValue& paper,
                                            Weight weight, std::size_t variant,
                                            Rng& rng, const std::string& name);

}  // namespace perfbench::gen

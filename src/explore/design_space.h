// Heterogeneous design-space explorer: the combinatorial search the
// paper's architecture-exploration use case actually needs.  Where
// explore::recommend walks the tiny equal-area, single-node space, this
// engine enumerates
//
//   (partition into k chiplets) x (process node per chiplet)
//     x (packaging technology) x (production quantity)
//
// lazily — candidates are decoded from a flat index, never materialised
// as a list — prunes infeasible geometry (reticle/area bounds via
// core::audit's feasibility rules) before any cost evaluation, evaluates
// survivors in chunks on the global thread pool through
// ChipletActuary::evaluate_batch (die-cost cache hot), and streams
// results into a bounded top-K heap.  Million-candidate spaces run in
// O(chunk + K) memory with a deterministic ranking that is bit-identical
// to a serial scan for any pool size.
//
//   explore::DesignSpaceConfig config;
//   config.nodes = {"7nm", "12nm"};
//   config.chiplet_counts = {1, 2, 3, 4};
//   explore::DesignSpaceResult r = explore::explore_design_space(actuary, config);
//   r.best.front();  // cheapest feasible candidate
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/actuary.h"
#include "design/module.h"
#include "wafer/reticle.h"

namespace chiplet::explore {

/// Search-space description.  The workload is either a concrete module
/// list (heterogeneous partition via design::partition_modules) or a
/// homogeneous total area (equal-area split, the paper's Sec. 4.1
/// workload); every axis below multiplies the candidate count.
struct DesignSpaceConfig {
    // -- workload -------------------------------------------------------------
    /// Concrete modules to re-partition.  When non-empty, each chiplet
    /// count k yields the balanced k-way partition of this list (counts
    /// exceeding the module count are skipped); when empty, the
    /// homogeneous `module_area_mm2` workload is split equally instead.
    std::vector<design::Module> modules;
    double module_area_mm2 = 400.0;  ///< total logic area, equal-area mode
    /// Node the homogeneous area is specified at; scalable areas retarget
    /// to each chiplet's assigned node.  Empty = `nodes.front()`.
    std::string reference_node;

    // -- axes -----------------------------------------------------------------
    /// Chiplet counts for the multi-die packagings.  SoC-type packagings
    /// always contribute exactly one monolithic candidate per node/quantity
    /// regardless of this list.
    std::vector<unsigned> chiplet_counts = {1, 2, 3, 4, 5};
    /// Candidate process nodes, assigned per chiplet: a k-chiplet
    /// candidate has |nodes|^k assignments (|nodes| when `uniform_nodes`).
    std::vector<std::string> nodes = {"7nm"};
    bool uniform_nodes = false;  ///< restrict to one node for all chiplets
    std::vector<std::string> packagings = {"SoC", "MCM", "InFO", "2.5D"};
    std::vector<double> quantities = {1e6};
    /// D2D share of each die's final area on multi-die packagings (the
    /// paper assumes 0.10); SoC-type candidates carry none.
    double d2d_fraction = 0.10;

    // -- execution / pruning --------------------------------------------------
    unsigned top_k = 10;       ///< candidates to keep; 0 = keep the whole ranking
    std::size_t chunk = 1024;  ///< systems per evaluate_batch call
    /// Enumeration-index window [index_begin, index_end): restrict the
    /// scan to a contiguous slice of the flat space — the sharding unit
    /// of the actuaryd dispatcher (serve/dispatcher.h).  index_end == 0
    /// means "to the end of the space".  Candidate indices stay global,
    /// so per-range top-K heaps merge under the usual (cost, index)
    /// order into exactly the whole-space ranking; total_candidates /
    /// pruned / evaluated count the window only, so shard counts sum to
    /// the whole-space run's.  Both fields are serialised only when
    /// non-default, keeping the canonical spec JSON (and spec_hash) of
    /// whole-space studies byte-identical.
    std::uint64_t index_begin = 0;
    std::uint64_t index_end = 0;
    /// Geometry pre-screen: candidates whose dies fail the single-reticle
    /// bound (core::audit_dies_feasible) are dropped before evaluation.
    bool prune = true;
    wafer::ReticleSpec reticle;      ///< single-exposure limit for pruning
    double max_die_area_mm2 = 0.0;   ///< extra per-die cap; 0 = reticle only
};

/// One evaluated point of the space.
struct DesignCandidate {
    /// Position in enumeration order (packaging-major, then chiplet
    /// count, then node assignment, then quantity).  Ranking ties break
    /// on this index, which makes the top-K deterministic.
    std::uint64_t index = 0;
    std::string packaging;
    unsigned chiplets = 1;
    std::vector<std::string> nodes;     ///< assigned node per chiplet
    std::vector<double> die_areas_mm2;  ///< final die areas incl. D2D share
    double quantity = 0.0;
    double re_per_unit = 0.0;
    double nre_per_unit = 0.0;

    [[nodiscard]] double total_per_unit() const {
        return re_per_unit + nre_per_unit;
    }
};

/// Exploration outcome: the ranked survivors plus space accounting.
struct DesignSpaceResult {
    /// Ascending (total_per_unit, index); at most `top_k` entries (all
    /// evaluated candidates when top_k == 0).
    std::vector<DesignCandidate> best;
    std::uint64_t total_candidates = 0;  ///< size of the enumerated space
    std::uint64_t pruned = 0;            ///< dropped by the geometry pre-screen
    std::uint64_t evaluated = 0;         ///< total_candidates - pruned

    [[nodiscard]] double pruned_fraction() const {
        return total_candidates > 0
                   ? static_cast<double>(pruned) /
                         static_cast<double>(total_candidates)
                   : 0.0;
    }
};

/// Number of candidates `config` spans, without evaluating any of them.
/// Throws ParameterError when an axis is empty or the count overflows.
[[nodiscard]] std::uint64_t design_space_size(
    const core::ChipletActuary& actuary, const DesignSpaceConfig& config);

/// Runs the exploration.  The returned ranking is bit-identical for any
/// global pool size: chunks are evaluated slot-ordered on the pool and
/// folded into the top-K heap in enumeration order.
///
/// Spaces without an attached evaluation memo run on the SoA kernel
/// fast path (src/kernels/): candidates are lowered block-by-block into
/// structure-of-arrays form, dies/interposers are priced with the
/// active SIMD kernel table, and the Eq. 3-5 fold runs over whole
/// candidate waves.  Kernel results are bit-identical to the scalar
/// engine by policy, so ranking, accounting and every reported double
/// match explore_design_space_reference exactly; any candidate needing
/// the scalar engine's diagnostics falls back to the reference body
/// wholesale so error messages and first-error ordering have one home.
[[nodiscard]] DesignSpaceResult explore_design_space(
    const core::ChipletActuary& actuary, const DesignSpaceConfig& config);

/// The scalar-engine reference implementation: enumerate, prune,
/// evaluate survivors in chunks through ChipletActuary::evaluate_batch,
/// fold into the bounded heap.  This is the oracle the kernel fast
/// path is differentially tested against (tests/test_design_space.cpp,
/// bench/bench_design_space.cpp) and the fallback it routes to.
[[nodiscard]] DesignSpaceResult explore_design_space_reference(
    const core::ChipletActuary& actuary, const DesignSpaceConfig& config);

/// Rebuilds the concrete system of one enumerated candidate — by its
/// DesignCandidate::index — exactly as the explorer evaluated it, so an
/// explain pass over a ranked candidate reproduces its cost bit for
/// bit.  Throws ParameterError when `index` is outside the space.
[[nodiscard]] design::System design_space_candidate_system(
    const core::ChipletActuary& actuary, const DesignSpaceConfig& config,
    std::uint64_t index);

/// The exact systems explore_design_space would evaluate — window
/// applied, pruned candidates skipped, enumeration order — without
/// evaluating any of them.  This is the study compiler's cell
/// enumeration hook: interning these systems ahead of the run turns the
/// engine's evaluate_batch calls into memo hits.  Returns nullopt when
/// more than `max_systems` survivors exist (the caller falls back to
/// letting the engine stream the space itself); throws the same
/// validation errors as explore_design_space for a bad config.
[[nodiscard]] std::optional<std::vector<design::System>> design_space_systems(
    const core::ChipletActuary& actuary, const DesignSpaceConfig& config,
    std::size_t max_systems);

}  // namespace chiplet::explore

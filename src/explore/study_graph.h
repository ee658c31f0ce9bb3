// The study compiler: a shared-work execution graph over a batch of
// StudySpecs.  Where run_study evaluates each study in isolation, the
// compiler first *plans* the batch —
//
//   1. byte-identical specs collapse onto one evaluation (spec_hash
//      identity, canonical JSON verified),
//   2. the survivors group by canonical tech-override document; each
//      group patches the base actuary once,
//   3. each study's engine enumeration is asked for the exact cost
//      cells (explore/cell.h) it will price; cells intern into the
//      group's CellTable, so a cell referenced by many studies exists
//      once —
//
// and then *executes* it: every group's unique cells are evaluated once,
// contiguously and slot-ordered on the global pool, after which each
// study runs its ordinary engine against an actuary carrying a
// CellMemoView of the group table.  The engine's single-system
// evaluations become memo hits, and anything the enumeration did not
// predict (or kinds the compiler treats as opaque — monte_carlo,
// sensitivity, tornado, breakeven, timeline, pareto) is priced by the
// engine exactly as before.  Payloads are therefore bit-identical to
// independent run_study calls by construction: a memo hit returns the
// SystemCost the very same entry point produced during the cell sweep,
// and a miss is the ordinary code path.
//
// run_studies / run_studies_collecting route through run_study_graph;
// plan_studies is the dry-run surface behind `actuary_cli study --plan`.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/actuary.h"
#include "explore/study.h"

namespace chiplet::explore {

/// One study's row of the compiled plan.
struct StudyPlanEntry {
    std::size_t index = 0;  ///< position in the submitted batch
    std::string name;
    StudyKind kind = StudyKind::re_sweep;
    std::uint64_t spec_hash = 0;  ///< canonical spec identity (spec_hash.h)
    /// True when an earlier spec in the batch is byte-identical; this
    /// study is served as a copy of `duplicate_of`'s result.
    bool duplicate_spec = false;
    std::size_t duplicate_of = 0;
    /// True when the compiler could enumerate this study's cells ahead
    /// of the run.  False for the opaque kinds, for configs the engine
    /// itself will reject, and for spaces over the enumeration budget —
    /// the study still runs, pricing its own cells.
    bool enumerable = false;
    std::uint64_t cell_refs = 0;  ///< cells the study will reference
    std::uint64_t new_cells = 0;  ///< of those, first interned by this study
};

/// The compiled execution graph of a batch, without any evaluation.
struct StudyPlan {
    std::vector<StudyPlanEntry> studies;  ///< one entry per spec, in order
    StudyGraphStats stats;
};

/// Compiles the batch and returns the plan: what would be shared, what
/// stays opaque, how many unique cells the execution graph holds.  No
/// cost model runs; a spec whose tech overrides fail to apply simply
/// plans as non-enumerable (the error surfaces when the batch runs).
[[nodiscard]] StudyPlan plan_studies(const core::ChipletActuary& actuary,
                                     std::span<const StudySpec> specs);

/// Raw graph execution outcome: one slot per submitted spec, holding
/// either the result or the original exception (ParseError for bad
/// tech-override documents, Error for model failures) with its type
/// preserved, so the throwing and collecting wrappers can each keep
/// their historical contract.
struct StudyGraphRun {
    std::vector<std::optional<StudyResult>> results;
    std::vector<std::exception_ptr> errors;
    StudyGraphStats stats;
};

/// Compiles and executes the batch.  Per-study cell memo counters land
/// in each result's StudyRunInfo.  `canonicals`, when not empty, holds
/// canonical_spec_json of each spec, already computed by the caller (the
/// server's cache probe), so no spec is canonicalised twice.
[[nodiscard]] StudyGraphRun run_study_graph(
    const core::ChipletActuary& actuary, std::span<const StudySpec> specs,
    std::span<const std::string> canonicals = {});

}  // namespace chiplet::explore

// The cost-cell layer of the study compiler (explore/study_graph.h).
// A *cell* is one single-system evaluation an engine performs — the
// concrete design::System plus whether the engine wants the full
// RE + NRE picture or the RE-only one — and is the unit of cross-study
// work sharing: overlapping studies in one batch reference the same
// cell, which is evaluated exactly once.
//
// Identity is canonical in the spirit of explore/spec_hash.h: cell_hash
// streams every field that determines the evaluation result (and the
// result's embedded names) through 64-bit FNV-1a in a fixed order, so
// two independently constructed but equal systems hash identically on
// every platform.  FNV is not collision-free; the table verifies full
// design::System equality on every probe, so a collision degrades to a
// miss, never to a wrong result.
//
// Tech-library identity is deliberately *not* part of the hash: a
// CellTable belongs to one effective actuary (one tech-override group
// of the compiled batch), so every cell in it is priced under the same
// library.  The study graph keeps one table per group.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/actuary.h"
#include "design/system.h"

namespace chiplet::explore {

/// Which evaluate entry point the cell denotes.
enum class CellEval : std::uint8_t {
    full,     ///< ChipletActuary::evaluate — RE + amortised NRE
    re_only,  ///< ChipletActuary::evaluate_re_only — manufacturing only
};

/// One enumerated evaluation: the system an engine will price and how.
struct Cell {
    CellEval eval = CellEval::full;
    design::System system;
};

/// Canonical 64-bit FNV-1a over (eval, packaging, names, quantity,
/// placements, chips, modules) in a fixed field order with
/// length-prefixed strings and bit-cast doubles.  Deterministic across
/// platforms and process runs — a stable identity for caches and wire
/// formats, like spec_hash.
[[nodiscard]] std::uint64_t cell_hash(CellEval eval,
                                      const design::System& system);

/// Deduplicated cell table of one tech group: interned during compile,
/// evaluated once in contiguous per-eval arrays, then served read-only
/// to every study that references a cell.
///
/// The storage is two flat (systems[], costs[]) array pairs — one per
/// CellEval — kept in interning order.  Evaluation sweeps each array
/// contiguously on the global pool with slot ordering, which is also
/// the layout a batched SIMD pricing kernel would consume: unique
/// cells, densely packed, results in matching slots.
class CellTable {
public:
    CellTable() = default;
    CellTable(const CellTable&) = delete;
    CellTable& operator=(const CellTable&) = delete;
    CellTable(CellTable&&) = default;
    CellTable& operator=(CellTable&&) = default;

    /// Interns a cell during compilation: returns its table-wide id
    /// (dense, in first-appearance order) and whether it was new.
    /// Equal cells (same eval, equal system) share one id regardless of
    /// which study interned them first.  Not thread-safe; compilation
    /// is single-threaded.
    struct Interned {
        std::uint32_t id = 0;
        bool inserted = false;
    };
    Interned intern(CellEval eval, const design::System& system);

    [[nodiscard]] std::size_t size() const { return entries_.size(); }

    /// Evaluates every interned cell on `actuary` (the table's effective
    /// actuary, memo-free), filling the result arrays slot-ordered on
    /// the global pool.  A cell whose evaluation throws is left
    /// unfilled — lookups of it miss, so the owning study's engine
    /// re-evaluates and surfaces the authoritative error itself.
    void evaluate_all(const core::ChipletActuary& actuary);

    /// Post-evaluation probe: the memoised cost of (eval, system), or
    /// nullptr when the cell is unknown or its evaluation failed.
    /// Thread-safe (the table is immutable after evaluate_all).
    [[nodiscard]] const core::SystemCost* find(
        CellEval eval, const design::System& system) const;

private:
    struct Entry {
        std::uint64_t hash = 0;
        CellEval eval = CellEval::full;
        std::uint32_t slot = 0;        ///< index into the per-eval arrays
        std::uint32_t bucket_next = 0;  ///< next entry index + 1; 0 = end
    };

    struct EvalArrays {
        std::vector<design::System> systems;  ///< contiguous, intern order
        std::vector<core::SystemCost> costs;  ///< slot i prices systems[i]
        std::vector<char> filled;             ///< 0 until evaluated OK
    };

    /// Entry index of (hash, eval, system), or npos.
    [[nodiscard]] std::size_t probe(std::uint64_t hash, CellEval eval,
                                    const design::System& system) const;

    std::vector<Entry> entries_;
    std::vector<std::uint32_t> buckets_;  ///< head entry index + 1; 0 = empty
    std::size_t bucket_mask_ = 0;
    EvalArrays arrays_[2];  ///< indexed by CellEval
};

/// Per-study view of a shared CellTable, implementing core::EvalMemo:
/// the study's effective actuary carries one of these while its engine
/// runs, so every single-system evaluation first probes the memo.
/// Hit/miss counters are per view — each study gets exact numbers even
/// when the batch fans studies out across the pool.
class CellMemoView final : public core::EvalMemo {
public:
    explicit CellMemoView(const CellTable& table) : table_(&table) {}

    [[nodiscard]] bool lookup(const design::System& system, bool re_only,
                              core::SystemCost& out) const override;

    [[nodiscard]] std::uint64_t hits() const {
        return hits_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t misses() const {
        return misses_.load(std::memory_order_relaxed);
    }

private:
    const CellTable* table_;
    // Engines evaluate from pool workers; counters are the only mutable
    // state and ordering between them is irrelevant, so relaxed atomics.
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace chiplet::explore

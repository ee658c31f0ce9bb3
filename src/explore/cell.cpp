#include "explore/cell.h"

#include <bit>
#include <cstring>
#include <string_view>

namespace chiplet::explore {

namespace {

// ---- canonical streaming hash ------------------------------------------------
// Incremental FNV-1a (same constants as explore/spec_hash.h) over a
// fixed field order.  Strings are length-prefixed so adjacent fields
// can never alias ("ab"+"c" vs "a"+"bc"); doubles contribute their bit
// pattern, so two cells hash equally exactly when the evaluations are
// bit-identical inputs.
struct Fnv {
    std::uint64_t state = 1469598103934665603ull;

    void bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            state ^= p[i];
            state *= 1099511628211ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void u8(std::uint8_t v) { bytes(&v, sizeof v); }
    void real(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(std::string_view s) {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

}  // namespace

std::uint64_t cell_hash(CellEval eval, const design::System& system) {
    Fnv h;
    h.u8(static_cast<std::uint8_t>(eval));
    h.str(system.name());
    h.str(system.packaging());
    h.str(system.package_design());
    h.real(system.quantity());
    h.u64(system.placements().size());
    for (const design::ChipPlacement& placement : system.placements()) {
        h.u64(placement.count);
        const design::Chip& chip = placement.chip;
        h.str(chip.name());
        h.str(chip.node());
        h.real(chip.d2d_fraction());
        h.u64(chip.modules().size());
        for (const design::Module& module : chip.modules()) {
            h.str(module.name);
            h.real(module.area_mm2);
            h.str(module.node);
            h.u8(module.scalable ? 1 : 0);
        }
    }
    return h.state;
}

// ---- CellTable ---------------------------------------------------------------

std::size_t CellTable::probe(std::uint64_t hash, CellEval eval,
                             const design::System& system) const {
    if (buckets_.empty()) return static_cast<std::size_t>(-1);
    std::uint32_t at = buckets_[hash & bucket_mask_];
    while (at != 0) {
        const Entry& entry = entries_[at - 1];
        if (entry.hash == hash && entry.eval == eval &&
            arrays_[static_cast<std::size_t>(entry.eval)]
                    .systems[entry.slot] == system) {
            return at - 1;
        }
        at = entry.bucket_next;
    }
    return static_cast<std::size_t>(-1);
}

CellTable::Interned CellTable::intern(CellEval eval,
                                      const design::System& system) {
    const std::uint64_t hash = cell_hash(eval, system);
    if (const std::size_t existing = probe(hash, eval, system);
        existing != static_cast<std::size_t>(-1)) {
        return {static_cast<std::uint32_t>(existing), false};
    }
    // Grow the open-chained bucket array at load factor 1.
    if (entries_.size() + 1 > buckets_.size()) {
        std::size_t capacity = buckets_.empty() ? 64 : buckets_.size() * 2;
        buckets_.assign(capacity, 0);
        bucket_mask_ = capacity - 1;
        for (std::uint32_t i = 0; i < entries_.size(); ++i) {
            const std::size_t b = entries_[i].hash & bucket_mask_;
            entries_[i].bucket_next = buckets_[b];
            buckets_[b] = i + 1;
        }
    }
    EvalArrays& arrays = arrays_[static_cast<std::size_t>(eval)];
    Entry entry;
    entry.hash = hash;
    entry.eval = eval;
    entry.slot = static_cast<std::uint32_t>(arrays.systems.size());
    arrays.systems.push_back(system);
    const std::size_t bucket = hash & bucket_mask_;
    entry.bucket_next = buckets_[bucket];
    entries_.push_back(entry);
    buckets_[bucket] = static_cast<std::uint32_t>(entries_.size());
    return {static_cast<std::uint32_t>(entries_.size() - 1), true};
}

void CellTable::evaluate_all(const core::ChipletActuary& actuary) {
    for (std::size_t kind = 0; kind < 2; ++kind) {
        EvalArrays& arrays = arrays_[kind];
        if (arrays.systems.empty()) continue;
        const bool re_only = kind == static_cast<std::size_t>(CellEval::re_only);
        // The fault-isolated batch entry point: dies are pre-priced with
        // the SoA kernels in one sweep, results fill slot-ordered (each
        // index owns its slot, deterministic for any pool size), and a
        // throwing cell (bad node, infeasible geometry) stays unfilled
        // instead of aborting the batch — the study that owns it
        // re-evaluates during reduction and reports the error with the
        // engine's own message.
        actuary.evaluate_batch_isolated(arrays.systems, re_only, arrays.costs,
                                        arrays.filled);
    }
}

const core::SystemCost* CellTable::find(CellEval eval,
                                        const design::System& system) const {
    const std::size_t at = probe(cell_hash(eval, system), eval, system);
    if (at == static_cast<std::size_t>(-1)) return nullptr;
    const Entry& entry = entries_[at];
    const EvalArrays& arrays = arrays_[static_cast<std::size_t>(eval)];
    if (arrays.filled.size() <= entry.slot || arrays.filled[entry.slot] == 0) {
        return nullptr;
    }
    return &arrays.costs[entry.slot];
}

// ---- CellMemoView ------------------------------------------------------------

bool CellMemoView::lookup(const design::System& system, bool re_only,
                          core::SystemCost& out) const {
    const core::SystemCost* cost =
        table_->find(re_only ? CellEval::re_only : CellEval::full, system);
    if (cost == nullptr) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    out = *cost;
    return true;
}

}  // namespace chiplet::explore

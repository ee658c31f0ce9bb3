#include "explore/study_graph.h"

#include <unordered_map>
#include <utility>

#include "core/scenarios.h"
#include "explore/cell.h"
#include "explore/spec_hash.h"
#include "tech/json_io.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace chiplet::explore {

namespace {

/// Per-study enumeration budget.  A study whose evaluated-cell count
/// exceeds this runs opaque instead: the engine streams the space in
/// chunks exactly as it does standalone, and the compiler neither holds
/// the systems in memory nor shares them.  Sized so the enumerable
/// paper workloads (grids of hundreds, decision spaces of thousands)
/// fit with a wide margin while a million-candidate design_space does
/// not get materialised.
constexpr std::size_t kMaxCellsPerStudy = 32768;

/// Enumerates the exact cost cells `spec`'s engine will price on
/// `effective`, in the engine's own construction — any divergence is
/// harmless (the unpredicted evaluation misses the memo and the engine
/// prices it itself) but wastes the shared work.  Returns false when
/// the kind is opaque, the config is one the engine will reject, the
/// space exceeds the budget, or enumeration throws; the study then runs
/// without a memo.
bool enumerate_cells(const core::ChipletActuary& effective,
                     const StudySpec& spec, std::vector<Cell>& out) {
    try {
        switch (spec.kind()) {
            case StudyKind::re_sweep: {
                const auto& c = std::get<ReSweepConfig>(spec.config);
                if (c.nodes.empty() || c.areas_mm2.empty()) return false;
                // Normalisation baselines: one "soc" per node at the
                // normalisation area — the same cell a grid SoC entry at
                // that area produces (sweep.cpp names both "soc").
                for (const std::string& node : c.nodes) {
                    out.push_back({CellEval::re_only,
                                   core::monolithic_soc(
                                       "soc", node, c.normalization_area_mm2,
                                       1e6)});
                }
                for (const std::string& node : c.nodes) {
                    for (double area : c.areas_mm2) {
                        for (const std::string& packaging : c.packagings) {
                            const bool is_soc =
                                effective.library().packaging(packaging).type ==
                                tech::IntegrationType::soc;
                            const std::vector<unsigned> counts =
                                is_soc ? std::vector<unsigned>{1}
                                       : c.chiplet_counts;
                            for (unsigned k : counts) {
                                if (out.size() >= kMaxCellsPerStudy)
                                    return false;
                                out.push_back(
                                    {CellEval::re_only,
                                     sweep_cell_system(effective, node,
                                                       packaging, area, k,
                                                       c.d2d_fraction, 1e6)});
                            }
                        }
                    }
                }
                return true;
            }
            case StudyKind::quantity_sweep: {
                const auto& c = std::get<QuantitySweepConfig>(spec.config);
                if (c.packagings.empty() || c.quantities.empty()) return false;
                for (double quantity : c.quantities) {
                    for (const std::string& packaging : c.packagings) {
                        if (out.size() >= kMaxCellsPerStudy) return false;
                        out.push_back(
                            {CellEval::full,
                             sweep_cell_system(effective, c.node, packaging,
                                               c.module_area_mm2, c.chiplets,
                                               c.d2d_fraction, quantity)});
                    }
                }
                return true;
            }
            case StudyKind::recommend: {
                const auto& q = std::get<DecisionQuery>(spec.config);
                if (q.max_chiplets < 1 || q.packagings.empty()) return false;
                const DesignSpaceConfig space = decision_space(q);
                std::optional<std::vector<design::System>> systems =
                    design_space_systems(effective, space,
                                         kMaxCellsPerStudy - out.size());
                if (!systems) return false;
                for (design::System& system : *systems) {
                    out.push_back({CellEval::full, std::move(system)});
                }
                return true;
            }
            case StudyKind::design_space: {
                const auto& c = std::get<DesignSpaceConfig>(spec.config);
                std::optional<std::vector<design::System>> systems =
                    design_space_systems(effective, c,
                                         kMaxCellsPerStudy - out.size());
                if (!systems) return false;
                for (design::System& system : *systems) {
                    out.push_back({CellEval::full, std::move(system)});
                }
                return true;
            }
            // Opaque kinds: their evaluations depend on state the
            // compiler cannot replicate cheaply — perturbed or per-month
            // libraries (monte_carlo, sensitivity, tornado, timeline),
            // adaptive bisection probes (breakeven) — or there is no
            // cost model behind them at all (pareto).
            case StudyKind::monte_carlo:
            case StudyKind::sensitivity:
            case StudyKind::tornado:
            case StudyKind::breakeven:
            case StudyKind::pareto:
            case StudyKind::timeline:
                return false;
        }
    } catch (...) {
        // Invalid config (unknown packaging/node, empty axis, window out
        // of range...): the engine is the authority on the error — run
        // the study opaque and let it throw its own message.
    }
    return false;
}

/// One tech-override group: every member study shares this effective
/// actuary and cell table.
struct TechGroup {
    std::optional<core::ChipletActuary> patched;  ///< nullopt = base actuary
    CellTable table;
    bool failed = false;  ///< the override document does not apply
};

struct CompiledStudy {
    std::string canonical;
    std::uint64_t hash = 0;
    bool alias = false;        ///< byte-identical to an earlier spec
    std::size_t primary = 0;   ///< that spec's index, when alias
    bool failed = false;       ///< tech overrides failed to apply
    std::exception_ptr error;
    std::size_t group = 0;     ///< TechGroup index, when !alias && !failed
    bool enumerable = false;
    std::uint64_t cell_refs = 0;
    std::uint64_t new_cells = 0;
};

struct CompiledBatch {
    std::vector<CompiledStudy> studies;  ///< slot per spec
    std::vector<TechGroup> groups;
    StudyGraphStats stats;
};

CompiledBatch compile(const core::ChipletActuary& actuary,
                      std::span<const StudySpec> specs,
                      std::span<const std::string> canonicals) {
    CompiledBatch batch;
    batch.studies.resize(specs.size());
    batch.stats.studies = specs.size();

    // Views into CompiledStudy::canonical; the studies vector is sized
    // up front, so the strings never move.
    std::unordered_map<std::string_view, std::size_t> by_canonical;
    std::unordered_map<std::string, std::size_t> group_ids;

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const StudySpec& spec = specs[i];
        CompiledStudy& cs = batch.studies[i];
        cs.canonical =
            canonicals.empty() ? canonical_spec_json(spec) : canonicals[i];
        cs.hash = fnv1a64(cs.canonical);

        // 1. Identical-spec dedup: byte equality of canonical forms is
        // spec equality, so the later spec is a pure copy of the
        // earlier one's result (name included — it is part of the spec).
        const auto [spec_it, first] = by_canonical.try_emplace(cs.canonical, i);
        if (!first) {
            cs.alias = true;
            cs.primary = spec_it->second;
            ++batch.stats.spec_dedups;
            continue;
        }

        // 2. Tech-override grouping: studies with the same canonical
        // override document share one patched actuary and cell table.
        const std::string group_key = canonicalize(spec.tech_overrides).dump();
        const auto [group_it, new_group] =
            group_ids.try_emplace(group_key, batch.groups.size());
        if (new_group) {
            batch.groups.emplace_back();
            TechGroup& group = batch.groups.back();
            if (!spec.tech_overrides.is_null()) {
                try {
                    tech::TechLibrary lib = actuary.library();
                    tech::apply_overrides(lib, spec.tech_overrides,
                                          "study '" + spec.name + "': tech");
                    group.patched.emplace(std::move(lib),
                                          actuary.assumptions());
                } catch (const Error&) {
                    group.failed = true;
                }
            }
        }
        cs.group = group_it->second;
        TechGroup& group = batch.groups[cs.group];
        if (group.failed) {
            // Applying is deterministic over (library, overrides), but
            // the error message carries the study's name — re-apply
            // with this member's own context so the message matches an
            // independent run_study exactly.
            try {
                tech::TechLibrary lib = actuary.library();
                tech::apply_overrides(lib, spec.tech_overrides,
                                      "study '" + spec.name + "': tech");
                cs.error = std::make_exception_ptr(
                    Error("study '" + spec.name + "': tech overrides failed"));
            } catch (...) {
                cs.error = std::current_exception();
            }
            cs.failed = true;
            continue;
        }

        // 3. Cell enumeration + interning.
        const core::ChipletActuary& effective =
            group.patched ? *group.patched : actuary;
        std::vector<Cell> cells;
        if (enumerate_cells(effective, spec, cells)) {
            cs.enumerable = true;
            cs.cell_refs = cells.size();
            for (Cell& cell : cells) {
                if (group.table.intern(cell.eval, cell.system).inserted) {
                    ++cs.new_cells;
                }
            }
        }
    }

    batch.stats.tech_groups = batch.groups.size();
    for (const TechGroup& group : batch.groups) {
        batch.stats.unique_cells += group.table.size();
    }
    for (const CompiledStudy& cs : batch.studies) {
        batch.stats.cell_refs += cs.cell_refs;
    }
    batch.stats.deduped_cells =
        batch.stats.cell_refs - batch.stats.unique_cells;
    return batch;
}

}  // namespace

StudyPlan plan_studies(const core::ChipletActuary& actuary,
                       std::span<const StudySpec> specs) {
    const CompiledBatch batch = compile(actuary, specs, {});
    StudyPlan plan;
    plan.stats = batch.stats;
    plan.studies.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const CompiledStudy& cs = batch.studies[i];
        StudyPlanEntry entry;
        entry.index = i;
        entry.name = specs[i].name;
        entry.kind = specs[i].kind();
        entry.spec_hash = cs.hash;
        entry.duplicate_spec = cs.alias;
        entry.duplicate_of = cs.primary;
        entry.enumerable = cs.enumerable;
        entry.cell_refs = cs.cell_refs;
        entry.new_cells = cs.new_cells;
        plan.studies.push_back(std::move(entry));
    }
    return plan;
}

StudyGraphRun run_study_graph(const core::ChipletActuary& actuary,
                              std::span<const StudySpec> specs,
                              std::span<const std::string> canonicals) {
    CompiledBatch batch = compile(actuary, specs, canonicals);

    // Phase 1: evaluate every group's unique cells, once, slot-ordered
    // on the global pool.  Groups run in first-appearance order; inside
    // a group the sweep is contiguous over the interned arrays.
    for (TechGroup& group : batch.groups) {
        if (group.failed || group.table.size() == 0) continue;
        group.table.evaluate_all(group.patched ? *group.patched : actuary);
    }

    StudyGraphRun run;
    run.stats = batch.stats;
    run.results.resize(specs.size());
    run.errors.resize(specs.size());

    // Phase 2: per-study reductions.  Enumerable studies run their
    // ordinary engine against a private actuary copy carrying a memo
    // view of the group table — private, so hit/miss counters are exact
    // per study even when reductions fan out across the pool.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const CompiledStudy& cs = batch.studies[i];
        if (cs.failed) {
            run.errors[i] = cs.error;
        } else if (!cs.alias) {
            pending.push_back(i);
        }
    }
    const auto reduce_one = [&](std::size_t i) {
        const CompiledStudy& cs = batch.studies[i];
        const TechGroup& group = batch.groups[cs.group];
        const core::ChipletActuary& effective =
            group.patched ? *group.patched : actuary;
        try {
            if (cs.enumerable) {
                core::ChipletActuary local = effective;
                const CellMemoView memo(group.table);
                local.set_eval_memo(&memo);
                StudyResult result = run_study_on(local, specs[i]);
                result.run.cell_hits = memo.hits();
                result.run.cell_misses = memo.misses();
                run.results[i] = std::move(result);
            } else {
                run.results[i] = run_study_on(effective, specs[i]);
            }
        } catch (const ParseError&) {
            run.errors[i] = std::current_exception();
        } catch (const Error&) {
            run.errors[i] = std::current_exception();
        }
    };
    // Same fan-out policy as the historical run_studies: batches smaller
    // than the pool stay serial so the engines' inner loops (and the
    // cell sweep above) keep the pool busy instead.
    util::ThreadPool& pool = util::ThreadPool::global();
    if (pending.size() < pool.size()) {
        for (std::size_t i : pending) reduce_one(i);
    } else {
        pool.parallel_for(pending.size(),
                          [&](std::size_t k) { reduce_one(pending[k]); });
    }

    // Phase 3: fan results out to identical-spec aliases.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const CompiledStudy& cs = batch.studies[i];
        if (cs.alias) {
            if (run.errors[cs.primary]) {
                run.errors[i] = run.errors[cs.primary];
            } else if (run.results[cs.primary]) {
                StudyResult copy = *run.results[cs.primary];
                copy.run.from_batch_dedup = true;
                run.results[i] = std::move(copy);
            }
        }
    }
    return run;
}

}  // namespace chiplet::explore

#include "explore/design_space.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "core/audit.h"
#include "design/partition.h"
#include "design/system.h"
#include "kernels/die_batch.h"
#include "kernels/kernels.h"
#include "tech/tech_library.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "wafer/reticle.h"
#include "wafer/wafer_spec.h"
#include "yield/composite.h"
#include "yield/models.h"

namespace chiplet::explore {

namespace {

std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b) {
    CHIPLET_EXPECTS(a == 0 ||
                        b <= std::numeric_limits<std::uint64_t>::max() / a,
                    "design space too large: candidate count overflows");
    return a * b;
}

/// One contiguous index range sharing (packaging, chiplet count).  The
/// space is the concatenation of these blocks in enumeration order:
/// packagings in config order, counts in config order within each,
/// node assignments (lexicographic, chiplet 0 most significant) within
/// each count, quantities innermost.
struct Block {
    std::uint64_t base = 0;    ///< global index of the first candidate
    std::uint64_t combos = 1;  ///< node assignments in this block
    std::uint64_t size = 0;    ///< combos * |quantities|
    std::size_t packaging = 0;
    unsigned chiplets = 1;
    bool soc = false;
    std::size_t k_slot = 0;  ///< index into the per-count tables
};

/// Validated, immutable per-run state: block table plus per-chiplet-count
/// geometry tables so the pruning pass runs on plain array lookups.
class Space {
public:
    Space(const core::ChipletActuary& actuary, const DesignSpaceConfig& config)
        : config_(config), lib_(actuary.library()) {
        CHIPLET_EXPECTS(!config.packagings.empty(), "no packagings to explore");
        CHIPLET_EXPECTS(!config.nodes.empty(), "no candidate nodes to explore");
        CHIPLET_EXPECTS(!config.quantities.empty(), "no quantities to explore");
        CHIPLET_EXPECTS(!config.chiplet_counts.empty(),
                        "no chiplet counts to explore");
        for (unsigned k : config.chiplet_counts) {
            CHIPLET_EXPECTS(k > 0, "chiplet counts must be >= 1");
        }
        for (double q : config.quantities) {
            CHIPLET_EXPECTS(q > 0.0, "production quantities must be positive");
        }
        CHIPLET_EXPECTS(config.d2d_fraction >= 0.0 && config.d2d_fraction < 1.0,
                        "D2D fraction must lie in [0, 1)");
        modules_mode_ = !config.modules.empty();
        if (!modules_mode_) {
            CHIPLET_EXPECTS(config.module_area_mm2 > 0.0,
                            "module area must be positive");
        }
        reference_node_ = config.reference_node.empty() ? config.nodes.front()
                                                        : config.reference_node;
        node_refs_.reserve(config.nodes.size());
        for (const std::string& name : config.nodes) {
            node_refs_.push_back(&lib_.node(name));  // throws on unknown names
        }
        (void)lib_.node(reference_node_);  // validate before enumerating

        // ---- block table -----------------------------------------------------
        std::map<unsigned, std::size_t> k_slots;
        std::uint64_t base = 0;
        for (std::size_t p = 0; p < config.packagings.size(); ++p) {
            const bool soc = lib_.packaging(config.packagings[p]).type ==
                             tech::IntegrationType::soc;
            std::vector<unsigned> counts;
            if (soc) {
                counts = {1};  // one monolithic reference per node/quantity
            } else {
                for (unsigned k : config.chiplet_counts) {
                    if (modules_mode_ && k > config.modules.size()) continue;
                    counts.push_back(k);
                }
            }
            for (unsigned k : counts) {
                Block block;
                block.base = base;
                block.packaging = p;
                block.chiplets = k;
                block.soc = soc;
                block.combos = 1;
                const std::uint64_t digits =
                    (config.uniform_nodes || k == 1) ? 1 : k;
                for (std::uint64_t d = 0; d < digits; ++d) {
                    block.combos = checked_mul(block.combos, config.nodes.size());
                }
                block.size = checked_mul(block.combos, config.quantities.size());
                block.k_slot = k_slot(k, k_slots);
                base = block.base + block.size;  // checked_mul bounded both terms
                CHIPLET_EXPECTS(base >= block.base,
                                "design space too large: candidate count overflows");
                blocks_.push_back(block);
            }
        }
        total_ = base;
        CHIPLET_EXPECTS(total_ > 0, "design space is empty");
    }

    [[nodiscard]] std::uint64_t size() const { return total_; }

    struct Coords {
        const Block* block = nullptr;
        std::uint64_t combo = 0;
        std::size_t quantity = 0;
    };

    [[nodiscard]] Coords locate(std::uint64_t index) const {
        const auto it = std::upper_bound(
            blocks_.begin(), blocks_.end(), index,
            [](std::uint64_t i, const Block& b) { return i < b.base; });
        const Block& block = *std::prev(it);
        const std::uint64_t offset = index - block.base;
        Coords coords;
        coords.block = &block;
        coords.combo = offset / config_.quantities.size();
        coords.quantity = static_cast<std::size_t>(
            offset % config_.quantities.size());
        return coords;
    }

    /// Node index per chiplet for the coords' assignment ordinal.
    void node_indices(const Coords& coords, std::vector<std::size_t>& out) const {
        const unsigned k = coords.block->chiplets;
        out.resize(k);
        if (config_.uniform_nodes || k == 1) {
            std::fill(out.begin(), out.end(),
                      static_cast<std::size_t>(coords.combo));
            return;
        }
        std::uint64_t c = coords.combo;
        for (unsigned i = k; i-- > 0;) {
            out[i] = static_cast<std::size_t>(c % config_.nodes.size());
            c /= config_.nodes.size();
        }
    }

    /// Final die areas (incl. D2D allowance) from the precomputed module
    /// areas — the pruning pass never touches the cost engines.
    void die_areas(const Coords& coords, const std::vector<std::size_t>& nodes,
                   std::vector<double>& out) const {
        const PerCount& pk = per_count_[coords.block->k_slot];
        const double divisor =
            coords.block->soc ? 1.0 : 1.0 - config_.d2d_fraction;
        out.resize(nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            out[i] = pk.module_area[i][nodes[i]] / divisor;
        }
    }

    [[nodiscard]] DesignCandidate candidate(
        std::uint64_t index, const Coords& coords,
        const std::vector<std::size_t>& nodes,
        const std::vector<double>& areas) const {
        DesignCandidate c;
        c.index = index;
        c.packaging = config_.packagings[coords.block->packaging];
        c.chiplets = coords.block->chiplets;
        c.nodes.reserve(nodes.size());
        for (std::size_t n : nodes) c.nodes.push_back(config_.nodes[n]);
        c.die_areas_mm2 = areas;
        c.quantity = config_.quantities[coords.quantity];
        return c;
    }

    [[nodiscard]] design::System build_system(
        const Coords& coords, const std::vector<std::size_t>& nodes) const {
        const Block& block = *coords.block;
        const PerCount& pk = per_count_[block.k_slot];
        const double d2d = block.soc ? 0.0 : config_.d2d_fraction;
        std::vector<std::string> node_names;
        node_names.reserve(nodes.size());
        for (std::size_t n : nodes) node_names.push_back(config_.nodes[n]);
        std::vector<design::ChipPlacement> chips;
        chips.reserve(block.chiplets);
        for (design::Chip& chip :
             design::chips_from_partition(pk.partition, "ds", node_names, d2d)) {
            chips.push_back({std::move(chip), 1});
        }
        return design::System("ds", config_.packagings[block.packaging],
                              std::move(chips),
                              config_.quantities[coords.quantity]);
    }

    // ---- kernel fast-path surface ---------------------------------------
    [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }
    [[nodiscard]] const DesignSpaceConfig& config() const { return config_; }
    [[nodiscard]] const tech::TechLibrary& lib() const { return lib_; }
    [[nodiscard]] const std::vector<const tech::ProcessNode*>& node_refs()
        const {
        return node_refs_;
    }
    /// module_area[chiplet][node index] table of one chiplet count.
    [[nodiscard]] const std::vector<std::vector<double>>& module_areas(
        std::size_t k_slot) const {
        return per_count_[k_slot].module_area;
    }

private:
    /// Per-chiplet-count geometry shared by every block with that count:
    /// the k-way partition (balanced bins of the user's modules, or one
    /// synthetic equal-area slice per bin) and precomputed module areas.
    struct PerCount {
        design::Partition partition;
        /// module_area[chiplet][node index]: chiplet module area at that
        /// node, same arithmetic Chip::module_area performs at
        /// evaluation time.
        std::vector<std::vector<double>> module_area;
    };

    std::size_t k_slot(unsigned k, std::map<unsigned, std::size_t>& slots) {
        const auto it = slots.find(k);
        if (it != slots.end()) return it->second;

        PerCount pk;
        if (modules_mode_) {
            pk.partition = design::partition_modules(config_.modules, k);
        } else {
            // Equal-area split: one synthetic slice per bin, specified at
            // the reference node; names are unique per slice so family
            // NRE counts each slice's design once (split_homogeneous
            // semantics).
            const double slice =
                config_.module_area_mm2 / static_cast<double>(k);
            for (unsigned i = 1; i <= k; ++i) {
                const std::string name = "ds_" + std::to_string(i) + "of" +
                                         std::to_string(k) + "_logic";
                pk.partition.bins.push_back(
                    {design::Module{name, slice, reference_node_, true}});
            }
        }
        pk.module_area.resize(k);
        for (unsigned bin = 0; bin < k; ++bin) {
            pk.module_area[bin].reserve(node_refs_.size());
            for (const tech::ProcessNode* node : node_refs_) {
                double total = 0.0;
                for (const design::Module& m : pk.partition.bins[bin]) {
                    total += node->retarget_area(m.area_mm2, lib_.node(m.node),
                                                 m.scalable);
                }
                pk.module_area[bin].push_back(total);
            }
        }
        per_count_.push_back(std::move(pk));
        slots.emplace(k, per_count_.size() - 1);
        return per_count_.size() - 1;
    }

    const DesignSpaceConfig& config_;
    const tech::TechLibrary& lib_;
    bool modules_mode_ = false;
    std::string reference_node_;
    std::vector<const tech::ProcessNode*> node_refs_;
    std::vector<Block> blocks_;
    std::vector<PerCount> per_count_;
    std::uint64_t total_ = 0;
};

/// Strict weak order of the ranking: cheaper first, enumeration order on
/// exact ties — the invariant that makes the bounded heap reproduce a
/// full sort of the whole space.
bool cheaper(const DesignCandidate& a, const DesignCandidate& b) {
    const double ta = a.total_per_unit();
    const double tb = b.total_per_unit();
    if (ta != tb) return ta < tb;
    return a.index < b.index;
}

// ---- kernel fast path --------------------------------------------------
//
// explore_design_space_kernel runs the scan entirely on the SoA kernels:
// per block it hoists everything a candidate cannot change — die
// economics per (chiplet, node) cell, the Eq. 4 package scalars, the
// amortised NRE share tables — then decodes candidate waves, gathers
// their per-candidate terms into contiguous arrays, prices interposers
// and folds Eq. 3-5 with the active kernel table, and streams rows into
// the same bounded heap the reference keeps.  Every double is produced
// by either (a) a kernel bound by the bit-identity policy, (b) the very
// helper the scalar engine calls (yield::repeated_yield, scrap_factor,
// wafer::stitched_yield), or (c) a literal transcription of the scalar
// expression with only candidate-invariant subterms hoisted — so the
// result matches explore_design_space_reference bit for bit.
//
// Fallback contract: this path never raises a model diagnostic of its
// own.  Any situation where the scalar engine would throw (die or
// interposer does not fit, invalid node/yield parameters, degenerate
// assembly yields, zero-area prune probes) — and any throw from the
// helpers above — returns nullopt instead, and explore_design_space
// replays the whole space on the reference path, which raises the
// canonical error at the canonical (lowest) candidate index, or
// completes cleanly when the offending block was entirely pruned.

/// Economics of one (chiplet bin, node) die of a block, priced once.
struct DieCell {
    double area = 0.0;  ///< final die area incl. D2D share (Chip::area)
    bool fit = false;   ///< priced by the batch; false = scalar diagnoses
    // Planar / top-of-stack economics (price_die + kgd split).
    double raw = 0.0;
    double kgd = 0.0;
    double defect = 0.0;
    // Lower-die-in-stack economics: raw + tsv_cost * area, re-split.
    double raw_tsv = 0.0;
    double kgd_tsv = 0.0;
    double defect_tsv = 0.0;
    double chip_nre = 0.0;  ///< NreModel::chip_design_cost of this cell
};

/// Everything one block's candidates share, hoisted with the scalar
/// engine's own arithmetic (see build_block_ctx).
struct BlockCtx {
    unsigned k = 1;          ///< chiplets (== dies; placements count 1)
    std::size_t kd = 1;      ///< node digits (1 when uniform or k == 1)
    std::size_t n_nodes = 1;
    std::size_t nq = 1;
    std::vector<DieCell> cells;  ///< [bin * n_nodes + node]

    // Eq. 4 package scalars (ReModel::evaluate hoists).
    bool stacked = false;
    bool has_interposer = false;
    bool chip_first = false;
    bool stitching = false;
    double paf = 0.0;        ///< package_area_factor
    double sub_cost = 0.0;   ///< substrate_cost_per_mm2
    double layer = 0.0;      ///< substrate_layer_factor
    double bond_and_test = 0.0;
    double y2n = 0.0;
    double y3 = 0.0;
    double scrap_y2n_y3 = 0.0;
    double inv_y3_minus_1 = 0.0;
    double iaf = 0.0;  ///< interposer_area_factor
    double stitch_yield = 0.0;
    wafer::ReticleSpec stitch_reticle;

    // Interposer process setup (the DieBatch per-node hoist, inline,
    // because interposer areas vary per candidate).
    double i_usable_radius = 0.0;
    double i_scribe = 0.0;
    double i_price = 0.0;
    double i_extra = 0.0;  ///< bump + sort-test rate
    double i_bump = 0.0;   ///< second bump side (scale_add)
    double i_defects = 0.0;
    double i_param = 0.0;
    kernels::YieldKind i_kind = kernels::YieldKind::poisson;

    // Amortised NRE share tables (NreModel::evaluate for a one-member
    // family; shares are candidate-invariant given (cell, quantity)).
    double kp_paf = 0.0;     ///< package_nre_per_mm2 * package_area_factor
    double pkg_fixed = 0.0;  ///< package_fixed_nre_usd
    double pkg_imask = 0.0;  ///< interposer node mask set (added when present)
    std::vector<double> mod_share;   ///< [qi]: folded unique-module shares
    std::vector<double> chip_share;  ///< [(bin*n_nodes+node)*nq + qi]
    bool d2d = false;                ///< multi-die with d2d_fraction > 0
    std::vector<double> d2d_share;   ///< [(node*k + (cnt-1))*nq + qi]
};

/// Hoists one block.  Throws whenever anything the scalar engine would
/// diagnose per candidate fails here instead — the caller catches and
/// falls back wholesale, letting the reference path decide whether (and
/// where) the error actually surfaces.
BlockCtx build_block_ctx(const Space& space, const Block& block,
                         const core::ChipletActuary& actuary,
                         const kernels::KernelTable& table) {
    const DesignSpaceConfig& config = space.config();
    const tech::TechLibrary& lib = space.lib();
    const core::Assumptions& assumptions = actuary.assumptions();
    const tech::PackagingTech& pkg =
        lib.packaging(config.packagings[block.packaging]);

    BlockCtx ctx;
    ctx.k = block.chiplets;
    ctx.kd = (config.uniform_nodes || block.chiplets == 1) ? 1 : block.chiplets;
    ctx.n_nodes = config.nodes.size();
    ctx.nq = config.quantities.size();

    ctx.stacked = pkg.stacked();
    ctx.has_interposer = pkg.has_interposer();
    ctx.chip_first = assumptions.flow == tech::PackagingFlow::chip_first;
    ctx.paf = pkg.package_area_factor;
    ctx.sub_cost = pkg.substrate_cost_per_mm2;
    ctx.layer = pkg.substrate_layer_factor;
    // system.die_count() is k: every placement carries count 1.
    const double n_dies = static_cast<double>(block.chiplets);
    ctx.bond_and_test = pkg.bond_cost_per_chip_usd * n_dies +
                        pkg.package_test_cost_usd + pkg.package_base_cost_usd;
    const unsigned bond_steps =
        ctx.stacked ? block.chiplets - 1 : block.chiplets;
    ctx.y2n = yield::repeated_yield(pkg.chip_bond_yield, bond_steps);
    ctx.y3 = pkg.substrate_bond_yield;
    ctx.scrap_y2n_y3 = yield::scrap_factor(ctx.y2n * ctx.y3);
    ctx.inv_y3_minus_1 = 1.0 / ctx.y3 - 1.0;
    ctx.stitching = assumptions.apply_reticle_stitching &&
                    pkg.type == tech::IntegrationType::interposer;
    ctx.stitch_yield = assumptions.stitch_yield;
    ctx.stitch_reticle = assumptions.reticle;

    if (ctx.has_interposer) {
        ctx.iaf = pkg.interposer_area_factor;
        const tech::ProcessNode& inode = lib.node(pkg.interposer_node);
        const wafer::WaferSpec spec = inode.wafer_spec();
        spec.validate();
        const auto model =
            yield::make_yield_model(assumptions.yield_model, inode.cluster_param);
        (void)model->yield(inode.defect_density_cm2, 0.0);  // domain check
        ctx.i_usable_radius = spec.usable_radius_mm();
        ctx.i_scribe = spec.scribe_width_mm;
        ctx.i_price = spec.price_usd;
        ctx.i_extra = inode.bump_cost_per_mm2 + inode.test_cost_per_mm2;
        ctx.i_bump = inode.bump_cost_per_mm2;
        ctx.i_defects = inode.defect_density_cm2;
        ctx.i_param = inode.cluster_param;
        ctx.i_kind = kernels::yield_kind_from_name(assumptions.yield_model);
        ctx.pkg_imask = inode.mask_set_cost_usd;
    }

    // ---- die cells: k * |nodes| prices for the whole block ---------------
    const std::vector<std::vector<double>>& marea =
        space.module_areas(block.k_slot);
    const double divisor = block.soc ? 1.0 : 1.0 - config.d2d_fraction;
    const std::vector<const tech::ProcessNode*>& nodes = space.node_refs();
    ctx.cells.resize(static_cast<std::size_t>(ctx.k) * ctx.n_nodes);
    kernels::DieBatch dies(assumptions.yield_model);
    for (unsigned bin = 0; bin < ctx.k; ++bin) {
        for (std::size_t n = 0; n < ctx.n_nodes; ++n) {
            dies.add(*nodes[n], marea[bin][n] / divisor);
        }
    }
    dies.evaluate(table);
    for (unsigned bin = 0; bin < ctx.k; ++bin) {
        for (std::size_t n = 0; n < ctx.n_nodes; ++n) {
            DieCell& cell = ctx.cells[bin * ctx.n_nodes + n];
            cell.area = marea[bin][n] / divisor;
            if (const auto priced = dies.find(*nodes[n], cell.area)) {
                cell.fit = true;
                cell.raw = priced->raw_usd;
                cell.kgd = cell.raw / priced->yield;
                cell.defect = cell.kgd - cell.raw;
                if (ctx.stacked) {
                    // Lower dies in a stack: tsv_total / n with count 1
                    // is exactly + tsv_cost * area.
                    cell.raw_tsv =
                        cell.raw + pkg.tsv_cost_per_mm2 * cell.area;
                    cell.kgd_tsv = cell.raw_tsv / priced->yield;
                    cell.defect_tsv = cell.kgd_tsv - cell.raw_tsv;
                }
            }
            cell.chip_nre = nodes[n]->chip_nre_per_mm2 * cell.area +
                            nodes[n]->fixed_chip_nre_usd();
        }
    }

    // ---- NRE share tables -------------------------------------------------
    // A representative system (combo 0, first quantity) carries the
    // block's exact module/chip identity — the partition, module names
    // and module costs are combo-invariant.  Building it through the
    // same SystemFamily the engine uses validates consistency and gives
    // the canonical unique_modules() ordering for the fold.
    Space::Coords rep_coords;
    rep_coords.block = &block;
    rep_coords.combo = 0;
    rep_coords.quantity = 0;
    std::vector<std::size_t> rep_nodes;
    space.node_indices(rep_coords, rep_nodes);
    design::SystemFamily rep;
    rep.add(space.build_system(rep_coords, rep_nodes));
    const design::System& rep_system = rep.systems().front();

    ctx.mod_share.assign(ctx.nq, 0.0);
    for (const design::Module& m : rep.unique_modules()) {
        // module_design_cost uses the module's ORIGINAL node and area.
        const double cost = lib.node(m.node).module_nre_per_mm2 * m.area_mm2;
        double inst = 0.0;
        for (const design::ChipPlacement& p : rep_system.placements()) {
            for (const design::Module& cm : p.chip.modules()) {
                if (cm.name == m.name) inst += p.count;
            }
        }
        for (std::size_t qi = 0; qi < ctx.nq; ++qi) {
            // amortised_share: design_cost * instances / total_uses,
            // total_uses = 0.0 + quantity * instances (exact).
            const double uses = config.quantities[qi] * inst;
            ctx.mod_share[qi] += cost * inst / uses;
        }
    }

    // Chip shares: instances is exactly 1.0, so the amortised share
    // (cost * 1.0) / (0.0 + q * 1.0) is bitwise cost / q.
    ctx.chip_share.resize(ctx.cells.size() * ctx.nq);
    for (std::size_t c = 0; c < ctx.cells.size(); ++c) {
        for (std::size_t qi = 0; qi < ctx.nq; ++qi) {
            ctx.chip_share[c * ctx.nq + qi] =
                ctx.cells[c].chip_nre / config.quantities[qi];
        }
    }

    ctx.kp_paf = pkg.package_nre_per_mm2 * pkg.package_area_factor;
    ctx.pkg_fixed = pkg.package_fixed_nre_usd;

    // D2D interface shares: one design per distinct node with
    // d2d_fraction > 0; cnt bins at that node give instances == cnt and
    // total_uses == q * cnt (both exact integer sums).
    ctx.d2d = !block.soc && config.d2d_fraction > 0.0;
    if (ctx.d2d) {
        ctx.d2d_share.resize(ctx.n_nodes * ctx.k * ctx.nq);
        for (std::size_t n = 0; n < ctx.n_nodes; ++n) {
            const double cost = nodes[n]->d2d_nre_usd;
            for (unsigned cnt = 1; cnt <= ctx.k; ++cnt) {
                const double inst = static_cast<double>(cnt);
                for (std::size_t qi = 0; qi < ctx.nq; ++qi) {
                    const double uses = config.quantities[qi] * inst;
                    ctx.d2d_share[(n * ctx.k + (cnt - 1)) * ctx.nq + qi] =
                        cost * inst / uses;
                }
            }
        }
    }
    return ctx;
}

/// The SoA scan.  Returns nullopt whenever the space needs the scalar
/// engine (see the fallback contract above).
std::optional<DesignSpaceResult> explore_design_space_kernel(
    const core::ChipletActuary& actuary, const DesignSpaceConfig& config,
    const Space& space) try {
    const kernels::KernelTable& table = kernels::active_table();
    const std::size_t keep = config.top_k == 0
                                 ? std::numeric_limits<std::size_t>::max()
                                 : config.top_k;
    const core::AuditConfig audit{.reticle = config.reticle};
    const std::uint64_t begin = config.index_begin;
    const std::uint64_t end = config.index_end == 0 ? space.size()
                                                    : config.index_end;
    CHIPLET_EXPECTS(end <= space.size(),
                    "design space index_end is outside the space");
    CHIPLET_EXPECTS(begin <= end,
                    "design space index_begin exceeds index_end");

    DesignSpaceResult out;
    out.total_candidates = end - begin;

    // Candidate rows carry only what the ranking needs; the kept few are
    // materialised into full DesignCandidates at the end.
    struct Row {
        double re = 0.0;
        double nre = 0.0;
        std::uint64_t index = 0;
    };
    const auto row_cheaper = [](const Row& a, const Row& b) {
        const double ta = a.re + a.nre;  // == total_per_unit()
        const double tb = b.re + b.nre;
        if (ta != tb) return ta < tb;
        return a.index < b.index;
    };
    std::vector<Row> kept;
    const auto fold = [&](Row&& row) {
        if (kept.size() < keep) {
            kept.push_back(row);
            std::push_heap(kept.begin(), kept.end(), row_cheaper);
        } else if (row_cheaper(row, kept.front())) {
            std::pop_heap(kept.begin(), kept.end(), row_cheaper);
            kept.back() = row;
            std::push_heap(kept.begin(), kept.end(), row_cheaper);
        }
    };

    util::ThreadPool& pool = util::ThreadPool::global();
    const std::uint64_t nq = config.quantities.size();
    constexpr std::uint64_t kWave = 4096;  ///< combos per SoA wave

    // Wave buffers, reused across waves/blocks.
    std::vector<std::uint8_t> pruned_f, unfit_f;
    std::vector<std::uint32_t> digits;
    std::vector<double> raw_chips, chip_defects, kgd_total, design_area;
    std::vector<double> iarea, idpw, idefects, iyield, iraw0, iraw;
    std::vector<double> re_total;
    // D2D node-count scratch for the fold pass.
    std::vector<std::uint32_t> d2d_count(config.nodes.size(), 0);
    std::vector<std::uint32_t> d2d_order;

    for (const Block& block : space.blocks()) {
        const std::uint64_t bbegin = std::max(begin, block.base);
        const std::uint64_t bend = std::min(end, block.base + block.size);
        if (bbegin >= bend) continue;
        const std::uint64_t c0 = (bbegin - block.base) / nq;
        const std::uint64_t c1 = (bend - block.base + nq - 1) / nq;
        const BlockCtx ctx = build_block_ctx(space, block, actuary, table);
        const std::size_t kd = ctx.kd;
        const std::size_t n_nodes = ctx.n_nodes;

        for (std::uint64_t wave = c0; wave < c1; wave += kWave) {
            const std::size_t m =
                static_cast<std::size_t>(std::min(kWave, c1 - wave));
            pruned_f.resize(m);
            unfit_f.resize(m);
            digits.resize(m * kd);
            raw_chips.resize(m);
            chip_defects.resize(m);
            kgd_total.resize(m);
            design_area.resize(m);
            re_total.resize(m);
            if (ctx.has_interposer) {
                iarea.resize(m);
                idpw.resize(m);
                idefects.resize(m);
                iyield.resize(m);
                iraw0.resize(m);
                iraw.resize(m);
            }

            // ---- parallel gather: decode, prune, per-die sums ------------
            // Sharded over the pool; every combo owns its slots, so the
            // contents are schedule-independent.  Exceptions (the audit
            // probe rejecting a non-positive area) surface lowest-index
            // first via parallel_for and trip the wholesale fallback.
            const std::size_t shards = std::min<std::size_t>(
                m, static_cast<std::size_t>(pool.size()) * 4);
            pool.parallel_for(shards, [&](std::size_t s) {
                const std::size_t lo = m * s / shards;
                const std::size_t hi = m * (s + 1) / shards;
                if (lo >= hi) return;
                // Odometer over node digits (chiplet 0 most significant),
                // seeded by one div/mod decode, then incremented — the
                // exact sequence Space::node_indices enumerates.
                std::vector<std::uint32_t> dg(kd);
                std::uint64_t seed = wave + lo;
                for (std::size_t i = kd; i-- > 0;) {
                    dg[i] = static_cast<std::uint32_t>(seed % n_nodes);
                    seed /= n_nodes;
                }
                std::vector<double> areas(ctx.k);
                for (std::size_t j = lo; j < hi; ++j) {
                    const auto dig = [&](unsigned bin) {
                        return kd == 1 ? dg[0] : dg[bin];
                    };
                    for (std::size_t d = 0; d < kd; ++d) {
                        digits[j * kd + d] = dg[d];
                    }
                    for (unsigned bin = 0; bin < ctx.k; ++bin) {
                        areas[bin] =
                            ctx.cells[bin * n_nodes + dig(bin)].area;
                    }
                    bool pruned = false;
                    if (config.prune) {
                        const bool oversized =
                            config.max_die_area_mm2 > 0.0 &&
                            std::any_of(areas.begin(), areas.end(),
                                        [&](double a) {
                                            return a > config.max_die_area_mm2;
                                        });
                        pruned = oversized ||
                                 !core::audit_dies_feasible(areas, audit);
                    }
                    pruned_f[j] = pruned ? 1 : 0;
                    bool unfit = false;
                    double rc = 0.0;
                    double cd = 0.0;
                    double kt = 0.0;
                    double da = 0.0;
                    if (!pruned) {
                        // Die fold in pricing order: placements reversed,
                        // the stack's top die (last placement) TSV-free.
                        for (unsigned bin = ctx.k; bin-- > 0;) {
                            const DieCell& cell =
                                ctx.cells[bin * n_nodes + dig(bin)];
                            if (!cell.fit) {
                                unfit = true;
                                break;
                            }
                            const bool tsv =
                                ctx.stacked && bin + 1 != ctx.k;
                            rc += tsv ? cell.raw_tsv : cell.raw;
                            cd += tsv ? cell.defect_tsv : cell.defect;
                            kt += tsv ? cell.kgd_tsv : cell.kgd;
                        }
                        // package_sizing_area: footprint max for stacks,
                        // total_die_area (area * count, forward) else.
                        if (ctx.stacked) {
                            for (unsigned bin = 0; bin < ctx.k; ++bin) {
                                da = std::max(
                                    da, ctx.cells[bin * n_nodes + dig(bin)]
                                            .area);
                            }
                        } else {
                            for (unsigned bin = 0; bin < ctx.k; ++bin) {
                                da += ctx.cells[bin * n_nodes + dig(bin)]
                                          .area;
                            }
                        }
                    }
                    unfit_f[j] = unfit ? 1 : 0;
                    const bool live = !pruned && !unfit;
                    raw_chips[j] = live ? rc : 0.0;
                    chip_defects[j] = live ? cd : 0.0;
                    kgd_total[j] = live ? kt : 0.0;
                    design_area[j] = live ? da : 1.0;  // benign for dead slots
                    if (ctx.has_interposer) {
                        iarea[j] = ctx.iaf * design_area[j];
                    }
                    // Odometer increment (carry right to left).
                    for (std::size_t i = kd; i-- > 0;) {
                        if (++dg[i] < n_nodes) break;
                        dg[i] = 0;
                    }
                }
            });

            // ---- interposer pricing over the wave ------------------------
            if (ctx.has_interposer) {
                table.dpw_classical(ctx.i_usable_radius, ctx.i_scribe,
                                    iarea.data(), idpw.data(), m);
                table.expected_defects(ctx.i_defects, iarea.data(),
                                       idefects.data(), m);
                table.yield_from_defects(ctx.i_kind, ctx.i_param,
                                         idefects.data(), iyield.data(), m);
                table.die_raw_cost(ctx.i_price, ctx.i_extra, iarea.data(),
                                   idpw.data(), iraw0.data(), m);
                // Second bump side: interposer_raw = raw + bump * area.
                table.scale_add(ctx.i_bump, iarea.data(), iraw0.data(),
                                iraw.data(), m);
            }

            // ---- serial check pass, ascending: accounting + diagnostics --
            // Runs strictly in candidate order, so the first combo that
            // needs the scalar engine is also the reference path's first
            // error site — everything before it completed cleanly here.
            for (std::size_t j = 0; j < m; ++j) {
                const std::uint64_t first = block.base + (wave + j) * nq;
                const std::uint64_t qlo =
                    first < bbegin ? bbegin - first : 0;
                const std::uint64_t qhi = std::min(nq, bend - first);
                if (pruned_f[j]) {
                    out.pruned += qhi - qlo;
                    continue;
                }
                if (unfit_f[j]) return std::nullopt;
                if (ctx.has_interposer) {
                    if (!(idpw[j] > 0.0)) return std::nullopt;  // no fit
                    if (ctx.stitching) {
                        const unsigned stitches = wafer::stitch_count(
                            ctx.stitch_reticle, iarea[j]);
                        iyield[j] = wafer::stitched_yield(
                            iyield[j], stitches, ctx.stitch_yield);
                    }
                    // Chip-first KGD factor goes through scrap_factor's
                    // (0, 1] domain check in the scalar engine; the fold
                    // kernel computes it uncheckedly, so route the
                    // degenerate case (underflowed product) back.
                    if (ctx.chip_first &&
                        !(iyield[j] * ctx.y2n * ctx.y3 > 0.0)) {
                        return std::nullopt;
                    }
                }
            }

            // ---- Eq. 3-5 fold over the wave ------------------------------
            kernels::ReFoldTerms terms;
            terms.raw_chips = raw_chips.data();
            terms.chip_defects = chip_defects.data();
            terms.kgd_total = kgd_total.data();
            terms.design_area = design_area.data();
            terms.interposer_raw = ctx.has_interposer ? iraw.data() : nullptr;
            terms.interposer_yield =
                ctx.has_interposer ? iyield.data() : nullptr;
            terms.package_area_factor = ctx.paf;
            terms.substrate_cost_per_mm2 = ctx.sub_cost;
            terms.substrate_layer_factor = ctx.layer;
            terms.bond_and_test = ctx.bond_and_test;
            terms.y2n = ctx.y2n;
            terms.y3 = ctx.y3;
            terms.scrap_y2n_y3 = ctx.scrap_y2n_y3;
            terms.inv_y3_minus_1 = ctx.inv_y3_minus_1;
            terms.has_interposer = ctx.has_interposer;
            terms.chip_first = ctx.chip_first;
            terms.re_total = re_total.data();
            table.re_fold(terms, m);

            // ---- serial NRE + ranking fold, ascending --------------------
            for (std::size_t j = 0; j < m; ++j) {
                if (pruned_f[j]) continue;
                const std::uint64_t first = block.base + (wave + j) * nq;
                const std::uint64_t qlo =
                    first < bbegin ? bbegin - first : 0;
                const std::uint64_t qhi = std::min(nq, bend - first);
                const std::uint32_t* dg = &digits[j * kd];
                const auto dig = [&](unsigned bin) {
                    return kd == 1 ? dg[0] : dg[bin];
                };
                // D2D designs: distinct nodes in first-occurrence order
                // (unique_chips order == bin order), with bin counts.
                d2d_order.clear();
                if (ctx.d2d) {
                    for (unsigned bin = 0; bin < ctx.k; ++bin) {
                        const std::uint32_t n = dig(bin);
                        if (d2d_count[n]++ == 0) d2d_order.push_back(n);
                    }
                }
                const double re = re_total[j];
                for (std::uint64_t qi = qlo; qi < qhi; ++qi) {
                    // NreBreakdown::total(): modules + chips + packages
                    // + d2d, each field folded in the engine's order.
                    double chips = 0.0;
                    for (unsigned bin = 0; bin < ctx.k; ++bin) {
                        chips += ctx.chip_share[(bin * n_nodes + dig(bin)) *
                                                    ctx.nq +
                                                qi];
                    }
                    // package_design_cost: (Kp*paf)*area + fixed, plus
                    // the interposer mask set; share = cost / q.
                    double pcost =
                        ctx.kp_paf * design_area[j] + ctx.pkg_fixed;
                    if (ctx.has_interposer) pcost += ctx.pkg_imask;
                    const double packages =
                        pcost / config.quantities[qi];
                    double d2d = 0.0;
                    for (const std::uint32_t n : d2d_order) {
                        d2d += ctx.d2d_share[(n * ctx.k +
                                              (d2d_count[n] - 1)) *
                                                 ctx.nq +
                                             qi];
                    }
                    const double nre =
                        ctx.mod_share[qi] + chips + packages + d2d;
                    fold(Row{re, nre, first + qi});
                }
                for (const std::uint32_t n : d2d_order) d2d_count[n] = 0;
            }
        }
    }

    out.evaluated = out.total_candidates - out.pruned;
    std::sort(kept.begin(), kept.end(), row_cheaper);
    out.best.reserve(kept.size());
    std::vector<std::size_t> node_idx;
    std::vector<double> areas;
    for (const Row& row : kept) {
        const Space::Coords coords = space.locate(row.index);
        space.node_indices(coords, node_idx);
        space.die_areas(coords, node_idx, areas);
        DesignCandidate c = space.candidate(row.index, coords, node_idx, areas);
        c.re_per_unit = row.re;
        c.nre_per_unit = row.nre;
        out.best.push_back(std::move(c));
    }
    return out;
} catch (...) {
    // Wholesale fallback: the reference path re-raises the canonical
    // error at the canonical index — or completes, when the failing
    // block never actually evaluates a candidate.
    return std::nullopt;
}

}  // namespace

std::uint64_t design_space_size(const core::ChipletActuary& actuary,
                                const DesignSpaceConfig& config) {
    return Space(actuary, config).size();
}

DesignSpaceResult explore_design_space(const core::ChipletActuary& actuary,
                                       const DesignSpaceConfig& config) {
    // An attached evaluation memo must see every candidate as a lookup
    // (the study compiler's contract), so memoised runs keep the
    // reference scan; everything else takes the kernel path.
    if (actuary.eval_memo() == nullptr) {
        const Space space(actuary, config);
        if (auto fast = explore_design_space_kernel(actuary, config, space)) {
            return *std::move(fast);
        }
    }
    return explore_design_space_reference(actuary, config);
}

DesignSpaceResult explore_design_space_reference(
    const core::ChipletActuary& actuary, const DesignSpaceConfig& config) {
    const Space space(actuary, config);
    const std::size_t chunk = std::max<std::size_t>(1, config.chunk);
    const std::size_t keep = config.top_k == 0
                                 ? std::numeric_limits<std::size_t>::max()
                                 : config.top_k;
    const core::AuditConfig audit{.reticle = config.reticle};

    // Enumeration window: a dispatcher shard scans [begin, end) of the
    // flat index space; the default (0, 0) is the whole space.
    const std::uint64_t begin = config.index_begin;
    const std::uint64_t end = config.index_end == 0 ? space.size()
                                                    : config.index_end;
    CHIPLET_EXPECTS(end <= space.size(),
                    "design space index_end is outside the space");
    CHIPLET_EXPECTS(begin <= end,
                    "design space index_begin exceeds index_end");

    DesignSpaceResult out;
    out.total_candidates = end - begin;

    // `kept` is a max-heap under `cheaper`: the worst retained candidate
    // sits on top and is evicted when a better one arrives.  Candidates
    // are folded in strictly ascending index order (chunks are evaluated
    // on the pool but consumed serially), so the heap's content — and
    // therefore the final ranking — is independent of the pool size.
    std::vector<DesignCandidate> kept;
    std::vector<design::System> systems;
    std::vector<DesignCandidate> pending;
    systems.reserve(chunk);
    pending.reserve(chunk);

    const auto fold = [&](DesignCandidate&& c) {
        if (kept.size() < keep) {
            kept.push_back(std::move(c));
            std::push_heap(kept.begin(), kept.end(), cheaper);
        } else if (cheaper(c, kept.front())) {
            std::pop_heap(kept.begin(), kept.end(), cheaper);
            kept.back() = std::move(c);
            std::push_heap(kept.begin(), kept.end(), cheaper);
        }
    };
    const auto flush = [&] {
        if (systems.empty()) return;
        const std::vector<core::SystemCost> costs =
            actuary.evaluate_batch(systems);
        for (std::size_t i = 0; i < costs.size(); ++i) {
            pending[i].re_per_unit = costs[i].re.total();
            pending[i].nre_per_unit = costs[i].nre.total();
            fold(std::move(pending[i]));
        }
        systems.clear();
        pending.clear();
    };

    std::vector<std::size_t> node_idx;
    std::vector<double> areas;
    for (std::uint64_t index = begin; index < end; ++index) {
        const Space::Coords coords = space.locate(index);
        space.node_indices(coords, node_idx);
        space.die_areas(coords, node_idx, areas);
        if (config.prune) {
            const bool oversized =
                config.max_die_area_mm2 > 0.0 &&
                std::any_of(areas.begin(), areas.end(), [&](double a) {
                    return a > config.max_die_area_mm2;
                });
            if (oversized || !core::audit_dies_feasible(areas, audit)) {
                ++out.pruned;
                continue;
            }
        }
        pending.push_back(space.candidate(index, coords, node_idx, areas));
        systems.push_back(space.build_system(coords, node_idx));
        if (systems.size() >= chunk) flush();
    }
    flush();

    out.evaluated = out.total_candidates - out.pruned;
    std::sort(kept.begin(), kept.end(), cheaper);
    out.best = std::move(kept);
    return out;
}

std::optional<std::vector<design::System>> design_space_systems(
    const core::ChipletActuary& actuary, const DesignSpaceConfig& config,
    std::size_t max_systems) {
    const Space space(actuary, config);
    const core::AuditConfig audit{.reticle = config.reticle};
    const std::uint64_t begin = config.index_begin;
    const std::uint64_t end = config.index_end == 0 ? space.size()
                                                    : config.index_end;
    CHIPLET_EXPECTS(end <= space.size(),
                    "design space index_end is outside the space");
    CHIPLET_EXPECTS(begin <= end,
                    "design space index_begin exceeds index_end");

    std::vector<design::System> out;
    std::vector<std::size_t> node_idx;
    std::vector<double> areas;
    for (std::uint64_t index = begin; index < end; ++index) {
        const Space::Coords coords = space.locate(index);
        space.node_indices(coords, node_idx);
        space.die_areas(coords, node_idx, areas);
        if (config.prune) {
            const bool oversized =
                config.max_die_area_mm2 > 0.0 &&
                std::any_of(areas.begin(), areas.end(), [&](double a) {
                    return a > config.max_die_area_mm2;
                });
            if (oversized || !core::audit_dies_feasible(areas, audit)) continue;
        }
        if (out.size() >= max_systems) return std::nullopt;
        out.push_back(space.build_system(coords, node_idx));
    }
    return out;
}

design::System design_space_candidate_system(const core::ChipletActuary& actuary,
                                             const DesignSpaceConfig& config,
                                             std::uint64_t index) {
    const Space space(actuary, config);
    CHIPLET_EXPECTS(index < space.size(),
                    "candidate index outside the design space");
    const Space::Coords coords = space.locate(index);
    std::vector<std::size_t> node_idx;
    space.node_indices(coords, node_idx);
    return space.build_system(coords, node_idx);
}

}  // namespace chiplet::explore

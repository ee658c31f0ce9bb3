#include "explore/result_codec.h"

#include <bit>
#include <cstring>
#include <utility>

namespace chiplet::explore {

namespace {

// One `io(Ar&, T&)` overload per struct describes the layout once; the
// writer streams fields out and the reader assigns them back through
// the same code path, so the two directions can never drift.

struct CodecError {};  ///< internal control flow; never escapes decode_result

struct Writer {
    static constexpr bool reading = false;
    std::string out;

    void u8(std::uint8_t& v) { out.push_back(static_cast<char>(v)); }
    void u64(std::uint64_t& v) {
        char bytes[8];
        for (int i = 0; i < 8; ++i) {
            bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
        }
        out.append(bytes, 8);
    }
    void real(double& v) {
        std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
        u64(bits);
    }
    void boolean(bool& v) {
        std::uint8_t b = v ? 1 : 0;
        u8(b);
    }
    void str(std::string& s) {
        std::uint64_t n = s.size();
        u64(n);
        out.append(s);
    }
    [[nodiscard]] std::uint64_t remaining() const { return ~0ull; }
};

struct Reader {
    static constexpr bool reading = true;
    const char* at;
    const char* end;

    [[nodiscard]] std::uint64_t remaining() const {
        return static_cast<std::uint64_t>(end - at);
    }
    void need(std::uint64_t n) {
        if (remaining() < n) throw CodecError{};
    }
    void u8(std::uint8_t& v) {
        need(1);
        v = static_cast<std::uint8_t>(*at++);
    }
    void u64(std::uint64_t& v) {
        need(8);
        v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(static_cast<unsigned char>(at[i]))
                 << (8 * i);
        }
        at += 8;
    }
    void real(double& v) {
        std::uint64_t bits = 0;
        u64(bits);
        v = std::bit_cast<double>(bits);
    }
    void boolean(bool& v) {
        std::uint8_t b = 0;
        u8(b);
        if (b > 1) throw CodecError{};
        v = b != 0;
    }
    void str(std::string& s) {
        std::uint64_t n = 0;
        u64(n);
        need(n);
        s.assign(at, static_cast<std::size_t>(n));
        at += n;
    }
};

// Width adapters for fields narrower than the wire's u64.
template <class Ar>
void io_unsigned(Ar& ar, unsigned& v) {
    std::uint64_t wide = v;
    ar.u64(wide);
    if constexpr (Ar::reading) {
        if (wide > ~0u) throw CodecError{};
        v = static_cast<unsigned>(wide);
    }
}

template <class Ar>
void io_size(Ar& ar, std::size_t& v) {
    std::uint64_t wide = v;
    ar.u64(wide);
    if constexpr (Ar::reading) v = static_cast<std::size_t>(wide);
}

template <class Ar, class T, class Fn>
void io_vector(Ar& ar, std::vector<T>& v, Fn item) {
    std::uint64_t n = v.size();
    ar.u64(n);
    if constexpr (Ar::reading) {
        // Every element consumes at least one byte, so a count beyond
        // the remaining bytes is structurally impossible — reject it
        // before resize() turns corrupt data into a huge allocation.
        if (n > ar.remaining()) throw CodecError{};
        v.clear();
        v.resize(static_cast<std::size_t>(n));
    }
    for (T& element : v) item(ar, element);
}

template <class Ar>
void io(Ar& ar, double& v) {
    ar.real(v);
}
template <class Ar>
void io(Ar& ar, std::string& v) {
    ar.str(v);
}

template <class Ar>
void io(Ar& ar, core::ReBreakdown& v) {
    ar.real(v.raw_chips);
    ar.real(v.chip_defects);
    ar.real(v.raw_package);
    ar.real(v.package_defects);
    ar.real(v.wasted_kgd);
}

template <class Ar>
void io(Ar& ar, core::NreBreakdown& v) {
    ar.real(v.modules);
    ar.real(v.chips);
    ar.real(v.packages);
    ar.real(v.d2d);
}

template <class Ar>
void io(Ar& ar, core::DieReport& v) {
    ar.str(v.chip_name);
    ar.str(v.node);
    io_unsigned(ar, v.count);
    ar.real(v.area_mm2);
    ar.real(v.d2d_area_mm2);
    ar.real(v.yield);
    ar.real(v.raw_cost_usd);
    ar.real(v.kgd_cost_usd);
}

template <class Ar>
void io(Ar& ar, core::CostTerm& v) {
    ar.str(v.id);
    ar.str(v.label);
    ar.str(v.paper_eq);
    std::uint8_t category = static_cast<std::uint8_t>(v.category);
    std::uint8_t scope = static_cast<std::uint8_t>(v.scope);
    ar.u8(category);
    ar.u8(scope);
    if constexpr (Ar::reading) {
        if (category > static_cast<std::uint8_t>(core::CostCategory::nre_d2d) ||
            scope > static_cast<std::uint8_t>(core::CostScope::per_design)) {
            throw CodecError{};
        }
        v.category = static_cast<core::CostCategory>(category);
        v.scope = static_cast<core::CostScope>(scope);
    }
    ar.real(v.quantity);
    ar.real(v.unit_cost_usd);
    ar.real(v.subtotal_usd);
}

template <class Ar>
void io(Ar& ar, core::CostLedger& v) {
    io_vector(ar, v.terms,
              [](Ar& a, core::CostTerm& term) { io(a, term); });
}

template <class Ar>
void io(Ar& ar, core::SystemCost& v) {
    ar.str(v.system_name);
    io(ar, v.re);
    io(ar, v.nre);
    io_vector(ar, v.dies, [](Ar& a, core::DieReport& die) { io(a, die); });
    io(ar, v.ledger);
    ar.real(v.package_design_area_mm2);
    ar.real(v.interposer_area_mm2);
    ar.real(v.quantity);
}

template <class Ar>
void io(Ar& ar, ReSweepPoint& v) {
    ar.str(v.node);
    ar.str(v.packaging);
    io_unsigned(ar, v.chiplets);
    ar.real(v.area_mm2);
    io(ar, v.re);
    ar.real(v.normalized);
}

template <class Ar>
void io(Ar& ar, QuantitySweepPoint& v) {
    ar.str(v.packaging);
    ar.real(v.quantity);
    io(ar, v.cost);
}

template <class Ar>
void io(Ar& ar, McStudyOutcome& v) {
    io_vector(ar, v.mc.samples, [](Ar& a, double& s) { a.real(s); });
    ar.real(v.mc.mean);
    ar.real(v.mc.stddev);
    ar.real(v.mc.p05);
    ar.real(v.mc.p50);
    ar.real(v.mc.p95);
    ar.boolean(v.has_compare);
    ar.real(v.win_rate);
}

template <class Ar>
void io(Ar& ar, SensitivityEntry& v) {
    ar.str(v.parameter);
    ar.real(v.base_value);
    ar.real(v.base_cost);
    ar.real(v.perturbed_cost);
    ar.real(v.elasticity);
}

template <class Ar>
void io(Ar& ar, TornadoEntry& v) {
    ar.str(v.parameter);
    ar.real(v.base_value);
    ar.real(v.cost_low);
    ar.real(v.cost_high);
}

template <class Ar>
void io(Ar& ar, Breakeven& v) {
    ar.boolean(v.found);
    ar.real(v.value);
    ar.real(v.soc_cost);
    ar.real(v.alt_cost);
}

template <class Ar>
void io(Ar& ar, ParetoPoint& v) {
    ar.real(v.x);
    ar.real(v.y);
    io_size(ar, v.index);
}

template <class Ar>
void io(Ar& ar, Recommendation& v) {
    io_vector(ar, v.options, [](Ar& a, DesignOption& option) {
        a.str(option.packaging);
        io_unsigned(a, option.chiplets);
        a.real(option.re_per_unit);
        a.real(option.nre_per_unit);
        a.u64(option.space_index);
    });
}

template <class Ar>
void io(Ar& ar, TimelineOutcome& v) {
    io_vector(ar, v.trajectory, [](Ar& a, TimelinePoint& point) {
        a.real(point.month);
        a.real(point.defect_density);
        a.real(point.unit_cost);
    });
    ar.boolean(v.has_compare);
    ar.real(v.crossover_month);
}

template <class Ar>
void io(Ar& ar, DesignSpaceResult& v) {
    io_vector(ar, v.best, [](Ar& a, DesignCandidate& c) {
        a.u64(c.index);
        a.str(c.packaging);
        io_unsigned(a, c.chiplets);
        io_vector(a, c.nodes, [](Ar& b, std::string& node) { b.str(node); });
        io_vector(a, c.die_areas_mm2, [](Ar& b, double& area) { b.real(area); });
        a.real(c.quantity);
        a.real(c.re_per_unit);
        a.real(c.nre_per_unit);
    });
    ar.u64(v.total_candidates);
    ar.u64(v.pruned);
    ar.u64(v.evaluated);
}

template <class Ar>
void io(Ar& ar, StudyRunInfo& v) {
    ar.real(v.wall_seconds);
    io_unsigned(ar, v.threads);
    ar.u64(v.cache_hits);
    ar.u64(v.cache_misses);
    ar.boolean(v.from_cache);
    ar.boolean(v.with_ledgers);
    ar.u64(v.cell_hits);
    ar.u64(v.cell_misses);
    ar.boolean(v.from_batch_dedup);
}

template <class Ar>
void io(Ar& ar, StudyTable& v) {
    io_vector(ar, v.columns, [](Ar& a, std::string& c) { a.str(c); });
    io_vector(ar, v.rows, [](Ar& a, std::vector<std::string>& row) {
        io_vector(a, row, [](Ar& b, std::string& cell) { b.str(cell); });
    });
}

template <class Ar>
void io(Ar& ar, StudyLedger& v) {
    ar.str(v.label);
    io(ar, v.ledger);
}

/// Constructs the payload alternative for `kind` on read (writes are a
/// no-op: the payload already holds the right alternative) and streams
/// its fields.  The alternative order is the StudyKind order, pinned by
/// the StudyPayload variant declaration.
template <class Ar>
void io_payload(Ar& ar, StudyKind kind, StudyPayload& payload) {
    const auto with = [&]<class T>(std::in_place_type_t<T>) -> T& {
        if constexpr (Ar::reading) {
            return payload.template emplace<T>();
        } else {
            return std::get<T>(payload);
        }
    };
    switch (kind) {
        case StudyKind::re_sweep: {
            auto& v = with(std::in_place_type<std::vector<ReSweepPoint>>);
            io_vector(ar, v, [](Ar& a, ReSweepPoint& p) { io(a, p); });
            return;
        }
        case StudyKind::quantity_sweep: {
            auto& v = with(std::in_place_type<std::vector<QuantitySweepPoint>>);
            io_vector(ar, v, [](Ar& a, QuantitySweepPoint& p) { io(a, p); });
            return;
        }
        case StudyKind::monte_carlo:
            io(ar, with(std::in_place_type<McStudyOutcome>));
            return;
        case StudyKind::sensitivity: {
            auto& v = with(std::in_place_type<std::vector<SensitivityEntry>>);
            io_vector(ar, v, [](Ar& a, SensitivityEntry& p) { io(a, p); });
            return;
        }
        case StudyKind::tornado: {
            auto& v = with(std::in_place_type<std::vector<TornadoEntry>>);
            io_vector(ar, v, [](Ar& a, TornadoEntry& p) { io(a, p); });
            return;
        }
        case StudyKind::breakeven:
            io(ar, with(std::in_place_type<Breakeven>));
            return;
        case StudyKind::pareto: {
            auto& v = with(std::in_place_type<std::vector<ParetoPoint>>);
            io_vector(ar, v, [](Ar& a, ParetoPoint& p) { io(a, p); });
            return;
        }
        case StudyKind::recommend:
            io(ar, with(std::in_place_type<Recommendation>));
            return;
        case StudyKind::timeline:
            io(ar, with(std::in_place_type<TimelineOutcome>));
            return;
        case StudyKind::design_space:
            io(ar, with(std::in_place_type<DesignSpaceResult>));
            return;
    }
    throw CodecError{};  // unreachable for validated kinds
}

template <class Ar>
void io_result(Ar& ar, StudyResult& result) {
    ar.str(result.name);
    std::uint8_t kind = static_cast<std::uint8_t>(result.kind);
    ar.u8(kind);
    if constexpr (Ar::reading) {
        if (kind > static_cast<std::uint8_t>(StudyKind::design_space)) {
            throw CodecError{};
        }
        result.kind = static_cast<StudyKind>(kind);
    }
    io_payload(ar, result.kind, result.payload);
    io(ar, result.run);
    io(ar, result.table);
    io_vector(ar, result.ledgers,
              [](Ar& a, StudyLedger& ledger) { io(a, ledger); });
}

}  // namespace

std::string encode_result(const StudyResult& result) {
    Writer writer;
    // The writer only reads; the copy buys a mutable ref so both archive
    // directions share one io_result without const_cast trickery.
    StudyResult copy = result;
    io_result(writer, copy);
    return std::move(writer.out);
}

bool decode_result(std::string_view data, StudyResult& out) {
    Reader reader{data.data(), data.data() + data.size()};
    try {
        StudyResult result;
        io_result(reader, result);
        if (reader.at != reader.end) return false;  // trailing garbage
        out = std::move(result);
        return true;
    } catch (const CodecError&) {
        return false;
    } catch (const std::bad_alloc&) {
        return false;
    }
}

}  // namespace chiplet::explore

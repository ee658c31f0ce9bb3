#include "explore/study_cache.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "explore/cache_store.h"
#include "explore/spec_hash.h"
#include "explore/study_graph.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace chiplet::explore {

namespace {

/// Fixed per-entry bookkeeping charge on top of the measured strings
/// (list/map nodes, StudyResult small members).
constexpr std::size_t kEntryOverhead = 160;

/// Estimated resident bytes of a cached result, without serialising it
/// (the server serialises once per response already; doubling that work
/// on every insert would tax exactly the cold path the cache exists to
/// absorb).  The table's formatted strings carry the same content the
/// typed payload holds, so the payload is folded in as a second helping
/// of the table weight.
std::size_t approx_result_bytes(const StudyResult& result) {
    std::size_t strings = result.name.size();
    for (const std::string& column : result.table.columns) {
        strings += column.size() + 32;
    }
    for (const auto& row : result.table.rows) {
        strings += 32;
        for (const std::string& cell : row) strings += cell.size() + 32;
    }
    // Explain-enabled results carry itemised ledgers whose strings can
    // dominate the table's; charge them so the memory bound holds.
    std::size_t ledger_bytes = 0;
    for (const StudyLedger& entry : result.ledgers) {
        ledger_bytes += entry.label.size() + 32;
        for (const core::CostTerm& term : entry.ledger.terms) {
            ledger_bytes += term.id.size() + term.label.size() +
                            term.paper_eq.size() + sizeof(core::CostTerm) + 32;
        }
    }
    return sizeof(StudyResult) + 2 * strings + ledger_bytes;
}

}  // namespace

struct StudyCache::Impl {
    struct Entry {
        std::uint64_t key = 0;
        std::string canonical;
        // Immutable once inserted; shared so a hit can copy the pointer
        // under the shard lock and do the expensive StudyResult copy
        // outside it (concurrent hits on one shard stay parallel).
        std::shared_ptr<const StudyResult> result;
        std::size_t bytes = 0;
    };

    struct Shard {
        mutable std::mutex mutex;
        std::list<Entry> lru;  ///< front = most recently used
        std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
        std::size_t bytes = 0;
        // Counters live per shard so they share the shard lock.
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t collisions = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::uint64_t rejected = 0;
    };

    Config config;
    std::uint64_t mask = ~0ull;
    std::size_t shard_budget = 0;
    std::vector<Shard> shards;
    // Optional persistent write-through target (explore/cache_store.h);
    // atomic so attach/detach never races inserts from server threads.
    std::atomic<StudyCacheStore*> store{nullptr};

    explicit Impl(Config c) : config(c) {
        if (config.shards == 0) config.shards = 1;
        if (config.hash_bits > 64) config.hash_bits = 64;
        mask = config.hash_bits == 64 ? ~0ull
                                      : (1ull << config.hash_bits) - 1ull;
        shard_budget = config.max_bytes / config.shards;
        shards = std::vector<Shard>(config.shards);
    }

    Shard& shard_for(std::uint64_t masked) {
        return shards[static_cast<std::size_t>(masked % config.shards)];
    }

    void evict_over_budget(Shard& shard) {
        while (shard.bytes > shard_budget && !shard.lru.empty()) {
            const Entry& cold = shard.lru.back();
            shard.bytes -= cold.bytes;
            shard.index.erase(cold.key);
            shard.lru.pop_back();
            ++shard.evictions;
        }
    }
};

StudyCache::StudyCache() : StudyCache(Config{}) {}

StudyCache::StudyCache(Config config) : impl_(new Impl(config)) {}

StudyCache::~StudyCache() { delete impl_; }

std::optional<StudyResult> StudyCache::lookup(const std::string& canonical,
                                              std::uint64_t hash) {
    const std::uint64_t masked = hash & impl_->mask;
    Impl::Shard& shard = impl_->shard_for(masked);
    std::shared_ptr<const StudyResult> hit;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.index.find(masked);
        if (it == shard.index.end()) {
            ++shard.misses;
            return std::nullopt;
        }
        if (it->second->canonical != canonical) {
            // Hash collision: the slot belongs to a different spec.
            // Never serve it — fall through to evaluation.
            ++shard.collisions;
            ++shard.misses;
            return std::nullopt;
        }
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        ++shard.hits;
        hit = it->second->result;
    }
    // The deep copy of the result happens outside the shard lock, so
    // concurrent hits on one shard do not serialise on string copies.
    StudyResult out = *hit;
    out.run.from_cache = true;
    return out;
}

void StudyCache::insert(const std::string& canonical, std::uint64_t hash,
                        const StudyResult& result) {
    // Write-through to the persistent store first (no shard lock held;
    // the store serialises internally).  Disk is not charged against the
    // memory bound, so even an entry the shard rejects below is worth
    // persisting — it warms the next process start.
    if (StudyCacheStore* store =
            impl_->store.load(std::memory_order_acquire)) {
        store->put(canonical, hash, result);
    }
    const std::uint64_t masked = hash & impl_->mask;
    // Entry weight = canonical key + estimated resident result bytes
    // (computed outside the lock).
    const std::size_t bytes =
        canonical.size() + approx_result_bytes(result) + kEntryOverhead;

    Impl::Shard& shard = impl_->shard_for(masked);
    if (bytes > impl_->shard_budget) {
        // Caching this entry would evict the whole shard and then still
        // not fit; keep the shard's working set instead.
        std::lock_guard<std::mutex> lock(shard.mutex);
        ++shard.rejected;
        return;
    }
    // Snapshot the result outside the lock; entries are immutable after
    // this (lookup shares the pointer).
    auto stored = std::make_shared<StudyResult>(result);
    stored->run.from_cache = false;

    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(masked);
    if (it != shard.index.end()) {
        // Refresh (same spec) or overwrite (masked-hash collision): the
        // newest result wins the slot either way.
        shard.bytes -= it->second->bytes;
        it->second->canonical = canonical;
        it->second->result = std::move(stored);
        it->second->bytes = bytes;
        shard.bytes += bytes;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
        shard.lru.push_front(
            Impl::Entry{masked, canonical, std::move(stored), bytes});
        shard.index.emplace(masked, shard.lru.begin());
        shard.bytes += bytes;
    }
    ++shard.insertions;
    impl_->evict_over_budget(shard);
}

std::optional<StudyResult> StudyCache::lookup(const StudySpec& spec) {
    const std::string canonical = canonical_spec_json(spec);
    return lookup(canonical, fnv1a64(canonical));
}

void StudyCache::insert(const StudySpec& spec, const StudyResult& result) {
    const std::string canonical = canonical_spec_json(spec);
    insert(canonical, fnv1a64(canonical), result);
}

StudyCache::Stats StudyCache::stats() const {
    Stats out;
    for (const Impl::Shard& shard : impl_->shards) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        out.hits += shard.hits;
        out.misses += shard.misses;
        out.collisions += shard.collisions;
        out.insertions += shard.insertions;
        out.evictions += shard.evictions;
        out.rejected += shard.rejected;
        out.entries += shard.lru.size();
        out.bytes += shard.bytes;
    }
    return out;
}

void StudyCache::clear() {
    for (Impl::Shard& shard : impl_->shards) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.lru.clear();
        shard.index.clear();
        shard.bytes = 0;
    }
}

std::size_t StudyCache::max_bytes() const { return impl_->config.max_bytes; }

void StudyCache::attach_store(StudyCacheStore* store) {
    impl_->store.store(store, std::memory_order_release);
}

StudyResult run_study_cached(const core::ChipletActuary& actuary,
                             const StudySpec& spec, StudyCache& cache) {
    const std::string canonical = canonical_spec_json(spec);
    const std::uint64_t hash = fnv1a64(canonical);
    if (std::optional<StudyResult> hit = cache.lookup(canonical, hash)) {
        return *std::move(hit);
    }
    StudyResult result = run_study(actuary, spec);
    cache.insert(canonical, hash, result);
    return result;
}

StudyBatchOutcome run_studies_collecting(const core::ChipletActuary& actuary,
                                         std::span<const StudySpec> specs,
                                         StudyCache* cache) {
    // The compiled execution graph (explore/study_graph.h) shares cost
    // cells across overlapping studies and serves byte-identical specs
    // once; payloads stay bit-identical to a serial cacheless loop.
    StudyGraphRun run = run_study_graph(actuary, specs, cache);

    StudyBatchOutcome out;
    out.graph = run.stats;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (run.results[i]) {
            out.results.push_back(*std::move(run.results[i]));
            out.indices.push_back(i);
            continue;
        }
        StudyFailure failure;
        failure.index = i;
        failure.name = specs[i].name;
        try {
            std::rethrow_exception(run.errors[i]);
        } catch (const ParseError& e) {
            failure.stage = "parse";
            failure.message = e.what();
        } catch (const Error& e) {
            failure.stage = "model";
            failure.message = e.what();
        }
        out.failures.push_back(std::move(failure));
    }
    return out;
}

std::vector<StudyFailure> merge_failures(
    std::vector<StudyFailure> parse_failures,
    std::vector<StudyFailure> run_failures,
    std::span<const std::size_t> kept_indices) {
    for (StudyFailure& f : run_failures) {
        f.index = kept_indices[f.index];
    }
    parse_failures.insert(parse_failures.end(),
                          std::make_move_iterator(run_failures.begin()),
                          std::make_move_iterator(run_failures.end()));
    std::sort(parse_failures.begin(), parse_failures.end(),
              [](const StudyFailure& a, const StudyFailure& b) {
                  return a.index < b.index;
              });
    return parse_failures;
}

}  // namespace chiplet::explore

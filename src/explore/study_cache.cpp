#include "explore/study_cache.h"

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "explore/cache_store.h"
#include "explore/result_codec.h"
#include "explore/spec_hash.h"
#include "util/error.h"

namespace chiplet::explore {

namespace {

using HitDocument = StudyCache::HitDocument;

std::shared_ptr<const HitDocument> make_hit_document(const StudyResult& result,
                                                     const ResultText& text) {
    auto document = std::make_shared<HitDocument>();
    StudyRunInfo run = result.run;
    run.from_cache = true;
    document->json = result_document(text, run);
    document->cell_hits = run.cell_hits;
    document->cell_misses = run.cell_misses;
    document->with_ledgers = run.with_ledgers;
    return document;
}

}  // namespace

struct StudyCache::Impl {
    /// Blob and document are immutable once stored and shared, so a hit
    /// copies a pointer under the shard lock and decodes or serves
    /// outside it.
    struct Entry {
        std::uint64_t key = 0;
        std::string canonical;
        std::shared_ptr<const std::string> blob;  ///< encode_result body
        /// Null for an entry loaded from disk until lookup_document
        /// first serves it.
        std::shared_ptr<const HitDocument> document;
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

    /// The probe behind both lookups: counts it, and on a hit refreshes
    /// the entry's LRU position and hands the entry to `on_hit` under
    /// the shard lock.
    template <class OnHit>
    bool probe(const std::string& canonical, std::uint64_t hash,
               OnHit&& on_hit) {
        const std::uint64_t masked = hash & mask;
        Shard& shard = shard_for(masked);
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.index.find(masked);
        if (it == shard.index.end()) {
            ++shard.misses;
            return false;
        }
        if (it->second->canonical != canonical) {
            // Hash collision: the slot belongs to a different spec.
            // Never serve it — fall through to evaluation.
            ++shard.collisions;
            ++shard.misses;
            return false;
        }
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        ++shard.hits;
        on_hit(*it->second);
        return true;
    }

    /// Inserts or refreshes an entry; `document` may be null (a disk
    /// load).  Entry weight: the three strings plus kEntryOverhead.
    void put(const std::string& canonical, std::uint64_t hash,
             std::shared_ptr<const std::string> blob,
             std::shared_ptr<const HitDocument> document) {
        const std::uint64_t masked = hash & mask;
        const std::size_t bytes = canonical.size() + blob->size() +
                                  (document ? document->json.size() : 0) +
                                  kEntryOverhead;
        Shard& shard = shard_for(masked);
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (bytes > shard_budget) {
            // Caching this entry would evict the whole shard and then
            // still not fit; keep the shard's working set instead.
            ++shard.rejected;
            return;
        }
        const auto it = shard.index.find(masked);
        if (it != shard.index.end()) {
            // Refresh (same spec) or overwrite (masked-hash collision):
            // the newest result wins the slot either way.
            Entry& entry = *it->second;
            shard.bytes -= entry.bytes;
            entry.canonical = canonical;
            entry.blob = std::move(blob);
            entry.document = std::move(document);
            entry.bytes = bytes;
            shard.bytes += bytes;
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        } else {
            shard.lru.push_front(Entry{masked, canonical, std::move(blob),
                                       std::move(document), bytes});
            shard.index.emplace(masked, shard.lru.begin());
            shard.bytes += bytes;
        }
        ++shard.insertions;
        evict_over_budget(shard);
    }

    /// Attaches a document built for a loaded entry, unless the entry
    /// was replaced or evicted meanwhile or would no longer fit its
    /// shard.  The entry's weight grows by the document.
    void attach_document(std::uint64_t hash,
                         const std::shared_ptr<const std::string>& blob,
                         std::shared_ptr<const HitDocument> document) {
        const std::uint64_t masked = hash & mask;
        Shard& shard = shard_for(masked);
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.index.find(masked);
        if (it == shard.index.end()) return;
        Entry& entry = *it->second;
        const std::size_t bytes = entry.bytes + document->json.size();
        if (entry.blob != blob || entry.document || bytes > shard_budget) return;
        shard.bytes += bytes - entry.bytes;
        entry.bytes = bytes;
        entry.document = std::move(document);
        evict_over_budget(shard);
    }
};

StudyCache::StudyCache() : StudyCache(Config{}) {}

StudyCache::StudyCache(Config config) : impl_(new Impl(config)) {}

StudyCache::~StudyCache() { delete impl_; }

namespace {

StudyResult decode_stored(const std::string& blob) {
    StudyResult out;
    if (!decode_result(blob, out)) {
        // Blobs are encoded in this process or checked by the disk
        // load; failing to decode one is a codec bug, not a miss.
        throw Error("study cache: stored result failed to decode");
    }
    out.run.from_cache = true;
    return out;
}

}  // namespace

std::optional<StudyResult> StudyCache::lookup(const std::string& canonical,
                                              std::uint64_t hash) {
    std::shared_ptr<const std::string> blob;
    if (!impl_->probe(canonical, hash,
                      [&](const Impl::Entry& e) { blob = e.blob; })) {
        return std::nullopt;
    }
    return decode_stored(*blob);
}

std::shared_ptr<const StudyCache::HitDocument> StudyCache::lookup_document(
    const std::string& canonical, std::uint64_t hash) {
    std::shared_ptr<const HitDocument> document;
    std::shared_ptr<const std::string> blob;
    if (!impl_->probe(canonical, hash, [&](const Impl::Entry& e) {
            document = e.document;
            if (!document) blob = e.blob;
        })) {
        return nullptr;
    }
    if (document) return document;
    // First serve of an entry loaded from disk: build its document once,
    // outside the lock.
    const StudyResult result = decode_stored(*blob);
    document = make_hit_document(result, result_text(result));
    impl_->attach_document(hash, blob, document);
    return document;
}

void StudyCache::insert(const std::string& canonical, std::uint64_t hash,
                        const StudyResult& result) {
    insert(canonical, hash, result, result_text(result));
}

void StudyCache::insert(const std::string& canonical, std::uint64_t hash,
                        const StudyResult& result, const ResultText& text) {
    auto blob = std::make_shared<const std::string>(encode_result(result));
    // Write-through to the persistent store first (no shard lock held;
    // the store serialises internally).  Disk is not charged against the
    // memory bound, so even an entry the shard rejects is worth
    // persisting — it warms the next process start.
    if (StudyCacheStore* store =
            impl_->store.load(std::memory_order_acquire)) {
        store->put(canonical, hash, *blob);
    }
    impl_->put(canonical, hash, std::move(blob),
               make_hit_document(result, text));
}

void StudyCache::insert_encoded(const std::string& canonical,
                                std::uint64_t hash, std::string blob) {
    impl_->put(canonical, hash,
               std::make_shared<const std::string>(std::move(blob)), nullptr);
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

}  // namespace chiplet::explore

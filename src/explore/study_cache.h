// Memoization of whole study evaluations, keyed by canonical spec
// identity (explore/spec_hash.h).  The serving layer (serve/server.h)
// answers repeated requests from this cache: it probes every study with
// lookup_document and serves a hit's stored bytes without decoding them.
// Batch runners can opt in per study through run_study_cached.
//
// Each entry holds three things: the canonical key, the lossless codec
// blob of the result (explore/result_codec.h), and the hit document,
// to_json(result) with meta.from_cache = true, dumped once at insert
// (for an entry loaded from disk, once when it is first served).
//
// Guarantees:
//  - Exactness: a hit returns a StudyResult (or document) whose payload
//    and table are byte-identical to a fresh run_study of the same spec.
//    Keys are verified by comparing the full canonical JSON on every
//    hit, so an FNV hash collision falls through to evaluation instead
//    of serving a wrong result (the `hash_bits` seam exists to force
//    collisions in tests).
//  - Thread safety: the table is sharded by hash, one mutex per shard;
//    concurrent lookups/inserts from server threads are safe.
//  - Bounded memory: each shard holds an LRU list and evicts from the
//    cold end until it is back under max_bytes / shards.  An entry
//    weighs exactly its canonical key, blob and hit document plus
//    kEntryOverhead, so Stats::bytes is what the entries' strings hold,
//    not an estimate.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "explore/study.h"
#include "explore/study_json.h"

namespace chiplet::explore {

class StudyCacheStore;  // explore/cache_store.h

/// Sharded, thread-safe LRU cache of StudyResult keyed by spec hash.
class StudyCache {
public:
    struct Config {
        std::size_t max_bytes = 64ull << 20;  ///< total across all shards
        unsigned shards = 8;                  ///< clamped to >= 1
        /// Test seam: keys are truncated to the low `hash_bits` bits
        /// before use, so small values force distinct specs onto the
        /// same slot and exercise the collision fall-through.  64 (the
        /// default) keeps the full hash.
        unsigned hash_bits = 64;
    };

    /// Fixed per-entry bookkeeping charge on top of the stored strings
    /// (list and map nodes, the shared blocks, the string headers).
    static constexpr std::size_t kEntryOverhead = 160;

    StudyCache();  ///< default Config
    explicit StudyCache(Config config);
    ~StudyCache();

    StudyCache(const StudyCache&) = delete;
    StudyCache& operator=(const StudyCache&) = delete;

    /// The served form of an entry: to_json(result) with
    /// meta.from_cache = true, dumped, plus the run counters a server
    /// sums for each result it serves, so it never parses the text.
    struct HitDocument {
        std::string json;
        std::uint64_t cell_hits = 0;
        std::uint64_t cell_misses = 0;
        bool with_ledgers = false;
    };

    /// Returns the cached result for `canonical`, decoded from its blob
    /// (with StudyRunInfo::from_cache set), or nullopt.  `hash` must be
    /// fnv1a64(canonical); a slot whose stored canonical differs is a
    /// collision: counted, and the lookup misses.
    [[nodiscard]] std::optional<StudyResult> lookup(const std::string& canonical,
                                                    std::uint64_t hash);

    /// lookup without the decode: the entry's shared hit document, or
    /// null on a miss.  Counts the probe exactly as lookup does, and
    /// `json` equals to_json(*lookup(canonical, hash)).dump().
    [[nodiscard]] std::shared_ptr<const HitDocument> lookup_document(
        const std::string& canonical, std::uint64_t hash);

    /// Inserts (or refreshes) the result for `canonical`: encodes it,
    /// serialises its hit document and writes the blob through to an
    /// attached store.  Entries larger than a whole shard's budget are
    /// rejected rather than cycling the shard empty.
    void insert(const std::string& canonical, std::uint64_t hash,
                const StudyResult& result);

    /// insert for a caller that already serialised the result: `text`
    /// is result_text(result), spliced into the hit document.
    void insert(const std::string& canonical, std::uint64_t hash,
                const StudyResult& result, const ResultText& text);

    /// Inserts an already encoded result (a disk load: `blob` is a
    /// checked encode_result body) without writing it through.  Its hit
    /// document is built the first time lookup_document serves it, and
    /// the entry's weight grows by it then.
    void insert_encoded(const std::string& canonical, std::uint64_t hash,
                        std::string blob);

    /// Convenience overloads computing canonical + hash from the spec.
    [[nodiscard]] std::optional<StudyResult> lookup(const StudySpec& spec);
    void insert(const StudySpec& spec, const StudyResult& result);

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;       ///< includes collisions
        std::uint64_t collisions = 0;   ///< hash matched, canonical differed
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;    ///< entries dropped by the LRU bound
        std::uint64_t rejected = 0;     ///< single entries over a shard budget
        std::size_t entries = 0;
        std::size_t bytes = 0;          ///< summed entry weights
    };
    [[nodiscard]] Stats stats() const;

    /// Drops every entry (counters keep running).
    void clear();

    [[nodiscard]] std::size_t max_bytes() const;

    /// Attaches a persistent store (explore/cache_store.h): every
    /// subsequent insert is also written through to disk, outside the
    /// shard locks.  Attach AFTER StudyCacheStore::load_into so loading
    /// persisted entries does not rewrite their own files.  Pass nullptr
    /// to detach.  The store must outlive the cache (or the detach).
    void attach_store(StudyCacheStore* store);

private:
    struct Impl;
    Impl* impl_;
};

/// run_study through a cache: hit returns the cached result (payload
/// bit-identical to evaluating), miss evaluates and inserts.  The
/// per-study cached path for callers outside the server.
[[nodiscard]] StudyResult run_study_cached(const core::ChipletActuary& actuary,
                                           const StudySpec& spec,
                                           StudyCache& cache);

}  // namespace chiplet::explore

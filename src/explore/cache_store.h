// The persistent half of the study cache: a versioned on-disk store of
// StudyResults, one file per canonical spec, that a restarted actuaryd
// loads back into its in-memory LRU (warm start).  Layered *under*
// StudyCache — the memory cache stays the single source of truth for
// lookups, byte-equality verification, and the LRU bound; the store
// only absorbs inserts (write-through) and replays them at startup.
//
// Entry file `<spec_hash as 16 hex digits>.study`:
//
//   bytes 0..7    magic "CACS" + 4-digit format number ("CACS0001")
//   bytes 8..15   model fingerprint (core/version.h), little-endian
//   bytes 16..23  spec_hash = fnv1a64(canonical), little-endian
//   ...           canonical spec JSON, u64 length prefix
//   ...           result body (explore/result_codec.h), u64 length prefix
//   last 8 bytes  FNV-1a checksum of everything before it
//
// Safety properties:
//  - Writes are atomic (util::write_file_atomic): readers and
//    concurrent writers — two servers may share one directory — see
//    whole files only, last writer wins, matching the in-memory
//    one-entry-per-slot policy.
//  - Loads are corruption-tolerant: wrong magic, a stale fingerprint, a
//    bad checksum, a truncated body, or undecodable content skips the
//    entry (counted in Stats) and never throws — the worst corrupt
//    cache is a cold one.
//  - Staleness is decided by the model fingerprint alone: entries
//    written by a binary whose equations, schema, or tech library
//    differ are ignored wholesale, so a warm start can never serve
//    numbers the current model would not produce.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "explore/study.h"

namespace chiplet::explore {

class StudyCache;

class StudyCacheStore {
public:
    struct Config {
        std::string dir;  ///< created on construction if missing
        /// Fingerprint stamped into every written entry and required of
        /// every loaded one.  0 = core::model_fingerprint() of the
        /// built-in catalogue; servers pass their actuary's own.  The
        /// explicit knob doubles as the stale-version test seam.
        std::uint64_t fingerprint = 0;
    };

    /// Throws chiplet::Error when the directory cannot be created.
    explicit StudyCacheStore(Config config);
    ~StudyCacheStore();

    StudyCacheStore(const StudyCacheStore&) = delete;
    StudyCacheStore& operator=(const StudyCacheStore&) = delete;

    /// Persists one entry atomically.  `blob` is the result's
    /// encode_result body, which the cache already holds for its own
    /// entry, so nothing is encoded twice.  Failures (unwritable
    /// directory, full disk) are counted, not thrown — persistence is an
    /// optimisation, never a serving-path error.
    void put(const std::string& canonical, std::uint64_t hash,
             std::string_view blob);

    /// Replays every readable, current-fingerprint entry into `cache`
    /// via StudyCache::insert_encoded: the body it read (and decoded
    /// once, to check it) becomes the entry's blob.  Call *before*
    /// attaching this store to the cache, or the load rewrites every
    /// file it just read.
    void load_into(StudyCache& cache);

    struct Stats {
        std::uint64_t loaded = 0;   ///< entries replayed into the cache
        std::uint64_t stale = 0;    ///< skipped: fingerprint mismatch
        std::uint64_t corrupt = 0;  ///< skipped: damaged or truncated
        std::uint64_t writes = 0;   ///< entries persisted
        std::uint64_t write_failures = 0;
    };
    [[nodiscard]] Stats stats() const;

    [[nodiscard]] const std::string& dir() const;
    [[nodiscard]] std::uint64_t fingerprint() const;

private:
    struct Impl;
    Impl* impl_;
};

}  // namespace chiplet::explore

#include "explore/cache_store.h"

#include <cstring>
#include <mutex>
#include <utility>

#include "core/version.h"
#include "explore/result_codec.h"
#include "explore/spec_hash.h"
#include "explore/study_cache.h"
#include "util/error.h"
#include "util/file.h"

namespace chiplet::explore {

namespace {

constexpr char kMagic[8] = {'C', 'A', 'C', 'S', '0', '0', '0', '1'};
constexpr std::size_t kMagicSize = sizeof(kMagic);
constexpr const char* kEntrySuffix = ".study";

void append_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
}

std::uint64_t read_u64(const char* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    }
    return v;
}

std::string hash_filename(std::uint64_t hash) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string name(16, '0');
    for (int i = 15; i >= 0; --i) {
        name[static_cast<std::size_t>(i)] = kHex[hash & 0xf];
        hash >>= 4;
    }
    return name + kEntrySuffix;
}

}  // namespace

struct StudyCacheStore::Impl {
    Config config;
    mutable std::mutex mutex;  ///< counters only; file writes are atomic
    Stats counters;

    explicit Impl(Config c) : config(std::move(c)) {
        if (config.fingerprint == 0) {
            config.fingerprint = core::model_fingerprint();
        }
        if (!util::ensure_directory(config.dir)) {
            throw Error("cache-dir: cannot create directory '" + config.dir +
                        "'");
        }
    }
};

StudyCacheStore::StudyCacheStore(Config config)
    : impl_(new Impl(std::move(config))) {}

StudyCacheStore::~StudyCacheStore() { delete impl_; }

void StudyCacheStore::put(const std::string& canonical, std::uint64_t hash,
                          std::string_view blob) {
    std::string file;
    file.reserve(kMagicSize + 8 * 5 + canonical.size() + blob.size());
    file.append(kMagic, kMagicSize);
    append_u64(file, impl_->config.fingerprint);
    append_u64(file, hash);
    append_u64(file, canonical.size());
    file.append(canonical);
    append_u64(file, blob.size());
    file.append(blob);
    append_u64(file, fnv1a64(file));

    const bool ok = util::write_file_atomic(
        impl_->config.dir + "/" + hash_filename(hash), file);
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (ok) {
        ++impl_->counters.writes;
    } else {
        ++impl_->counters.write_failures;
    }
}

void StudyCacheStore::load_into(StudyCache& cache) {
    std::uint64_t loaded = 0;
    std::uint64_t stale = 0;
    std::uint64_t corrupt = 0;

    for (const std::string& name :
         util::list_directory(impl_->config.dir, kEntrySuffix)) {
        std::string blob;
        if (!util::read_file(impl_->config.dir + "/" + name, blob)) {
            ++corrupt;
            continue;
        }
        // Fixed header + two length prefixes + trailing checksum is the
        // structural minimum; anything shorter is truncation.
        constexpr std::size_t kMinSize = kMagicSize + 8 * 4 + 8;
        if (blob.size() < kMinSize ||
            std::memcmp(blob.data(), kMagic, kMagicSize) != 0) {
            ++corrupt;
            continue;
        }
        // Checksum first: it vouches for every field examined below.
        const std::uint64_t checksum =
            read_u64(blob.data() + blob.size() - 8);
        if (fnv1a64(std::string_view(blob.data(), blob.size() - 8)) !=
            checksum) {
            ++corrupt;
            continue;
        }
        const char* p = blob.data() + kMagicSize;
        const std::uint64_t fingerprint = read_u64(p);
        const std::uint64_t hash = read_u64(p + 8);
        if (fingerprint != impl_->config.fingerprint) {
            // A different model wrote this entry; its numbers may be
            // ones the current equations would never produce.
            ++stale;
            continue;
        }
        const std::uint64_t canonical_size = read_u64(p + 16);
        const char* cursor = p + 24;
        const char* end = blob.data() + blob.size() - 8;
        if (canonical_size > static_cast<std::uint64_t>(end - cursor) - 8) {
            ++corrupt;
            continue;
        }
        std::string canonical(cursor, static_cast<std::size_t>(canonical_size));
        cursor += canonical_size;
        const std::uint64_t body_size = read_u64(cursor);
        cursor += 8;
        if (body_size != static_cast<std::uint64_t>(end - cursor) ||
            hash != fnv1a64(canonical)) {
            ++corrupt;
            continue;
        }
        std::string body(cursor, static_cast<std::size_t>(body_size));
        StudyResult result;
        if (!decode_result(body, result)) {
            ++corrupt;
            continue;
        }
        cache.insert_encoded(canonical, hash, std::move(body));
        ++loaded;
    }

    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->counters.loaded += loaded;
    impl_->counters.stale += stale;
    impl_->counters.corrupt += corrupt;
}

StudyCacheStore::Stats StudyCacheStore::stats() const {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->counters;
}

const std::string& StudyCacheStore::dir() const { return impl_->config.dir; }

std::uint64_t StudyCacheStore::fingerprint() const {
    return impl_->config.fingerprint;
}

}  // namespace chiplet::explore

// The persistent study-cache store (explore/cache_store.h) and its
// binary result codec (explore/result_codec.h): warm starts are
// bit-identical to cold evaluation, entries from a different model
// fingerprint are rejected wholesale, and any flavour of on-disk damage
// (truncation, zero-length files, junk, flipped bytes) degrades to a
// cold cache instead of a crash.  Two stores sharing one directory —
// two servers pointed at the same --cache-dir — never corrupt each
// other.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/actuary.h"
#include "core/version.h"
#include "explore/cache_store.h"
#include "explore/montecarlo.h"
#include "explore/pareto.h"
#include "explore/result_codec.h"
#include "explore/spec_hash.h"
#include "explore/study.h"
#include "explore/study_cache.h"
#include "explore/study_json.h"
#include "explore/sweep.h"
#include "util/error.h"
#include "util/json.h"

namespace chiplet::explore {
namespace {

JsonDiffOptions exact_options() {
    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};  // run metadata varies run to run
    return exact;
}

StudySpec pareto_spec(const std::string& name) {
    StudySpec spec;
    spec.name = name;
    ParetoConfig config;
    config.points = {ParetoPoint{1.0, 2.0, 0}, ParetoPoint{2.0, 1.0, 1}};
    spec.config = config;
    return spec;
}

StudySpec sweep_spec(const std::string& name) {
    StudySpec spec;
    spec.name = name;
    ReSweepConfig c;
    c.nodes = {"7nm", "5nm"};
    c.packagings = {"SoC", "MCM"};
    c.chiplet_counts = {2};
    c.areas_mm2 = {200.0};
    spec.config = c;
    return spec;
}

StudySpec mc_spec(const std::string& name) {
    StudySpec spec;
    spec.name = name;
    McStudyConfig c;
    c.scenario.node = "7nm";
    c.scenario.packaging = "MCM";
    c.scenario.module_area_mm2 = 400.0;
    c.scenario.chiplets = 2;
    c.draws = 32;
    c.seed = 7;
    spec.config = c;
    return spec;
}

/// Fresh per-test directory under the system tmp dir, removed on exit.
class CacheStoreTest : public ::testing::Test {
protected:
    void SetUp() override {
        static std::atomic<int> counter{0};
        dir_ = (std::filesystem::temp_directory_path() /
                ("chiplet_cache_store_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter.fetch_add(1))))
                   .string();
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    [[nodiscard]] std::vector<std::string> entry_files() const {
        std::vector<std::string> out;
        for (const auto& e : std::filesystem::directory_iterator(dir_)) {
            if (e.path().extension() == ".study") {
                out.push_back(e.path().string());
            }
        }
        return out;
    }

    std::string dir_;
    const core::ChipletActuary actuary_;
};

// ---- result codec ----------------------------------------------------------

TEST_F(CacheStoreTest, CodecRoundTripsEveryTestedKindBitIdentically) {
    const JsonDiffOptions exact = exact_options();
    for (const StudySpec& spec :
         {pareto_spec("p"), sweep_spec("s"), mc_spec("m")}) {
        const StudyResult fresh = run_study(actuary_, spec);
        const std::string blob = encode_result(fresh);
        StudyResult decoded;
        ASSERT_TRUE(decode_result(blob, decoded)) << spec.name;
        EXPECT_EQ(json_diff(to_json(decoded), to_json(fresh), exact), "")
            << spec.name;
        // Codec fields outside the JSON projection round-trip too: the
        // lossy to_json summarises MC samples, the codec must not.
        if (const auto* mc = std::get_if<McStudyOutcome>(&fresh.payload)) {
            const auto& back = std::get<McStudyOutcome>(decoded.payload);
            EXPECT_EQ(back.mc.samples, mc->mc.samples);
        }
        EXPECT_EQ(decoded.run.cell_hits, fresh.run.cell_hits);
        EXPECT_EQ(decoded.run.with_ledgers, fresh.run.with_ledgers);
    }
}

TEST_F(CacheStoreTest, CodecRejectsDamage) {
    const StudyResult fresh = run_study(actuary_, sweep_spec("s"));
    const std::string blob = encode_result(fresh);
    StudyResult out;
    EXPECT_FALSE(decode_result("", out));
    EXPECT_FALSE(decode_result(blob.substr(0, blob.size() / 2), out));
    EXPECT_FALSE(decode_result(blob + "x", out));  // trailing bytes
    std::string flipped = blob;
    flipped[0] ^= 0x40;  // kind byte out of range / wrong shape
    StudyResult sink;
    (void)decode_result(flipped, sink);  // must not crash; result unspecified
}

// ---- persistence round trip -------------------------------------------------

TEST_F(CacheStoreTest, LoadedEntriesBuildTheirHitDocumentOnFirstServe) {
    // A loaded entry holds the blob it was read with; its hit document
    // is built when lookup_document first serves it, equal to the one a
    // live insert stores, and the entry's weight grows by exactly it.
    const std::vector<StudySpec> specs = {sweep_spec("a"), mc_spec("c")};
    StudyCache live;
    {
        StudyCacheStore store({dir_, 0});
        live.attach_store(&store);
        for (const StudySpec& spec : specs) {
            (void)run_study_cached(actuary_, spec, live);
        }
        live.attach_store(nullptr);
    }
    StudyCacheStore store({dir_, 0});
    StudyCache cache;
    store.load_into(cache);
    ASSERT_EQ(store.stats().loaded, specs.size());

    std::size_t expected = 0;
    std::vector<std::string> canonicals;
    for (const StudySpec& spec : specs) {
        canonicals.push_back(canonical_spec_json(spec));
        expected += canonicals.back().size() +
                    encode_result(run_study(actuary_, spec)).size() +
                    StudyCache::kEntryOverhead;
    }
    EXPECT_EQ(cache.stats().bytes, expected);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::uint64_t hash = fnv1a64(canonicals[i]);
        const auto document = cache.lookup_document(canonicals[i], hash);
        const auto stored = live.lookup_document(canonicals[i], hash);
        ASSERT_TRUE(document && stored) << specs[i].name;
        EXPECT_EQ(document->json, stored->json) << specs[i].name;
        EXPECT_EQ(document->json, to_json(*cache.lookup(specs[i])).dump());
        expected += document->json.size();
        EXPECT_EQ(cache.stats().bytes, expected) << specs[i].name;
        // Served again, the same document: built once.
        EXPECT_EQ(cache.lookup_document(canonicals[i], hash), document);
    }
    EXPECT_EQ(cache.stats().bytes, live.stats().bytes);
}

TEST_F(CacheStoreTest, WarmStartIsBitIdenticalToCold) {
    const JsonDiffOptions exact = exact_options();
    const std::vector<StudySpec> specs = {sweep_spec("a"), pareto_spec("b"),
                                          mc_spec("c")};
    std::vector<StudyResult> cold;

    {
        StudyCacheStore store({dir_, 0});
        StudyCache cache;
        cache.attach_store(&store);
        for (const StudySpec& spec : specs) {
            cold.push_back(run_study_cached(actuary_, spec, cache));
        }
        EXPECT_EQ(store.stats().writes, specs.size());
    }
    EXPECT_EQ(entry_files().size(), specs.size());

    // "Restart": a brand-new cache warmed from the same directory.
    StudyCacheStore store({dir_, 0});
    StudyCache cache;
    store.load_into(cache);
    cache.attach_store(&store);
    EXPECT_EQ(store.stats().loaded, specs.size());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::optional<StudyResult> hit = cache.lookup(specs[i]);
        ASSERT_TRUE(hit.has_value()) << specs[i].name;
        EXPECT_TRUE(hit->run.from_cache);
        EXPECT_EQ(json_diff(to_json(*hit), to_json(cold[i]), exact), "")
            << specs[i].name;
    }
    // Loading replayed inserts through the cache, but the store was
    // attached only afterwards: no entry was rewritten.
    EXPECT_EQ(store.stats().writes, 0u);
}

TEST_F(CacheStoreTest, StaleFingerprintEntriesAreIgnoredWholesale) {
    const StudySpec spec = sweep_spec("s");
    {
        StudyCacheStore old_model({dir_, 0xDEADBEEFull});
        old_model.put(canonical_spec_json(spec),
                      fnv1a64(canonical_spec_json(spec)),
                      encode_result(run_study(actuary_, spec)));
    }
    StudyCacheStore store({dir_, 0});  // 0 = the real model fingerprint
    StudyCache cache;
    store.load_into(cache);
    EXPECT_EQ(store.stats().loaded, 0u);
    EXPECT_EQ(store.stats().stale, 1u);
    EXPECT_FALSE(cache.lookup(spec).has_value());
}

TEST_F(CacheStoreTest, DefaultFingerprintIsTheModelFingerprint) {
    StudyCacheStore store({dir_, 0});
    EXPECT_EQ(store.fingerprint(), core::model_fingerprint());
    EXPECT_EQ(store.dir(), dir_);
}

TEST_F(CacheStoreTest, CorruptEntriesDegradeToAColdCacheNotACrash) {
    const StudySpec spec = sweep_spec("s");
    const std::string canonical = canonical_spec_json(spec);
    {
        StudyCacheStore store({dir_, 0});
        store.put(canonical, fnv1a64(canonical),
                  encode_result(run_study(actuary_, spec)));
    }
    const std::vector<std::string> files = entry_files();
    ASSERT_EQ(files.size(), 1u);
    std::string blob;
    {
        std::ifstream in(files[0], std::ios::binary);
        blob.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_GT(blob.size(), 32u);

    const auto write_entry = [&](const std::string& name,
                                 const std::string& bytes) {
        std::ofstream out(dir_ + "/" + name, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };
    // One damaged sibling per failure mode, alongside the good entry.
    write_entry("0000000000000000.study", "");              // zero-length
    write_entry("0000000000000001.study", "garbage bytes"); // junk, no magic
    write_entry("0000000000000002.study",
                blob.substr(0, blob.size() / 2));           // truncated
    std::string flipped = blob;
    flipped[blob.size() / 2] ^= 0x01;                       // checksum breaks
    write_entry("0000000000000003.study", flipped);

    StudyCacheStore store({dir_, 0});
    StudyCache cache;
    store.load_into(cache);
    EXPECT_EQ(store.stats().loaded, 1u);
    EXPECT_EQ(store.stats().corrupt, 4u);
    EXPECT_TRUE(cache.lookup(spec).has_value());
}

TEST_F(CacheStoreTest, TwoStoresSharingOneDirectoryStayConsistent) {
    // Two servers pointed at one --cache-dir: concurrent write-through
    // of an overlapping working set, then a third store loads the
    // directory.  Atomic temp-then-rename writes mean every file is
    // whole; last writer wins per spec, nothing is torn.
    std::vector<StudySpec> specs;
    for (int i = 0; i < 8; ++i) {
        specs.push_back(pareto_spec("shared_" + std::to_string(i)));
    }
    std::vector<StudyResult> results;
    for (const StudySpec& spec : specs) {
        results.push_back(run_study(actuary_, spec));
    }

    StudyCacheStore a({dir_, 0});
    StudyCacheStore b({dir_, 0});
    std::thread ta([&] {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::string canonical = canonical_spec_json(specs[i]);
            a.put(canonical, fnv1a64(canonical), encode_result(results[i]));
        }
    });
    std::thread tb([&] {
        for (std::size_t i = specs.size(); i-- > 0;) {
            const std::string canonical = canonical_spec_json(specs[i]);
            b.put(canonical, fnv1a64(canonical), encode_result(results[i]));
        }
    });
    ta.join();
    tb.join();
    EXPECT_EQ(a.stats().write_failures + b.stats().write_failures, 0u);

    StudyCacheStore reader({dir_, 0});
    StudyCache cache;
    reader.load_into(cache);
    EXPECT_EQ(reader.stats().loaded, specs.size());
    EXPECT_EQ(reader.stats().corrupt, 0u);
    const JsonDiffOptions exact = exact_options();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::optional<StudyResult> hit = cache.lookup(specs[i]);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(json_diff(to_json(*hit), to_json(results[i]), exact), "");
    }
}

TEST_F(CacheStoreTest, UncreatableDirectoryThrows) {
    const std::string blocked = dir_;
    {
        std::filesystem::create_directories(
            std::filesystem::path(blocked).parent_path());
        std::ofstream out(blocked);  // a *file* where the dir should go
        out << "x";
    }
    EXPECT_THROW((StudyCacheStore{
                     StudyCacheStore::Config{blocked + "/sub", 0}}),
                 Error);
    std::filesystem::remove(blocked);
}

}  // namespace
}  // namespace chiplet::explore

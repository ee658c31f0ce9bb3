// The canonical-spec result cache (explore/study_cache.h): exact hits,
// hit documents byte-identical to the result they store, LRU eviction
// order, exact entry weights and memory-bound enforcement, collision
// fall-through through the hash_bits seam, counter accuracy, thread
// safety, and spec identity down to the last bit of every number.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/actuary.h"
#include "explore/cache_store.h"
#include "explore/result_codec.h"
#include "explore/spec_hash.h"
#include "explore/study.h"
#include "explore/study_cache.h"
#include "explore/study_json.h"
#include "util/json.h"

namespace chiplet::explore {
namespace {

/// Cheap deterministic study (pareto never touches the cost engines),
/// sized identically for every `name` of equal length so LRU tests can
/// reason about per-entry bytes.
StudySpec pareto_spec(const std::string& name) {
    StudySpec spec;
    spec.name = name;
    ParetoConfig config;
    config.points = {ParetoPoint{1.0, 2.0, 0}, ParetoPoint{2.0, 1.0, 1}};
    spec.config = config;
    return spec;
}

class StudyCacheTest : public ::testing::Test {
protected:
    const core::ChipletActuary actuary_;
};

TEST_F(StudyCacheTest, HitIsBitIdenticalAndFlagged) {
    StudyCache cache;
    const StudySpec spec = pareto_spec("p");
    const StudyResult fresh = run_study(actuary_, spec);
    cache.insert(spec, fresh);

    const std::optional<StudyResult> hit = cache.lookup(spec);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->run.from_cache);
    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};
    EXPECT_EQ(json_diff(to_json(*hit), to_json(fresh), exact), "");
}

TEST_F(StudyCacheTest, CountersTrackEveryTransition) {
    StudyCache cache;
    const StudySpec spec = pareto_spec("p");
    EXPECT_FALSE(cache.lookup(spec).has_value());
    cache.insert(spec, run_study(actuary_, spec));
    EXPECT_TRUE(cache.lookup(spec).has_value());
    EXPECT_TRUE(cache.lookup(spec).has_value());

    const StudyCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.collisions, 0u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
}

TEST_F(StudyCacheTest, LruEvictsColdestFirst) {
    // Measure one entry's cost in an unbounded cache, then build a
    // single-shard cache that holds exactly three of them.
    const StudyResult result = run_study(actuary_, pareto_spec("a"));
    std::size_t per_entry = 0;
    {
        StudyCache probe;
        probe.insert(pareto_spec("a"), result);
        per_entry = probe.stats().bytes;
    }
    ASSERT_GT(per_entry, 0u);

    StudyCache::Config config;
    config.shards = 1;  // one LRU list, deterministic order
    config.max_bytes = per_entry * 3 + per_entry / 2;
    StudyCache cache(config);
    for (const char* name : {"a", "b", "c"}) {
        const StudySpec spec = pareto_spec(name);
        cache.insert(spec, run_study(actuary_, spec));
    }
    EXPECT_EQ(cache.stats().entries, 3u);

    // Touch "a" so "b" becomes the coldest, then overflow with "d".
    EXPECT_TRUE(cache.lookup(pareto_spec("a")).has_value());
    cache.insert(pareto_spec("d"), run_study(actuary_, pareto_spec("d")));

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(cache.lookup(pareto_spec("a")).has_value());
    EXPECT_FALSE(cache.lookup(pareto_spec("b")).has_value()) << "LRU order";
    EXPECT_TRUE(cache.lookup(pareto_spec("c")).has_value());
    EXPECT_TRUE(cache.lookup(pareto_spec("d")).has_value());
}

TEST_F(StudyCacheTest, MemoryBoundHoldsUnderChurn) {
    const StudyResult sample = run_study(actuary_, pareto_spec("a"));
    std::size_t per_entry = 0;
    {
        StudyCache probe;
        probe.insert(pareto_spec("a"), sample);
        per_entry = probe.stats().bytes;
    }

    StudyCache::Config config;
    config.shards = 2;
    config.max_bytes = per_entry * 6;
    StudyCache cache(config);
    for (int i = 0; i < 40; ++i) {
        const StudySpec spec = pareto_spec("s" + std::to_string(i));
        cache.insert(spec, run_study(actuary_, spec));
        EXPECT_LE(cache.stats().bytes, config.max_bytes)
            << "bound violated after insert " << i;
    }
    const StudyCache::Stats stats = cache.stats();
    EXPECT_LT(stats.entries, 40u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_EQ(stats.insertions, 40u);
}

TEST_F(StudyCacheTest, EntriesOverAShardBudgetAreRejected) {
    StudyCache::Config config;
    config.shards = 1;
    config.max_bytes = 64;  // smaller than any real entry
    StudyCache cache(config);
    const StudySpec spec = pareto_spec("big");
    cache.insert(spec, run_study(actuary_, spec));

    const StudyCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_FALSE(cache.lookup(spec).has_value());
}

TEST_F(StudyCacheTest, TruncatedHashCollisionsFallThrough) {
    // hash_bits = 0 masks every key to the same slot: distinct specs
    // collide by construction, and byte-equality must refuse the hit.
    StudyCache::Config config;
    config.shards = 1;
    config.hash_bits = 0;
    StudyCache cache(config);

    const StudySpec a = pareto_spec("a");
    const StudySpec b = pareto_spec("b");
    cache.insert(a, run_study(actuary_, a));

    EXPECT_FALSE(cache.lookup(b).has_value())
        << "a colliding slot must never serve a different spec";
    EXPECT_EQ(cache.stats().collisions, 1u);

    // The newest spec wins the slot; the older one now falls through.
    cache.insert(b, run_study(actuary_, b));
    const std::optional<StudyResult> hit = cache.lookup(b);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->name, "b");
    EXPECT_FALSE(cache.lookup(a).has_value());
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(StudyCacheTest, ClearDropsEntriesKeepsCounters) {
    StudyCache cache;
    const StudySpec spec = pareto_spec("p");
    cache.insert(spec, run_study(actuary_, spec));
    EXPECT_TRUE(cache.lookup(spec).has_value());
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.stats().hits, 1u);  // counters keep running
    EXPECT_FALSE(cache.lookup(spec).has_value());
}

TEST_F(StudyCacheTest, RunStudyCachedMissThenHit) {
    StudyCache cache;
    const StudySpec spec = pareto_spec("p");
    const StudyResult cold = run_study_cached(actuary_, spec, cache);
    EXPECT_FALSE(cold.run.from_cache);
    const StudyResult warm = run_study_cached(actuary_, spec, cache);
    EXPECT_TRUE(warm.run.from_cache);

    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};
    EXPECT_EQ(json_diff(to_json(warm), to_json(run_study(actuary_, spec)),
                        exact),
              "");
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

/// Two quantity_sweep specs that differ only in the 15th significant
/// digit of module_area_mm2.
std::vector<StudySpec> near_twin_specs() {
    std::vector<StudySpec> specs;
    for (const double area : {800.0, 800.000000000001}) {
        StudySpec spec;
        spec.name = "twin";
        QuantitySweepConfig config;
        config.module_area_mm2 = area;
        spec.config = config;
        specs.push_back(spec);
    }
    return specs;
}

TEST_F(StudyCacheTest, SpecsDifferingInThe15thDigitKeepTheirOwnResults) {
    // The canonical spec string keys the cache, the disk store and batch
    // dedup; if it rounded numbers, the second twin would be served the
    // first one's payload.
    const std::vector<StudySpec> specs = near_twin_specs();
    EXPECT_NE(canonical_spec_json(specs[0]), canonical_spec_json(specs[1]));

    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};
    exact.numeric_strings = false;
    std::vector<JsonValue> fresh;
    for (const StudySpec& spec : specs) {
        fresh.push_back(to_json(run_study(actuary_, spec)));
    }
    ASSERT_NE(json_diff(fresh[0], fresh[1], exact), "")
        << "the twins must price differently for this test to mean anything";

    StudyCache cache;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const StudyResult r = run_study_cached(actuary_, specs[i], cache);
        EXPECT_FALSE(r.run.from_cache) << i;
        EXPECT_EQ(json_diff(to_json(r), fresh[i], exact), "") << i;
    }

    const StudyBatchOutcome batch = run_studies_collecting(actuary_, specs);
    ASSERT_EQ(batch.results.size(), specs.size());
    for (std::size_t k = 0; k < batch.results.size(); ++k) {
        EXPECT_EQ(json_diff(to_json(batch.results[k]),
                            fresh[batch.indices[k]], exact),
                  "")
            << k;
    }

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("chiplet_twin_specs_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    {
        StudyCacheStore store({dir, 0});
        StudyCache writer;
        writer.attach_store(&store);
        for (const StudySpec& spec : specs) {
            (void)run_study_cached(actuary_, spec, writer);
        }
        EXPECT_EQ(store.stats().writes, specs.size());
    }
    StudyCacheStore store({dir, 0});
    StudyCache restarted;
    store.load_into(restarted);
    EXPECT_EQ(store.stats().loaded, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::optional<StudyResult> hit = restarted.lookup(specs[i]);
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_EQ(json_diff(to_json(*hit), fresh[i], exact), "") << i;
    }
    std::filesystem::remove_all(dir);
}

/// One small spec of each of the ten kinds, then an explain spec whose
/// result carries cost ledgers.
std::vector<StudySpec> spec_per_kind_and_explain() {
    const std::string scenario =
        R"({"node":"5nm","packaging":"MCM","module_area_mm2":800,)"
        R"("chiplets":2,"d2d_fraction":0.1,"quantity":2e6})";
    const std::vector<std::string> docs = {
        R"({"name":"re","kind":"re_sweep","config":{"nodes":["7nm"],)"
        R"("packagings":["SoC","MCM"],"chiplet_counts":[2],"areas_mm2":[200,500]}})",
        R"({"name":"qty","kind":"quantity_sweep","config":{"quantities":[5e5,2e6]}})",
        R"({"name":"mc","kind":"monte_carlo","config":{"scenario":)" + scenario +
            R"(,"draws":64,"seed":7}})",
        R"({"name":"sens","kind":"sensitivity","config":{"scenario":)" +
            scenario + "}}",
        R"({"name":"tor","kind":"tornado","config":{"scenario":)" + scenario +
            "}}",
        R"({"name":"brk","kind":"breakeven","config":{}})",
        R"({"name":"par","kind":"pareto","config":{"points":)"
        R"([{"x":1,"y":3},{"x":2,"y":1},{"x":3,"y":2}]}})",
        R"({"name":"rec","kind":"recommend","config":{"max_chiplets":3}})",
        R"({"name":"tl","kind":"timeline","config":{"scenario":)" + scenario +
            R"(,"months":12,"step_months":3}})",
        R"({"name":"ds","kind":"design_space","config":{"nodes":["7nm","12nm"],)"
        R"("chiplet_counts":[1,2],"packagings":["SoC","MCM"],"quantities":[1e6],"top_k":4}})",
        R"({"name":"explained","kind":"quantity_sweep","explain":true,)"
        R"("config":{"quantities":[1e6]}})",
    };
    std::vector<StudySpec> specs;
    for (const std::string& doc : docs) {
        specs.push_back(study_spec_from_json(JsonValue::parse(doc)));
    }
    return specs;
}

/// The exact weight an entry for `spec` -> `result` is charged.
std::size_t entry_weight(const StudySpec& spec, const StudyResult& result) {
    StudyRunInfo run = result.run;
    run.from_cache = true;
    return canonical_spec_json(spec).size() + encode_result(result).size() +
           result_document(result_text(result), run).size() +
           StudyCache::kEntryOverhead;
}

TEST_F(StudyCacheTest, HitDocumentsAreTheStoredResultsDumped) {
    const std::vector<StudySpec> specs = spec_per_kind_and_explain();
    ASSERT_EQ(specs.size(), 11u);
    StudyCache cache;
    std::size_t weights = 0;
    for (const StudySpec& spec : specs) {
        const StudyResult fresh = run_study(actuary_, spec);

        // The head/meta/tail splice is the whole dump, byte for byte,
        // whichever from_cache value is spliced in.
        const ResultText text = result_text(fresh);
        for (const bool from_cache : {false, true}) {
            StudyResult flagged = fresh;
            flagged.run.from_cache = from_cache;
            EXPECT_EQ(result_document(text, flagged.run),
                      to_json(flagged).dump())
                << spec.name << " from_cache=" << from_cache;
        }

        cache.insert(spec, fresh);
        weights += entry_weight(spec, fresh);
        const std::string canonical = canonical_spec_json(spec);
        const std::uint64_t hash = fnv1a64(canonical);
        const std::shared_ptr<const StudyCache::HitDocument> document =
            cache.lookup_document(canonical, hash);
        const std::optional<StudyResult> hit = cache.lookup(canonical, hash);
        ASSERT_TRUE(document) << spec.name;
        ASSERT_TRUE(hit.has_value()) << spec.name;
        EXPECT_TRUE(hit->run.from_cache);
        EXPECT_EQ(document->json, to_json(*hit).dump()) << spec.name;
        EXPECT_EQ(document->cell_hits, fresh.run.cell_hits);
        EXPECT_EQ(document->cell_misses, fresh.run.cell_misses);
        EXPECT_EQ(document->with_ledgers, fresh.run.with_ledgers);
    }
    EXPECT_TRUE(run_study(actuary_, specs.back()).run.with_ledgers)
        << "the explain spec must carry ledgers for this test to mean anything";

    const StudyCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, specs.size());
    EXPECT_EQ(stats.bytes, weights) << "entry weights are exact";
    // lookup_document and lookup each count one probe.
    EXPECT_EQ(stats.hits, 2 * specs.size());
    EXPECT_EQ(stats.misses, 0u);
    const std::string absent = canonical_spec_json(pareto_spec("absent"));
    EXPECT_EQ(cache.lookup_document(absent, fnv1a64(absent)), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(StudyCacheTest, BoundHoldsExactlyUnderEviction) {
    // Entries of several sizes through one shard whose budget fits the
    // first three exactly: the resident bytes must equal the summed
    // weights of the entries a reference LRU keeps, after every insert.
    std::vector<StudySpec> specs;
    std::vector<StudyResult> results;
    std::vector<std::size_t> weights;
    for (const std::string name : {"a", "bb", "ccc", "dddd", "e", "ffffff"}) {
        specs.push_back(pareto_spec(name));
        results.push_back(run_study(actuary_, specs.back()));
        weights.push_back(entry_weight(specs.back(), results.back()));
    }
    StudyCache::Config config;
    config.shards = 1;
    config.max_bytes = weights[0] + weights[1] + weights[2];
    StudyCache cache(config);

    std::deque<std::size_t> lru;  // front = most recent
    std::size_t resident = 0;
    std::uint64_t evictions = 0;
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            cache.insert(specs[i], results[i]);
            for (auto it = lru.begin(); it != lru.end(); ++it) {
                if (*it == i) {
                    resident -= weights[i];
                    lru.erase(it);
                    break;
                }
            }
            lru.push_front(i);
            resident += weights[i];
            while (resident > config.max_bytes) {
                resident -= weights[lru.back()];
                lru.pop_back();
                ++evictions;
            }
            const StudyCache::Stats stats = cache.stats();
            EXPECT_EQ(stats.bytes, resident) << "round " << round << " i " << i;
            EXPECT_LE(stats.bytes, config.max_bytes);
            EXPECT_EQ(stats.entries, lru.size());
            EXPECT_EQ(stats.evictions, evictions);
        }
    }
    EXPECT_GT(evictions, 0u);
}

TEST_F(StudyCacheTest, ConcurrentLookupsAndInsertsAreSafe) {
    // Hammer one cache from several threads; correctness here is "no
    // crash/race under ASan and coherent counters", not ordering.
    StudyCache::Config config;
    config.max_bytes = 1ull << 20;
    config.shards = 4;
    StudyCache cache(config);

    std::vector<StudyResult> results;
    std::vector<StudySpec> specs;
    for (int i = 0; i < 8; ++i) {
        specs.push_back(pareto_spec("t" + std::to_string(i)));
        results.push_back(run_study(actuary_, specs.back()));
    }

    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 200; ++i) {
                const std::size_t k =
                    static_cast<std::size_t>((t + i) % 8);
                if (i % 3 == 0) {
                    cache.insert(specs[k], results[k]);
                } else if (i % 3 == 1) {
                    const std::string canonical = canonical_spec_json(specs[k]);
                    if (const auto document = cache.lookup_document(
                            canonical, fnv1a64(canonical))) {
                        EXPECT_NE(document->json.find(specs[k].name),
                                  std::string::npos);
                    }
                } else if (std::optional<StudyResult> hit =
                               cache.lookup(specs[k])) {
                    EXPECT_EQ(hit->name, specs[k].name);
                }
            }
        });
    }
    for (std::thread& t : threads) t.join();

    const StudyCache::Stats stats = cache.stats();
    // 200 iterations per thread, every third an insert: 67 inserts,
    // 133 lookups each.
    EXPECT_EQ(stats.hits + stats.misses, 8u * 133u);
    EXPECT_EQ(stats.insertions, 8u * 67u);
    EXPECT_LE(stats.entries, 8u);
}

}  // namespace
}  // namespace chiplet::explore

// actuaryd serving layer (serve/server.h): protocol verbs, concurrent
// client soak with responses bit-identical to serial run_study, cache
// behaviour across repeated specs, per-study failure reporting, and
// clean shutdown with no leaked threads (CI runs this under ASan/UBSan
// and with CHIPLET_THREADS in {1, 4}).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/actuary.h"
#include "core/version.h"
#include "explore/study.h"
#include "explore/study_json.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/error.h"
#include "util/json.h"

namespace chiplet::serve {
namespace {

using explore::StudySpec;

/// Small but mixed-kind batch: fast engines only, so the soak stays
/// cheap while still crossing every dispatch path it needs.
std::vector<StudySpec> mixed_batch() {
    std::vector<StudySpec> specs;

    StudySpec re;
    re.name = "re";
    explore::ReSweepConfig rc;
    rc.nodes = {"7nm"};
    rc.packagings = {"SoC", "MCM"};
    rc.chiplet_counts = {2};
    rc.areas_mm2 = {200.0, 500.0};
    re.config = rc;
    specs.push_back(re);

    StudySpec qty;
    qty.name = "qty";
    explore::QuantitySweepConfig qc;
    qc.quantities = {5e5, 2e6};
    qty.config = qc;
    specs.push_back(qty);

    StudySpec brk;
    brk.name = "brk";
    brk.config = explore::BreakevenQuery{};
    specs.push_back(brk);

    StudySpec par;
    par.name = "par";
    explore::ParetoConfig pc;
    pc.points = {explore::ParetoPoint{1.0, 3.0, 0},
                 explore::ParetoPoint{2.0, 1.0, 1},
                 explore::ParetoPoint{3.0, 2.0, 2}};
    par.config = pc;
    specs.push_back(par);

    StudySpec rec;
    rec.name = "rec";
    explore::DecisionQuery dq;
    dq.max_chiplets = 3;
    rec.config = dq;
    specs.push_back(rec);

    return specs;
}

/// "results" of a serial run_study loop, the bit-identical reference.
/// Normalised through one dump/parse cycle so both sides of the
/// comparison carry wire-precision numbers: the server's bytes must
/// then match exactly (tolerance zero).
JsonValue serial_results(const core::ChipletActuary& actuary,
                         const std::vector<StudySpec>& specs) {
    std::vector<explore::StudyResult> results;
    for (const StudySpec& spec : specs) {
        results.push_back(explore::run_study(actuary, spec));
    }
    return JsonValue::parse(explore::results_to_json(results).dump());
}

/// Structural equality of server results vs the serial reference, run
/// metadata ignored, tolerance zero (bit-identical formatted values).
std::string diff_results(const JsonValue& response,
                         const JsonValue& reference) {
    JsonValue wrapped = JsonValue::object();
    wrapped.set("results", response.at("results"));
    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};
    return json_diff(wrapped, reference, exact);
}

class ServerTest : public ::testing::Test {
protected:
    void SetUp() override {
        config_.port = 0;  // ephemeral: parallel test runs never clash
        server_ = std::make_unique<StudyServer>(actuary_, config_);
        server_->start();
    }

    void TearDown() override {
        if (server_) server_->stop();
    }

    [[nodiscard]] StudyClient connect() const {
        return StudyClient("127.0.0.1", server_->port());
    }

    const core::ChipletActuary actuary_;
    ServerConfig config_;
    std::unique_ptr<StudyServer> server_;
};

TEST_F(ServerTest, PingStatsAndReusedConnection) {
    StudyClient client = connect();
    const JsonValue pong = client.ping();
    EXPECT_TRUE(pong.at("ok").as_bool());
    EXPECT_EQ(pong.at("op").as_string(), "ping");

    // Several frames over one connection.
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(client.ping().at("ok").as_bool());
    }

    const JsonValue stats = client.stats();
    EXPECT_TRUE(stats.contains("cache"));
    EXPECT_GE(stats.at("server").at("connections").as_number(), 1.0);
    EXPECT_EQ(stats.at("server").at("ledger_results").as_number(), 0.0);
    EXPECT_GT(stats.at("threads").as_number(), 0.0);
}

TEST_F(ServerTest, ExplainStudiesCarryLedgersThroughTheProtocol) {
    StudyClient client = connect();
    std::vector<StudySpec> specs = mixed_batch();
    for (StudySpec& spec : specs) spec.explain = true;
    const JsonValue response = client.run(specs);

    // Every result except the pareto one carries a ledgers section, and
    // the run meta counts them.
    std::size_t with_ledgers = 0;
    for (const JsonValue& result : response.at("results").as_array()) {
        const bool has = result.contains("ledgers");
        EXPECT_EQ(has, result.at("kind").as_string() != "pareto");
        EXPECT_EQ(result.at("meta").at("with_ledgers").as_bool(), has);
        if (has) {
            ++with_ledgers;
            const JsonArray& entries = result.at("ledgers").as_array();
            ASSERT_FALSE(entries.empty());
            // The wire ledger parses back and folds to a positive total.
            const core::CostLedger ledger = explore::ledger_from_json(
                entries.front().at("ledger"), "wire");
            EXPECT_GT(ledger.fold_re().total(), 0.0);
        }
    }
    EXPECT_EQ(with_ledgers, specs.size() - 1);
    EXPECT_EQ(response.at("meta").at("with_ledgers").as_number(),
              static_cast<double>(with_ledgers));

    // The stats verb reports the cumulative ledger-carrying results.
    const JsonValue stats = client.stats();
    EXPECT_EQ(stats.at("server").at("ledger_results").as_number(),
              static_cast<double>(with_ledgers));
    EXPECT_EQ(server_->stats().ledger_results, with_ledgers);
}

TEST_F(ServerTest, RunMatchesSerialBitForBit) {
    const std::vector<StudySpec> specs = mixed_batch();
    const JsonValue reference = serial_results(actuary_, specs);

    StudyClient client = connect();
    const JsonValue response = client.run(specs);
    ASSERT_TRUE(response.contains("results"));
    EXPECT_EQ(response.at("failures").as_array().size(), 0u);
    EXPECT_EQ(diff_results(response, reference), "");

    // Second identical request: answered from cache, still identical.
    const JsonValue warm = client.run(specs);
    EXPECT_EQ(diff_results(warm, reference), "");
    EXPECT_EQ(warm.at("meta").at("served_from_cache").as_number(),
              static_cast<double>(specs.size()));
}

TEST_F(ServerTest, ConcurrentSoakBitIdenticalAndCached) {
    const std::vector<StudySpec> specs = mixed_batch();
    const JsonValue reference = serial_results(actuary_, specs);

    // Warm every spec once so each of the soak's study evaluations has
    // a deterministic cache expectation.
    {
        StudyClient warmup = connect();
        ASSERT_EQ(diff_results(warmup.run(specs), reference), "");
    }

    constexpr int kClients = 6;
    constexpr int kRounds = 5;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            try {
                StudyClient client("127.0.0.1", server_->port());
                for (int r = 0; r < kRounds; ++r) {
                    const JsonValue response = client.run(specs);
                    if (!diff_results(response, reference).empty()) {
                        ++mismatches;
                    }
                    if (!response.at("failures").as_array().empty()) {
                        ++failures;
                    }
                }
            } catch (const Error&) {
                ++failures;
            }
        });
    }
    for (std::thread& t : clients) t.join();

    EXPECT_EQ(mismatches.load(), 0)
        << "a served response diverged from serial run_study";
    EXPECT_EQ(failures.load(), 0);

    // Everything after the warmup must have been a cache hit.
    const explore::StudyCache::Stats cache = server_->cache().stats();
    EXPECT_GE(cache.hits,
              static_cast<std::uint64_t>(kClients * kRounds * specs.size()));
    const StudyServer::Stats stats = server_->stats();
    EXPECT_EQ(stats.requests,
              static_cast<std::uint64_t>(kClients * kRounds + 1));
    EXPECT_GE(stats.connections, static_cast<std::uint64_t>(kClients + 1));
}

TEST_F(ServerTest, BatchWithBadStudiesRunsGoodOnesAndReportsAll) {
    // Two broken studies mixed with good ones — the model failure
    // placed *before* the parse failure, so the wire order proves
    // failures are sorted by document index, not by stage.  One line:
    // embedded newlines would split the frame.
    const std::string request =
        R"({"studies":[)"
        R"({"name":"ok_a","kind":"pareto","config":{"points":[{"x":1,"y":2}]}},)"
        R"({"name":"bad_node","kind":"breakeven","config":{"node":"not_a_node"}},)"
        R"({"name":"ok_b","kind":"breakeven","config":{}},)"
        R"({"name":"bad_kind","kind":"wat","config":{}})"
        R"(]})";
    StudyClient client = connect();
    const JsonValue response = client.call(request);

    ASSERT_TRUE(response.contains("results"));
    const JsonArray& results = response.at("results").as_array();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].at("name").as_string(), "ok_a");
    EXPECT_EQ(results[1].at("name").as_string(), "ok_b");

    const JsonArray& failures = response.at("failures").as_array();
    ASSERT_EQ(failures.size(), 2u);
    EXPECT_EQ(failures[0].at("name").as_string(), "bad_node");
    EXPECT_EQ(failures[0].at("stage").as_string(), "model");
    EXPECT_EQ(failures[0].at("index").as_number(), 1.0);
    EXPECT_EQ(failures[1].at("name").as_string(), "bad_kind");
    EXPECT_EQ(failures[1].at("stage").as_string(), "parse");
    EXPECT_EQ(failures[1].at("index").as_number(), 3.0);
}

TEST_F(ServerTest, DesignSpaceStudiesRunOutsideTheBatchCompiler) {
    // design_space studies interleaved with compiled ones: answers stay
    // in batch order and bit-identical to serial run_study, while the
    // searches carry no cell-memo counters (they took the kernel path,
    // not the compiler's memoised reference scan).
    std::vector<StudySpec> specs = mixed_batch();
    StudySpec search;
    search.name = "search";
    explore::DesignSpaceConfig dc;
    dc.nodes = {"7nm", "5nm"};
    dc.chiplet_counts = {1, 2, 3};
    search.config = dc;
    specs.insert(specs.begin() + 1, search);
    search.name = "search_14nm";
    dc.nodes = {"14nm", "7nm"};
    search.config = dc;
    specs.push_back(search);
    const JsonValue reference = serial_results(actuary_, specs);

    StudyClient client = connect();
    const JsonValue cold = client.run(specs);
    EXPECT_EQ(cold.at("failures").as_array().size(), 0u);
    EXPECT_EQ(diff_results(cold, reference), "");
    double compiled_cell_hits = 0.0;
    for (const JsonValue& result : cold.at("results").as_array()) {
        const JsonValue& meta = result.at("meta");
        if (result.at("kind").as_string() == "design_space") {
            EXPECT_EQ(meta.at("cell_hits").as_number(), 0.0);
            EXPECT_EQ(meta.at("cell_misses").as_number(), 0.0);
        } else {
            compiled_cell_hits += meta.at("cell_hits").as_number();
        }
    }
    EXPECT_GT(compiled_cell_hits, 0.0);

    // The study cache still serves the searches.
    const JsonValue warm = client.run(specs);
    EXPECT_EQ(diff_results(warm, reference), "");
    EXPECT_EQ(warm.at("meta").at("served_from_cache").as_number(),
              static_cast<double>(specs.size()));

    // A failing search reports at its own document index.
    const JsonValue bad = client.call(
        R"({"studies":[)"
        R"({"name":"ok","kind":"breakeven","config":{}},)"
        R"({"name":"bad_search","kind":"design_space","config":{"nodes":["not_a_node"]}})"
        R"(]})");
    ASSERT_EQ(bad.at("results").as_array().size(), 1u);
    const JsonArray& failures = bad.at("failures").as_array();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].at("name").as_string(), "bad_search");
    EXPECT_EQ(failures[0].at("stage").as_string(), "model");
    EXPECT_EQ(failures[0].at("index").as_number(), 1.0);
}

TEST_F(ServerTest, PartialHitFrameEvaluatesOnlyItsMisses) {
    // One frame: a hit, a miss, a bad study, an in-frame duplicate of
    // the miss, and a design_space miss.  One line: embedded newlines
    // would split the frame.
    const std::string hit =
        R"({"name":"hit","kind":"breakeven","config":{}})";
    const std::string miss =
        R"({"name":"miss","kind":"quantity_sweep","config":{"quantities":[1e6,2e6]}})";
    const std::string bad = R"({"name":"bad","kind":"wat","config":{}})";
    const std::string search =
        R"({"name":"search","kind":"design_space","config":)"
        R"({"nodes":["7nm","5nm"],"chiplet_counts":[1,2,3]}})";
    const std::string frame = R"({"studies":[)" + hit + "," + miss + "," +
                              bad + "," + miss + "," + search + "]}";
    std::vector<StudySpec> good;
    for (const std::string* doc : {&hit, &miss, &miss, &search}) {
        good.push_back(explore::study_spec_from_json(JsonValue::parse(*doc)));
    }
    const JsonValue reference = serial_results(actuary_, good);

    StudyClient client = connect();
    (void)client.run({&good[0], 1});  // makes "hit" a hit
    const explore::StudyCache::Stats before = server_->cache().stats();

    const auto check = [&](const JsonValue& response) {
        EXPECT_EQ(diff_results(response, reference), "");
        const JsonArray& failures = response.at("failures").as_array();
        ASSERT_EQ(failures.size(), 1u);
        EXPECT_EQ(failures[0].at("name").as_string(), "bad");
        EXPECT_EQ(failures[0].at("stage").as_string(), "parse");
        EXPECT_EQ(failures[0].at("index").as_number(), 2.0);
    };

    const JsonValue cold = client.call(frame);
    check(cold);
    const explore::StudyCache::Stats after = server_->cache().stats();
    const JsonValue& cold_meta = cold.at("meta");
    EXPECT_EQ(cold_meta.at("served_from_cache").as_number(), 1.0);
    EXPECT_EQ(after.hits + after.misses - before.hits - before.misses,
              good.size())
        << "one probe per good study";
    EXPECT_EQ(after.hits - before.hits, 1u);
    // The duplicate is a copy of the miss, and is not inserted again.
    EXPECT_EQ(after.insertions - before.insertions, 2u);
    EXPECT_TRUE(cold.at("results").as_array()[2].at("meta").at(
        "from_batch_dedup").as_bool());
    EXPECT_EQ(cold_meta.at("graph").at("spec_dedups").as_number(), 1.0);
    EXPECT_GT(cold_meta.at("graph").at("cell_refs").as_number(), 0.0);

    // Resent, every good study hits: answered on the loop thread, with
    // nothing compiled.
    const std::uint64_t inline_before = server_->stats().inline_runs;
    const JsonValue warm = client.call(frame);
    check(warm);
    const JsonValue& warm_meta = warm.at("meta");
    EXPECT_EQ(warm_meta.at("served_from_cache").as_number(),
              static_cast<double>(good.size()));
    EXPECT_EQ(server_->stats().inline_runs, inline_before + 1);
    EXPECT_EQ(warm_meta.at("graph").at("cell_refs").as_number(), 0.0);
    EXPECT_EQ(warm_meta.at("graph").at("unique_cells").as_number(), 0.0);
    for (const JsonValue& result : warm.at("results").as_array()) {
        EXPECT_TRUE(result.at("meta").at("from_cache").as_bool());
    }
    const explore::StudyCache::Stats resent = server_->cache().stats();
    EXPECT_EQ(resent.hits - after.hits, good.size());
    EXPECT_EQ(resent.misses, after.misses);
}

TEST_F(ServerTest, ModelFailuresRepeatWhileTheRestIsServedFromCache) {
    const std::string frame =
        R"({"studies":[)"
        R"({"name":"good","kind":"pareto","config":{"points":[{"x":1,"y":2},{"x":2,"y":1}]}},)"
        R"({"name":"bad_node","kind":"breakeven","config":{"node":"not_a_node"}},)"
        R"({"name":"good","kind":"pareto","config":{"points":[{"x":1,"y":2},{"x":2,"y":1}]}})"
        R"(]})";
    StudyClient client = connect();
    for (int round = 0; round < 2; ++round) {
        const JsonValue response = client.call(frame);
        const JsonArray& results = response.at("results").as_array();
        ASSERT_EQ(results.size(), 2u);
        const JsonArray& failures = response.at("failures").as_array();
        ASSERT_EQ(failures.size(), 1u);
        EXPECT_EQ(failures[0].at("index").as_number(), 1.0);
        EXPECT_EQ(failures[0].at("name").as_string(), "bad_node");
        EXPECT_EQ(failures[0].at("stage").as_string(), "model");
        EXPECT_FALSE(failures[0].at("message").as_string().empty());
        if (round == 1) {
            // Everything that can be cached is; the failure is repeated.
            EXPECT_EQ(response.at("meta").at("served_from_cache").as_number(),
                      2.0);
            EXPECT_TRUE(results[0].at("meta").at("from_cache").as_bool());
            EXPECT_TRUE(results[1].at("meta").at("from_cache").as_bool());
        }
    }
    EXPECT_EQ(server_->stats().inline_runs, 0u)
        << "a frame with a miss goes to an executor";
}

/// A monte_carlo spec that takes at least `seconds` to evaluate in this
/// build: the draw count is scaled from a timed probe, so the bound holds
/// under sanitizers and in Debug builds alike.
StudySpec slow_spec(const core::ChipletActuary& actuary,
                    const std::string& name, double seconds) {
    StudySpec spec;
    spec.name = name;
    explore::McStudyConfig config;
    config.scenario.node = "5nm";
    config.scenario.packaging = "MCM";
    config.scenario.module_area_mm2 = 800.0;
    config.scenario.chiplets = 2;
    config.draws = 20000;
    spec.config = config;
    const auto start = std::chrono::steady_clock::now();
    (void)explore::run_study(actuary, spec);
    const double probe =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    config.draws = static_cast<unsigned>(
        config.draws * std::ceil(seconds / std::max(probe, 1e-4)));
    spec.config = config;
    return spec;
}

TEST_F(ServerTest, HitsDoNotQueueBehindEvaluation) {
    // Both executors busy with cold frames of a second or more, then an
    // all-hit frame on a third connection: it is answered on the loop
    // thread while both evaluations are still in flight.
    StudySpec hit;
    hit.name = "hit";
    hit.config = explore::BreakevenQuery{};
    StudyClient warm = connect();
    (void)warm.run({&hit, 1});

    const std::vector<StudySpec> slow = {slow_spec(actuary_, "slow_a", 1.0),
                                         slow_spec(actuary_, "slow_b", 1.0)};
    ASSERT_EQ(config_.eval_workers, 2u);
    StudyClient a = connect();
    StudyClient b = connect();
    a.send_line(encode_run_request({&slow[0], 1}));
    b.send_line(encode_run_request({&slow[1], 1}));
    while (server_->metrics().in_flight < 2) std::this_thread::yield();

    StudyClient c = connect();
    const JsonValue answer = c.run({&hit, 1});
    EXPECT_EQ(server_->metrics().in_flight, 2u)
        << "a slow frame was answered before the hit";
    EXPECT_EQ(answer.at("meta").at("served_from_cache").as_number(), 1.0);
    EXPECT_EQ(diff_results(answer, serial_results(actuary_, {hit})), "");

    for (StudyClient* client : {&a, &b}) {
        const JsonValue response = JsonValue::parse(client->read_line());
        EXPECT_EQ(response.at("results").as_array().size(), 1u);
        EXPECT_EQ(response.at("meta").at("served_from_cache").as_number(), 0.0);
    }
}

TEST_F(ServerTest, ShutdownVerbStopsAcceptingAndWaitReturns) {
    StudyClient client = connect();
    const JsonValue ack = client.shutdown();
    EXPECT_TRUE(ack.at("ok").as_bool());

    server_->wait();  // returns because a client requested shutdown
    server_->stop();  // joins accept + connection threads
    EXPECT_FALSE(server_->running());

    // The listener is gone: new connections must be refused.
    EXPECT_THROW(StudyClient("127.0.0.1", server_->port()), Error);
}

TEST_F(ServerTest, StopWhileClientsConnectedJoinsCleanly) {
    StudyClient a = connect();
    StudyClient b = connect();
    EXPECT_TRUE(a.ping().at("ok").as_bool());
    server_->stop();  // must unblock both connection threads
    EXPECT_FALSE(server_->running());
    EXPECT_THROW((void)a.read_line(), Error);  // server hung up
}

TEST_F(ServerTest, PortInUseFailsLoudly) {
    ServerConfig clash;
    clash.port = server_->port();
    StudyServer second(actuary_, clash);
    EXPECT_THROW(second.start(), Error);
}

TEST_F(ServerTest, StatsAndMetricsSurfaceBothCacheLayers) {
    StudySpec grid;
    grid.name = "grid";
    explore::ReSweepConfig c;
    c.nodes = {"7nm", "5nm"};
    c.packagings = {"SoC", "MCM"};
    c.chiplet_counts = {2};
    c.areas_mm2 = {200.0, 500.0};
    grid.config = c;
    const std::vector<StudySpec> specs = {grid};

    StudyClient client = connect();
    double result_cell_hits = 0.0;
    for (int round = 0; round < 2; ++round) {  // second round: cache hits
        const JsonValue response = client.run(specs);
        for (const JsonValue& result : response.at("results").as_array()) {
            result_cell_hits += result.at("meta").at("cell_hits").as_number();
        }
    }
    EXPECT_GT(result_cell_hits, 0.0);

    const JsonValue stats = client.stats();
    // Satellite: the cache object reports a *rate*, not just counters.
    ASSERT_TRUE(stats.at("cache").contains("hit_rate"));
    EXPECT_GT(stats.at("cache").at("hit_rate").as_number(), 0.0);
    // Satellite: the model-version stamp is on the metrics surface.
    EXPECT_EQ(stats.at("model_version").as_string(),
              core::model_version_string());

    const JsonValue metrics = client.metrics();
    EXPECT_EQ(metrics.at("model_version").as_string(),
              core::model_version_string());
    ASSERT_TRUE(metrics.contains("disk"));
    EXPECT_FALSE(metrics.at("disk").at("persistent").as_bool());
    EXPECT_EQ(metrics.at("disk").at("writes").as_number(), 0.0);

    // The cell memo section sums every served result's counters.
    for (const JsonValue* surface : {&stats, &metrics}) {
        const JsonValue& cells = surface->at("cells");
        EXPECT_EQ(cells.at("hits").as_number(), result_cell_hits);
        const double rate = cells.at("hit_rate").as_number();
        EXPECT_GE(rate, 0.0);
        EXPECT_LE(rate, 1.0);
    }
}

TEST(ServerConfigTest, CacheBytesBoundTheStudyCacheAlone) {
    const core::ChipletActuary actuary;
    ServerConfig config;
    config.cache_bytes = 3ull << 20;
    StudyServer server(actuary, config);
    EXPECT_EQ(server.cache().max_bytes(), config.cache_bytes);
}

TEST(PersistentCache, RestartedServerAnswersWarmAndByteIdentical) {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("chiplet_server_cache_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);

    const core::ChipletActuary actuary;
    const std::vector<StudySpec> specs = mixed_batch();
    ServerConfig config;
    config.port = 0;
    config.cache_dir = dir;

    JsonValue cold_results;
    {
        StudyServer server(actuary, config);
        server.start();
        StudyClient client("127.0.0.1", server.port());
        const JsonValue cold = client.run(specs);
        EXPECT_EQ(cold.at("meta").at("served_from_cache").as_number(), 0.0);
        cold_results = cold.at("results");
        const JsonValue metrics = client.metrics();
        EXPECT_TRUE(metrics.at("disk").at("persistent").as_bool());
        EXPECT_EQ(metrics.at("disk").at("writes").as_number(),
                  static_cast<double>(specs.size()));
        server.stop();
    }

    // Restart: a brand-new process-equivalent server on the same dir
    // must answer the same batch from the warm cache, byte-identically.
    StudyServer server(actuary, config);
    server.start();
    StudyClient client("127.0.0.1", server.port());
    const JsonValue metrics = client.metrics();
    EXPECT_EQ(metrics.at("disk").at("loaded").as_number(),
              static_cast<double>(specs.size()));
    const JsonValue warm = client.run(specs);
    EXPECT_EQ(warm.at("meta").at("served_from_cache").as_number(),
              static_cast<double>(specs.size()));
    // Payloads and tables byte-identical to the cold run; only the
    // per-result run metadata (from_cache, wall time) may differ.
    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};
    EXPECT_EQ(json_diff(warm.at("results"), cold_results, exact), "");
    server.stop();
    std::filesystem::remove_all(dir);
}

TEST(ServerLifecycle, DestructorStopsARunningServer) {
    const core::ChipletActuary actuary;
    unsigned short port = 0;
    {
        StudyServer server(actuary);
        server.start();
        port = server.port();
        StudyClient client("127.0.0.1", port);
        EXPECT_TRUE(client.ping().at("ok").as_bool());
        // ~StudyServer runs here with a live connection open.
    }
    EXPECT_THROW(StudyClient("127.0.0.1", port), Error);
}

}  // namespace
}  // namespace chiplet::serve

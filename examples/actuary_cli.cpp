// Command-line front end.  The primary surface is the Study API: a JSON
// file of declarative studies in, JSON results / an HTML report out,
// with every exploration engine reachable through one format.  Legacy
// subcommands for single evaluations are kept for convenience.
//
// Usage:
//   actuary_cli [--threads N] <command> ...
//
//   actuary_cli --version   # model schema + fingerprint stamp
//   actuary_cli study     <studies.json> [--out results.json] [--html report.html]
//                         [--plan]   # print the compiled execution graph only
//   actuary_cli serve     [--port N] [--cache-mb M] [--cache-dir D]
//                         [--dispatch H:P,...]
//   actuary_cli client    <studies.json> [--port N] [--host H] [--out results.json]
//   actuary_cli evaluate  <family.json> [tech.json]
//   actuary_cli explain   <family.json> [tech.json]  # itemised cost ledger
//   actuary_cli recommend <node> <module_area_mm2> <quantity>
//   actuary_cli breakeven <node> <module_area_mm2> <chiplets> <packaging>
//   actuary_cli template  <family.json>     # write an example family file
//   actuary_cli techdump  <tech.json>       # export the built-in catalogue
//   actuary_cli diff      <a.json> <b.json> [--tol 1e-6]   # float-tolerant
//
// Exit codes: 0 success, 1 difference found (diff) or unexpected model
// failure, 2 usage error, 3 model error (bad parameter / unknown name),
// 4 malformed input file.  A study batch with bad entries runs every
// good study, reports *all* failures by study name, and exits 4 when
// any failure is a parse failure, else 3.
#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/actuary.h"
#include "core/version.h"
#include "design/builder.h"
#include "design/json_io.h"
#include "explore/breakeven.h"
#include "explore/optimizer.h"
#include "explore/study.h"
#include "explore/study_graph.h"
#include "explore/study_json.h"
#include "report/study_view.h"
#include "report/table.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tech/json_io.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

using namespace chiplet;

constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;  ///< diff mismatch / unexpected error
constexpr int kExitUsage = 2;
constexpr int kExitModelError = 3;  ///< ParameterError / LookupError
constexpr int kExitParseError = 4;  ///< malformed input file

int usage() {
    std::cerr
        << "usage: actuary_cli [--threads N] <command> ...\n"
           "       actuary_cli --version   (model schema + fingerprint)\n"
           "\n"
           "  study     <studies.json> [--out results.json] [--html report.html]\n"
           "            [--plan]  (print the compiled execution graph —\n"
           "             per-study cell counts, unique cells, dedup ratio —\n"
           "             without evaluating)\n"
           "  serve     [--port N] [--cache-mb M] [--cache-dir D]\n"
           "            [--dispatch H:P,...]\n"
           "            (--port 0 binds an ephemeral port and prints it;\n"
           "             --cache-dir persists the result cache across\n"
           "             restarts, keyed by the model fingerprint;\n"
           "             --dispatch shards design_space studies across\n"
           "             the listed worker actuaryds)\n"
           "  client    <studies.json> [--port N] [--host H] [--out results.json]\n"
           "  evaluate  <family.json> [tech.json]\n"
           "  explain   <family.json> [tech.json]\n"
           "  recommend <node> <module_area_mm2> <quantity>\n"
           "  breakeven <node> <module_area_mm2> <chiplets> <packaging>\n"
           "  template  <family.json>\n"
           "  techdump  <tech.json>\n"
           "  diff      <a.json> <b.json> [--tol 1e-6]\n"
           "\n"
           "exit codes: 0 ok, 1 diff mismatch/unexpected error, 2 usage,\n"
           "            3 model error, 4 malformed input\n";
    return kExitUsage;
}

/// Prints every study failure with its name and document position; used
/// by both the local and the client-served study paths.
void report_failures(const std::vector<explore::StudyFailure>& failures) {
    for (const explore::StudyFailure& f : failures) {
        std::cerr << "study '" << f.name << "' (studies[" << f.index << "], "
                  << f.stage << " error): " << f.message << "\n";
    }
}

/// Batch exit policy: parse failures dominate model failures so a
/// malformed document is distinguishable from a bad parameter even when
/// both occur in one batch.
int failure_exit_code(const std::vector<explore::StudyFailure>& failures) {
    if (failures.empty()) return kExitOk;
    for (const explore::StudyFailure& f : failures) {
        if (f.stage == "parse") return kExitParseError;
    }
    return kExitModelError;
}

int cmd_study(const std::string& studies_path, const std::string& out_path,
              const std::string& html_path) {
    // Collect failures instead of aborting on the first one: a batch
    // with several bad studies reports every one of them by name, and
    // every good study still runs.
    std::vector<explore::StudyFailure> parse_failures;
    std::vector<std::size_t> kept;
    const std::vector<explore::StudySpec> specs =
        explore::load_studies_collecting(studies_path, parse_failures, &kept);
    const core::ChipletActuary actuary;
    explore::StudyBatchOutcome outcome =
        explore::run_studies_collecting(actuary, specs);
    const std::vector<explore::StudyFailure> failures =
        explore::merge_failures(std::move(parse_failures),
                                std::move(outcome.failures), kept);

    for (const explore::StudyResult& result : outcome.results) {
        std::cout << result.name << " (" << explore::to_string(result.kind)
                  << "): " << result.table.rows.size() << " rows in "
                  << format_fixed(result.run.wall_seconds * 1e3, 1) << " ms\n";
        if (out_path.empty() && html_path.empty()) {
            std::cout << report::study_table(result).render() << "\n";
        }
    }
    report_failures(failures);
    if (!out_path.empty()) {
        explore::save_results(outcome.results, out_path);
        std::cout << "wrote " << out_path << "\n";
    }
    if (!html_path.empty()) {
        report::HtmlReport html("Chiplet Actuary — study report");
        for (const explore::StudyResult& result : outcome.results) {
            report::add_study(html, result);
        }
        html.save(html_path);
        std::cout << "wrote " << html_path << "\n";
    }
    return failure_exit_code(failures);
}

int cmd_study_plan(const std::string& studies_path) {
    // Dry run: compile the batch into its execution graph and print what
    // would be shared — per-study cell counts, unique cells, the dedup
    // ratio — without evaluating a single cost cell.
    std::vector<explore::StudyFailure> parse_failures;
    std::vector<std::size_t> kept;
    const std::vector<explore::StudySpec> specs =
        explore::load_studies_collecting(studies_path, parse_failures, &kept);
    const core::ChipletActuary actuary;
    const explore::StudyPlan plan = explore::plan_studies(actuary, specs);

    std::vector<std::vector<std::string>> rows;
    for (const explore::StudyPlanEntry& entry : plan.studies) {
        std::string note;
        if (entry.duplicate_spec) {
            note = "duplicate of '" + plan.studies[entry.duplicate_of].name +
                   "'";
        } else if (!entry.enumerable) {
            note = "opaque";
        } else if (entry.cell_refs > entry.new_cells) {
            note = std::to_string(entry.cell_refs - entry.new_cells) +
                   " cells shared";
        }
        rows.push_back({entry.name, explore::to_string(entry.kind),
                        std::to_string(entry.cell_refs),
                        std::to_string(entry.new_cells), std::move(note)});
    }
    std::cout << report::TextTable::from_columns(
                     {"study", "kind", "cells", "new", "note"}, rows)
                     .render();
    const explore::StudyGraphStats& stats = plan.stats;
    std::cout << "plan: " << stats.studies << " studies, " << stats.tech_groups
              << " tech groups, " << stats.spec_dedups
              << " identical-spec dedups\n"
              << "cells: " << stats.cell_refs << " refs -> "
              << stats.unique_cells << " unique (" << stats.deduped_cells
              << " deduped, " << format_pct(stats.dedup_ratio())
              << " dedup ratio)\n";
    report_failures(parse_failures);
    return failure_exit_code(parse_failures);
}

int cmd_serve(unsigned short port, std::size_t cache_mb,
              const std::string& cache_dir,
              const std::string& dispatch_workers) {
    const core::ChipletActuary actuary;
    serve::ServerConfig config;
    config.port = port;
    config.cache_bytes = cache_mb << 20;
    config.cache_dir = cache_dir;  // un-creatable directories throw here
    config.dispatch = dispatch_workers;  // bad lists throw ParseError here
    serve::StudyServer server(actuary, config);
    server.start();
    // The bound port (the ephemeral one under --port 0) goes to stdout
    // first and flushed, so wrappers can scrape it before connecting.
    std::cout << "actuaryd: serving on 127.0.0.1:" << server.port()
              << " (cache " << cache_mb << " MB, threads "
              << util::ThreadPool::global().size() << ", "
              << core::model_version_string() << ")\n";
    if (!cache_dir.empty()) {
        const serve::MetricsSnapshot m = server.metrics();
        std::cout << "actuaryd: persistent cache at " << cache_dir << " ("
                  << m.disk.loaded << " loaded, " << m.disk.stale
                  << " stale, " << m.disk.corrupt << " corrupt)\n";
    }
    if (!dispatch_workers.empty()) {
        std::cout << "actuaryd: dispatching design_space studies to "
                  << dispatch_workers << "\n";
    }
    std::cout << "actuaryd: send {\"op\":\"shutdown\"} to stop\n" << std::flush;
    server.wait();
    server.stop();
    const serve::StudyServer::Stats stats = server.stats();
    const explore::StudyCache::Stats cache = server.cache().stats();
    std::cout << "actuaryd: stopped after " << stats.requests
              << " requests on " << stats.connections << " connections ("
              << cache.hits << " cache hits, " << cache.misses
              << " misses)\n";
    if (!cache_dir.empty()) {
        const serve::MetricsSnapshot m = server.metrics();
        std::cout << "actuaryd: persisted " << m.disk.writes
                  << " cache entries (" << m.disk.write_failures
                  << " write failures)\n";
    }
    return kExitOk;
}

int cmd_client(const std::string& studies_path, const std::string& host,
               unsigned short port, const std::string& out_path) {
    // Send the document as-is (validated locally as JSON): the server's
    // loader is the source of truth for per-study parse failures.  No
    // read timeout — a heavy cold batch may legitimately take minutes,
    // and a wedged server is Ctrl-C territory anyway — but the TCP
    // handshake is bounded so a black-holed --host fails in seconds.
    const JsonValue doc = JsonValue::load_file(studies_path);
    JsonValue response;
    try {
        serve::ClientConfig client_config;
        client_config.connect_timeout_ms = 5000;
        serve::StudyClient client(host, port, client_config);
        response = client.call(doc.dump());
    } catch (const serve::ClientError& e) {
        // Transport-level failure, typed: a bad --host is a usage
        // mistake; refused/timed-out/broken connections are the
        // "unexpected failure" exit of the PR-wide scheme.
        std::cerr << "client error [" << serve::to_string(e.code())
                  << "]: " << e.what() << "\n";
        return e.code() == serve::ClientErrorCode::bad_address ? kExitUsage
                                                               : kExitFailure;
    }

    const std::string unknown = "?";
    if (response.is_object() && response.contains("error")) {
        const JsonValue& error = response.at("error");
        const std::string code = error.get_or("code", unknown);
        std::cerr << "server error [" << code << "]: "
                  << error.get_or("message", std::string()) << "\n";
        if (code == "parse") return kExitParseError;
        if (code == "model") return kExitModelError;
        return kExitFailure;
    }

    std::vector<explore::StudyFailure> failures;
    for (const JsonValue& result : response.at("results").as_array()) {
        const bool cached =
            result.at("meta").get_or("from_cache", false);
        std::cout << result.get_or("name", unknown) << " ("
                  << result.get_or("kind", unknown) << "): "
                  << result.at("table").at("rows").as_array().size()
                  << " rows" << (cached ? " [cached]" : "") << "\n";
    }
    for (const JsonValue& f : response.at("failures").as_array()) {
        failures.push_back(explore::StudyFailure{
            static_cast<std::size_t>(f.get_or("index", 0.0)),
            f.get_or("name", unknown), f.get_or("stage", unknown),
            f.get_or("message", std::string())});
    }
    report_failures(failures);
    const JsonValue& meta = response.at("meta");
    std::cout << "served in " << format_fixed(meta.get_or("wall_ms", 0.0), 1)
              << " ms, " << meta.get_or("served_from_cache", 0.0)
              << " result(s) from cache\n";
    if (!out_path.empty()) {
        // Same document shape as `study --out`, so the two are directly
        // comparable with `diff` (failures/meta stay on the terminal).
        JsonValue out_doc = JsonValue::object();
        out_doc.set("results", response.at("results"));
        out_doc.save_file(out_path);
        std::cout << "wrote " << out_path << "\n";
    }
    return failure_exit_code(failures);
}

int cmd_evaluate(const std::string& family_path, const std::string& tech_path) {
    const core::ChipletActuary actuary(
        tech_path.empty() ? tech::TechLibrary::builtin()
                          : tech::load_tech_library(tech_path));
    const design::SystemFamily family = design::load_family(family_path);
    const core::FamilyCost cost = actuary.evaluate(family);

    report::TextTable table;
    table.add_column("system");
    table.add_column("dies", report::Align::right);
    table.add_column("RE/unit", report::Align::right);
    table.add_column("NRE/unit", report::Align::right);
    table.add_column("total/unit", report::Align::right);
    table.add_column("RE share", report::Align::right);
    for (std::size_t i = 0; i < cost.systems.size(); ++i) {
        const core::SystemCost& s = cost.systems[i];
        table.add_row({s.system_name,
                       std::to_string(family.systems()[i].die_count()),
                       format_money(s.re.total()), format_money(s.nre.total()),
                       format_money(s.total_per_unit()),
                       format_pct(s.re_share())});
    }
    std::cout << table.render() << "\n"
              << "family NRE: modules " << format_money(cost.nre_modules_total)
              << ", chips " << format_money(cost.nre_chips_total)
              << ", packages " << format_money(cost.nre_packages_total)
              << ", D2D " << format_money(cost.nre_d2d_total) << "\n";
    return kExitOk;
}

int cmd_explain(const std::string& family_path, const std::string& tech_path) {
    const core::ChipletActuary actuary(
        tech_path.empty() ? tech::TechLibrary::builtin()
                          : tech::load_tech_library(tech_path));
    const design::SystemFamily family = design::load_family(family_path);
    const core::FamilyCost cost = actuary.explain(family);

    for (const core::SystemCost& s : cost.systems) {
        std::cout << s.system_name << " — itemised cost per unit ("
                  << format_quantity(s.quantity) << " units)\n"
                  << report::ledger_table(s.ledger).render() << "\n";
    }
    std::cout << "every term is tagged with its paper equation (docs/model.md);"
                 " fold totals are bit-identical to `evaluate`\n";
    return kExitOk;
}

int cmd_recommend(const std::string& node, double area, double quantity) {
    const core::ChipletActuary actuary;
    explore::StudySpec spec;
    spec.name = "recommend";
    explore::DecisionQuery query;
    query.node = node;
    query.module_area_mm2 = area;
    query.quantity = quantity;
    spec.config = query;
    const explore::StudyResult result = explore::run_study(actuary, spec);
    const auto& rec = std::get<explore::Recommendation>(result.payload);
    std::cout << report::study_table(result).render() << "best: "
              << rec.best().packaging << " (" << rec.best().chiplets
              << " chiplets)\n";
    return kExitOk;
}

int cmd_breakeven(const std::string& node, double area, unsigned chiplets,
                  const std::string& packaging) {
    const core::ChipletActuary actuary;
    explore::BreakevenQuery query;
    query.node = node;
    query.module_area_mm2 = area;
    query.chiplets = chiplets;
    query.packaging = packaging;
    const explore::Breakeven result = explore::breakeven_search(actuary, query);
    if (!result.found) {
        std::cout << "no break-even in [10k, 1B] units — the "
                  << (chiplets > 1 ? "multi-chip" : "SoC")
                  << " option never catches up\n";
    } else {
        std::cout << packaging << " x" << chiplets << " matches the SoC at "
                  << format_quantity(result.value) << " units ("
                  << format_money(result.soc_cost) << "/unit)\n";
    }
    return kExitOk;
}

int cmd_template(const std::string& path) {
    const design::Chip compute = design::ChipBuilder("compute", "5nm")
                                     .module("cores", 300.0)
                                     .d2d(0.10)
                                     .build();
    const design::Chip io = design::ChipBuilder("io", "12nm")
                                .module("phy", 150.0, "12nm", false)
                                .d2d(0.08)
                                .build();
    design::SystemFamily family;
    family.add(design::SystemBuilder("product_a", "MCM")
                   .chips(compute, 2).chip(io).quantity(1e6).build());
    family.add(design::SystemBuilder("product_b", "MCM")
                   .chip(compute).chip(io).quantity(5e5).build());
    design::save_family(family, path);
    std::cout << "wrote example family to " << path << "\n";
    return kExitOk;
}

int cmd_techdump(const std::string& path) {
    tech::save_tech_library(tech::TechLibrary::builtin(), path);
    std::cout << "wrote built-in technology catalogue to " << path << "\n";
    return kExitOk;
}

int cmd_diff(const std::string& a_path, const std::string& b_path,
             double tolerance) {
    JsonDiffOptions options;
    options.tolerance = tolerance;
    options.ignore_keys = {"meta"};  // run metadata varies per machine
    const std::string diff = json_diff(JsonValue::load_file(a_path),
                                       JsonValue::load_file(b_path), options);
    if (diff.empty()) {
        std::cout << "match (tolerance " << tolerance << ", 'meta' ignored)\n";
        return kExitOk;
    }
    std::cerr << "difference: " << diff << "\n";
    return kExitFailure;
}

/// Pulls a bare "--flag" out of args; false when absent.
bool take_flag(std::vector<std::string>& args, const std::string& flag) {
    const auto it = std::find(args.begin(), args.end(), flag);
    if (it == args.end()) return false;
    args.erase(it);
    return true;
}

/// Pulls "--flag value" out of args; empty string when absent.
std::string take_option(std::vector<std::string>& args, const std::string& flag,
                        bool& ok) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == flag) {
            std::string value = args[i + 1];
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
            return value;
        }
    }
    if (!args.empty() && args.back() == flag) ok = false;  // flag without value
    return "";
}

int dispatch(std::vector<std::string> args) {
    bool ok = true;

    // --version: the model-version stamp persisted cache entries carry
    // (core/version.h) — schema number + fingerprint of the equation
    // constants, ledger schema, and built-in tech catalogue.
    if (take_flag(args, "--version")) {
        std::cout << "actuary_cli " << core::model_version_string() << "\n";
        return kExitOk;
    }

    // Global --threads: explicit pool size, overriding CHIPLET_THREADS.
    const std::string threads = take_option(args, "--threads", ok);
    if (!ok) return usage();
    if (!threads.empty()) {
        char* end = nullptr;
        errno = 0;
        const long long n = std::strtoll(threads.c_str(), &end, 10);
        if (errno != 0 || end != threads.c_str() + threads.size() || n < 0 ||
            n > std::numeric_limits<unsigned>::max()) {
            return usage();
        }
        util::ThreadPool::set_global_threads(static_cast<unsigned>(n));
    }

    if (args.empty()) return usage();
    const std::string command = args.front();
    args.erase(args.begin());

    if (command == "study") {
        const bool plan = take_flag(args, "--plan");
        const std::string out = take_option(args, "--out", ok);
        const std::string html = take_option(args, "--html", ok);
        if (!ok || args.size() != 1) return usage();
        if (plan) return cmd_study_plan(args[0]);
        return cmd_study(args[0], out, html);
    }
    if (command == "serve" || command == "client") {
        const std::string port_text = take_option(args, "--port", ok);
        unsigned short port = serve::kDefaultPort;
        if (!port_text.empty()) {
            double parsed = 0.0;
            // 0 is legal for serve (bind an ephemeral port, print it);
            // the client side rejects it below since there is nothing
            // to connect to on port 0.
            if (!parse_full_number(port_text, parsed) || parsed < 0 ||
                parsed > 65535 || parsed != static_cast<unsigned>(parsed)) {
                return usage();
            }
            port = static_cast<unsigned short>(parsed);
        }
        if (command == "serve") {
            const std::string cache_text = take_option(args, "--cache-mb", ok);
            const std::string cache_dir = take_option(args, "--cache-dir", ok);
            const std::string dispatch_workers =
                take_option(args, "--dispatch", ok);
            if (!ok || !args.empty()) return usage();
            double cache_mb = 64.0;
            // Integral and bounded (1 MB .. 1 TB): the value is shifted
            // into bytes, so an unchecked huge input would wrap.
            if (!cache_text.empty() &&
                (!parse_full_number(cache_text, cache_mb) || cache_mb < 1 ||
                 cache_mb > 1048576.0 ||
                 cache_mb != static_cast<double>(
                                 static_cast<std::size_t>(cache_mb)))) {
                return usage();
            }
            return cmd_serve(port, static_cast<std::size_t>(cache_mb),
                             cache_dir, dispatch_workers);
        }
        if (port == 0) return usage();  // client needs a real port
        const std::string host = take_option(args, "--host", ok);
        const std::string out = take_option(args, "--out", ok);
        if (!ok || args.size() != 1) return usage();
        return cmd_client(args[0], host.empty() ? "127.0.0.1" : host, port,
                          out);
    }
    if (command == "evaluate" && (args.size() == 1 || args.size() == 2)) {
        return cmd_evaluate(args[0], args.size() > 1 ? args[1] : "");
    }
    if (command == "explain" && (args.size() == 1 || args.size() == 2)) {
        return cmd_explain(args[0], args.size() > 1 ? args[1] : "");
    }
    if (command == "recommend" && args.size() == 3) {
        return cmd_recommend(args[0], std::atof(args[1].c_str()),
                             std::atof(args[2].c_str()));
    }
    if (command == "breakeven" && args.size() == 4) {
        return cmd_breakeven(args[0], std::atof(args[1].c_str()),
                             static_cast<unsigned>(std::atoi(args[2].c_str())),
                             args[3]);
    }
    if (command == "template" && args.size() == 1) return cmd_template(args[0]);
    if (command == "techdump" && args.size() == 1) return cmd_techdump(args[0]);
    if (command == "diff") {
        const std::string tol = take_option(args, "--tol", ok);
        if (!ok || args.size() != 2) return usage();
        double tolerance = 1e-6;
        if (!tol.empty() && (!parse_full_number(tol, tolerance) || tolerance < 0)) {
            return usage();  // a typo must not silently mean exact compare
        }
        return cmd_diff(args[0], args[1], tolerance);
    }
    return usage();
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return dispatch(std::vector<std::string>(argv + 1, argv + argc));
    } catch (const chiplet::ParseError& e) {
        std::cerr << "parse error: " << e.what() << "\n";
        return kExitParseError;
    } catch (const chiplet::ParameterError& e) {
        std::cerr << "model error: " << e.what() << "\n";
        return kExitModelError;
    } catch (const chiplet::LookupError& e) {
        std::cerr << "model error: " << e.what() << "\n";
        return kExitModelError;
    } catch (const chiplet::Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return kExitFailure;
    } catch (const std::exception& e) {
        // e.g. std::system_error from an oversized --threads request, or
        // bad_alloc on huge inputs — fail with an exit code, not a core.
        std::cerr << "error: " << e.what() << "\n";
        return kExitFailure;
    }
}

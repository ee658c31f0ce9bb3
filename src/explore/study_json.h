// JSON round-trip for the Study API, so every exploration study is
// reachable from one declarative file format (actuary_cli study).
//
// Study document:
//   {
//     "studies": [
//       { "name": "decide_400mm2",
//         "kind": "recommend",                     // any StudyKind string
//         "tech": { "nodes": [ ... ] },            // optional overrides
//         "config": { "node": "7nm", ... } }       // per-kind; every field
//     ]                                            // defaults except
//   }                                              // pareto's "points"
//
// Result document ({"results": [...]}): per study an envelope holding
// "kind", "meta" (wall time, threads, cache counters — measurement, not
// model output), "table" (the uniform columns + rows view) and "result"
// (the typed payload).  Specs round-trip losslessly; results serialise
// one-way (Monte-Carlo sample vectors are summarised, not embedded).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "explore/study.h"
#include "util/json.h"

namespace chiplet::explore {

[[nodiscard]] JsonValue to_json(const ScenarioSpec& scenario);
[[nodiscard]] ScenarioSpec scenario_from_json(
    const JsonValue& v, const std::string& context = "scenario");

/// Cost-ledger round-trip (core/cost_ledger.h).  The struct <-> JsonValue
/// mapping is lossless (doubles are stored as doubles), and so is a text
/// cycle: JSON numbers print as shortest round-trip text.
[[nodiscard]] JsonValue to_json(const core::CostTerm& term);
[[nodiscard]] core::CostTerm cost_term_from_json(
    const JsonValue& v, const std::string& context = "term");
[[nodiscard]] JsonValue to_json(const core::CostLedger& ledger);
[[nodiscard]] core::CostLedger ledger_from_json(
    const JsonValue& v, const std::string& context = "ledger");

/// Serialises one spec with every config field materialised, so
/// to_json(study_spec_from_json(v)) is canonical and stable.
[[nodiscard]] JsonValue to_json(const StudySpec& spec);
[[nodiscard]] StudySpec study_spec_from_json(const JsonValue& v,
                                             const std::string& context = "study");

/// Result envelope (one-way).
[[nodiscard]] JsonValue to_json(const StudyResult& result);

/// to_json(result).dump() cut around the value of "meta": `head` is
/// `{"name":...,"kind":...,"meta":` and `tail` is
/// `,"table":...,"result":...}` (ledgers, when present, before the
/// closing brace).  The served document and the study cache's hit
/// document differ only in meta.from_cache, so a result is serialised
/// once and each use splices its own small meta object in.
struct ResultText {
    std::string head;
    std::string tail;
};
[[nodiscard]] ResultText result_text(const StudyResult& result);

/// head + the dumped meta object of `run` + tail: byte-identical to
/// to_json(result).dump() for the result `text` came from, with its run
/// info replaced by `run`.
[[nodiscard]] std::string result_document(const ResultText& text,
                                          const StudyRunInfo& run);

/// Whole-document helpers.
[[nodiscard]] JsonValue studies_to_json(std::span<const StudySpec> specs);
[[nodiscard]] std::vector<StudySpec> studies_from_json(
    const JsonValue& v, const std::string& context = "studies");
[[nodiscard]] std::vector<StudySpec> load_studies(const std::string& path);

/// Like studies_from_json, but a malformed study no longer aborts the
/// whole document: every bad entry is appended to `failures` (stage
/// "parse", index = position in the "studies" array, name when the
/// entry carries one) and every good entry is returned.  When
/// `kept_indices` is non-null it receives the document index of each
/// returned spec, so run-stage failures can be reported against the
/// original document.  Document-level problems (not an object, missing
/// "studies") still throw.
[[nodiscard]] std::vector<StudySpec> studies_from_json_collecting(
    const JsonValue& v, const std::string& context,
    std::vector<StudyFailure>& failures,
    std::vector<std::size_t>* kept_indices = nullptr);
[[nodiscard]] std::vector<StudySpec> load_studies_collecting(
    const std::string& path, std::vector<StudyFailure>& failures,
    std::vector<std::size_t>* kept_indices = nullptr);
void save_studies(std::span<const StudySpec> specs, const std::string& path);

[[nodiscard]] JsonValue results_to_json(std::span<const StudyResult> results);
void save_results(std::span<const StudyResult> results, const std::string& path);

}  // namespace chiplet::explore

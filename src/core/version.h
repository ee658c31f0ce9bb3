// The model-version stamp: a compiled-in identity of the cost model an
// actuary evaluates with, used to invalidate persisted caches.  A
// persisted StudyResult is only as durable as the equations and schema
// that produced it — change a yield constant, a ledger category, or the
// serialised result layout and every on-disk entry is silently wrong.
// The fingerprint folds all of that into one 64-bit FNV-1a value:
//
//  - kModelSchemaVersion, bumped by hand whenever the cost equations,
//    the StudyResult surface, or the cache codec change shape;
//  - the ledger schema (every CostCategory / CostScope name, in order);
//  - the actuary's Assumptions (flow, yield model, stitching constants,
//    reticle geometry — bit-cast doubles);
//  - the actuary's entire tech library, via its canonical JSON document,
//    so a calibrated or overridden library stamps differently from the
//    built-in catalogue.
//
// Two processes agree on the fingerprint exactly when they would price
// every system identically, which is the contract the warm-start cache
// needs: a stale entry is rejected by a cheap integer compare, never by
// noticing wrong numbers later.
#pragma once

#include <cstdint>
#include <string>

namespace chiplet::core {

class ChipletActuary;

/// Bump when the cost equations, result schema, or cache codec change
/// in any way that invalidates persisted results.
/// 2: JSON numbers print as shortest round-trip text instead of 12
/// significant digits, so canonical spec strings (the cache keys) changed;
/// the design-space codec also lost its index-window flag.
inline constexpr int kModelSchemaVersion = 2;

/// Fingerprint of the model `actuary` evaluates with (schema + ledger
/// vocabulary + assumptions + full tech library).  Deterministic across
/// platforms and process runs.
[[nodiscard]] std::uint64_t model_fingerprint(const ChipletActuary& actuary);

/// Fingerprint of a default-constructed actuary (the built-in
/// catalogue); memoised after the first call.
[[nodiscard]] std::uint64_t model_fingerprint();

/// Human-readable stamp, e.g. "model-schema 2, fingerprint
/// 9f86d081884c7d65" — what `actuary_cli --version` and the `metrics`
/// verb print.
[[nodiscard]] std::string model_version_string(std::uint64_t fingerprint);
[[nodiscard]] std::string model_version_string();

}  // namespace chiplet::core
